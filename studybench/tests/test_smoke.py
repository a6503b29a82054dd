"""Every workload runs end to end at the smoke size and prints its metrics."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import steady
import workloads

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "studybench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    result = _result(_run(workload, trace=1))
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert list(metrics) == [entry["name"] for entry in DECLARED["per_layer"]]
    for entry in DECLARED["per_layer"]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    assert metrics["runtime.overhead_s"] >= 0
    assert metrics["compare.pairs"] > 0
    if workload == "lattice":
        for name in ("kernels.pack.calls", "kernels.group_s", "kernels.gather.rows",
                     "anonymize.partitions.fresh", "anonymize.recode.calls",
                     "anonymize.optimal_s"):
            assert metrics[name] > 0, name
    if workload == "resume":
        assert metrics["cache.get_s"] > 0
        assert metrics["cache.put.calls"] == 0
        assert metrics["runtime.tasks.executed"] == 0
    else:
        assert metrics["cache.put.calls"] > 0


def test_untraced_run_prints_the_end_to_end_metrics():
    result = _result(_run("measures", trace=0))
    declared = {entry["name"]: entry["unit"] for entry in DECLARED["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_unknown_workload_is_refused():
    completed = _run("no-such-workload", trace=0)
    assert completed.returncode == 2
    assert completed.stdout.strip() == ""


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "studybench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("lattice", trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert "{" not in completed.stdout


def test_steadiness_verdicts():
    median, q1, q3, share = steady.spread([1.0, 1.1, 0.9, 1.0, 1.2, 0.95, 1.05, 1.0, 0.98, 1.02])
    assert q1 <= median <= q3
    assert share == pytest.approx((q3 - q1) / median)
    assert steady.verdict(0.01, 0.2) == "steady"
    assert steady.verdict(0.1, 0.2) == "in-bound"
    assert steady.verdict(0.3, 0.2) == "too-wide"
    assert steady.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert steady.worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)
