"""Steadiness check: run one workload repeatedly and judge its spread.

Usage, from the repository root::

    python3 studybench/steady.py --workload lattice --runs 10 --seed-bases 100 900

Each run is its own ``run.py`` process with its own seed (``base + i``).
For every end-to-end metric and every seed base the tool prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread — the interquartile distance as a share of the median — against the
metric's bound in ``BENCHMARK.json``:

* ``steady``   — spread below a third of the bound;
* ``in-bound`` — spread within the bound, but not below a third of it;
* ``too-wide`` — spread beyond the bound.

With two or more seed bases it also compares each later set's medians to
the first set's (a metric whose median worsens by more than its bound
fails) and checks that the share of failed tasks is identical.  Exit code
0 when every verdict is ``steady`` or ``in-bound`` and the sets agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(median, first quartile, third quartile, IQR / median)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def verdict(share: float, bound: float) -> str:
    """``steady``, ``in-bound`` or ``too-wide`` for a spread and its bound."""
    if share < bound / 3:
        return "steady"
    if share <= bound:
        return "in-bound"
    return "too-wide"


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One ``run.py`` process; returns its parsed result line."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "studybench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"run failed (seed {seed}, exit {completed.returncode}):\n{completed.stderr}"
        )
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Judge a workload's run-to-run spread.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-bases", type=int, nargs="+", default=[100])
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    metrics = declared["end_to_end"]
    ok = True
    sets = []
    for base in args.seed_bases:
        results = []
        for i in range(args.runs):
            results.append(run_once(args.workload, base + i, seconds))
            print(f"  seed {base + i}: " + "  ".join(
                f"{m['name']}={results[-1]['metrics'][m['name']]['value']:.4f}"
                for m in metrics
            ), flush=True)
        failed_share = [r["failed"] / r["attempted"] for r in results]
        correct = all(r["correct"] for r in results)
        print(f"{args.workload} seeds {base}..{base + args.runs - 1}: "
              f"correct={correct} failed share={sorted(set(failed_share))}")
        ok &= correct and len(set(failed_share)) == 1
        medians = {}
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median, q1, q3, share = spread(values)
            medians[metric["name"]] = median
            judged = verdict(share, metric["bound"])
            ok &= judged != "too-wide"
            print(f"  {metric['name']:<12} median {median:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {share:6.3f}  bound {metric['bound']:.2f}  {judged}")
        sets.append((base, medians, failed_share[0]))
    first_base, first, first_failed = sets[0]
    for base, medians, failed in sets[1:]:
        if failed != first_failed:
            print(f"  failed share differs: {first_failed} (base {first_base}) vs {failed} (base {base})")
            ok = False
        for metric in metrics:
            change = worse_by(first[metric["name"]], medians[metric["name"]], metric["better"])
            fine = change <= metric["bound"]
            ok &= fine
            print(f"  base {base} vs {first_base}: {metric['name']:<12} worse by "
                  f"{change:+.3f} (bound {metric['bound']:.2f}) {'ok' if fine else 'REGRESSED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
