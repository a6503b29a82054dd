"""Reference figures: per-algorithm anonymize time, LM and DM per workload.

Usage, from the repository root::

    python3 studybench/reference.py --seed 1

Runs each workload's study once, traced, with a fresh result store, and
prints one Markdown table per workload: every cell's anonymize time (its
executor task span), the release's LM and DM, and the wall time of the
whole pass.  The figures in ``studybench/README.md`` come from this
command.
"""

from __future__ import annotations

import argparse
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402
from repro import kernels  # noqa: E402
from repro.obs import Observation  # noqa: E402
from repro.obs.trace import TASK_CATEGORY  # noqa: E402
from repro.runtime import ResultCache, run_study  # noqa: E402


def reference_table(name: str, seed: int, work: Path) -> list[str]:
    """Markdown lines for one workload's reference pass."""
    workload = workloads.WORKLOADS[name]
    spec = workload.spec(seed)
    spec.dataset.materialize()
    observation = Observation()
    start = time.perf_counter()
    result = run_study(spec, cache=ResultCache(work / name), transport="inline", obs=observation)
    wall = time.perf_counter() - start
    anonymize_s = {
        span.name.removeprefix("anonymize:"): span.duration
        for span in observation.trace.spans
        if span.category == TASK_CATEGORY and span.args.get("op") == "anonymize"
    }
    lines = [
        f"**{name}** — {workload.rows} rows, seed {seed}, pass wall {wall:.2f} s",
        "",
        "| cell | anonymize s | LM | DM |",
        "|---|---|---|---|",
    ]
    for label in result.labels:
        scalars = result.scalars[label]
        lines.append(
            f"| {label} | {anonymize_s[label]:.3f} | {scalars['lm']:.4f} | {scalars['dm']:.0f} |"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Print the reference figures.")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    (ROOT / ".studybench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".studybench"))
    try:
        numpy = sys.modules.get("numpy")
        print(f"CPython {platform.python_version()}, "
              f"numpy {numpy.__version__ if numpy else 'absent'}, "
              f"kernel backend {kernels.backend_name()}, {platform.machine()}")
        for name, workload in workloads.WORKLOADS.items():
            if workload.warm:
                continue
            print()
            print("\n".join(reference_table(name, args.seed, work)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
