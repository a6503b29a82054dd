"""Run one study-benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 studybench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Each workload runs a real comparison study through
``repro.runtime.run_study`` on the inline transport, with a fresh on-disk
``ResultCache`` per timed pass (``resume``: the warm store its set-up
filled).  Every pass's outputs are checked against independent
computations (``checks.py``).  The last line of standard output is one
JSON object::

    {"correct": true, "attempted": 460, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` one traced pass follows
the timed passes and the metrics are the per-layer ones (``layers.py``).
``attempted``/``failed`` count study tasks over every pass of the run.

Exit codes: 0 success; 1 a check failed (the JSON line still reports
``"correct": false``) or the run crashed (no JSON line); 2 the program
sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch space for the result stores of a run, inside the checkout.
WORK_ROOT = ROOT / ".studybench"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one study-benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True,
                        help="lattice | non-lattice | measures | resume")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run (whole passes, at least two)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run at the small smoke size (used by the tests)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"studybench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"studybench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        outcome = harness.measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, work, PROCESS_START,
        )
    except Exception:  # noqa: BLE001 -- a crash prints no result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"kernel backend: {outcome.pop('backend')}; timed passes: {outcome.pop('passes')}")
    for label, achieved in sorted(outcome.pop("recorded").items()):
        print(f"recorded: {label} achieved k={achieved} (not asserted)")
    for error in outcome.pop("errors"):
        print(f"studybench: check failed: {error}", file=sys.stderr)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
