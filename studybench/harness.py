"""Set-up, timed passes, checks and the traced pass of one workload run.

See ``run.py`` for the command line and the printed result.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import checks
import layers
import workloads
from repro import kernels
from repro.hierarchy.codes import level_table
from repro.obs import Observation
from repro.runtime import (
    DATASET_PROVIDERS,
    ExecutionError,
    ResultCache,
    build_study,
    run_study,
)

BENCH_DIR = Path(__file__).resolve().parent

#: Set-up repetitions whose median is reported as ``setup_s``.
SETUP_REPEATS = 3
#: Every run makes at least this many timed passes, however long they take.
MIN_PASSES = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Per-layer metric name -> unit, as declared in ``BENCHMARK.json``."""
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in declared["per_layer"]}


class Tally:
    """Tasks attempted and failed over a run, and the checks' findings."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.recorded: dict[str, int] = {}

    def count(self, result: Any) -> None:
        self.attempted += len(result.report.outcomes)
        self.failed += result.report.failed + result.report.blocked

    def check(self, spec: Any, result: Any, hierarchies: Any, cold: Any = None) -> None:
        """Check one pass, collecting failures.  A warm pass is checked
        against its cold pass, which itself passed every study check."""
        try:
            if cold is None:
                self.recorded.update(checks.check_study(spec, result, hierarchies))
            else:
                checks.check_resume(cold, result)
        except checks.CheckError as exc:
            self.errors.append(str(exc))


# -- set-up ------------------------------------------------------------------

def prepare_dataset(dataset: Any, hierarchies: Any) -> dict[str, float]:
    """Intern every column and build every QI level table; returns timings."""
    start = time.perf_counter()
    view = dataset.columns()
    columns = {name: view.column(name) for name in dataset.schema.names}
    interned = time.perf_counter()
    for name in dataset.schema.quasi_identifier_names:
        level_table(columns[name], hierarchies[name])
    return {
        "datasets.intern_s": interned - start,
        "hierarchy.level_tables_s": time.perf_counter() - interned,
    }


def set_up(workload: Any, spec: Any, work: Path, tally: Tally):
    """Generate, intern and tabulate the workload's table SETUP_REPEATS
    times.  The first repetition goes through the study's own dataset
    memo, which the timed passes then read; the others build fresh
    objects.  For a warm workload each repetition also runs the cold pass
    that fills a new result store (its tasks count as attempted); the
    timed passes read the last one.  After its repetition's clock stops,
    the first cold pass gets every study check and each later one must
    equal it.

    Returns ``(median seconds, median layer timings, warm store, first
    cold result)``.
    """
    provider = DATASET_PROVIDERS[spec.dataset.provider]
    params = dict(spec.dataset.params)
    totals, samples = [], []
    warm_dir, first_cold = None, None
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        if repeat == 0:
            dataset, hierarchies = spec.dataset.materialize()
        else:
            dataset, hierarchies = provider(**params)
        sample = {"datasets.generate_s": time.perf_counter() - start}
        sample.update(prepare_dataset(dataset, hierarchies))
        cold = None
        if workload.warm:
            warm_dir = Path(tempfile.mkdtemp(prefix="warm-", dir=work))
            cold = run_study(spec, cache=ResultCache(warm_dir), transport="inline")
            tally.count(cold)
        totals.append(time.perf_counter() - start)
        samples.append(sample)
        if cold is not None:
            tally.check(spec, cold, spec.dataset.materialize()[1], first_cold)
            if first_cold is None:
                first_cold = cold
    medians = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    return statistics.median(totals), medians, warm_dir, first_cold


# -- passes ------------------------------------------------------------------

def run_pass(spec: Any, cache: ResultCache, tally: Tally, hierarchies: Any,
             cold: Any, observation: Any = None) -> tuple[float, Any]:
    """One study pass, checked after the clock stops.

    Returns ``(wall seconds, result)``; the result is ``None`` when a task
    failed, in which case every task of the pass counts as failed.
    """
    start = time.perf_counter()
    try:
        result = run_study(spec, cache=cache, transport="inline", obs=observation)
    except ExecutionError as exc:
        wall = time.perf_counter() - start
        tasks = len(build_study(spec))
        tally.attempted += tasks
        tally.failed += tasks
        print(f"studybench: pass failed: {exc}", file=sys.stderr)
        return wall, None
    wall = time.perf_counter() - start
    tally.count(result)
    tally.check(spec, result, hierarchies, cold)
    return wall, result


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            smoke: bool, work: Path, process_start: float) -> dict[str, Any]:
    """Run one workload and return the result object ``run.py`` prints."""
    workload = workloads.WORKLOADS[workload_name]
    spec = workload.spec(seed, smoke=smoke)
    tally = Tally()

    import_s = time.perf_counter() - process_start
    setup_s, setup_layers, warm_dir, cold = set_up(workload, spec, work, tally)
    _, hierarchies = spec.dataset.materialize()

    def store(prefix: str) -> Path:
        # Stores are kept until the run ends: deleting one would leave the
        # file system's clean-up to overlap the next timed pass.
        return warm_dir or Path(tempfile.mkdtemp(prefix=prefix, dir=work))

    walls = []
    loop_start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - loop_start < seconds:
        # The result is dropped at once, so no pass runs beside the last
        # one's objects.
        walls.append(run_pass(spec, ResultCache(store("pass-")), tally, hierarchies, cold)[0])
    wall_s = statistics.median(walls)

    if not trace:
        units = END_TO_END_UNITS
        metrics = {
            "wall_s": wall_s,
            "setup_s": import_s + setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        units = per_layer_units()
        cache = layers.TimedCache(store("traced-"))
        observation = Observation()
        with layers.KernelProbe() as probe:
            traced_wall, result = run_pass(
                spec, cache, tally, hierarchies, cold, observation=observation
            )
        metrics = dict(setup_layers)
        if result is not None:
            metrics.update(layers.layer_metrics(
                spec, result, observation, probe, cache, traced_wall
            ))
        metrics["obs.trace_overhead_s"] = traced_wall - wall_s

    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0), "unit": unit}
            for name, unit in units.items()
        },
        "errors": tally.errors,
        "recorded": tally.recorded,
        "passes": len(walls),
        "backend": kernels.backend_name(),
    }
