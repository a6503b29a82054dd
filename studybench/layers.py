"""Per-layer timing taken from outside the program.

The traced pass measures each layer at its public surface, from the
benchmark's own code:

* :class:`KernelProbe` shadows the kernel operations of the active
  :mod:`repro.kernels` backend object with timing wrappers (instance
  attributes, removed again afterwards);
* :class:`TimedCache` is a :class:`~repro.runtime.ResultCache` whose
  ``get``/``put`` are timed and counted;
* a :class:`repro.obs.Observation` handed to ``run_study`` supplies the
  program's existing task spans, ``recode`` spans and partition counters.

:func:`layer_metrics` folds all of these into the flat, layer-prefixed
metric names listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro import kernels
from repro.obs.trace import TASK_CATEGORY
from repro.runtime import (
    ALGORITHM_FACTORIES,
    MISS,
    SCALAR_MEASURES,
    VECTOR_PROPERTIES,
    ResultCache,
)

#: Kernel operation -> index of the argument whose length is its row count.
KERNEL_OPS: dict[str, int] = {
    "pack": 2,
    "densify": 0,
    "group": 0,
    "gather": 1,
    "bincount": 0,
    "fold_add": 1,
    "fold_min": 1,
    "grouped_value_counts": 2,
}

#: Bytes a kernel call is credited with per input row (int64 codes).  The
#: figure is computed from row counts, not measured.
BYTES_PER_ROW = 8

PARTITION_COUNTERS = {
    "fresh": "workspace.partition.fresh",
    "derived": "workspace.partition.derived",
    "hits": "workspace.partition.hit",
    "evictions": "workspace.partition.evict",
}


class KernelProbe:
    """Timing wrappers installed on the active kernel backend object."""

    def __init__(self) -> None:
        self.backend = kernels.active()
        self.calls = dict.fromkeys(KERNEL_OPS, 0)
        self.rows = dict.fromkeys(KERNEL_OPS, 0)
        self.seconds = dict.fromkeys(KERNEL_OPS, 0.0)

    def _wrap(self, op: str, method: Callable[..., Any], size_arg: int) -> Callable[..., Any]:
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return method(*args, **kwargs)
            finally:
                self.seconds[op] += clock() - start
                self.calls[op] += 1
                self.rows[op] += len(args[size_arg])

        return timed

    def __enter__(self) -> "KernelProbe":
        for op, size_arg in KERNEL_OPS.items():
            setattr(self.backend, op, self._wrap(op, getattr(self.backend, op), size_arg))
        return self

    def __exit__(self, *exc: Any) -> None:
        for op in KERNEL_OPS:
            vars(self.backend).pop(op, None)


class TimedCache(ResultCache):
    """A result store whose reads and writes are timed and counted."""

    def __init__(self, root: Any) -> None:
        super().__init__(root)
        self.timings = {"get.calls": 0, "get_s": 0.0, "put.calls": 0, "put_s": 0.0,
                        "hits": 0, "misses": 0}

    def get(self, key: Any) -> Any:
        start = time.perf_counter()
        value = super().get(key)
        self.timings["get_s"] += time.perf_counter() - start
        self.timings["get.calls"] += 1
        self.timings["hits" if value is not MISS else "misses"] += 1
        return value

    def put(self, key: Any, value: Any) -> Any:
        start = time.perf_counter()
        path = super().put(key, value)
        self.timings["put_s"] += time.perf_counter() - start
        self.timings["put.calls"] += 1
        return path


def cell_algorithms(spec: Any) -> dict[str, str]:
    """Task-id -> algorithm name for the study's anonymize tasks."""
    return {
        f"anonymize:{cell.with_seed(spec.seed).label}": cell.algorithm
        for cell in spec.algorithms
    }


def layer_metrics(
    spec: Any,
    result: Any,
    observation: Any,
    probe: KernelProbe,
    cache: TimedCache,
    traced_wall: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced pass (set-up layers excluded)."""
    metrics: dict[str, float] = {}
    for op in KERNEL_OPS:
        metrics[f"kernels.{op}.calls"] = probe.calls[op]
        metrics[f"kernels.{op}_s"] = probe.seconds[op]
        metrics[f"kernels.{op}.rows"] = probe.rows[op]
        metrics[f"kernels.{op}.bytes_computed"] = BYTES_PER_ROW * probe.rows[op]
    metrics["kernels.numpy_backend"] = 1 if kernels.backend_name() == "numpy" else 0

    counters = observation.metrics.snapshot()["counters"]
    for name, counter in PARTITION_COUNTERS.items():
        metrics[f"anonymize.partitions.{name}"] = counters.get(counter, 0)
    metrics["anonymize.recode.calls"] = counters.get("engine.recode.calls", 0)
    spans = observation.trace.spans
    metrics["anonymize.recode_s"] = sum(
        span.duration for span in spans
        if span.category == "engine" and span.name == "recode"
    )

    algorithm_of = cell_algorithms(spec)
    per_algorithm = dict.fromkeys(ALGORITHM_FACTORIES, 0.0)
    per_measure = dict.fromkeys((*VECTOR_PROPERTIES, *SCALAR_MEASURES), 0.0)
    compare_s = 0.0
    task_s = 0.0
    for span in spans:
        if span.category != TASK_CATEGORY:
            continue
        task_s += span.duration
        op = span.args.get("op")
        if op == "anonymize":
            per_algorithm[algorithm_of[span.name]] += span.duration
        elif op == "measure":
            per_measure[span.name.split(":")[1]] += span.duration
        elif op == "compare":
            compare_s += span.duration
    for algorithm, seconds in per_algorithm.items():
        metrics[f"anonymize.{algorithm}_s"] = seconds
    for measure, seconds in per_measure.items():
        metrics[f"measure.{measure}_s"] = seconds
    metrics["compare_s"] = compare_s
    metrics["compare.pairs"] = sum(
        1
        for comparison in result.comparisons.values()
        for first, second in comparison["relations"]
        if first != second
    )

    timings = cache.timings
    for name in ("put.calls", "put_s", "get.calls", "get_s", "hits", "misses"):
        metrics[f"cache.{name}"] = timings[name]
    metrics["cache.bytes"] = cache.size_bytes()

    report = result.report
    metrics["runtime.tasks.executed"] = report.executed
    metrics["runtime.tasks.cached"] = report.cache_hits
    metrics["runtime.overhead_s"] = (
        traced_wall - task_s - timings["get_s"] - timings["put_s"]
    )
    return metrics
