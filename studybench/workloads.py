"""The benchmark's workloads: which study each one runs, at which size.

A workload is a :class:`~repro.runtime.StudySpec` built from the run's
``--seed``: the seed picks the synthetic Adult table (``adult`` provider,
``seed=<seed>``) and the study seed.  Every workload induces all
registered property vectors, evaluates all registered scalar measures and
runs the pairwise ▶-compare, exactly as ``repro study --measures ...
--properties ...`` would.
"""

from __future__ import annotations

import dataclasses

from repro.runtime import (
    SCALAR_MEASURES,
    VECTOR_PROPERTIES,
    AlgorithmSpec,
    DatasetSpec,
    StudySpec,
)

#: Full-domain recoders walking the 7-QI Adult lattice (2,592 nodes).
LATTICE_ALGORITHMS = ("datafly", "samarati", "incognito", "optimal", "muargus")
LATTICE_KS = (2, 10)

#: Algorithms that group rows in their own code (local recoding, cuts,
#: clustering, the GA).
NON_LATTICE_ALGORITHMS = ("mondrian", "topdown", "bottomup", "clustering", "genetic")
NON_LATTICE_K = 5

#: Cheap single-node recodings for the measure-bound workloads.
MEASURES_DATAFLY_KS = (2, 5, 10)
MEASURES_RANDOM_K = 5
#: Recoder seeds are workload constants, like the k values: the run's seed
#: varies the table, not which lattice nodes the recoder draws.
MEASURES_RANDOM_SEEDS = (1, 2, 3)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    #: Adult rows at full size and at the smoke size the tests use.
    rows: int
    smoke_rows: int
    #: Resume workloads time passes against the cache their set-up filled.
    warm: bool = False

    def cells(self) -> tuple[AlgorithmSpec, ...]:
        """The study's algorithm cells."""
        if self.name == "lattice":
            return tuple(
                AlgorithmSpec.of(algorithm, k=k)
                for algorithm in LATTICE_ALGORITHMS
                for k in LATTICE_KS
            )
        if self.name == "non-lattice":
            return tuple(
                AlgorithmSpec.of(algorithm, k=NON_LATTICE_K)
                for algorithm in NON_LATTICE_ALGORITHMS
            )
        datafly = tuple(AlgorithmSpec.of("datafly", k=k) for k in MEASURES_DATAFLY_KS)
        random = tuple(
            AlgorithmSpec.of("random-recoding", k=MEASURES_RANDOM_K, seed=recoder_seed)
            for recoder_seed in MEASURES_RANDOM_SEEDS
        )
        return datafly + random

    def spec(self, seed: int, smoke: bool = False) -> StudySpec:
        """The study this workload runs for ``seed``."""
        rows = self.smoke_rows if smoke else self.rows
        return StudySpec(
            dataset=DatasetSpec.of("adult", rows=rows, seed=seed),
            algorithms=self.cells(),
            scalar_measures=tuple(SCALAR_MEASURES),
            vector_properties=tuple(VECTOR_PROPERTIES),
            compare=True,
            seed=seed,
        )


WORKLOADS: dict[str, Workload] = {
    "lattice": Workload("lattice", rows=2000, smoke_rows=300),
    "non-lattice": Workload("non-lattice", rows=300, smoke_rows=60),
    "measures": Workload("measures", rows=30000, smoke_rows=2000),
    "resume": Workload("resume", rows=60000, smoke_rows=2000, warm=True),
}
