"""Output checks computed apart from the program.

Every check recomputes what it asserts with plain ``dict``/``Counter``
group-bys over the released rows, never by calling the program's own
measures, so a fault in a property extractor, a utility measure or a
comparator shows up as a mismatch instead of being compared with itself.
The only things taken from the program are the data types of released
cells (``Interval``, ``Span``, the suppression token), each hierarchy's
``generalizations`` — the definition of what a cell may cover — and each
algorithm's configured k and suppression limit.

Each ``check_*`` raises :class:`CheckError` naming the release and the
first disagreement it found.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from collections import Counter
from typing import Any, Mapping, Sequence

from repro.hierarchy.base import SUPPRESSED, Interval
from repro.hierarchy.numeric import Span

#: The one algorithm whose releases need not reach k (it suppresses
#: combinations up to a fixed size only); its achieved k is recorded.
K_EXEMPT = frozenset({"muargus"})

#: Algorithms that suppress without a configured budget: the genetic
#: anonymizer suppresses every row left in an undersized class.
UNBOUNDED_SUPPRESSION = frozenset({"genetic"})

LM_TOLERANCE = 1e-9


class CheckError(AssertionError):
    """An output of the study disagrees with its independent computation."""


@dataclasses.dataclass(frozen=True)
class Cell:
    """What the checks need to know about one grid cell."""

    label: str
    algorithm: str
    k: int
    suppression_limit: float


def study_cells(spec: Any) -> list[Cell]:
    """The checked cells of a study spec, keyed by the study's labels."""
    cells = []
    for algorithm_spec in spec.algorithms:
        seeded = algorithm_spec.with_seed(spec.seed)
        limit = getattr(seeded.build(), "suppression_limit", None)
        if limit is None:
            limit = 1.0 if seeded.algorithm in UNBOUNDED_SUPPRESSION else 0.0
        cells.append(
            Cell(seeded.label, seeded.algorithm, dict(seeded.params)["k"], limit)
        )
    return cells


def _group_keys(dataset: Any) -> list[tuple[int, ...]]:
    """Per row, its QI tuple as small integers: equal cells get equal
    codes.  Cells are grouped by identity first, so a release that repeats
    one cell object hashes its value once."""
    coded = []
    for name in dataset.schema.quasi_identifier_names:
        column = dataset.column(name)
        identities = list(map(id, column))
        by_value: dict[Any, int] = {}
        code_of = {
            identity: by_value.setdefault(value, len(by_value))
            for identity, value in dict(zip(identities, column)).items()
        }
        coded.append(map(code_of.__getitem__, identities))
    return list(zip(*coded))


def _covers(cell: Any, original: Any, hierarchy: Any) -> bool:
    if cell == original or cell == SUPPRESSED:
        return True
    if isinstance(cell, Interval):
        return cell.low < original <= cell.high
    if isinstance(cell, Span):
        return cell.low <= original <= cell.high
    generalizations = hierarchy.generalizations(original)
    if isinstance(cell, frozenset):
        return any(value in cell for value in generalizations)
    return cell in generalizations


# -- per-release checks -------------------------------------------------------

def check_k_anonymity(release: Any, cell: Cell, keys: Sequence[tuple] | None = None) -> int:
    """Every class outside suppression has at least k rows.

    Returns the achieved k (smallest class of unsuppressed rows); for the
    :data:`K_EXEMPT` algorithms it is returned without being asserted.
    """
    keys = _group_keys(release.released) if keys is None else keys
    suppressed = release.suppressed
    classes = Counter(key for row, key in enumerate(keys) if row not in suppressed)
    achieved = min(classes.values()) if classes else len(release)
    if cell.algorithm not in K_EXEMPT and achieved < cell.k:
        raise CheckError(
            f"{cell.label}: a class outside suppression has {achieved} row(s), "
            f"k={cell.k}"
        )
    return achieved


def check_release_shape(release: Any, cell: Cell, hierarchies: Mapping[str, Any]) -> None:
    """Rows kept in count and order, cells covering their originals, and
    suppression within the configured limit."""
    original, released = release.original, release.released
    if len(released) != len(original):
        raise CheckError(
            f"{cell.label}: {len(released)} released rows for {len(original)}"
        )
    qi_names = original.schema.quasi_identifier_names
    for name in original.schema.names:
        if name not in qi_names and original.column(name) != released.column(name):
            raise CheckError(f"{cell.label}: rows moved or changed their {name}")
    for name in qi_names:
        before, after = original.column(name), released.column(name)
        identities = list(map(id, after))
        cell_of = dict(zip(identities, after))
        for value, identity in set(zip(before, identities)):
            if not _covers(cell_of[identity], value, hierarchies[name]):
                raise CheckError(
                    f"{cell.label}: released {name} cell {cell_of[identity]!r} "
                    f"does not cover {value!r}"
                )
        if any(after[row] != SUPPRESSED for row in release.suppressed):
            raise CheckError(f"{cell.label}: a suppressed row keeps its {name}")
    budget = math.floor(cell.suppression_limit * len(original) + 1e-9)
    if len(release.suppressed) > budget:
        raise CheckError(
            f"{cell.label}: {len(release.suppressed)} rows suppressed, "
            f"limit {cell.suppression_limit} allows {budget}"
        )


def expected_vectors(release: Any, keys: Sequence[tuple] | None = None) -> dict[str, list[float]]:
    """Class size, breach probability, own-sensitive-value count and the
    discernibility penalty of every row, by group-by over released rows."""
    keys = _group_keys(release.released) if keys is None else keys
    schema = release.released.schema
    values = release.released.column(schema.sensitive_names[0])
    sizes = Counter(keys)
    with_value = Counter(zip(keys, values))
    total = len(keys)
    suppressed = release.suppressed
    return {
        "equivalence-class-size": [float(sizes[key]) for key in keys],
        "breach-probability": [1.0 / sizes[key] for key in keys],
        "sensitive-value-count": [
            float(with_value[pair]) for pair in zip(keys, values)
        ],
        "discernibility-penalty": [
            float(total if row in suppressed else sizes[key])
            for row, key in enumerate(keys)
        ],
    }


def check_property_vectors(
    release: Any, cell: Cell, vectors: Mapping[str, Any],
    keys: Sequence[tuple] | None = None,
) -> dict[str, list[float]]:
    """The recomputable property vectors equal the study's."""
    expected = expected_vectors(release, keys)
    for prop, values in expected.items():
        if prop not in vectors:
            continue
        got = tuple(vectors[prop].values.tolist())
        if got == tuple(values):
            continue
        if len(got) != len(values):
            raise CheckError(f"{cell.label}: {prop} has {len(got)} entries")
        row = next(i for i, (have, want) in enumerate(zip(got, values)) if have != want)
        raise CheckError(
            f"{cell.label}: {prop}[{row}] is {got[row]}, recomputed {values[row]}"
        )
    return expected


def check_scalars(
    release: Any,
    cell: Cell,
    scalars: Mapping[str, float],
    vectors: Mapping[str, Any],
    expected: Mapping[str, list[float]],
) -> None:
    """LM in [0, 1] and equal to 1 − mean tuple utility / |QI|; DM, the
    suppression count and the achieved k agree with the group-bys."""
    qi_count = len(release.original.schema.quasi_identifier_names)
    if "lm" in scalars:
        lm = scalars["lm"]
        if not 0.0 <= lm <= 1.0:
            raise CheckError(f"{cell.label}: LM {lm} outside [0, 1]")
        if "tuple-utility" in vectors:
            utilities = vectors["tuple-utility"].values.tolist()
            if any(not -LM_TOLERANCE <= u <= qi_count + LM_TOLERANCE for u in utilities):
                raise CheckError(f"{cell.label}: a tuple utility lies outside [0, |QI|]")
            mean = math.fsum(utilities) / len(utilities)
            if not math.isclose(lm, 1.0 - mean / qi_count, rel_tol=1e-9, abs_tol=LM_TOLERANCE):
                raise CheckError(
                    f"{cell.label}: LM {lm} but 1 - mean utility/|QI| is "
                    f"{1.0 - mean / qi_count}"
                )
    sizes = expected["equivalence-class-size"]
    checks = {
        "dm": float(sum(expected["discernibility-penalty"])),
        "suppressed": float(len(release.suppressed)),
        "k_achieved": min(sizes) if sizes else 0.0,
    }
    for metric, want in checks.items():
        if metric in scalars and scalars[metric] != want:
            raise CheckError(
                f"{cell.label}: {metric} is {scalars[metric]}, recomputed {want}"
            )


# -- study-level checks --------------------------------------------------------

def _oriented(vector: Any) -> list[float]:
    values = vector.values.tolist()
    return list(values) if vector.higher_is_better else [-value for value in values]


def dominance(first: Sequence[float], second: Sequence[float]) -> str:
    """The ▶-dominance relation of two oriented vectors, by an elementwise
    loop: ``better``, ``worse``, ``equivalent`` or ``incomparable``."""
    better = any(map(operator.gt, first, second))
    worse = any(map(operator.lt, first, second))
    if better and worse:
        return "incomparable"
    if better:
        return "better"
    if worse:
        return "worse"
    return "equivalent"


def check_relations(comparisons: Mapping[str, Any], vectors: Mapping[str, Mapping[str, Any]]) -> int:
    """Every relation equals the elementwise dominance loop, and
    relation(b, a) is relation(a, b) flipped.  Returns the pairs checked."""
    checked = 0
    for prop, comparison in comparisons.items():
        relations = comparison["relations"]
        members = vectors[prop]
        oriented = {label: _oriented(vector) for label, vector in members.items()}
        labels = list(members)
        for i, first in enumerate(labels):
            for second in labels[i + 1:]:
                forward = relations[(first, second)]
                backward = relations[(second, first)]
                want = dominance(oriented[first], oriented[second])
                if forward.value != want:
                    raise CheckError(
                        f"{prop}: {first} vs {second} is {forward.value}, "
                        f"dominance loop gives {want}"
                    )
                if backward is not forward.flipped():
                    raise CheckError(
                        f"{prop}: {second} vs {first} is {backward.value}, "
                        f"not the flip of {forward.value}"
                    )
                checked += 2
    return checked


def check_study(spec: Any, result: Any, hierarchies: Mapping[str, Any]) -> dict[str, int]:
    """Run every release-level and study-level check on one pass.

    Returns the achieved k of each :data:`K_EXEMPT` cell, which is recorded
    rather than asserted.
    """
    recorded = {}
    for cell in study_cells(spec):
        release = result.releases[cell.label]
        keys = _group_keys(release.released)
        achieved = check_k_anonymity(release, cell, keys)
        if cell.algorithm in K_EXEMPT:
            recorded[cell.label] = achieved
        check_release_shape(release, cell, hierarchies)
        vectors = {prop: members[cell.label] for prop, members in result.vectors.items()}
        expected = check_property_vectors(release, cell, vectors, keys)
        check_scalars(release, cell, result.scalars[cell.label], vectors, expected)
    check_relations(result.comparisons, result.vectors)
    return recorded


def check_resume(cold: Any, warm: Any) -> None:
    """Every release, scalar, vector and comparison served from the cache
    equals what the cold pass computed."""
    if list(warm.releases) != list(cold.releases):
        raise CheckError("resume returned a different set of releases")
    for label, release in warm.releases.items():
        before = cold.releases[label]
        if release.released.rows != before.released.rows:
            raise CheckError(f"resume: release {label} differs from the cold pass")
        if release.suppressed != before.suppressed:
            raise CheckError(f"resume: suppression of {label} differs from the cold pass")
    if warm.scalars != cold.scalars:
        raise CheckError("resume: scalar measures differ from the cold pass")
    for prop, members in cold.vectors.items():
        for label, vector in members.items():
            if warm.vectors.get(prop, {}).get(label) != vector:
                raise CheckError(f"resume: {prop} of {label} differs from the cold pass")
    if warm.comparisons != cold.comparisons:
        raise CheckError("resume: comparisons differ from the cold pass")
