"""Each output check passes on a real study and rejects its planted fault."""

from __future__ import annotations

import copy
import dataclasses
from collections import Counter

import pytest

import checks
from repro.anonymize.engine import Anonymization
from repro.core.comparators import Relation
from repro.core.vector import PropertyVector
from repro.runtime import (
    SCALAR_MEASURES,
    VECTOR_PROPERTIES,
    AlgorithmSpec,
    DatasetSpec,
    StudySpec,
    run_study,
)

K = 3


@pytest.fixture(scope="module")
def study():
    spec = StudySpec(
        dataset=DatasetSpec.of("adult", rows=300, seed=7),
        algorithms=tuple(
            AlgorithmSpec.of(name, k=K) for name in ("datafly", "samarati", "mondrian", "muargus")
        ),
        scalar_measures=tuple(SCALAR_MEASURES),
        vector_properties=tuple(VECTOR_PROPERTIES),
        seed=7,
    )
    _, hierarchies = spec.dataset.materialize()
    return spec, run_study(spec), hierarchies


def _cell(spec, label):
    return next(cell for cell in checks.study_cells(spec) if cell.label == label)


def _with_rows(release, rows, suppressed=None):
    return Anonymization(
        release.original,
        release.released.replace_rows(rows),
        release.suppressed if suppressed is None else suppressed,
        release.levels,
        release.name,
    )


def _qi_positions(release):
    schema = release.released.schema
    return [schema.index_of(name) for name in schema.quasi_identifier_names]


def test_clean_study_passes_every_check(study):
    spec, result, hierarchies = study
    recorded = checks.check_study(spec, result, hierarchies)
    assert set(recorded) == {f"muargus[k={K}]"}


def test_k_check_rejects_a_class_of_k_minus_one(study):
    spec, result, _ = study
    label = f"mondrian[k={K}]"
    release = result.releases[label]
    positions = _qi_positions(release)
    rows = [list(row) for row in release.released.rows]
    keys = [tuple(row[i] for i in positions) for row in rows]
    biggest, size = Counter(keys).most_common(1)[0]
    assert size >= 2 * K
    members = [row for row, key in enumerate(keys) if key == biggest][: K - 1]
    for row in members:
        for i in positions:
            rows[row][i] = "planted"
    planted = _with_rows(release, rows)
    with pytest.raises(checks.CheckError, match=f"has {K - 1} row"):
        checks.check_k_anonymity(planted, _cell(spec, label))
    assert checks.check_k_anonymity(release, _cell(spec, label)) >= K


def test_k_check_records_but_does_not_assert_muargus(study):
    spec, result, _ = study
    label = f"muargus[k={K}]"
    achieved = checks.check_k_anonymity(result.releases[label], _cell(spec, label))
    assert achieved >= 1


def test_shape_check_rejects_a_cell_that_does_not_cover_its_original(study):
    spec, result, hierarchies = study
    label = f"datafly[k={K}]"
    release = result.releases[label]
    rows = [list(row) for row in release.released.rows]
    sex = release.released.schema.index_of("sex")
    original_sex = release.original.rows[0][sex]
    rows[0][sex] = "Female" if original_sex == "Male" else "Male"
    with pytest.raises(checks.CheckError, match="does not cover"):
        checks.check_release_shape(_with_rows(release, rows), _cell(spec, label), hierarchies)


def test_shape_check_rejects_reordered_rows(study):
    spec, result, hierarchies = study
    label = f"samarati[k={K}]"
    release = result.releases[label]
    rows = list(release.released.rows)
    salary = release.released.schema.index_of("salary-class")
    swap = next(i for i in range(1, len(rows)) if rows[i][salary] != rows[0][salary])
    rows[0], rows[swap] = rows[swap], rows[0]
    with pytest.raises(checks.CheckError, match="moved"):
        checks.check_release_shape(_with_rows(release, rows), _cell(spec, label), hierarchies)


def test_shape_check_rejects_suppression_beyond_the_limit(study):
    spec, result, hierarchies = study
    label = f"mondrian[k={K}]"
    release = result.releases[label]
    rows = [list(row) for row in release.released.rows]
    for i in _qi_positions(release):
        rows[0][i] = "*"
    planted = _with_rows(release, rows, suppressed={0})
    with pytest.raises(checks.CheckError, match="suppressed"):
        checks.check_release_shape(planted, _cell(spec, label), hierarchies)


@pytest.mark.parametrize("prop", [
    "equivalence-class-size", "breach-probability",
    "sensitive-value-count", "discernibility-penalty",
])
def test_vector_check_rejects_a_perturbed_vector(study, prop):
    spec, result, _ = study
    label = f"samarati[k={K}]"
    vector = result.vectors[prop][label]
    values = vector.values.tolist()
    values[len(values) // 2] += 1e-6
    perturbed = PropertyVector(values, name=vector.name, higher_is_better=vector.higher_is_better)
    vectors = {p: members[label] for p, members in result.vectors.items()}
    checks.check_property_vectors(result.releases[label], _cell(spec, label), vectors)
    vectors[prop] = perturbed
    with pytest.raises(checks.CheckError, match=prop):
        checks.check_property_vectors(result.releases[label], _cell(spec, label), vectors)


def test_lm_check_rejects_an_lm_that_disagrees_with_tuple_utility(study):
    spec, result, _ = study
    label = f"datafly[k={K}]"
    release = result.releases[label]
    vectors = {p: members[label] for p, members in result.vectors.items()}
    expected = checks.expected_vectors(release)
    scalars = dict(result.scalars[label])
    checks.check_scalars(release, _cell(spec, label), scalars, vectors, expected)
    scalars["lm"] += 1e-6
    with pytest.raises(checks.CheckError, match="LM"):
        checks.check_scalars(release, _cell(spec, label), scalars, vectors, expected)


def test_relation_check_rejects_a_flipped_relation(study):
    _, result, _ = study
    comparisons = copy.deepcopy(result.comparisons)
    prop = "equivalence-class-size"
    relations = comparisons[prop]["relations"]
    first, second = next(pair for pair in relations if pair[0] != pair[1])
    wrong = Relation.WORSE if relations[(first, second)] is Relation.BETTER else Relation.BETTER
    relations[(first, second)] = wrong
    relations[(second, first)] = wrong.flipped()
    with pytest.raises(checks.CheckError, match="dominance loop"):
        checks.check_relations(comparisons, result.vectors)


def test_relation_check_rejects_an_unflipped_reverse_relation():
    better = PropertyVector([2.0, 3.0], name="p", higher_is_better=True)
    worse = PropertyVector([1.0, 3.0], name="p", higher_is_better=True)
    vectors = {"p": {"a": better, "b": worse}}
    relations = {("a", "b"): Relation.BETTER, ("b", "a"): Relation.WORSE}
    assert checks.check_relations({"p": {"relations": relations}}, vectors) == 2
    relations[("b", "a")] = Relation.BETTER
    with pytest.raises(checks.CheckError, match="not the flip"):
        checks.check_relations({"p": {"relations": relations}}, vectors)


def test_dominance_loop_respects_orientation():
    loss = PropertyVector([1.0, 2.0], name="loss", higher_is_better=False)
    more_loss = PropertyVector([1.0, 3.0], name="loss", higher_is_better=False)
    vectors = {"loss": {"a": loss, "b": more_loss}}
    relations = {("a", "b"): Relation.BETTER, ("b", "a"): Relation.WORSE}
    assert checks.check_relations({"loss": {"relations": relations}}, vectors) == 2


@pytest.mark.parametrize("part", ["release", "scalar", "vector", "comparison"])
def test_resume_check_rejects_a_value_that_differs_from_the_cold_pass(study, part):
    _, result, _ = study
    checks.check_resume(result, result)
    label = f"datafly[k={K}]"
    if part == "release":
        release = result.releases[label]
        rows = [list(row) for row in release.released.rows]
        rows[0][_qi_positions(release)[0]] = "*"
        warm = dataclasses.replace(
            result, releases={**result.releases, label: _with_rows(release, rows)}
        )
    elif part == "scalar":
        scalars = copy.deepcopy(result.scalars)
        scalars[label]["dm"] += 1
        warm = dataclasses.replace(result, scalars=scalars)
    elif part == "vector":
        vectors = {p: dict(members) for p, members in result.vectors.items()}
        vector = vectors["tuple-utility"][label]
        values = vector.values.tolist()
        values[0] -= 0.5
        vectors["tuple-utility"][label] = PropertyVector(
            values, name=vector.name, higher_is_better=vector.higher_is_better
        )
        warm = dataclasses.replace(result, vectors=vectors)
    else:
        comparisons = copy.deepcopy(result.comparisons)
        wins = comparisons["tuple-utility"]["wins"]
        wins[label] += 1
        warm = dataclasses.replace(result, comparisons=comparisons)
    with pytest.raises(checks.CheckError, match="resume"):
        checks.check_resume(result, warm)
