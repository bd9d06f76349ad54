import itertools
import random

import pytest

from auratopo import (
    MODEL_NAMES,
    SymbolicSet,
    UnknownFamily,
    get_model,
    subcover_check,
)


def _enumerate(s, bound=40):
    return {n for n in range(1, bound + 1) if n in s}


def _rand_set(rng):
    finite = frozenset(rng.sample(range(1, 25), rng.randrange(0, 5)))
    tail = rng.choice([None, None, rng.randrange(1, 25)])
    return SymbolicSet(finite, tail)


def test_representation_is_canonical():
    assert SymbolicSet(frozenset({3, 7}), 5) == SymbolicSet(frozenset({3}), 5)
    # A finite run touching the tail is absorbed into it.
    assert SymbolicSet(frozenset({3, 4}), 5) == SymbolicSet(frozenset(), 3)
    assert SymbolicSet.of(1, 2).text() == "{1,2}"
    assert SymbolicSet.tail_from(4).text() == "{n>=4}"
    assert SymbolicSet(frozenset({1}), 5).text() == "{1} | {n>=5}"
    assert SymbolicSet.empty().text() == "{}"
    assert SymbolicSet.all_naturals().is_all()


def test_bad_members_are_rejected():
    with pytest.raises(ValueError, match="natural number expected"):
        SymbolicSet.of(0)
    with pytest.raises(ValueError, match="natural number expected"):
        SymbolicSet(frozenset({"3"}))
    with pytest.raises(ValueError, match="tail start"):
        SymbolicSet(frozenset(), 0)


def test_membership_and_extremes():
    s = SymbolicSet(frozenset({2}), 10)
    assert 2 in s and 10 in s and 11 in s
    assert 3 not in s and 9 not in s
    assert s.min_element() == 2
    assert SymbolicSet.tail_from(7).min_element() == 7
    assert SymbolicSet.empty().min_element() is None
    assert s.to_json() == {"finite": [2], "tail": 10}


def test_algebra_agrees_with_enumeration():
    rng = random.Random(70)
    for _ in range(300):
        a = _rand_set(rng)
        b = _rand_set(rng)
        ea, eb = _enumerate(a), _enumerate(b)
        assert _enumerate(a | b) == ea | eb
        assert _enumerate(a & b) == ea & eb
        assert _enumerate(a - b) == ea - eb
        assert _enumerate(~a) == set(range(1, 41)) - ea
        assert _enumerate(a.shift_down()) == {
            n for n in range(1, 41) if n + 1 in a
        }
        assert _enumerate(a.shift_down(3)) == {n for n in range(1, 41) if n + 3 in a}


def test_double_complement_and_de_morgan():
    rng = random.Random(71)
    for _ in range(200):
        a = _rand_set(rng)
        b = _rand_set(rng)
        assert ~~a == a
        assert ~(a | b) == ~a & ~b
        assert ~(a & b) == ~a | ~b


def test_models_satisfy_the_closure_axioms():
    rng = random.Random(72)
    models = [get_model(name) for name in MODEL_NAMES]
    empty = SymbolicSet.empty()
    for model in models:
        assert model.aura_closure(empty) == empty
        assert model.derived_set(empty) == empty
    for _ in range(150):
        a = _rand_set(rng)
        b = _rand_set(rng)
        for model in models:
            ca = model.aura_closure(a)
            # extensive, additive, and closure = set with its derived set
            assert (a - ca).is_empty()
            assert model.aura_closure(a | b) == ca | model.aura_closure(b)
            assert ca == a | model.derived_set(a)


def test_openness_matches_complement_closedness():
    rng = random.Random(73)
    models = [get_model(name) for name in MODEL_NAMES]
    for _ in range(150):
        a = _rand_set(rng)
        for model in models:
            co = ~a
            closed = (model.derived_set(co) - co).is_empty()
            assert model.is_aura_open(a) == closed


def test_successor_model_closure_in_closed_form():
    m = get_model("nat-successor")
    assert m.aura_closure(SymbolicSet.of(5)) == SymbolicSet.of(4, 5)
    assert m.derived_set(SymbolicSet.of(5)) == SymbolicSet.of(4)
    assert m.aura_closure(SymbolicSet.tail_from(3)) == SymbolicSet.tail_from(2)
    assert m.is_aura_open(SymbolicSet.tail_from(3))
    assert not m.is_aura_open(SymbolicSet.of(3))
    assert not m.is_aura_open(SymbolicSet(frozenset({1}), 3))


PINNED_SETS = (
    SymbolicSet.empty(),
    SymbolicSet.of(5),
    SymbolicSet.of(2, 7),
    SymbolicSet.tail_from(4),
    SymbolicSet(frozenset({2}), 6),
    SymbolicSet.all_naturals(),
)


def test_other_models_operators_in_closed_form():
    # (closure, derived set, open) for each set in PINNED_SETS.
    n = SymbolicSet.all_naturals()
    empty = SymbolicSet.empty()
    whole_scope = [
        (empty, empty, True),
        (n, SymbolicSet(frozenset({1, 2, 3, 4}), 6), False),
        (n, n, False),
        (n, n, False),
        (n, n, False),
        (n, n, True),
    ]
    expected = {
        "nat-discrete": [(s, empty, True) for s in PINNED_SETS],
        "trivial": whole_scope,
        "cofinite-trivial": whole_scope,
    }
    for name, rows in expected.items():
        m = get_model(name)
        got = [(m.aura_closure(s), m.derived_set(s), m.is_aura_open(s)) for s in PINNED_SETS]
        assert got == rows, name


def test_published_verdicts_are_pinned():
    expected = {
        "nat-successor": (True, True, True, True, True, False),
        "nat-discrete": (False, False, True, False, False, False),
        "trivial": (True, True, True, True, True, False),
        "cofinite-trivial": (True, True, True, True, True, True),
    }
    for name, flags in expected.items():
        report = get_model(name).compactness_report()
        got = tuple(v.value for v in report.verdicts().values())
        assert got == flags, name
        assert report.verdicts()["tauCompact"].imported
        assert report.model == name
        for verdict in report.verdicts().values():
            assert verdict.reason


def test_negative_verdicts_carry_a_checkable_witness():
    for name in MODEL_NAMES:
        model = get_model(name)
        report = model.compactness_report()
        for key, verdict in report.verdicts().items():
            if verdict.witness_family is None:
                continue
            assert not verdict.value
            # The named family is a scope-open cover: each member is
            # scope-open, and every point lies in some member. Small finite
            # picks fail to cover.
            family = verdict.witness_family
            build = model.cover_families()[family]
            members = [build(p) for p in range(1, 30)]
            assert all(model.is_aura_open(m) for m in members)
            assert all(any(x in m for m in members) for x in range(1, 30))
            assert not subcover_check(model, family, [3, 5, 9])


def test_no_witness_family_has_a_small_finite_subcover():
    # A false verdict names a cover family with no finite subcover, so no
    # nonempty choice of parameters from 1..6 may cover the carrier.
    witnessed = 0
    for name in MODEL_NAMES:
        model = get_model(name)
        for key, verdict in model.compactness_report().verdicts().items():
            if verdict.value or verdict.witness_family is None:
                continue
            witnessed += 1
            for size in range(1, 7):
                for params in itertools.combinations(range(1, 7), size):
                    assert not subcover_check(model, verdict.witness_family, params), (
                        name, key, params)
    assert witnessed


def test_subcover_check_decides_exactly():
    succ = get_model("nat-successor")
    assert subcover_check(succ, "tails", [1])
    assert subcover_check(succ, "tails", [4, 1, 9])
    assert not subcover_check(succ, "tails", [2, 5])
    assert subcover_check(succ, "whole", [1])
    disc = get_model("nat-discrete")
    assert not subcover_check(disc, "singletons", range(1, 100))
    assert subcover_check(disc, "tails", [3, 1])


def test_subcover_check_validates_input():
    succ = get_model("nat-successor")
    with pytest.raises(UnknownFamily):
        subcover_check(succ, "singletons", [1])
    with pytest.raises(ValueError, match="must be a natural"):
        subcover_check(succ, "tails", [0])


def test_model_lookup():
    assert get_model("trivial", "Q").carrier_text().startswith("Q")
    with pytest.raises(ValueError, match="unknown symbolic model"):
        get_model("nat-cofinite")
    for name in MODEL_NAMES:
        assert get_model(name).name == name


def test_report_text_layout():
    report = get_model("cofinite-trivial").compactness_report()
    lines = report.lines()
    assert lines[0] == "model: cofinite-trivial"
    assert any(line == "tauCompact: true [imported]" for line in lines)
    data = report.to_json()
    assert data["aCompact"] == {
        "value": True,
        "reason": report.aura_compact.reason,
    }
