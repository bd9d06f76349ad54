import itertools
import random

import pytest

from auratopo import (
    NotACover,
    NotAClosedFamily,
    PointSet,
    fip,
    generalized_compactness,
    is_aura_compact,
    is_aura_limit_point_compact,
    is_aura_lindelof,
    is_countably_aura_compact,
    is_cover,
    make_aura_space,
    minimal_subcover,
    run_laws,
)
from auratopo.covering import ORACLE_LIMIT
from auratopo.genopen import GeneralizedClass
from helpers import all_small_spaces, rand_space


def _space3():
    return make_aura_space(
        ["a", "b", "c"],
        [[], ["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"]],
        {"a": ["a", "b"], "b": ["b"], "c": ["b", "c"]},
    )


def test_is_cover_checks_the_union():
    s = _space3()
    u = s.universe
    assert is_cover(s, u.full_set(), [u.subset(["a", "b"]), u.subset(["c"])])
    assert not is_cover(s, u.full_set(), [u.subset(["a"]), u.subset(["c"])])
    assert is_cover(s, u.subset(["a"]), [u.subset(["a", "b"])])


def test_minimal_subcover_is_minimum_and_lexicographic():
    s = _space3()
    u = s.universe
    members = [
        u.subset(["a"]),
        u.subset(["a", "b"]),
        u.subset(["b", "c"]),
        u.subset(["a", "c"]),
        u.subset(["c"]),
    ]
    picked = minimal_subcover(s, u.full_set(), members)
    # Two-member covers exist; ties go to the smallest index tuple, (0, 2).
    assert [p.mask for p in picked] == [u.subset(["a"]).mask, u.subset(["b", "c"]).mask]
    reordered = minimal_subcover(s, u.full_set(), members[1:])
    assert [p.mask for p in reordered] == [u.subset(["a", "b"]).mask, u.subset(["b", "c"]).mask]


def test_minimal_subcover_rejects_non_covers():
    s = _space3()
    u = s.universe
    with pytest.raises(NotACover):
        minimal_subcover(s, u.full_set(), [u.subset(["a"])])


def test_minimal_subcover_is_optimal_on_random_instances():
    rng = random.Random(13)
    for _ in range(60):
        s = rand_space(rng, rng.randrange(1, 5))
        n = s.n
        members = [rng.randrange(0, 1 << n) for _ in range(rng.randrange(1, 6))]
        target = 0
        for m in members:
            target |= m
        if rng.random() < 0.5 and target:
            drop = rng.choice([b for b in range(n) if (target >> b) & 1])
            target &= ~(1 << drop)
        sets = [PointSet(s.universe, m) for m in members]
        picked = minimal_subcover(s, PointSet(s.universe, target), sets)
        union = 0
        for p in picked:
            union |= p.mask
        assert not target & ~union
        optimum = None
        for r in range(len(members) + 1):
            for combo in itertools.combinations(range(len(members)), r):
                got = 0
                for i in combo:
                    got |= members[i]
                if not target & ~got:
                    optimum = r
                    break
            if optimum is not None:
                break
        assert len(picked) == optimum


def test_fip_requires_closed_members():
    s = _space3()
    with pytest.raises(NotAClosedFamily):
        fip(s, [s.universe.subset(["b"])])


def test_fip_matches_the_literal_sublist_scan():
    for s in all_small_spaces(3):
        closed = [a for a in range(1 << s.n) if not _derived(s, a) & ~a]
        for size in range(0, min(3, len(closed)) + 1):
            for combo in itertools.combinations(closed, size):
                res = fip(s, [PointSet(s.universe, m) for m in combo])
                literal = True
                for r in range(len(combo) + 1):
                    for sub in itertools.combinations(combo, r):
                        inter = s.universe.full_mask
                        for m in sub:
                            inter &= m
                        if inter == 0:
                            literal = False
                assert res.fip_holds == literal
                assert res.intersection_nonempty == literal


def _derived(s, a):
    out = 0
    for x in range(s.n):
        if s.scope_masks[x] & (a & ~(1 << x)):
            out |= 1 << x
    return out


def test_compactness_flags_are_true_on_finite_spaces():
    for s in all_small_spaces(2):
        assert is_aura_compact(s)
        assert is_countably_aura_compact(s)
        assert is_aura_lindelof(s)
        assert is_aura_limit_point_compact(s)
        for cls in GeneralizedClass:
            assert generalized_compactness(s, cls)


def test_compactness_oracles_agree_at_small_size():
    rng = random.Random(3)
    for _ in range(20):
        s = rand_space(rng, rng.randrange(1, ORACLE_LIMIT + 1))
        assert is_aura_compact(s, oracle=True)
        assert is_countably_aura_compact(s, oracle=True)
        assert is_aura_lindelof(s, oracle=True)
        assert generalized_compactness(s, GeneralizedClass.BETA, oracle=True)


def test_lindelof_oracle_fails_when_a_cover_has_no_subcover(monkeypatch):
    # The oracle must be able to say no: with a subcover search that never
    # finds one, some covering subfamily has no countable subcover.
    def no_subcover(*args):
        raise NotACover("forced")

    monkeypatch.setattr("auratopo.covering.minimal_subcover", no_subcover)
    s = _space3()
    assert is_aura_lindelof(s)
    assert not is_aura_lindelof(s, oracle=True)


def test_compactness_oracle_checks_the_returned_subcover(monkeypatch):
    # A subcover search that answers without raising is not taken on trust:
    # what it returns must come from the subfamily and cover the target.
    s = _space3()
    fakes = {
        "empty": (lambda space, target, members: (), 10),
        "outside the family": (lambda space, target, members: (space.universe.full_set(),), 2),
    }
    for name, (fake, failed) in fakes.items():
        monkeypatch.setattr("auratopo.covering.minimal_subcover", fake)
        assert is_aura_compact(s)
        assert not is_aura_compact(s, oracle=True), name
        (outcome,) = run_laws(names=["compact-chain-flags"], max_n=2).outcomes
        assert (outcome.checks, outcome.failed) == (33, failed), name
