import itertools
import random

import pytest

from auratopo import kernel
from auratopo.kernel import _pykernel

try:
    from auratopo.kernel import _fastkernel
except ImportError:
    _fastkernel = None

from auratopo.aura import AuraSpace, ScopeFunction
from helpers import all_small_spaces, rand_space
from oracles import brute_closure, brute_components, brute_hull, brute_tau_a

BACKENDS = [_pykernel] + ([_fastkernel] if _fastkernel is not None else [])


def _rand_scopes(rng, n):
    # Valid scope lists for the kernel: x sits in its own mask.
    return [rng.randrange(0, 1 << n) | (1 << x) for x in range(n)]


def test_active_backend_is_one_of_the_twins():
    assert kernel.BACKEND in ("python", "c")
    names = {impl.BACKEND for impl in BACKENDS}
    assert kernel.BACKEND in names


def test_hulls_and_tau_a_match_the_brute_definitions():
    rng = random.Random(90)
    for _ in range(150):
        n = rng.randrange(1, 7)
        scopes = _rand_scopes(rng, n)
        expected_tau = brute_tau_a(n, scopes)
        expected_hulls = [brute_hull(n, scopes, x) for x in range(n)]
        for impl in BACKENDS:
            assert list(impl.hull_masks(n, scopes)) == expected_hulls
            assert list(impl.tau_a_masks(n, scopes)) == expected_tau


def test_union_closure_equals_subset_scan():
    rng = random.Random(91)
    for _ in range(100):
        n = rng.randrange(0, 6)
        masks = [rng.randrange(0, 1 << n) for _ in range(rng.randrange(0, 5))]
        unions = {0}
        for r in range(1, len(masks) + 1):
            for combo in itertools.combinations(masks, r):
                u = 0
                for m in combo:
                    u |= m
                unions.add(u)
        for impl in BACKENDS:
            assert list(impl.union_closure(masks)) == sorted(unions)


def test_closure_mask_matches_the_definition():
    rng = random.Random(92)
    for _ in range(200):
        n = rng.randrange(1, 7)
        scopes = _rand_scopes(rng, n)
        a = rng.randrange(0, 1 << n)
        expected = brute_closure(n, scopes, a)
        for impl in BACKENDS:
            assert impl.aura_closure_mask(n, scopes, a) == expected


def test_relation_flags_match_pairwise_scans():
    rng = random.Random(93)
    for _ in range(200):
        n = rng.randrange(1, 7)
        scopes = _rand_scopes(rng, n)
        members = [
            [y for y in range(n) if (scopes[x] >> y) & 1] for x in range(n)
        ]
        transitive = all(
            not scopes[y] & ~scopes[x] for x in range(n) for y in members[x]
        )
        symmetric = all(
            (scopes[y] >> x) & 1 for x in range(n) for y in members[x]
        )
        for impl in BACKENDS:
            assert impl.is_transitive(n, scopes) == transitive
            assert impl.is_symmetric(n, scopes) == symmetric


def test_preorder_counts_and_cross_backend_equality():
    expected = [1, 1, 4, 29, 355, 6942]
    for n in range(5):
        for impl in BACKENDS:
            assert len(impl.enumerate_preorders(n)) == expected[n]
    if len(BACKENDS) == 2:
        assert list(BACKENDS[0].enumerate_preorders(5)) == list(
            BACKENDS[1].enumerate_preorders(5)
        )


def test_preorders_really_are_reflexive_and_transitive():
    for impl in BACKENDS:
        for rows in impl.enumerate_preorders(3):
            for x in range(3):
                assert (rows[x] >> x) & 1
                for y in range(3):
                    if (rows[x] >> y) & 1:
                        assert not rows[y] & ~rows[x]


def test_component_count_matches_the_component_partition():
    # brute_components scans subsets for maximal connected ones and floods
    # nothing, so it is independent of both kernels and of aura_components.
    rng = random.Random(94)
    spaces = list(all_small_spaces(3)) + [rand_space(rng, rng.randrange(4, 7))
                                          for _ in range(40)]
    for s in spaces:
        expected = len(brute_components(s.n, s.scope_masks))
        for impl in BACKENDS:
            assert impl.component_count(s.n, list(s.hull_masks)) == expected


def test_empty_space_has_no_components():
    for impl in BACKENDS:
        assert impl.component_count(0, []) == 0


@pytest.mark.skipif(_fastkernel is None, reason="compiled kernel not built")
def test_compiled_kernel_identifies_itself():
    assert _fastkernel.BACKEND == "c"
    assert _pykernel.BACKEND == "python"
