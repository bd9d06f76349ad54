import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

from auratopo import kernel
from auratopo.kernel import _pykernel
from helpers import all_small_spaces, rand_space
from oracles import brute_closure, brute_components, brute_hull, brute_tau_a

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = ("hull_masks", "union_closure", "tau_a_masks", "is_transitive", "is_symmetric",
          "aura_closure_mask", "enumerate_preorders", "component_count")


def _rand_scopes(rng, n):
    # Valid scope lists for the kernel: x sits in its own mask.
    return [rng.randrange(0, 1 << n) | (1 << x) for x in range(n)]


def test_public_kernel_functions_are_the_pykernel_objects():
    # The brute-reference tests below call the package names, so they
    # cover exactly what every caller runs.
    for name in PUBLIC:
        assert getattr(kernel, name) is getattr(_pykernel, name), name


def test_no_environment_variable_selects_another_kernel():
    env = dict(os.environ, PYTHONPATH=str(SRC), AURATOPO_KERNEL="c")
    out = subprocess.run(
        [sys.executable, "-c", "import auratopo.kernel as k; print(k.BACKEND)"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out == "python\n"


def test_hulls_and_tau_a_match_the_brute_definitions():
    rng = random.Random(90)
    for _ in range(150):
        n = rng.randrange(1, 7)
        scopes = _rand_scopes(rng, n)
        expected_tau = brute_tau_a(n, scopes)
        expected_hulls = [brute_hull(n, scopes, x) for x in range(n)]
        assert list(kernel.hull_masks(n, scopes)) == expected_hulls
        assert list(kernel.tau_a_masks(n, scopes)) == expected_tau


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
        assert list(kernel.union_closure(masks)) == sorted(unions)


def test_closure_mask_matches_the_definition():
    rng = random.Random(92)
    for _ in range(200):
        n = rng.randrange(1, 7)
        scopes = _rand_scopes(rng, n)
        a = rng.randrange(0, 1 << n)
        expected = brute_closure(n, scopes, a)
        assert kernel.aura_closure_mask(n, scopes, a) == expected


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
        assert kernel.is_transitive(n, scopes) == transitive
        assert kernel.is_symmetric(n, scopes) == symmetric


def test_preorder_counts():
    expected = [1, 1, 4, 29, 355, 6942]
    for n in range(5):
        assert len(kernel.enumerate_preorders(n)) == expected[n]


def test_preorders_really_are_reflexive_and_transitive():
    for rows in kernel.enumerate_preorders(3):
        for x in range(3):
            assert (rows[x] >> x) & 1
            for y in range(3):
                if (rows[x] >> y) & 1:
                    assert not rows[y] & ~rows[x]


def test_component_count_matches_the_component_partition():
    # brute_components scans subsets for maximal connected ones and floods
    # nothing, so it is independent of the kernel and of aura_components.
    rng = random.Random(94)
    spaces = list(all_small_spaces(3)) + [rand_space(rng, rng.randrange(4, 7))
                                          for _ in range(40)]
    for s in spaces:
        expected = len(brute_components(s.n, s.scope_masks))
        assert kernel.component_count(s.n, list(s.hull_masks)) == expected


def test_empty_space_has_no_components():
    assert kernel.component_count(0, []) == 0
