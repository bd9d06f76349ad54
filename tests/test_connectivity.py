import itertools
import random

import pytest

from auratopo import (
    aura_components,
    fence_path,
    find_aura_separation,
    is_aura_closed,
    is_aura_connected,
    is_aura_locally_connected,
    is_aura_path_connected,
    load_fixture,
)
from auratopo.finite import mask_indices
from helpers import all_small_spaces, grid_and_random_spaces, rand_space
from oracles import brute_components, brute_first_separation, brute_is_connected, brute_tau_a


def _scopes(s):
    return list(s.scope_masks)


def _sub_open(scopes, carrier, a):
    """Relatively open for the scope function cut to the carrier."""
    return all(
        not (scopes[x] & carrier) & ~a for x in mask_indices(a)
    )


def test_unknown_notion_is_rejected():
    s = load_fixture("sierpinski2")
    with pytest.raises(ValueError, match="unknown connectedness notion"):
        is_aura_connected(s, None, "open")


def test_separations_split_the_carrier_into_relatively_open_parts():
    for s in all_small_spaces(3):
        scopes = _scopes(s)
        for carrier in range(1 << s.n):
            sep = find_aura_separation(s, carrier)
            if sep is None:
                assert brute_is_connected(s.n, scopes, carrier)
                continue
            assert not brute_is_connected(s.n, scopes, carrier)
            assert sep.notion == "aura"
            assert sep.u.mask and sep.v.mask
            assert not sep.u.mask & sep.v.mask
            assert sep.u.mask | sep.v.mask == carrier
            assert _sub_open(scopes, carrier, sep.u.mask)
            assert _sub_open(scopes, carrier, sep.v.mask)
            # Results are phrased in the parent universe even for proper carriers.
            assert sep.u.universe is s.universe


def test_separation_is_the_first_in_canonical_order():
    # The brute oracle sorts every relatively open set, so this pins which
    # separation comes back, not only that one does.
    def check(s, carrier):
        for notion in ("aura", "tau_a"):
            expected = brute_first_separation(s.n, _scopes(s), carrier, notion)
            sep = find_aura_separation(s, carrier, notion)
            if expected is None:
                assert sep is None
            else:
                assert (sep.u.mask, sep.v.mask) == (expected, carrier & ~expected)

    for s in all_small_spaces(3):
        for carrier in range(1 << s.n):
            check(s, carrier)
    rng = random.Random(60)
    for _ in range(60):
        s = rand_space(rng, rng.randrange(4, 7))
        for carrier in rng.sample(range(1 << s.n), 12):
            check(s, carrier)
        check(s, s.universe.full_mask)


def test_separation_parts_are_nonempty_and_disjoint():
    rng = random.Random(53)
    for s in grid_and_random_spaces(seed=54, count=150):
        carriers = range(1 << s.n) if s.n <= 3 else [rng.randrange(1 << s.n) for _ in range(8)]
        for carrier in carriers:
            for notion in ("aura", "tau_a"):
                sep = find_aura_separation(s, carrier, notion)
                if sep is None:
                    continue
                assert sep.u.mask and sep.v.mask
                assert not sep.u.mask & sep.v.mask
                assert sep.u.mask | sep.v.mask == carrier


def test_components_are_closed_blocks_covering_the_space():
    for s in grid_and_random_spaces(seed=55, count=200):
        union = 0
        for b in aura_components(s).blocks:
            assert b.mask
            assert not union & b.mask
            assert is_aura_closed(s, b.mask)
            union |= b.mask
        assert union == s.universe.full_mask


def test_connectedness_matches_the_oracle_on_random_spaces():
    rng = random.Random(40)
    for _ in range(120):
        s = rand_space(rng, rng.randrange(1, 6))
        scopes = _scopes(s)
        carrier = rng.randrange(0, 1 << s.n)
        assert is_aura_connected(s, carrier) == brute_is_connected(s.n, scopes, carrier)


def test_whole_space_connectedness_agrees_with_the_separation_and_the_oracle():
    seen = set()
    for s in grid_and_random_spaces(seed=56, count=200):
        connected = is_aura_connected(s)
        assert connected == (find_aura_separation(s) is None)
        assert connected == brute_is_connected(s.n, _scopes(s), s.universe.full_mask)
        seen.add(connected)
    assert seen == {True, False}


def test_carrier_connectedness_agrees_with_the_separation_scan():
    rng = random.Random(57)
    for s in grid_and_random_spaces(seed=58, count=100):
        carriers = range(1 << s.n) if s.n <= 3 else [rng.randrange(1 << s.n) for _ in range(6)]
        for carrier in carriers:
            for notion in ("aura", "tau_a"):
                found = find_aura_separation(s, carrier, notion)
                assert is_aura_connected(s, carrier, notion) == (found is None)


def test_local_connectedness_is_every_hull_connected_by_the_oracle():
    # Both sides hold on every space: each point of hull(x) is reached from x
    # through scopes, so every hull is connected. The test pins that the
    # flood and the definitional oracle agree.
    for s in grid_and_random_spaces(seed=59, count=200):
        local = is_aura_locally_connected(s)
        assert local == all(brute_is_connected(s.n, _scopes(s), h) for h in s.hull_masks)


def test_empty_carrier_is_vacuously_connected():
    for s in all_small_spaces(2):
        assert is_aura_connected(s, 0)
        assert is_aura_connected(s, 0, "tau_a")


def test_trace_notion_checks_the_carrier_inside_the_scope_topology():
    for s in all_small_spaces(3):
        tau = brute_tau_a(s.n, _scopes(s))
        for carrier in range(1 << s.n):
            trace = {o & carrier for o in tau}
            split = any(
                u and u != carrier and (carrier & ~u) in trace for u in trace
            )
            assert is_aura_connected(s, carrier, "tau_a") == (not split)


def test_notions_agree_on_scope_open_carriers_but_not_everywhere():
    differs = 0
    for s in all_small_spaces(3):
        for carrier in s.aura_topology_masks:
            assert is_aura_connected(s, carrier) == is_aura_connected(s, carrier, "tau_a")
        for carrier in range(1 << s.n):
            if is_aura_connected(s, carrier) != is_aura_connected(s, carrier, "tau_a"):
                differs += 1
    # The two notions are genuinely different on non-open carriers.
    assert differs > 0


def test_components_match_the_oracle():
    for s in all_small_spaces(3):
        got = [b.mask for b in aura_components(s).blocks]
        assert got == brute_components(s.n, _scopes(s))
    rng = random.Random(41)
    for _ in range(40):
        s = rand_space(rng, rng.randrange(1, 6))
        got = [b.mask for b in aura_components(s).blocks]
        assert got == brute_components(s.n, _scopes(s))


def test_distinct_components_separate_their_union():
    for s in all_small_spaces(3):
        blocks = aura_components(s).blocks
        for i in range(len(blocks)):
            assert is_aura_connected(s, blocks[i].mask)
            for j in range(i + 1, len(blocks)):
                assert not is_aura_connected(s, blocks[i].mask | blocks[j].mask)


def test_local_connectedness_matches_the_neighbourhood_definition():
    def oracle(s):
        scopes = _scopes(s)
        tau = brute_tau_a(s.n, scopes)
        for x in range(s.n):
            for u in tau:
                if not (u >> x) & 1:
                    continue
                ok = any(
                    (v >> x) & 1
                    and not v & ~u
                    and brute_is_connected(s.n, scopes, v)
                    for v in tau
                )
                if not ok:
                    return False
        return True

    for s in all_small_spaces(3):
        assert is_aura_locally_connected(s) == oracle(s)
    rng = random.Random(42)
    for _ in range(30):
        s = rand_space(rng, rng.randrange(1, 6))
        assert is_aura_locally_connected(s) == oracle(s)


def _comparability_classes(n, scopes):
    from oracles import brute_hull

    hulls = [brute_hull(n, scopes, x) for x in range(n)]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x in range(n):
        for y in range(n):
            if (hulls[x] >> y) & 1 or (hulls[y] >> x) & 1:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[ry] = rx
    return len({find(x) for x in range(n)})


def test_path_connectedness_counts_fence_classes():
    for s in all_small_spaces(3):
        expected = _comparability_classes(s.n, _scopes(s)) <= 1
        assert is_aura_path_connected(s) == expected
    assert is_aura_path_connected(load_fixture("sierpinski2"))
    assert not is_aura_path_connected(load_fixture("discrete2"))


def test_finite_space_connectivity_and_separation_facts_hold_by_definition():
    # The three facts that the docstrings of is_aura_locally_connected,
    # is_aura_path_connected and separation_axioms prove, checked from the
    # oracle definitions: every hull is connected; connected iff every two
    # points are joined by a fence of hull steps; t1 iff t2 iff every scope
    # is {x}. Every grid space up to three points, then seeded random
    # spaces on one to eight points.
    from oracles import brute_hull

    rng = random.Random(20)
    spaces = [*all_small_spaces(3), *(rand_space(rng, rng.randrange(1, 9)) for _ in range(200))]
    for s in spaces:
        n, scopes = s.n, _scopes(s)
        full = (1 << n) - 1
        hulls = [brute_hull(n, scopes, x) for x in range(n)]
        assert all(brute_is_connected(n, scopes, h) for h in hulls)
        connected = brute_is_connected(n, scopes, full)
        assert connected == (_comparability_classes(n, scopes) <= 1)
        t1 = all(not (hulls[x] >> y) & 1 for x in range(n) for y in range(n) if x != y)
        t2 = all(not hulls[x] & hulls[y] for x in range(n) for y in range(x + 1, n))
        assert t1 == t2 == all(m == 1 << x for x, m in enumerate(scopes))
        sep = s.separation
        assert is_aura_locally_connected(s)
        assert is_aura_path_connected(s) == is_aura_connected(s) == connected
        assert sep.t1 == sep.t2 == t1


def test_fence_path_is_a_shortest_lexicographically_least_fence():
    def comparable(hulls, x, y):
        return (hulls[x] >> y) & 1 or (hulls[y] >> x) & 1

    for s in all_small_spaces(3):
        if s.n == 0:
            continue
        hulls = list(s.hull_masks)
        labels = s.universe.labels
        for a, b in itertools.product(range(s.n), repeat=2):
            path = fence_path(s, labels[a], labels[b])
            # Enumerate every simple fence to check optimality independently.
            best = None
            for length in range(1, s.n + 1):
                fences = [
                    perm
                    for perm in itertools.permutations(range(s.n), length)
                    if perm[0] == a
                    and perm[-1] == b
                    and all(
                        comparable(hulls, perm[i], perm[i + 1])
                        for i in range(length - 1)
                    )
                ]
                if fences:
                    best = min(tuple(labels[i] for i in f) for f in fences)
                    break
            if best is None:
                assert path is None
            else:
                assert path == list(best)
