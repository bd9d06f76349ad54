import itertools
import random
import sys
from collections import Counter

import pytest

from auratopo import (
    AuraSpace,
    FiniteMap,
    OpenSetNotInTopology,
    PointNotInOwnAura,
    PointUniverse,
    TopologyFamily,
    aura_closure,
    aura_interior,
    aura_topology,
    classify,
    derived_set,
    find_aura_separation,
    generate_topology,
    hull,
    is_aura_closed,
    is_aura_connected,
    is_aura_continuous,
    is_aura_open,
    load_fixture,
    make_aura_space,
    separation_axioms,
)
from auratopo.connectivity import is_aura_path_connected
from auratopo.kernel import _pykernel
from helpers import all_small_spaces, grid_and_random_spaces, rand_space
from oracles import (
    brute_closure,
    brute_derived,
    brute_hull,
    brute_interior,
    brute_is_continuous,
    brute_tau_a,
)


def test_scope_must_be_open():
    with pytest.raises(OpenSetNotInTopology, match="scope of 'b' is not an open set"):
        make_aura_space(["a", "b"], [[], ["a"], ["a", "b"]], {"a": ["a"], "b": ["b"]})


def test_point_must_sit_in_its_scope():
    with pytest.raises(PointNotInOwnAura, match="point 'b' does not belong to its own scope"):
        make_aura_space(["a", "b"], [[], ["a"], ["a", "b"]], {"a": ["a"], "b": ["a"]})


def test_operators_match_definitions_on_every_small_space():
    for s in all_small_spaces(3):
        n, scopes = s.n, s.scope_masks
        for a in range(1 << n):
            assert aura_closure(s, a).mask == brute_closure(n, scopes, a)
            assert aura_interior(s, a).mask == brute_interior(n, scopes, a)
            assert derived_set(s, a).mask == brute_derived(n, scopes, a)


def test_operators_match_definitions_on_random_spaces():
    rng = random.Random(20)
    for _ in range(300):
        s = rand_space(rng, rng.randrange(1, 7))
        n, scopes = s.n, s.scope_masks
        a = rng.randrange(0, 1 << n)
        assert aura_closure(s, a).mask == brute_closure(n, scopes, a)
        assert aura_interior(s, a).mask == brute_interior(n, scopes, a)
        assert derived_set(s, a).mask == brute_derived(n, scopes, a)
        assert is_aura_open(s, a) == (a in brute_tau_a(n, scopes))
        assert is_aura_closed(s, a) == (not brute_derived(n, scopes, a) & ~a)


def test_scope_topology_and_hulls_match_definitions():
    for s in all_small_spaces(3):
        n, scopes = s.n, s.scope_masks
        assert sorted(s.aura_topology_masks) == brute_tau_a(n, scopes)
        for i, lab in enumerate(s.universe.labels):
            assert hull(s, lab).mask == brute_hull(n, scopes, i)
        # x and y are comparable when one lies in the other's hull.
        hulls = [brute_hull(n, scopes, x) for x in range(n)]
        assert s.comparability_rows == tuple(
            sum(1 << y for y in range(n) if hulls[x] >> y & 1 or hulls[y] >> x & 1)
            for x in range(n)
        )


def test_aura_topology_returns_valid_family():
    rng = random.Random(7)
    for _ in range(50):
        s = rand_space(rng, rng.randrange(1, 6))
        fam = aura_topology(s)
        assert 0 in fam.mask_set and s.universe.full_mask in fam.mask_set
        assert sorted(fam.mask_set) == brute_tau_a(s.n, s.scope_masks)


def test_classification_flags_match_scans():
    for s in all_small_spaces(3):
        n, scopes = s.n, s.scope_masks
        cls = classify(s)
        transitive = all(
            not scopes[y] & ~scopes[x]
            for x in range(n)
            for y in range(n)
            if (scopes[x] >> y) & 1
        )
        symmetric = all(
            ((scopes[y] >> x) & 1) == ((scopes[x] >> y) & 1)
            for x in range(n)
            for y in range(n)
        )
        assert cls.transitive == transitive
        assert cls.symmetric == symmetric
        assert cls.trivial == all(m == s.universe.full_mask for m in scopes)
        assert cls.discrete == all(m == 1 << i for i, m in enumerate(scopes))


def test_trivial_and_discrete_scopes_are_transitive_and_symmetric():
    for s in grid_and_random_spaces(seed=51, count=300):
        cls = classify(s)
        if cls.trivial or cls.discrete:
            assert cls.transitive and cls.symmetric


def test_memoised_facts_equal_a_fresh_computation():
    for s in grid_and_random_spaces(seed=53, count=200):
        fresh = AuraSpace(s.topology, s.scope_masks)
        assert s.classification == classify(fresh)
        assert s.separation == separation_axioms(fresh)
        # Computed once: later reads return the same object.
        assert s.classification is s.classification
        assert s.separation is s.separation


def test_equal_spaces_built_separately_hash_equal():
    originals = list(grid_and_random_spaces(seed=54, count=100))
    by_space = {s: k for k, s in enumerate(originals)}
    for s in originals:
        universe = PointUniverse(list(s.universe.labels))
        topology = TopologyFamily(universe, set(s.topology.mask_set))
        rebuilt = AuraSpace(topology, list(s.scope_masks))
        assert rebuilt is not s and rebuilt == s
        assert hash(rebuilt) == hash(s) == hash(s)
        # A rebuilt space finds the entry of its equal in a dict keyed by spaces.
        assert originals[by_space[rebuilt]] == s


def test_a_space_is_hashed_once(monkeypatch):
    calls = []
    topology_hash = TopologyFamily.__hash__

    def counted(topology):
        calls.append(topology)
        return topology_hash(topology)

    monkeypatch.setattr(TopologyFamily, "__hash__", counted)
    s = rand_space(random.Random(55), 4)
    assert hash(s) == hash(s) == hash({s: 0}.popitem()[0])
    assert len(calls) == 1


def test_separation_axioms_chain_downwards():
    for s in grid_and_random_spaces(seed=52, count=300):
        axioms = separation_axioms(s)
        assert not axioms.t2 or axioms.t1
        assert not axioms.t1 or axioms.t0


def test_separation_axioms_match_neighbourhood_scans():
    for s in all_small_spaces(3):
        n = s.n
        tau = brute_tau_a(n, s.scope_masks)
        t0 = t1 = t2 = True
        for i in range(n):
            for j in range(i + 1, n):
                sep_i = any((u >> i) & 1 and not (u >> j) & 1 for u in tau)
                sep_j = any((u >> j) & 1 and not (u >> i) & 1 for u in tau)
                disjoint = any(
                    (u >> i) & 1 and (v >> j) & 1 and not u & v
                    for u in tau
                    for v in tau
                )
                if not (sep_i or sep_j):
                    t0 = False
                if not (sep_i and sep_j):
                    t1 = False
                if not disjoint:
                    t2 = False
        axioms = separation_axioms(s)
        assert axioms.t0 == t0
        assert axioms.t1 == t1
        assert axioms.t2 == t2


def test_finite_map_validation():
    u2 = PointUniverse(["a", "b"])
    u3 = PointUniverse(["x", "y", "z"])
    with pytest.raises(ValueError, match="assign every source point"):
        FiniteMap(u3, u2, [0, 1])
    with pytest.raises(ValueError, match="outside the target universe"):
        FiniteMap(u2, u3, [0, 3])
    f = FiniteMap.from_labels(u3, u2, {"x": "a", "y": "a", "z": "b"})
    assert f("y") == "a"
    assert f.is_surjective()
    assert f.preimage_mask(0b01) == 0b011


def test_continuity_matches_preimage_scan():
    rng = random.Random(31)
    spaces = [rand_space(rng, rng.randrange(1, 4)) for _ in range(12)]
    for src in spaces:
        for dst in spaces:
            for _ in range(3):
                images = [rng.randrange(0, dst.n) for _ in range(src.n)]
                f = FiniteMap(src.universe, dst.universe, images)
                assert is_aura_continuous(f, src, dst) == brute_is_continuous(
                    images, src.n, src.scope_masks, dst.n, dst.scope_masks
                )


def test_continuity_matches_the_tau_a_preimage_definition_on_every_small_map():
    # is_aura_continuous tests the preimages of the target's hulls only; the
    # oracle tests the preimage of every scope-open set.
    spaces = list(all_small_spaces(2))
    maps = 0
    for src in spaces:
        for dst in spaces:
            for images in itertools.product(range(dst.n), repeat=src.n):
                f = FiniteMap(src.universe, dst.universe, images)
                assert is_aura_continuous(f, src, dst) == brute_is_continuous(
                    images, src.n, src.scope_masks, dst.n, dst.scope_masks
                )
                maps += 1
    # 11 maps from the empty space, 1 + 9 · 2 from the point, 9 · (1 + 9 · 4)
    # from the two-point spaces.
    assert maps == 363


def test_each_space_builds_its_hulls_and_rows_once(monkeypatch):
    # τ_a is the union closure of the held hulls, and path connectedness
    # floods the held comparability rows: neither builds them again. The
    # kernel functions are rebound in every module that binds them, so a
    # call from inside the kernel is counted too.
    counts = Counter()
    for name in ("hull_masks", "comparability_rows"):
        original = getattr(_pykernel, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("auratopo") \
                    and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    spaces = list(grid_and_random_spaces(33, 40))
    for s in spaces:
        assert s.hull_masks and s.aura_topology_masks or s.n == 0
        assert len(s.comparability_rows) == s.n
        assert is_aura_path_connected(s) in (True, False)
    assert counts == {"hull_masks": len(spaces), "comparability_rows": len(spaces)}


def test_continuity_rejects_mismatched_endpoints():
    s = make_aura_space(["a"], [[], ["a"]], {"a": ["a"]})
    t = make_aura_space(["x"], [[], ["x"]], {"x": ["x"]})
    f = FiniteMap(s.universe, s.universe, [0])
    with pytest.raises(ValueError):
        is_aura_continuous(f, s, t)


def test_scope_function_accepts_masks_and_validates_membership():
    u = PointUniverse(["a", "b"])
    topo = generate_topology(u, [0b01, 0b10])
    s = AuraSpace(topo, [0b01, 0b11])
    assert s.scope_masks == (0b01, 0b11)
    with pytest.raises(PointNotInOwnAura):
        AuraSpace(topo, [0b10, 0b11])
    for wrong_length in ([0b01], [0b01, 0b11, 0b11]):
        with pytest.raises(ValueError, match="exactly once"):
            AuraSpace(topo, wrong_length)
    sierpinski = generate_topology(u, [0b01])
    with pytest.raises(OpenSetNotInTopology):
        AuraSpace(sierpinski, [0b01, 0b10])


def test_int_masks_outside_the_universe_are_rejected():
    s = load_fixture("rotor3")
    calls = [
        lambda: aura_closure(s, 0b1000),
        lambda: aura_closure(s, -1),
        lambda: is_aura_open(s, 0b1000),
        lambda: is_aura_connected(s, 0b1010),
        lambda: is_aura_connected(s, 0b1010, "tau_a"),
        lambda: find_aura_separation(s, 0b1010),
        lambda: find_aura_separation(s, 0b1010, "tau_a"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="mask has bits outside the universe"):
            call()


def test_only_point_sets_and_int_masks_are_sets():
    # clusters5 is labelled 1..5: int() would truncate 2.7 to the mask {2}
    # and read the label-like "3" as the mask {1,2}.
    from auratopo import PointSet
    from auratopo.finite import tau_closure

    s = load_fixture("clusters5")
    for bad in (2.7, 2.0, "3", True, False, [1]):
        for call in (aura_closure, aura_interior, derived_set, is_aura_open,
                     is_aura_connected):
            with pytest.raises(TypeError, match="expected a PointSet or an int mask"):
                call(s, bad)
        with pytest.raises(TypeError):
            tau_closure(s.topology, bad)
    assert aura_closure(s, 2) == aura_closure(s, PointSet(s.universe, 2))
