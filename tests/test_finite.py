import random
import time

import pytest

from auratopo import (
    MissingEmpty,
    MissingWhole,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    PointSet,
    PointUniverse,
    TopologyAxiomViolation,
    TopologyFamily,
    UniverseTooLarge,
    generate_topology,
    is_tau_connected,
    validate_topology,
)
from auratopo.finite import family_key, mask_indices, minimal_open, tau_closure, tau_interior
from oracles import brute_first_violation, brute_is_topology

VIOLATIONS = {
    "empty": MissingEmpty,
    "whole": MissingWhole,
    "union": NotClosedUnderUnion,
    "intersection": NotClosedUnderIntersection,
}


def test_universe_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate point label 'a'"):
        PointUniverse(["a", "b", "a"])


def test_universe_caps_at_64_points():
    PointUniverse([str(i) for i in range(64)])
    with pytest.raises(UniverseTooLarge):
        PointUniverse([str(i) for i in range(65)])


def test_unknown_label_message():
    u = PointUniverse(["a", "b"])
    with pytest.raises(KeyError, match="no point labelled 'z'"):
        u.index("z")


def test_mask_indices_ascending():
    assert list(mask_indices(0b101101)) == [0, 2, 3, 5]
    assert list(mask_indices(0)) == []


def test_family_key_orders_by_size_then_indices():
    keys = sorted([0b11, 0b100, 0b1, 0b110], key=family_key)
    assert keys == [0b1, 0b100, 0b11, 0b110]


def test_pointset_text_sorts_labels():
    u = PointUniverse(["b", "a", "c"])
    assert u.subset(["c", "b"]).text() == "{b,c}"
    assert u.empty_set().text() == "{}"


def test_validate_topology_reports_first_violation():
    u = PointUniverse(["a", "b"])
    with pytest.raises(MissingEmpty):
        validate_topology(u, [0b11])
    with pytest.raises(MissingWhole):
        validate_topology(u, [0])
    with pytest.raises(NotClosedUnderUnion):
        validate_topology(PointUniverse(["a", "b", "c"]), [0, 0b001, 0b010, 0b111])
    with pytest.raises(NotClosedUnderIntersection):
        validate_topology(PointUniverse(["a", "b", "c"]), [0, 0b011, 0b110, 0b111])


def _validation_outcome(n, family):
    """(error class, witness masks...) raised by ``validate_topology``, or None."""
    try:
        validate_topology(PointUniverse([str(i) for i in range(n)]), family)
    except TopologyAxiomViolation as e:
        return (type(e), *(s.mask for s in getattr(e, "witness", ())))
    return None


def _parity_families(seed, count):
    """Every family on up to three points, then seeded families on four to six
    points: generated topologies, and unclosed ones made by dropping or adding
    a set, or by drawing the members at random."""
    for n in range(4):
        for bits in range(1 << (1 << n)):
            yield n, [m for m in range(1 << n) if (bits >> m) & 1]
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(4, 7)
        full = (1 << n) - 1
        topo = generate_topology(
            PointUniverse([str(i) for i in range(n)]),
            [rng.randrange(0, 1 << n) for _ in range(rng.randrange(0, n + 3))],
        )
        opens = sorted(topo.mask_set)
        yield n, opens
        yield n, [m for m in opens if m != rng.choice(opens)]
        yield n, opens + [rng.randrange(0, 1 << n)]
        drawn = {rng.randrange(0, 1 << n) for _ in range(rng.randrange(1, 2 * n))}
        yield n, sorted(drawn | {0, full})


def test_validation_matches_the_definitional_scan():
    verdicts = set()
    raised = set()
    for n, family in _parity_families(seed=6, count=300):
        got = _validation_outcome(n, family)
        first = brute_first_violation(n, family)
        want = None if first is None else (VIOLATIONS[first[0]], *first[1:])
        assert got == want, (n, family)
        assert (got is None) == brute_is_topology(n, family), (n, family)
        verdicts.add((n, got is None))
        if got is not None:
            raised.add(got[0])
    # Both verdicts on every size from two points up, and every error class.
    assert verdicts >= {(n, ok) for n in range(2, 7) for ok in (True, False)}
    assert raised == set(VIOLATIONS.values())


def test_validation_rejects_singletons_without_growing_the_family():
    # Every minimal open is a member here, so closing the minimal opens under
    # unions would grow towards 2**64 sets; the check must not build anything.
    u = PointUniverse([f"p{i}" for i in range(64)])
    family = [0, u.full_mask] + [1 << i for i in range(64)]
    start = time.perf_counter()
    with pytest.raises(NotClosedUnderUnion) as caught:
        validate_topology(u, family)
    elapsed = time.perf_counter() - start
    assert [s.text() for s in caught.value.witness] == ["{p0}", "{p1}"]
    assert elapsed < 0.5, f"singleton family took {elapsed:.2f}s"


def test_sixteen_point_discrete_family_validates_quickly():
    u = PointUniverse([f"p{i}" for i in range(16)])
    start = time.perf_counter()
    topo = validate_topology(u, range(1 << 16))
    elapsed = time.perf_counter() - start
    assert len(topo) == 1 << 16
    assert topo.minimal_masks == tuple(1 << i for i in range(16))
    assert elapsed < 5.0, f"16-point discrete family took {elapsed:.2f}s"


def test_generated_topology_is_valid_and_contains_subbasis():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(1, 6)
        u = PointUniverse([str(i) for i in range(n)])
        subbasis = [rng.randrange(0, 1 << n) for _ in range(rng.randrange(0, 5))]
        topo = generate_topology(u, subbasis)
        validate_topology(u, topo.mask_set)
        for m in subbasis:
            assert m in topo.mask_set


def test_generate_rejects_foreign_bits():
    u = PointUniverse(["a"])
    with pytest.raises(ValueError):
        generate_topology(u, [0b10])


def test_tau_closure_is_smallest_closed_superset():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 5)
        u = PointUniverse([str(i) for i in range(n)])
        topo = generate_topology(u, [rng.randrange(0, 1 << n) for _ in range(2)])
        closed = [u.full_mask & ~o for o in topo.mask_set]
        for a in range(1 << n):
            got = tau_closure(topo, a).mask
            candidates = [c for c in closed if not a & ~c]
            expected = u.full_mask
            for c in candidates:
                expected &= c
            assert got == expected
            assert tau_interior(topo, a).mask == u.full_mask & ~tau_closure(topo, u.full_mask & ~a).mask


def test_minimal_open_is_contained_in_every_open_neighbourhood():
    u = PointUniverse(["a", "b", "c"])
    topo = generate_topology(u, [0b011, 0b110])
    m = minimal_open(topo, "b").mask
    assert m in topo.mask_set
    assert topo.minimal_masks == (0b011, 0b010, 0b110)
    for o in topo.mask_set:
        if o & 0b010:
            assert not m & ~o


def test_tau_connectedness_flags():
    u = PointUniverse(["a", "b"])
    discrete = generate_topology(u, [0b01, 0b10])
    sierpinski = generate_topology(u, [0b01])
    assert not is_tau_connected(discrete)
    assert is_tau_connected(sierpinski)


def test_topology_family_canonical_text():
    u = PointUniverse(["a", "b"])
    topo = TopologyFamily(u, {0, 0b01, 0b11})
    assert topo.text() == "{{}, {a}, {a,b}}"
    assert [s.mask for s in topo.members()] == [0, 0b01, 0b11]


def test_pointset_requires_matching_universe():
    u1 = PointUniverse(["a", "b"])
    u2 = PointUniverse(["a", "c"])
    topo = generate_topology(u1, [])
    with pytest.raises(ValueError, match="different universe"):
        tau_closure(topo, PointSet(u2, 0b01))
    s = PointSet(u1, 0b01)
    assert s.labels() == ("a",)
