import itertools
import random

import pytest

from auratopo import (
    EmptySubspace,
    UniverseTooLarge,
    aura_closure,
    aura_interior,
    iterated_product,
    load_fixture,
    product,
    subspace,
)
from auratopo.aura import aura_topology
from auratopo.constructions import product_topology_of_factors
from auratopo.finite import validate_topology
from helpers import all_small_spaces, rand_space
from oracles import brute_closure, brute_tau_a


def test_subspace_reindexes_topology_and_scopes():
    s = load_fixture("clusters5")
    sub = subspace(s, s.universe.subset(["1", "2", "5"]))
    assert sub.universe.labels == ("1", "2", "5")
    # Trace topology: every open cut to the carrier, nothing else.
    carrier = s.universe.subset(["1", "2", "5"]).mask
    selected = [i for i in range(s.n) if (carrier >> i) & 1]
    pos = {orig: new for new, orig in enumerate(selected)}

    def reindex(m):
        out = 0
        for i in range(s.n):
            if (m >> i) & 1 and i in pos:
                out |= 1 << pos[i]
        return out

    assert sub.topology.mask_set == {
        reindex(o) for o in s.topology.mask_set
    }
    for new, orig in enumerate(selected):
        assert sub.scope_masks[new] == reindex(s.scope_masks[orig] & carrier)


def test_subspace_topology_is_valid_and_scopes_stay_open():
    rng = random.Random(60)
    for _ in range(60):
        s = rand_space(rng, rng.randrange(1, 6))
        carrier = rng.randrange(1, 1 << s.n)
        sub = subspace(s, carrier)
        checked = validate_topology(sub.universe, sub.topology.mask_set)
        assert checked.mask_set == sub.topology.mask_set
        for m in sub.scope_masks:
            assert m in sub.topology.mask_set


def test_empty_carrier_is_rejected():
    s = load_fixture("sierpinski2")
    with pytest.raises(EmptySubspace, match="nonempty"):
        subspace(s, 0)


def test_subspace_of_full_carrier_is_the_space_itself():
    for s in all_small_spaces(3):
        if s.n == 0:
            continue
        sub = subspace(s, s.universe.full_mask)
        assert sub.universe.labels == s.universe.labels
        assert sub.topology.mask_set == s.topology.mask_set
        assert sub.scope_masks == s.scope_masks


def test_product_point_order_and_scopes_are_boxes():
    a = load_fixture("sierpinski2")
    b = load_fixture("discrete2")
    p = product(a, b)
    assert p.universe.labels == ("a|1", "a|2", "b|1", "b|2")
    # Point k encodes the pair (k // ny, k % ny).
    ny = b.n
    for k in range(p.n):
        x, y = divmod(k, ny)
        expect = 0
        for u in range(a.n):
            if (a.scope_masks[x] >> u) & 1:
                for v in range(b.n):
                    if (b.scope_masks[y] >> v) & 1:
                        expect |= 1 << (u * ny + v)
        assert p.scope_masks[k] == expect


def test_product_closure_is_the_box_of_closures():
    rng = random.Random(61)
    for _ in range(40):
        a = rand_space(rng, rng.randrange(1, 4))
        b = rand_space(rng, rng.randrange(1, 4))
        p = product(a, b)
        am = rng.randrange(0, 1 << a.n)
        bm = rng.randrange(0, 1 << b.n)
        box = 0
        for u in range(a.n):
            if (am >> u) & 1:
                box |= bm << (u * b.n)
        ca = brute_closure(a.n, list(a.scope_masks), am)
        cb = brute_closure(b.n, list(b.scope_masks), bm)
        cbox = 0
        for u in range(a.n):
            if (ca >> u) & 1:
                cbox |= cb << (u * b.n)
        assert aura_closure(p, box).mask == cbox


def _brute_box_closure(a, b):
    """All unions of the boxes u × v of every scope-open u and v."""
    boxes = set()
    for u in brute_tau_a(a.n, list(a.scope_masks)):
        for v in brute_tau_a(b.n, list(b.scope_masks)):
            box = 0
            for i in range(a.n):
                if (u >> i) & 1:
                    box |= v << (i * b.n)
            boxes.add(box)
    closed = set(boxes)
    changed = True
    while changed:
        changed = False
        for x, y in itertools.combinations(sorted(closed), 2):
            if x | y not in closed:
                closed.add(x | y)
                changed = True
    closed.add(0)
    return closed


def test_product_topology_of_factors_matches_brute_boxes():
    rng = random.Random(62)
    for _ in range(25):
        a = rand_space(rng, rng.randrange(1, 4))
        b = rand_space(rng, rng.randrange(1, 4))
        assert product_topology_of_factors(a, b).mask_set == _brute_box_closure(a, b)


def test_hull_boxes_generate_every_scope_open_box():
    # product_topology_of_factors closes the hull boxes only. Every pair of
    # spaces on at most two points (the 81 two-point pairs among them), and a
    # seeded sample of the (2, 3) and (3, 2) pairs of the law suite.
    by_size = {n: [s for s in all_small_spaces(3) if s.n == n] for n in range(4)}
    small = by_size[0] + by_size[1] + by_size[2]
    pairs = [(a, b) for a in small for b in small]
    rng = random.Random(64)
    for nx, ny in ((2, 3), (3, 2)):
        pairs += [(rng.choice(by_size[nx]), rng.choice(by_size[ny])) for _ in range(60)]
    for a, b in pairs:
        assert product_topology_of_factors(a, b).mask_set == _brute_box_closure(a, b)
    assert len(pairs) == 11 * 11 + 120


def test_product_scope_topology_sits_between_boxes_and_ambient():
    rng = random.Random(63)
    for _ in range(25):
        a = rand_space(rng, rng.randrange(1, 4))
        b = rand_space(rng, rng.randrange(1, 4))
        p = product(a, b)
        factor_fam = product_topology_of_factors(a, b).mask_set
        prod_fam = set(aura_topology(p).mask_set)
        assert factor_fam <= prod_fam
        assert prod_fam <= p.topology.mask_set


def test_iterated_product_folds_left():
    a = load_fixture("sierpinski2")
    triple = iterated_product([a, a, a])
    assert triple.n == 8
    assert triple.universe.labels[0] == "a|a|a"
    assert triple.universe.labels[-1] == "b|b|b"
    two_step = product(product(a, a), a)
    assert triple.universe.labels == two_step.universe.labels
    assert triple.scope_masks == two_step.scope_masks
    assert triple.topology.mask_set == two_step.topology.mask_set
    with pytest.raises(ValueError, match="at least one factor"):
        iterated_product([])


def test_oversized_product_is_rejected():
    a = load_fixture("ladder4")
    b = load_fixture("clusters5")
    # 4 * 4 = 16 points is fine, 16 * 5 = 80 crosses the limit.
    with pytest.raises(UniverseTooLarge):
        iterated_product([a, a, b])


def test_interior_of_box_in_product():
    a = load_fixture("chain3")
    p = product(a, a)
    full = p.universe.full_mask
    assert aura_interior(p, full).mask == full
    assert aura_interior(p, 0).mask == 0
