"""Subspace and product constructions.

The subspace keeps the trace topology and cuts every scope down to the
carrier; the product pairs points as "x|y", takes the usual product
topology, and pairs the scopes box-wise. Traces and products of
topologies satisfy the axioms by construction, so those families skip
re-validation (the tests re-validate samples).
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Sequence

from . import kernel
from .errors import EmptySubspace
from .finite import PointUniverse, TopologyFamily, byte_table_fold, mask_indices
from .aura import AuraSpace, _as_mask


def subspace(s: AuraSpace, carrier) -> AuraSpace:
    """Aura space induced on a nonempty subset of the universe.

    Topology is the trace {U & Y}; each scope becomes scope & Y, which
    is open in the trace and still contains its point. Masks move to the
    carrier's indices through byte tables: the bit of the k-th carrier point
    goes to bit k, and bits off the carrier are dropped.
    """
    ym = _as_mask(s, carrier)
    if ym == 0:
        raise EmptySubspace("subspace carrier must be nonempty")
    selected = list(mask_indices(ym))
    labels = [s.universe.labels[i] for i in selected]
    sub_universe = PointUniverse(labels)
    targets = [0] * s.n
    for new, orig in enumerate(selected):
        targets[orig] = 1 << new
    reindex = byte_table_fold(targets, or_, 0)
    topo = TopologyFamily(sub_universe, map(reindex, s.topology.mask_set), validate=False)
    return AuraSpace(topo, [reindex(s.scope_masks[i]) for i in selected])


def _product_universe(left: PointUniverse, right: PointUniverse) -> PointUniverse:
    return PointUniverse([f"{a}|{b}" for a in left.labels for b in right.labels])


def _box_mask(left_mask: int, right_mask: int, ny: int) -> int:
    # Walks the set bits inline rather than through mask_indices: the product
    # scan and the product-closure law call this millions of times, and the
    # generator costs about a third of each call.
    out = 0
    while left_mask:
        low = left_mask & -left_mask
        out |= right_mask << ((low.bit_length() - 1) * ny)
        left_mask ^= low
    return out


def _box_topology(universe: PointUniverse, left: Sequence[int], right: Sequence[int],
                  ny: int) -> TopologyFamily:
    """All unions of the boxes u × v, for u in ``left`` and v in ``right``.

    ``left`` and ``right`` are the minimal open sets of two finite
    topologies, per point. Every open box U × V is then the union of the
    boxes m(x) × m(y) over its points (x, y), because m(x) ⊆ U and
    m(y) ⊆ V, so the result is the topology that all open boxes generate.
    """
    boxes = [_box_mask(u, v, ny) for u in left for v in right]
    return TopologyFamily(universe, kernel.union_closure(boxes), validate=False)


def product(sx: AuraSpace, sy: AuraSpace) -> AuraSpace:
    """Product aura space on pairs, ordered lexicographically.

    The product topology is the box topology of the factors' minimal
    opens, so every open box belongs to it, in particular each scope box
    a(x) × b(y).
    """
    ny = sy.n
    universe = _product_universe(sx.universe, sy.universe)
    topo = _box_topology(universe, sx.topology.minimal_masks, sy.topology.minimal_masks, ny)
    scopes = [
        _box_mask(sx.scope_masks[x], sy.scope_masks[y], ny)
        for x in range(sx.n)
        for y in range(ny)
    ]
    return AuraSpace(topo, scopes)


def product_topology_of_factors(sx: AuraSpace, sy: AuraSpace) -> TopologyFamily:
    """Topology on the product generated by scope-open boxes.

    The hulls are the minimal opens of the two scope topologies, so this
    is the box topology of the hulls: each scope-open box U × V is the
    union of the boxes hull(x) × hull(y) over its points.
    """
    universe = _product_universe(sx.universe, sy.universe)
    return _box_topology(universe, sx.hull_masks, sy.hull_masks, sy.n)


def iterated_product(spaces: Sequence[AuraSpace]) -> AuraSpace:
    """Left fold of the binary product; names flatten to "a|b|c"."""
    if not spaces:
        raise ValueError("iterated product needs at least one factor")
    return reduce(product, spaces)
