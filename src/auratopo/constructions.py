"""Subspace and product constructions.

The subspace keeps the trace topology and cuts every scope down to the
carrier; the product pairs points as "x|y", takes the usual product
topology, and pairs the scopes box-wise. Traces and products of
topologies satisfy the axioms by construction, so those families skip
re-validation (the tests re-validate samples).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from . import kernel
from .errors import EmptySubspace
from .finite import (
    FiniteTopSpace,
    PointSet,
    PointUniverse,
    TopologyFamily,
    mask_indices,
)
from .aura import AuraSpace, ScopeFunction, _as_mask


def subspace(s: AuraSpace, carrier) -> AuraSpace:
    """Aura space induced on a nonempty subset of the universe.

    Topology is the trace {U & Y}; each scope becomes scope & Y, which
    is open in the trace and still contains its point.
    """
    ym = _as_mask(s, carrier)
    if ym == 0:
        raise EmptySubspace("subspace carrier must be nonempty")
    selected = list(mask_indices(ym))
    labels = [s.universe.labels[i] for i in selected]
    sub_universe = PointUniverse(labels)
    position = {orig: new for new, orig in enumerate(selected)}

    def reindex(mask: int) -> int:
        out = 0
        for i in mask_indices(mask & ym):
            out |= 1 << position[i]
        return out

    trace = {reindex(o) for o in s.space.topology.mask_set}
    topo = TopologyFamily(sub_universe, trace, validate=False)
    scopes = [reindex(s.scope.masks[i]) for i in selected]
    return AuraSpace(FiniteTopSpace(sub_universe, topo), ScopeFunction(sub_universe, scopes))


@dataclass(frozen=True)
class ProductPoint:
    """Pairing convention for product points."""

    left: str
    right: str

    @property
    def label(self) -> str:
        return f"{self.left}|{self.right}"


def _product_universe(left: PointUniverse, right: PointUniverse) -> PointUniverse:
    labels = [
        ProductPoint(a, b).label
        for a in left.labels
        for b in right.labels
    ]
    return PointUniverse(labels)


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


def product(sx: AuraSpace, sy: AuraSpace) -> AuraSpace:
    """Product aura space on pairs, ordered lexicographically.

    The product topology is materialized as all unions of minimal-open
    boxes; every open box then belongs to it, in particular each scope
    box a(x) x b(y).
    """
    ny = sy.n
    universe = _product_universe(sx.universe, sy.universe)
    min_left = sx.space.minimal_open_masks
    min_right = sy.space.minimal_open_masks
    boxes = [
        _box_mask(min_left[x], min_right[y], ny)
        for x in range(sx.n)
        for y in range(ny)
    ]
    opens = set(kernel.union_closure(boxes))
    opens.add(0)
    topo = TopologyFamily(universe, opens, validate=False)
    scopes = [
        _box_mask(sx.scope.masks[x], sy.scope.masks[y], ny)
        for x in range(sx.n)
        for y in range(ny)
    ]
    return AuraSpace(FiniteTopSpace(universe, topo), ScopeFunction(universe, scopes))


def product_topology_of_factors(sx: AuraSpace, sy: AuraSpace) -> TopologyFamily:
    """Topology on the product generated by scope-open boxes.

    Boxes of scope-open sets are closed under intersection, so closing
    them under union yields the topology generated by the two scope
    topologies on the pair universe.
    """
    ny = sy.n
    universe = _product_universe(sx.universe, sy.universe)
    boxes = sorted(
        {
            _box_mask(u, v, ny)
            for u in sx.aura_topology_masks
            for v in sy.aura_topology_masks
        }
    )
    opens = set(kernel.union_closure(boxes))
    opens.add(0)
    return TopologyFamily(universe, opens, validate=False)


def iterated_product(spaces: Sequence[AuraSpace]) -> AuraSpace:
    """Left fold of the binary product; names flatten to "a|b|c"."""
    if not spaces:
        raise ValueError("iterated product needs at least one factor")
    return reduce(product, spaces)
