"""Separations, components, and the connectedness family.

Two notions of subset connectedness are exposed: the default examines
the subspace aura space (scope cut to the carrier), the alternative
examines the carrier inside the plain scope topology. They agree on
scope-open carriers and on the whole universe. The component partition
itself merges clopen-reachability classes of the scope topology, which
on finite spaces coincide with the components and are computed through
the hull comparability graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import kernel
from .finite import PointSet, family_key, mask_indices
from .aura import AuraSpace, _as_mask
from .constructions import subspace

NOTION_AURA = "aura"
NOTION_TAU = "tau_a"


@dataclass(frozen=True)
class Separation:
    """Two nonempty disjoint relatively open parts covering the carrier."""

    u: PointSet
    v: PointSet
    notion: str


def _check_notion(notion: str) -> None:
    if notion not in (NOTION_AURA, NOTION_TAU):
        raise ValueError(f"unknown connectedness notion {notion!r}")


def _whole_space_separation(s: AuraSpace) -> Optional[tuple]:
    full = s.universe.full_mask
    masks = s.aura_topology_masks
    mask_set = set(masks)
    for u in sorted(masks, key=family_key):
        if u == 0 or u == full:
            continue
        comp = full & ~u
        if comp in mask_set:
            return u, comp
    return None


def find_aura_separation(s: AuraSpace, a=None, notion: str = NOTION_AURA) -> Optional[Separation]:
    """First separation in canonical order, or None.

    Sets in the result always live in the universe of ``s``, whichever
    notion produced them.
    """
    _check_notion(notion)
    am = s.universe.full_mask if a is None else _as_mask(s, a)
    if am == 0:
        return None
    if am == s.universe.full_mask:
        hit = _whole_space_separation(s)
        if hit is None:
            return None
        u, v = hit
        return Separation(PointSet(s.universe, u), PointSet(s.universe, v), notion)
    if notion == NOTION_AURA:
        sub = subspace(s, am)
        hit = _whole_space_separation(sub)
        if hit is None:
            return None
        u_labels = PointSet(sub.universe, hit[0]).labels()
        v_labels = PointSet(sub.universe, hit[1]).labels()
        return Separation(
            s.universe.subset(u_labels), s.universe.subset(v_labels), notion
        )
    trace = {o & am for o in s.aura_topology_masks}
    for u in sorted(trace, key=family_key):
        if u == 0 or u == am:
            continue
        if (am & ~u) in trace:
            return Separation(
                PointSet(s.universe, u), PointSet(s.universe, am & ~u), notion
            )
    return None


def is_aura_connected(s: AuraSpace, a=None, notion: str = NOTION_AURA) -> bool:
    """No separation exists (vacuously true for the empty carrier)."""
    return find_aura_separation(s, a, notion) is None


@dataclass(frozen=True)
class ComponentPartition:
    space: AuraSpace
    blocks: tuple


def aura_components(s: AuraSpace) -> ComponentPartition:
    """Partition into maximal connected pieces of the scope topology.

    Hull comparability (one endpoint inside the other's hull) generates
    exactly the clopen-reachability classes on a finite space. Blocks
    are ordered by their smallest point index.
    """
    n = s.n
    hulls = s.hull_masks
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in range(n):
        for y in mask_indices(hulls[x]):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx
    groups: dict = {}
    for x in range(n):
        groups.setdefault(find(x), 0)
        groups[find(x)] |= 1 << x
    blocks = sorted(groups.values(), key=lambda m: (m & -m).bit_length())
    return ComponentPartition(s, tuple(PointSet(s.universe, m) for m in blocks))


def _connected_within(hulls, carrier_mask: int) -> bool:
    """Single comparability class within a scope-open carrier."""
    points = list(mask_indices(carrier_mask))
    if not points:
        return True
    pos = {p: k for k, p in enumerate(points)}
    parent = list(range(len(points)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in points:
        for q in mask_indices(hulls[p] & carrier_mask):
            rp, rq = find(pos[p]), find(pos[q])
            if rp != rq:
                parent[rq] = rp
    return sum(1 for k in range(len(points)) if find(k) == k) <= 1


def is_aura_locally_connected(s: AuraSpace) -> bool:
    """Connected scope-open neighbourhood inside every neighbourhood.

    On a finite space the hull is the smallest candidate, so local
    connectedness reduces to every hull being connected; hulls are
    scope-open, where both subset notions agree.
    """
    return all(_connected_within(s.hull_masks, h) for h in set(s.hull_masks))


def is_aura_path_connected(s: AuraSpace) -> bool:
    """Every pair of points is joined by a fence of specialization steps.

    z steps to w when one belongs to the hull of the other, the finite
    shadow of a continuous unit-interval path; the space is path
    connected when the fence graph has a single class.
    """
    return kernel.component_count(s.n, list(s.hull_masks)) <= 1


def fence_path(s: AuraSpace, start: str, end: str) -> Optional[list]:
    """Lexicographically least shortest fence between two points."""
    a = s.universe.index(start)
    b = s.universe.index(end)
    hulls = s.hull_masks
    adjacency = []
    for x in range(s.n):
        row = hulls[x]
        for y in range(s.n):
            if (hulls[y] >> x) & 1:
                row |= 1 << y
        adjacency.append(row & ~(1 << x))
    prev = {a: None}
    frontier = [a]
    while frontier and b not in prev:
        nxt = []
        for x in sorted(frontier):
            for y in mask_indices(adjacency[x]):
                if y not in prev:
                    prev[y] = x
                    nxt.append(y)
        frontier = nxt
    if b not in prev:
        return None
    path = []
    cur: Optional[int] = b
    while cur is not None:
        path.append(s.universe.labels[cur])
        cur = prev[cur]
    return path[::-1]
