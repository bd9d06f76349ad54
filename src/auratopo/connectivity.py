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


def _carrier_opens(s: AuraSpace, am: int, notion: str):
    """The relatively open subsets of a nonempty carrier.

    Returns ``(home, opens, carrier)``: the masks live in the universe of
    ``home`` and ``carrier`` is the carrier's mask there. The whole universe
    uses the scope topology itself; a proper carrier uses the subspace scope
    topology (default notion) or the trace of the scope topology.
    """
    if am == s.universe.full_mask:
        return s, s.aura_topology_masks, am
    if notion == NOTION_AURA:
        sub = subspace(s, am)
        return sub, sub.aura_topology_masks, sub.universe.full_mask
    return s, {o & am for o in s.aura_topology_masks}, am


def find_aura_separation(s: AuraSpace, a=None, notion: str = NOTION_AURA) -> Optional[Separation]:
    """First separation in canonical order, or None.

    Sets in the result always live in the universe of ``s``, whichever
    notion produced them.
    """
    _check_notion(notion)
    am = s.universe.full_mask if a is None else _as_mask(s, a)
    if am == 0:
        return None
    home, opens, carrier = _carrier_opens(s, am, notion)
    members = set(opens)
    for u in sorted(members, key=family_key):
        if u and u != carrier and (carrier & ~u) in members:
            if home is s:
                return Separation(PointSet(s.universe, u),
                                  PointSet(s.universe, carrier & ~u), notion)
            return Separation(
                s.universe.subset(PointSet(home.universe, u).labels()),
                s.universe.subset(PointSet(home.universe, carrier & ~u).labels()),
                notion,
            )
    return None


def is_aura_connected(s: AuraSpace, a=None, notion: str = NOTION_AURA) -> bool:
    """No separation exists (vacuously true for the empty carrier).

    Equals ``find_aura_separation(s, a, notion) is None`` without its sort:
    that scan returns the first relatively open proper nonempty U whose
    complement in the carrier is relatively open too, so a separation exists
    exactly when any such U does, and the scan order only picks which one
    is returned. This is the test ``finite.is_tau_connected`` makes.
    """
    _check_notion(notion)
    am = s.universe.full_mask if a is None else _as_mask(s, a)
    if am == 0:
        return True
    _, opens, carrier = _carrier_opens(s, am, notion)
    members = set(opens)
    for u in members:
        if u and u != carrier and (carrier & ~u) in members:
            return False
    return True


@dataclass(frozen=True)
class ComponentPartition:
    space: AuraSpace
    blocks: tuple


def _comparability_rows(hulls) -> list:
    """Row x is the mask of the points comparable with x: the members of
    hull(x) and the points whose hull contains x."""
    rows = list(hulls)
    for y, h in enumerate(hulls):
        bit = 1 << y
        while h:
            low = h & -h
            rows[low.bit_length() - 1] |= bit
            h ^= low
    return rows


def _flood(rows, seed: int, carrier: int) -> int:
    """Points reachable from the ``seed`` bit by comparable steps that stay
    inside the carrier."""
    reached = frontier = seed
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        grown = rows[low.bit_length() - 1] & carrier & ~reached
        reached |= grown
        frontier |= grown
    return reached


def aura_components(s: AuraSpace) -> ComponentPartition:
    """Partition into maximal connected pieces of the scope topology.

    Hull comparability (one endpoint inside the other's hull) generates
    exactly the clopen-reachability classes on a finite space. Each block
    is the flood from the least point not yet placed, so blocks come out
    ordered by their smallest point index.
    """
    rows = _comparability_rows(s.hull_masks)
    full = s.universe.full_mask
    blocks = []
    rest = full
    while rest:
        block = _flood(rows, rest & -rest, full)
        blocks.append(PointSet(s.universe, block))
        rest &= ~block
    return ComponentPartition(s, tuple(blocks))


def is_aura_locally_connected(s: AuraSpace) -> bool:
    """Connected scope-open neighbourhood inside every neighbourhood.

    On a finite space the hull is the smallest candidate, so local
    connectedness reduces to every hull being connected; hulls are
    scope-open, where both subset notions agree. The comparability rows
    are built once for the space; each hull then needs one flood from
    its least point, which reaches the whole hull exactly when the
    comparability graph cut to the hull has a single class.
    """
    rows = _comparability_rows(s.hull_masks)
    return all(_flood(rows, h & -h, h) == h for h in set(s.hull_masks))


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
    adjacency = [row & ~(1 << x) for x, row in enumerate(_comparability_rows(s.hull_masks))]
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
