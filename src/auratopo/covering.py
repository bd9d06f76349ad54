"""Covers, finite subcovers, the finite intersection property, and the
compactness family.

On finite universes every cover is finite, so all compactness notions
hold outright; the functions return those constants, and all but the
vacuous limit point compactness offer an oracle mode that re-derives
them by exhaustive enumeration at up to four points. The content of the
notions lives in the symbolic module, where the infinite models
separate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import NotACover, NotAClosedFamily, SizeOutOfRange
from .finite import PointSet
from .aura import AuraSpace, _as_mask, is_aura_closed
from .genopen import GeneralizedClass, generalized_family

ORACLE_LIMIT = 4


@dataclass(frozen=True)
class FipResult:
    fip_holds: bool
    intersection_nonempty: bool


def _member_masks(s: AuraSpace, members: Iterable) -> list:
    return [_as_mask(s, m) for m in members]


def is_cover(s: AuraSpace, target, members: Iterable) -> bool:
    tm = _as_mask(s, target)
    union = 0
    for m in _member_masks(s, members):
        union |= m
    return not tm & ~union


def minimal_subcover(s: AuraSpace, target, members: Sequence) -> tuple:
    """Minimum-cardinality sub-list of ``members`` still covering target.

    Exact search: sub-lists of the members that meet the target are
    tried in increasing size and lexicographic index order, so the first
    that covers is as small as any and ties resolve to the
    lexicographically smallest index tuple. Those members together cover
    the target, so the search ends by the last size. Raises NotACover when
    even the full list fails.
    """
    tm = _as_mask(s, target)
    masks = _member_masks(s, members)
    union = 0
    for m in masks:
        union |= m
    if tm & ~union:
        raise NotACover("the full member list does not cover the target")
    if tm == 0:
        return ()

    useful = [i for i, m in enumerate(masks) if m & tm]
    for k in range(1, len(useful) + 1):
        for combo in combinations(useful, k):
            got = 0
            for i in combo:
                got |= masks[i]
            if not tm & ~got:
                return tuple(members[i] for i in combo)


def fip(s: AuraSpace, members: Sequence) -> FipResult:
    """Finite intersection property over a family of scope-closed sets.

    Every sub-list counts, including the empty one whose intersection
    is the whole universe by convention; by monotonicity the whole
    family's intersection decides, which the tests cross-check against
    the literal all-sub-lists scan.
    """
    masks = []
    for m in members:
        if not is_aura_closed(s, m):
            raise NotAClosedFamily(m)
        masks.append(_as_mask(s, m))
    inter = s.universe.full_mask
    for m in masks:
        inter &= m
    nonempty = inter != 0
    return FipResult(fip_holds=nonempty, intersection_nonempty=nonempty)


def _oracle_gate(s: AuraSpace) -> None:
    if s.n > ORACLE_LIMIT:
        raise SizeOutOfRange(f"oracle mode enumerates subfamilies only up to {ORACLE_LIMIT} points")


def _cover_subfamilies_admit_finite_subcover(s: AuraSpace, opens: Sequence, target_mask: int) -> bool:
    """Every subfamily of ``opens`` that covers the target has a subcover:
    ``minimal_subcover`` returns one, drawn from the subfamily and covering
    the target."""
    pool = [m for m in opens if m]
    for r in range(len(pool) + 1):
        for fam in combinations(pool, r):
            union = 0
            for m in fam:
                union |= m
            if target_mask & ~union:
                continue
            members = [PointSet(s.universe, m) for m in fam]
            try:
                picked = minimal_subcover(s, target_mask, members)
            except NotACover:
                return False
            if not is_cover(s, target_mask, picked) or not all(p in members for p in picked):
                return False
    return True


def is_aura_compact(s: AuraSpace, a=None, oracle: bool = False) -> bool:
    """Every scope-open cover has a finite subcover.

    Constant true on finite universes; the oracle re-checks the
    definition by enumerating all covering subfamilies.
    """
    tm = s.universe.full_mask if a is None else _as_mask(s, a)
    if not oracle:
        return True
    _oracle_gate(s)
    return _cover_subfamilies_admit_finite_subcover(s, s.aura_topology_masks, tm)


def is_countably_aura_compact(s: AuraSpace, a=None, oracle: bool = False) -> bool:
    """Every countable scope-open cover has a finite subcover.

    On a finite universe every subfamily is countable, so this agrees
    with plain compactness, oracle included.
    """
    return is_aura_compact(s, a, oracle)


def is_aura_lindelof(s: AuraSpace, a=None, oracle: bool = False) -> bool:
    """Every scope-open cover has a countable subcover.

    A finite cover is its own countable subcover, so this is constant
    true; since a finite subcover is countable, the oracle re-checks it
    through the compactness cover scan.
    """
    return is_aura_compact(s, a, oracle)


def is_aura_limit_point_compact(s: AuraSpace, a=None) -> bool:
    """Every infinite subset has a scope-limit point.

    Vacuously true on finite universes. There is no oracle mode: no
    subset of a finite carrier is infinite, so a scan has nothing to
    find.
    """
    return True


def generalized_compactness(s: AuraSpace, cls: GeneralizedClass, oracle: bool = False) -> bool:
    """Compactness with covers drawn from one generalized open class.

    Constant true on finite universes for all four classes; the oracle
    enumerates class covers like the plain compactness oracle.
    """
    if not oracle:
        return True
    _oracle_gate(s)
    masks = [ps.mask for ps in generalized_family(s, cls)]
    return _cover_subfamilies_admit_finite_subcover(s, masks, s.universe.full_mask)
