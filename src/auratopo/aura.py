"""Scope functions on finite spaces and the operators they induce.

An aura space (X, τ, 𝔞) is a topology τ on a finite set X together with a
scope function 𝔞 assigning every point an open set containing it. It is
stored as exactly those parts: ``AuraSpace(topology, scope_masks)``, where
the ``TopologyFamily`` carries X as its universe and the scope masks are
one per point, in universe order. The scope drives a Cech-style closure
(additive but not idempotent in general), an interior, a derived set, and
a coarser topology of scope-open sets, materialized here through minimal
hulls rather than a powerset scan.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import Mapping, Sequence

from . import kernel
from .kernel import comparability_rows
from .errors import OpenSetNotInTopology, PointNotInOwnAura
from .finite import (
    PointSet,
    PointUniverse,
    TopologyFamily,
    _as_mask,
    mask_indices,
    sorted_labels,
)


AuraClassification = namedtuple("AuraClassification", "transitive symmetric trivial discrete")

SeparationAxioms = namedtuple("SeparationAxioms", "t0 t1 t2")


class AuraSpace:
    """Validated aura space (X, τ, 𝔞): a topology on X and a scope mask per
    point; immutable.

    Construction is eager: every scope value must be open and contain
    its point, so an invalid aura space never exists.
    """

    __slots__ = ("topology", "scope_masks", "__dict__")

    def __init__(self, topology: TopologyFamily, scope_masks: Sequence[int]):
        scope_masks = tuple(int(m) for m in scope_masks)
        labels = topology.universe.labels
        if len(scope_masks) != len(labels):
            raise ValueError("scope function must assign every point exactly once")
        for i, m in enumerate(scope_masks):
            if m not in topology.mask_set:
                raise OpenSetNotInTopology(labels[i])
            if not (m >> i) & 1:
                raise PointNotInOwnAura(labels[i])
        self.topology = topology
        self.scope_masks = scope_masks

    @property
    def universe(self) -> PointUniverse:
        return self.topology.universe

    @property
    def n(self) -> int:
        return self.topology.universe.n

    @cached_property
    def hull_masks(self) -> tuple:
        """Minimal scope-open set around each point."""
        return tuple(kernel.hull_masks(self.n, self.scope_masks))

    @cached_property
    def comparability_rows(self) -> tuple:
        """Per point, the points comparable with it: the members of its hull
        and the points whose hull contains it. Connectivity floods these
        rows on the whole space, and on any carrier under ``tau_a``."""
        return tuple(comparability_rows(self.hull_masks))

    @cached_property
    def aura_topology_masks(self) -> tuple:
        """Every scope-open set, ascending: all unions of the hulls."""
        return tuple(kernel.tau_a_masks(self.hull_masks))

    @cached_property
    def classification(self) -> "AuraClassification":
        """``classify(self)``, computed once: the space is immutable, so every
        later read returns the same value a fresh call would."""
        return classify(self)

    @cached_property
    def separation(self) -> "SeparationAxioms":
        """``separation_axioms(self)``, computed once, like ``classification``."""
        return separation_axioms(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AuraSpace)
            and self.topology == other.topology
            and self.scope_masks == other.scope_masks
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of (topology, scope masks), computed once: the space is
        immutable, and law caches keyed by spaces hash the same space many
        times."""
        return hash((self.topology, self.scope_masks))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{lab}:{PointSet(self.universe, m).text()}"
            for lab, m in zip(self.universe.labels, self.scope_masks)
        )
        return f"AuraSpace({self.topology!r}, scope {{{pairs}}})"


def make_aura_space(labels, opens, scopes) -> AuraSpace:
    """Convenience builder from label lists.

    ``opens`` is an iterable of label lists, validated as a topology;
    ``scopes`` maps each label to a label list.
    """
    universe = PointUniverse(labels)
    topology = TopologyFamily(universe, {universe.mask_of(o) for o in opens})
    if isinstance(scopes, Mapping):
        masks = [universe.mask_of(scopes[lab]) for lab in universe.labels]
    else:
        masks = [universe.mask_of(s) for s in scopes]
    return AuraSpace(topology, masks)


def space_document(s: AuraSpace) -> dict:
    """The ``points``, ``opens`` and ``aura`` fields of a space's JSON
    document, the inverse of ``make_aura_space``: opens in canonical family
    order, every set as its ascending labels."""
    universe = s.universe
    return {
        "points": list(universe.labels),
        "opens": [sorted_labels(universe, m)
                  for m in s.topology.ordered_masks],
        "aura": {lab: sorted_labels(universe, m)
                 for lab, m in zip(universe.labels, s.scope_masks)},
    }


def aura_closure(s: AuraSpace, a) -> PointSet:
    """Points whose scope meets A. Additive, grounded, extensive."""
    am = _as_mask(s, a)
    return PointSet(s.universe, kernel.aura_closure_mask(s.n, s.scope_masks, am))


def _interior_mask(s: AuraSpace, am: int) -> int:
    """Mask of the points of ``am`` whose whole scope stays inside ``am``."""
    out = 0
    for i, m in enumerate(s.scope_masks):
        if (am >> i) & 1 and not m & ~am:
            out |= 1 << i
    return out


def aura_interior(s: AuraSpace, a) -> PointSet:
    """Points of A whose whole scope stays inside A."""
    return PointSet(s.universe, _interior_mask(s, _as_mask(s, a)))


def derived_set(s: AuraSpace, a) -> PointSet:
    """Points whose scope meets A somewhere else."""
    am = _as_mask(s, a)
    out = 0
    for i, m in enumerate(s.scope_masks):
        if m & (am & ~(1 << i)):
            out |= 1 << i
    return PointSet(s.universe, out)


def is_aura_open(s: AuraSpace, a) -> bool:
    """Every member's scope stays inside the set."""
    am = _as_mask(s, a)
    for i in mask_indices(am):
        if s.scope_masks[i] & ~am:
            return False
    return True


def is_aura_closed(s: AuraSpace, a) -> bool:
    am = _as_mask(s, a)
    return is_aura_open(s, s.universe.full_mask & ~am)


def aura_topology(s: AuraSpace) -> TopologyFamily:
    """The topology of scope-open sets.

    Materialized as all unions of hulls, which is exact and avoids the
    2**n subset scan; it is always a coarsening of the ambient topology.
    """
    return TopologyFamily(s.universe, s.aura_topology_masks, validate=False)


def hull(s: AuraSpace, label: str) -> PointSet:
    """Minimal scope-open set containing the point."""
    return PointSet(s.universe, s.hull_masks[s.universe.index(label)])


def classify(s: AuraSpace) -> AuraClassification:
    n = s.n
    masks = s.scope_masks
    full = s.universe.full_mask
    return AuraClassification(
        transitive=kernel.is_transitive(n, masks),
        symmetric=kernel.is_symmetric(n, masks),
        trivial=all(m == full for m in masks),
        discrete=all(m == 1 << i for i, m in enumerate(masks)),
    )


def separation_axioms(s: AuraSpace) -> SeparationAxioms:
    """Pairwise separation by scope-open sets, decided through hulls.

    The hull is the smallest scope-open neighbourhood, so a point y can
    be kept away from x exactly when y is outside hull(x), and two
    points have disjoint scope-open neighbourhoods exactly when their
    hulls are disjoint.
    """
    hulls = s.hull_masks
    t0 = t1 = t2 = True
    for i in range(s.n):
        for j in range(i + 1, s.n):
            i_in_j = bool((hulls[j] >> i) & 1)
            j_in_i = bool((hulls[i] >> j) & 1)
            if i_in_j and j_in_i:
                t0 = False
            if i_in_j or j_in_i:
                t1 = False
            if hulls[i] & hulls[j]:
                t2 = False
    return SeparationAxioms(t0=t0, t1=t1 and t0, t2=t2 and t1 and t0)


class FiniteMap:
    """Total map between two finite universes, stored as target indices."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: PointUniverse, target: PointUniverse, images: Sequence[int]):
        images = tuple(int(i) for i in images)
        if len(images) != source.n:
            raise ValueError("map must assign every source point")
        for i in images:
            if not 0 <= i < target.n:
                raise ValueError("image index outside the target universe")
        self.source = source
        self.target = target
        self.images = images

    @classmethod
    def from_labels(cls, source: PointUniverse, target: PointUniverse, mapping: Mapping) -> "FiniteMap":
        return cls(source, target, [target.index(mapping[lab]) for lab in source.labels])

    def __call__(self, label: str) -> str:
        return self.target.labels[self.images[self.source.index(label)]]

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.n

    def preimage_mask(self, target_mask: int) -> int:
        out = 0
        for i, img in enumerate(self.images):
            if (target_mask >> img) & 1:
                out |= 1 << i
        return out


def is_aura_continuous(f: FiniteMap, src: AuraSpace, dst: AuraSpace) -> bool:
    """Preimages of scope-open sets are scope-open.

    Tested on the hulls of the target alone: every scope-open set is a
    union of hulls, a preimage of a union is the union of the preimages,
    and a union of scope-open sets is scope-open.
    """
    if f.source != src.universe or f.target != dst.universe:
        raise ValueError("map endpoints do not match the given spaces")
    return all(is_aura_open(src, f.preimage_mask(h)) for h in set(dst.hull_masks))
