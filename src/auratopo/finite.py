"""Finite point universes, subsets as bitmasks, and plain topologies.

A universe is an ordered tuple of at most 64 distinct labels; a subset
is the int with bit i set for the i-th label. Set families are stored
deduplicated and ordered canonically: by cardinality first, then
lexicographically on the sorted index lists of their members.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from operator import and_
from typing import Iterable, Sequence

from . import kernel
from .errors import (
    MissingEmpty,
    MissingWhole,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    UniverseTooLarge,
)

MAX_POINTS = 64


class PointUniverse:
    """Ordered collection of point labels, capped at 64."""

    __slots__ = ("labels", "_index", "n", "full_mask")

    def __init__(self, labels: Sequence[str]):
        labels = tuple(str(x) for x in labels)
        if len(labels) > MAX_POINTS:
            raise UniverseTooLarge(f"{len(labels)} points exceed the {MAX_POINTS} point budget")
        index = {}
        for i, lab in enumerate(labels):
            if lab in index:
                raise ValueError(f"duplicate point label {lab!r}")
            index[lab] = i
        self.labels = labels
        self._index = index
        self.n = len(labels)
        self.full_mask = (1 << self.n) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"no point labelled {label!r}") from None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, PointUniverse) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"PointUniverse({list(self.labels)!r})"

    def mask_of(self, labels: Iterable[str]) -> int:
        """Mask of the labelled points; an unknown label is a ``KeyError``."""
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return mask

    def subset(self, labels: Iterable[str]) -> "PointSet":
        return PointSet(self, self.mask_of(labels))

    def full_set(self) -> "PointSet":
        return PointSet(self, self.full_mask)

    def empty_set(self) -> "PointSet":
        return PointSet(self, 0)


def mask_indices(mask: int):
    """Ascending bit positions of a mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def family_key(mask: int):
    """Canonical sort key of one family member. Cached: enumeration and
    rendering sort the same few masks many times over."""
    indices = tuple(mask_indices(mask))
    return (len(indices), indices)


def sorted_labels(universe: PointUniverse, mask: int) -> list:
    """Member labels of a mask, ascending: a set's form in JSON documents."""
    return sorted(universe.labels[i] for i in mask_indices(mask))


class PointSet:
    """Immutable subset of a universe, backed by one int."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe: PointUniverse, mask: int):
        if mask & ~universe.full_mask:
            raise ValueError("mask has bits outside the universe")
        self.universe = universe
        self.mask = mask

    def labels(self) -> tuple:
        return tuple(self.universe.labels[i] for i in mask_indices(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, label: str) -> bool:
        return bool(self.mask >> self.universe.index(label) & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and self.universe == other.universe
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.universe.labels, self.mask))

    def text(self) -> str:
        """Canonical display: member names ascending, {} when empty."""
        return "{" + ",".join(sorted_labels(self.universe, self.mask)) + "}"

    def __repr__(self) -> str:
        return self.text()


def family_text(universe: PointUniverse, masks) -> str:
    """A set family on one line: members in canonical family order, each as
    ``PointSet.text()``, separated by spaces."""
    return " ".join(PointSet(universe, m).text() for m in sorted(masks, key=family_key))


class TopologyFamily:
    """Deduplicated family of subsets, kept in canonical order.

    ``validate=False`` is reserved for families produced by this
    package's own closure constructions, where the axioms hold by
    construction; everything user-supplied goes through validation.
    """

    __slots__ = ("universe", "mask_set", "__dict__")

    def __init__(self, universe: PointUniverse, masks: Iterable[int], validate: bool = True):
        self.universe = universe
        self.mask_set = frozenset(masks)
        if validate:
            self._validate()

    def _validate(self) -> None:
        """Reject the family unless it is a topology, naming the first violation.

        The bits, empty-set and whole-set checks come first. Then the family
        is accepted through its minimal opens m(x), the intersection of the
        members containing x, with n·|T| set lookups: T is a topology exactly
        when ``o | m(x)`` is in T for every member o and every point x
        (``o = {}`` puts every m(x) itself in T). Let U be the unions of the
        m(x):

        - T ⊆ U: x ∈ m(x) ⊆ O for every x in a member O, so O is the union
          of the m(x) over its points.
        - U ⊆ T: every union of m(x) is reached from {} by adding one m(x)
          at a time, and each step stays in T.
        - U is closed under unions by construction, and under intersections
          because y ∈ m(x) ∈ T gives m(y) ⊆ m(x): every y in the
          intersection of two sets of U has m(y) inside both, so the
          intersection is the union of the m(y) over its own points.

        A topology passes, since each m(x) is a finite intersection of
        members. Nothing is built along the way, so the check stays
        O(|T|·n) on any input. Only a rejected family pays for the
        canonical pair scans (unions, then intersections), which exist to
        name the same first violated pair as the definition would.
        """
        full = self.universe.full_mask
        for m in self.mask_set:
            if m & ~full:
                raise ValueError("family member has bits outside the universe")
        if 0 not in self.mask_set:
            raise MissingEmpty("the empty set is missing")
        if full not in self.mask_set:
            raise MissingWhole("the whole universe is missing")
        present = self.mask_set
        if all(o | m in present for m in set(self.minimal_masks) for o in present):
            return
        ordered = self.ordered_masks
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                if a | b not in present:
                    raise NotClosedUnderUnion(
                        PointSet(self.universe, a), PointSet(self.universe, b)
                    )
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                if a & b not in present:
                    raise NotClosedUnderIntersection(
                        PointSet(self.universe, a), PointSet(self.universe, b)
                    )

    @cached_property
    def minimal_masks(self) -> tuple:
        """m(x) for each point: the intersection of the members containing x.

        On a topology this is the smallest open neighbourhood of x.
        """
        full = self.universe.full_mask
        members = self.mask_set
        return tuple(
            reduce(and_, [o for o in members if o >> i & 1], full)
            for i in range(self.universe.n)
        )

    @cached_property
    def ordered_masks(self) -> tuple:
        return tuple(sorted(self.mask_set, key=family_key))

    def members(self) -> tuple:
        return tuple(PointSet(self.universe, m) for m in self.ordered_masks)

    def __len__(self) -> int:
        return len(self.mask_set)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TopologyFamily)
            and self.universe == other.universe
            and self.mask_set == other.mask_set
        )

    def __hash__(self) -> int:
        return hash((self.universe.labels, self.mask_set))

    def canonical_key(self) -> tuple:
        return tuple(family_key(m) for m in self.ordered_masks)

    def text(self) -> str:
        return "{" + ", ".join(s.text() for s in self.members()) + "}"

    def __repr__(self) -> str:
        return f"TopologyFamily({self.text()})"


def validate_topology(universe: PointUniverse, sets: Iterable) -> TopologyFamily:
    """Check the finite topology axioms, reporting the first violation.

    Checks run in a fixed order (empty set present, whole set present,
    unions, intersections). A topology is accepted through its minimal
    opens in O(|T|·n), with no pair scan (proof in
    ``TopologyFamily._validate``). Only a rejected family has its pairs
    scanned canonically, to name the witness, so the error raised is
    deterministic and the same as a scan of every pair would give.
    """
    masks = set()
    for s in sets:
        masks.add(s.mask if isinstance(s, PointSet) else int(s))
    return TopologyFamily(universe, masks, validate=True)


def generate_topology(universe: PointUniverse, subbasis: Iterable) -> TopologyFamily:
    """Topology generated by an arbitrary subbasis.

    Finite intersections first (the empty intersection contributes the
    whole universe), then all unions, then the empty set.
    """
    base = {universe.full_mask}
    for s in subbasis:
        m = s.mask if isinstance(s, PointSet) else int(s)
        if m & ~universe.full_mask:
            raise ValueError("subbasis member has bits outside the universe")
        base |= {m & r for r in base}
        base.add(m)
    opens = set(kernel.union_closure(sorted(base)))
    opens.add(0)
    return TopologyFamily(universe, opens, validate=False)


def _as_mask(space, a) -> int:
    if isinstance(a, PointSet):
        if a.universe != space.universe:
            raise ValueError("set lives in a different universe")
        return a.mask
    m = int(a)
    if m & ~space.universe.full_mask:
        raise ValueError("mask has bits outside the universe")
    return m


def tau_closure(topology: TopologyFamily, a) -> PointSet:
    """Smallest closed superset: the complement of every open missing A."""
    am = _as_mask(topology, a)
    uncovered = 0
    for o in topology.mask_set:
        if not o & am:
            uncovered |= o
    return PointSet(topology.universe, topology.universe.full_mask & ~uncovered)


def tau_interior(topology: TopologyFamily, a) -> PointSet:
    """Largest open subset: the union of opens inside A."""
    am = _as_mask(topology, a)
    inside = 0
    for o in topology.mask_set:
        if not o & ~am:
            inside |= o
    return PointSet(topology.universe, inside)


def minimal_open(topology: TopologyFamily, label: str) -> PointSet:
    """Intersection of every open containing the point.

    On a finite space this is itself open, and it is the smallest open
    neighbourhood of the point.
    """
    return PointSet(topology.universe, topology.minimal_masks[topology.universe.index(label)])


def is_tau_connected(topology: TopologyFamily) -> bool:
    """No proper nonempty clopen set exists."""
    full = topology.universe.full_mask
    for o in topology.mask_set:
        if o != 0 and o != full and (full & ~o) in topology.mask_set:
            return False
    return True
