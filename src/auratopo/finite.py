"""Finite point universes, subsets as bitmasks, and plain topologies.

A universe is an ordered tuple of at most 64 distinct labels; a subset
is the int with bit i set for the i-th label. Set families are stored
deduplicated and ordered canonically: by cardinality first, then
lexicographically on the sorted index lists of their members.

Sets render through per-universe byte tables (``byte_table_fold``): one maps
index bits to label-rank bits, one maps rank bits to label tuples, so a
set's sorted labels cost a few lookups per byte of its mask.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from operator import add, getitem, or_
from typing import Callable, Iterable, Sequence

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

    __slots__ = ("labels", "_index", "n", "full_mask", "_ranked")

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
        self._ranked = None

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

    def ranked(self, mask: int) -> tuple:
        """Member labels of a mask in ascending label order.

        A label's rank is its place among the sorted labels. The mask's
        index bits map to rank bits, and the rank bits to their labels,
        through ``byte_table_fold`` tables. They are built on first use, so
        a universe that never renders a set never pays for them; when the
        labels are already sorted, ranks are indices and the first step
        goes.
        """
        read = self._ranked
        if read is None:
            read = self._ranked = self._ranked_reader()
        return read(mask)

    def _ranked_reader(self) -> Callable[[int], tuple]:
        order = sorted(range(self.n), key=self.labels.__getitem__)
        names = byte_table_fold([(self.labels[i],) for i in order], add, ())
        if order == list(range(self.n)):
            return names
        rank_bits = [0] * self.n
        for rank, i in enumerate(order):
            rank_bits[i] = 1 << rank
        ranks = byte_table_fold(rank_bits, or_, 0)
        return lambda mask: names(ranks(mask))

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


def byte_table_fold(items: Sequence, op, empty) -> Callable[[int], object]:
    """A function folding ``op`` over the items of a mask's set bits, by
    table lookups, one per byte of the mask.

    Table k covers mask bits 8k to 8k + 7: entry v is ``empty`` folded with
    ``items[8k + j]`` for every set bit j of v, lowest bit first (for
    ``add`` on tuples, the lowest item comes first). The last table has
    2**(bits it covers) entries, so the function accepts exactly the masks
    of ``len(items)`` bits. Masks of one or two bytes, every universe of at
    most 16 points, take no loop at all.
    """
    tables = []
    for start in range(0, len(items) or 1, 8):
        chunk = items[start:start + 8]
        table = [empty] * (1 << len(chunk))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = op(chunk[low.bit_length() - 1], table[v ^ low])
        tables.append(tuple(table))
    if len(tables) == 1:
        return tables[0].__getitem__
    if len(tables) == 2:
        low_byte, high_byte = tables
        return lambda mask: op(low_byte[mask & 255], high_byte[mask >> 8])
    return lambda mask: reduce(op, map(getitem, tables, mask.to_bytes(len(tables), "little")))


# Each byte with its eight bits in reverse order.
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_LOW64 = (1 << 64) - 1


@lru_cache(maxsize=None)
def family_key(mask: int) -> int:
    """Canonical sort key of one family member, as one int: the member's
    size, then the complement of its 64-bit bit reversal.

    It orders masks exactly as ``(size, ascending indices)`` does. Between
    two sets of one size, the smaller index tuple is the one holding the
    least element of their symmetric difference: the tuples agree before
    that element. Reversing the bits makes it the highest differing bit,
    so that set has the larger reversal and the smaller complement.
    Cached: enumeration and rendering sort the same few masks many times.
    """
    reversed_bits = int.from_bytes(mask.to_bytes(8, "little").translate(_REVERSED_BITS), "big")
    return mask.bit_count() << 64 | _LOW64 ^ reversed_bits


def sorted_labels(universe: PointUniverse, mask: int) -> list:
    """Member labels of a mask, ascending: a set's form in JSON documents."""
    return list(universe.ranked(mask))


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
        return "{" + ",".join(self.universe.ranked(self.mask)) + "}"

    def __repr__(self) -> str:
        return self.text()


def family_text(universe: PointUniverse, masks) -> str:
    """A set family on one line: members in canonical family order, each as
    ``PointSet.text()``, separated by spaces."""
    ranked = universe.ranked
    return " ".join(["{" + ",".join(ranked(m)) + "}" for m in sorted(masks, key=family_key)])


def _closed_under_minimal_unions(present: frozenset, minimal: set) -> bool:
    """``o | m in present`` for every member o and minimal open m: the accept
    test of ``TopologyFamily._validate``, in plain loops, which run faster
    than ``all()`` over a generator."""
    for m in minimal:
        for o in present:
            if o | m not in present:
                return False
    return True


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
        if _closed_under_minimal_unions(present, set(self.minimal_masks)):
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
        out = []
        for i in range(self.universe.n):
            bit = 1 << i
            meet = full
            for o in members:
                if o & bit:
                    meet &= o
            out.append(meet)
        return tuple(out)

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
    """The mask of a ``PointSet`` or a plain int mask of the space's universe.

    Anything else is a ``TypeError``: ``int()`` would truncate a float and
    read a digit string such as ``"3"`` as a mask rather than a label.
    """
    if type(a) is not int:
        if not isinstance(a, PointSet):
            raise TypeError(f"expected a PointSet or an int mask, not {type(a).__name__}")
        if a.universe != space.universe:
            raise ValueError("set lives in a different universe")
        return a.mask
    if a & ~space.universe.full_mask:
        raise ValueError("mask has bits outside the universe")
    return a


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
