"""Eventually periodic sequences and scope convergence.

A sequence is a finite prefix followed by a nonempty cycle repeated
forever. Convergence to x means the sequence eventually stays inside
every scope-open set around x, which on finite universes reduces to
the cycle's range fitting inside the hull of x. On transitive spaces
the hull collapses to the scope itself, which is the convergence
criterion the law suite checks both ways.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import EmptyUniverse, SizeOutOfRange
from .finite import PointSet, PointUniverse
from .aura import AuraSpace

# The sequential-compactness oracle tries (1 + n + n²)(n + n² + n³)
# sequences, 11,094 at 6 points; it refuses larger universes.
ORACLE_LIMIT = 6


@dataclass(frozen=True)
class EvPSequence:
    universe: PointUniverse
    prefix: tuple
    cycle: tuple
    _cycle_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("cycle must be nonempty")
        for i in self.prefix + self.cycle:
            if not 0 <= i < self.universe.n:
                raise ValueError("sequence entry outside the universe")
        m = 0
        for i in self.cycle:
            m |= 1 << i
        object.__setattr__(self, "_cycle_mask", m)

    @classmethod
    def from_labels(cls, universe: PointUniverse, prefix: Sequence[str], cycle: Sequence[str]) -> "EvPSequence":
        return cls(
            universe,
            tuple(universe.index(x) for x in prefix),
            tuple(universe.index(x) for x in cycle),
        )

    def value_at(self, k: int) -> int:
        if k < len(self.prefix):
            return self.prefix[k]
        return self.cycle[(k - len(self.prefix)) % len(self.cycle)]

    def cycle_mask(self) -> int:
        return self._cycle_mask

    def text(self) -> str:
        p = ",".join(self.universe.labels[i] for i in self.prefix)
        c = ",".join(self.universe.labels[i] for i in self.cycle)
        return f"{p};{c}"


def short_sequences(universe: PointUniverse) -> Iterator[EvPSequence]:
    """Every sequence with a prefix of length 0 to 2 and a cycle of length
    1 to 3: prefixes in the outer loop, each by length, then in
    lexicographic order, and cycles likewise."""
    points = range(universe.n)
    cycles = [c for r in (1, 2, 3) for c in itertools.product(points, repeat=r)]
    for r in (0, 1, 2):
        for prefix in itertools.product(points, repeat=r):
            for cycle in cycles:
                yield EvPSequence(universe, prefix, cycle)


def parse_sequence(universe: PointUniverse, text: str) -> EvPSequence:
    """Parse "p1,p2;c1,c2" into a sequence; the prefix may be empty."""
    if ";" not in text:
        raise ValueError('sequence syntax is "p1,p2,...;c1,c2,..." with a nonempty cycle')
    prefix_text, cycle_text = text.split(";", 1)
    prefix = [x for x in prefix_text.split(",") if x != ""]
    cycle = [x for x in cycle_text.split(",") if x != ""]
    if not cycle:
        raise ValueError("cycle must name at least one point")
    return EvPSequence.from_labels(universe, prefix, cycle)


def aura_limits(s: AuraSpace, q: EvPSequence) -> PointSet:
    """All limits: points whose hull swallows the cycle's range.

    The prefix never matters; only the values that recur forever do.
    """
    if q.universe != s.universe:
        raise ValueError("sequence lives in a different universe")
    cm = q.cycle_mask()
    out = 0
    for i, h in enumerate(s.hull_masks):
        if not cm & ~h:
            out |= 1 << i
    return PointSet(s.universe, out)


def converges_to(s: AuraSpace, q: EvPSequence, label: str) -> bool:
    return label in aura_limits(s, q)


def transitive_criterion(s: AuraSpace, q: EvPSequence, label: str) -> bool:
    """Cycle range inside the scope of the point.

    Equivalent to convergence on transitive spaces; in general it is
    the stronger condition, since the scope sits inside the hull.
    """
    if q.universe != s.universe:
        raise ValueError("sequence lives in a different universe")
    return not q.cycle_mask() & ~s.scope_masks[s.universe.index(label)]


@dataclass(frozen=True)
class SubsequenceRule:
    """Arithmetic progression of indices selecting one constant value."""

    start: int
    period: int

    def index(self, k: int) -> int:
        return self.start + k * self.period

    def describe(self) -> str:
        return f"indices {self.start} + {self.period}k"


@dataclass(frozen=True)
class SubsequenceWitness:
    point: str
    rule: SubsequenceRule


def find_convergent_subsequence(s: AuraSpace, q: EvPSequence) -> SubsequenceWitness:
    """Pigeonhole witness: some point recurs, its occurrences converge.

    The witness is the least-index point of the cycle; the rule selects
    one occurrence per cycle pass, a constant subsequence converging to
    the witness itself.
    """
    if s.n == 0:
        raise EmptyUniverse("sequences need at least one point")
    if q.universe != s.universe:
        raise ValueError("sequence lives in a different universe")
    point = min(q.cycle)
    rule = SubsequenceRule(
        start=len(q.prefix) + q.cycle.index(point), period=len(q.cycle)
    )
    return SubsequenceWitness(point=s.universe.labels[point], rule=rule)


def is_aura_sequentially_compact(s: AuraSpace, oracle: bool = False) -> bool:
    """Every sequence has a convergent subsequence.

    Constant true on finite universes by pigeonhole. The oracle
    re-derives it over all sequences with prefix up to 2 and cycle up
    to 3 by checking the produced witness really is a limit of the
    selected constant subsequence; past ``ORACLE_LIMIT`` points it raises
    ``SizeOutOfRange`` before trying any.
    """
    if s.n == 0:
        return True
    if not oracle:
        return True
    if s.n > ORACLE_LIMIT:
        raise SizeOutOfRange(f"oracle mode enumerates sequences only up to {ORACLE_LIMIT} points")
    for q in short_sequences(s.universe):
        w = find_convergent_subsequence(s, q)
        i = s.universe.index(w.point)
        for k in range(3):
            if q.value_at(w.rule.index(k)) != i:
                return False
        constant = EvPSequence(s.universe, (), (i,))
        if not converges_to(s, constant, w.point):
            return False
    return True
