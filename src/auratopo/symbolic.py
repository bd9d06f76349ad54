"""Exact set algebra and compactness verdicts for the built-in infinite models.

Sets over the naturals {1, 2, 3, ...} are kept in a closed class: a finite
part plus an optional upper tail {n : n >= tailStart}.  Union, intersection,
and complement stay inside the class, so cover arithmetic is decided exactly
instead of by truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import UnknownFamily

__all__ = [
    "SymbolicSet",
    "Verdict",
    "CompactnessReport",
    "SymbolicModel",
    "SuccessorModel",
    "DiscreteModel",
    "TrivialModel",
    "CofiniteTrivialModel",
    "MODEL_NAMES",
    "get_model",
    "subcover_check",
]


@dataclass(frozen=True)
class SymbolicSet:
    """Subset of {1, 2, 3, ...} of the form finite | {n : n >= tail}.

    The representation is canonical: elements at or above the tail are
    dropped, and a finite element just below the tail is absorbed into it.
    Equality of sets is therefore equality of representations.
    """

    finite: frozenset = frozenset()
    tail: Optional[int] = None

    def __post_init__(self):
        members = frozenset(self.finite)
        start = self.tail
        for x in members:
            if not isinstance(x, int) or x < 1:
                raise ValueError(f"natural number expected, got {x!r}")
        if start is not None:
            if not isinstance(start, int) or start < 1:
                raise ValueError(f"tail start must be a natural, got {start!r}")
            members = frozenset(x for x in members if x < start)
            # absorb a contiguous run ending just below the tail
            while start - 1 in members:
                start -= 1
                members = members - {start}
        object.__setattr__(self, "finite", members)
        object.__setattr__(self, "tail", start)

    @classmethod
    def empty(cls) -> "SymbolicSet":
        return cls()

    @classmethod
    def of(cls, *elements: int) -> "SymbolicSet":
        return cls(frozenset(elements))

    @classmethod
    def tail_from(cls, start: int) -> "SymbolicSet":
        return cls(frozenset(), start)

    @classmethod
    def all_naturals(cls) -> "SymbolicSet":
        return cls(frozenset(), 1)

    def contains(self, n: int) -> bool:
        if self.tail is not None and n >= self.tail:
            return True
        return n in self.finite

    def __contains__(self, n: int) -> bool:
        return self.contains(n)

    def is_empty(self) -> bool:
        return not self.finite and self.tail is None

    def is_all(self) -> bool:
        return self.tail == 1

    def min_element(self) -> Optional[int]:
        if self.finite:
            return min(self.finite)
        return self.tail

    def union(self, other: "SymbolicSet") -> "SymbolicSet":
        tails = [t for t in (self.tail, other.tail) if t is not None]
        return SymbolicSet(self.finite | other.finite, min(tails) if tails else None)

    def intersection(self, other: "SymbolicSet") -> "SymbolicSet":
        if self.tail is not None and other.tail is not None:
            tail = max(self.tail, other.tail)
        else:
            tail = None
        kept = {x for x in self.finite if other.contains(x)}
        kept |= {x for x in other.finite if self.contains(x)}
        return SymbolicSet(frozenset(kept), tail)

    def complement(self) -> "SymbolicSet":
        if self.tail is None:
            if not self.finite:
                return SymbolicSet.all_naturals()
            top = max(self.finite)
            holes = frozenset(x for x in range(1, top) if x not in self.finite)
            return SymbolicSet(holes, top + 1)
        holes = frozenset(x for x in range(1, self.tail) if x not in self.finite)
        return SymbolicSet(holes, None)

    def difference(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.intersection(other.complement())

    def __or__(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.union(other)

    def __and__(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.intersection(other)

    def __sub__(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.difference(other)

    def __invert__(self) -> "SymbolicSet":
        return self.complement()

    def shift_down(self) -> "SymbolicSet":
        """The set {n : n + 1 in self}, clamped to the naturals."""
        finite = frozenset(x - 1 for x in self.finite if x >= 2)
        tail = None if self.tail is None else max(self.tail - 1, 1)
        return SymbolicSet(finite, tail)

    def text(self) -> str:
        parts = []
        if self.finite:
            parts.append("{" + ",".join(str(x) for x in sorted(self.finite)) + "}")
        if self.tail is not None:
            parts.append("{n>=%d}" % self.tail)
        if not parts:
            return "{}"
        return " | ".join(parts)

    def to_json(self) -> dict:
        return {"finite": sorted(self.finite), "tail": self.tail}

    def __repr__(self) -> str:
        return f"SymbolicSet({self.text()})"


@dataclass(frozen=True)
class Verdict:
    """One decided property: the boolean, a one-line argument, and optionally
    the named cover family that witnesses a negative answer.  Verdicts about
    the ambient topology of an uncountable carrier cannot be computed here;
    those are recorded with imported=True."""

    value: bool
    reason: str
    witness_family: Optional[str] = None
    imported: bool = False

    def to_json(self) -> dict:
        out = {"value": self.value, "reason": self.reason}
        if self.witness_family is not None:
            out["witnessFamily"] = self.witness_family
        if self.imported:
            out["imported"] = True
        return out


@dataclass(frozen=True)
class CompactnessReport:
    """Compactness-style verdicts for one model, in a fixed key order."""

    model: str
    carrier: str
    aura_compact: Verdict
    countably_aura_compact: Verdict
    aura_lindelof: Verdict
    aura_limit_point_compact: Verdict
    aura_sequentially_compact: Verdict
    tau_compact: Verdict

    def verdicts(self) -> dict:
        return {
            "aCompact": self.aura_compact,
            "countablyACompact": self.countably_aura_compact,
            "aLindelof": self.aura_lindelof,
            "aLimitPointCompact": self.aura_limit_point_compact,
            "aSequentiallyCompact": self.aura_sequentially_compact,
            "tauCompact": self.tau_compact,
        }

    def lines(self) -> list:
        out = [f"model: {self.model}", f"carrier: {self.carrier}"]
        for key, verdict in self.verdicts().items():
            flag = " [imported]" if verdict.imported else ""
            out.append(f"{key}: {str(verdict.value).lower()}{flag}")
            if verdict.witness_family is not None:
                out.append(f"  witness family: {verdict.witness_family}")
            out.append(f"  reason: {verdict.reason}")
        return out

    def text(self) -> str:
        return "\n".join(self.lines())

    def to_json(self) -> dict:
        out = {"model": self.model, "carrier": self.carrier}
        for key, verdict in self.verdicts().items():
            out[key] = verdict.to_json()
        return out


class SymbolicModel:
    """A fixed infinite space with exact decision procedures.

    Subclasses define the scope map in closed form; closure, derived set,
    openness of a symbolic set, and the compactness report are then decided
    without enumeration. Each defines ``carrier_text``, ``is_aura_open``,
    ``aura_closure``, ``derived_set``, ``cover_families`` (the named
    parametric families usable in subcover checks) and
    ``compactness_report``.
    """

    name = ""


def _whole_family(_: int) -> SymbolicSet:
    return SymbolicSet.all_naturals()


class SuccessorModel(SymbolicModel):
    """Naturals where each point's scope is itself and its successor."""

    name = "nat-successor"

    def carrier_text(self) -> str:
        return "N = {1,2,3,...}, scope(n) = {n,n+1}"

    def is_aura_open(self, s: SymbolicSet) -> bool:
        # a set closed under scopes must contain n+1 with every n: empty or a tail
        return s.is_empty() or (s.tail is not None and not s.finite)

    def aura_closure(self, s: SymbolicSet) -> SymbolicSet:
        return s.union(s.shift_down())

    def derived_set(self, s: SymbolicSet) -> SymbolicSet:
        return s.shift_down()

    def cover_families(self) -> dict:
        return {"tails": SymbolicSet.tail_from, "whole": _whole_family}

    def compactness_report(self) -> CompactnessReport:
        return CompactnessReport(
            model=self.name,
            carrier=self.carrier_text(),
            aura_compact=Verdict(
                False,
                "the tails {n>=k} form a scope-open cover; a finite subfamily "
                "with least parameter k unites to {n>=k}, which misses "
                "1..k-1 whenever k >= 2",
                witness_family="tails",
            ),
            countably_aura_compact=Verdict(
                False,
                "the tail cover is countable, so the same witness applies",
                witness_family="tails",
            ),
            aura_lindelof=Verdict(
                True,
                "every scope-open cover consists of tails plus possibly N; "
                "choosing one member containing each n selects a countable "
                "subcover",
            ),
            aura_limit_point_compact=Verdict(
                True,
                "an infinite set contains some a >= 2, and then a-1 has scope "
                "{a-1,a} meeting the set away from itself",
            ),
            aura_sequentially_compact=Verdict(
                True,
                "the only scope-open set containing 1 is N itself, so every "
                "sequence converges to 1",
            ),
            tau_compact=Verdict(
                False,
                "the ambient topology is discrete on an infinite carrier",
                imported=True,
            ),
        )


class DiscreteModel(SymbolicModel):
    """Naturals where each point's scope is just itself."""

    name = "nat-discrete"

    def carrier_text(self) -> str:
        return "N = {1,2,3,...}, scope(n) = {n}"

    def is_aura_open(self, s: SymbolicSet) -> bool:
        return True

    def aura_closure(self, s: SymbolicSet) -> SymbolicSet:
        return s

    def derived_set(self, s: SymbolicSet) -> SymbolicSet:
        return SymbolicSet.empty()

    def cover_families(self) -> dict:
        return {
            "singletons": SymbolicSet.of,
            "tails": SymbolicSet.tail_from,
            "whole": _whole_family,
        }

    def compactness_report(self) -> CompactnessReport:
        return CompactnessReport(
            model=self.name,
            carrier=self.carrier_text(),
            aura_compact=Verdict(
                False,
                "the singletons cover N and every set is scope-open; a finite "
                "subfamily covers only finitely many points",
                witness_family="singletons",
            ),
            countably_aura_compact=Verdict(
                False,
                "the singleton cover is countable, so the same witness applies",
                witness_family="singletons",
            ),
            aura_lindelof=Verdict(
                True,
                "the carrier is countable; choosing one member per point "
                "selects a countable subcover",
            ),
            aura_limit_point_compact=Verdict(
                False,
                "every derived set is empty, so no infinite set has a limit "
                "point",
            ),
            aura_sequentially_compact=Verdict(
                False,
                "a subsequence converging to x must eventually sit inside the "
                "scope-open set {x}; the sequence 1,2,3,... never does",
            ),
            tau_compact=Verdict(
                False,
                "the ambient topology is discrete on an infinite carrier",
                imported=True,
            ),
        )


class TrivialModel(SymbolicModel):
    """An infinite carrier where every point's scope is the whole space.

    The carrier is abstract; points are addressed by natural-number labels
    and the carrier name only affects display and the imported verdict about
    the ambient topology.
    """

    name = "trivial"

    def __init__(self, carrier_label: str = "R"):
        self.carrier_label = carrier_label

    def carrier_text(self) -> str:
        return f"{self.carrier_label} (infinite), scope(x) = {self.carrier_label}"

    def is_aura_open(self, s: SymbolicSet) -> bool:
        return s.is_empty() or s.is_all()

    def aura_closure(self, s: SymbolicSet) -> SymbolicSet:
        if s.is_empty():
            return s
        return SymbolicSet.all_naturals()

    def derived_set(self, s: SymbolicSet) -> SymbolicSet:
        if s.is_empty():
            return s
        if s.tail is None and len(s.finite) == 1:
            return s.complement()
        return SymbolicSet.all_naturals()

    def cover_families(self) -> dict:
        return {"whole": _whole_family}

    def _ambient_verdict(self) -> Verdict:
        return Verdict(
            False,
            f"the standard topology on {self.carrier_label} is not compact",
            imported=True,
        )

    def compactness_report(self) -> CompactnessReport:
        whole = self.carrier_label
        return CompactnessReport(
            model=self.name,
            carrier=self.carrier_text(),
            aura_compact=Verdict(
                True,
                f"the only scope-open sets are {{}} and {whole}, so every "
                f"scope-open cover contains {whole} itself",
            ),
            countably_aura_compact=Verdict(
                True, "implied by scope-compactness"
            ),
            aura_lindelof=Verdict(
                True, "implied by scope-compactness"
            ),
            aura_limit_point_compact=Verdict(
                True,
                "any set with two or more points has every point of the "
                "carrier as a limit point",
            ),
            aura_sequentially_compact=Verdict(
                True,
                "every sequence converges to every point: the only scope-open "
                "set containing a point is the whole carrier",
            ),
            tau_compact=self._ambient_verdict(),
        )


class CofiniteTrivialModel(TrivialModel):
    """Naturals under the cofinite topology, every scope the whole carrier."""

    name = "cofinite-trivial"

    def __init__(self):
        super().__init__(carrier_label="N")

    def carrier_text(self) -> str:
        return "N = {1,2,3,...} with the cofinite topology, scope(n) = N"

    def _ambient_verdict(self) -> Verdict:
        return Verdict(
            True,
            "the cofinite topology on any set is compact",
            imported=True,
        )


MODEL_NAMES = ("nat-successor", "nat-discrete", "trivial", "cofinite-trivial")


def get_model(name: str, carrier_label: str = "R") -> SymbolicModel:
    if name == "nat-successor":
        return SuccessorModel()
    if name == "nat-discrete":
        return DiscreteModel()
    if name == "trivial":
        return TrivialModel(carrier_label)
    if name == "cofinite-trivial":
        return CofiniteTrivialModel()
    raise ValueError(f"unknown symbolic model {name!r}")


def subcover_check(model: SymbolicModel, family: str, params: Iterable[int]) -> bool:
    """Decide exactly whether the chosen members of a named cover family
    cover the carrier.  Raises UnknownFamily for a family the model does not
    offer."""
    families = model.cover_families()
    if family not in families:
        raise UnknownFamily(family)
    build = families[family]
    union = SymbolicSet.empty()
    for p in params:
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"family parameter must be a natural, got {p!r}")
        union = union.union(build(p))
    return union.is_all()
