"""The built-in infinite models: each is a scope rule plus narrated verdicts.

A model's scope rule is either a tuple of offsets containing 0, where
scope(n) = {n + o}, or WHOLE, where every scope is the whole carrier.
Closure, derived set and openness are decided from the rule, the way the
finite layer reads them off scope masks. The six compactness verdicts are
not decided: each model carries them as text, with a one-line argument
and, for a negative answer, the named cover family that witnesses it, which
``subcover_check`` tests by exact cover arithmetic.

Sets over the naturals {1, 2, 3, ...} are kept in a closed class: a finite
part plus an optional upper tail {n : n >= tailStart}.  Union, intersection,
and complement stay inside the class, so cover arithmetic is decided exactly
instead of by truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

from .errors import UnknownFamily

__all__ = [
    "SymbolicSet",
    "Verdict",
    "CompactnessReport",
    "SymbolicModel",
    "WHOLE",
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

    def __contains__(self, n: int) -> bool:
        if self.tail is not None and n >= self.tail:
            return True
        return n in self.finite

    def is_empty(self) -> bool:
        return not self.finite and self.tail is None

    def is_all(self) -> bool:
        return self.tail == 1

    def min_element(self) -> Optional[int]:
        if self.finite:
            return min(self.finite)
        return self.tail

    def __or__(self, other: "SymbolicSet") -> "SymbolicSet":
        tails = [t for t in (self.tail, other.tail) if t is not None]
        return SymbolicSet(self.finite | other.finite, min(tails) if tails else None)

    def __and__(self, other: "SymbolicSet") -> "SymbolicSet":
        if self.tail is not None and other.tail is not None:
            tail = max(self.tail, other.tail)
        else:
            tail = None
        kept = {x for x in self.finite if x in other}
        kept |= {x for x in other.finite if x in self}
        return SymbolicSet(frozenset(kept), tail)

    def __invert__(self) -> "SymbolicSet":
        if self.tail is None:
            if not self.finite:
                return SymbolicSet.all_naturals()
            top = max(self.finite)
            holes = frozenset(x for x in range(1, top) if x not in self.finite)
            return SymbolicSet(holes, top + 1)
        holes = frozenset(x for x in range(1, self.tail) if x not in self.finite)
        return SymbolicSet(holes, None)

    def __sub__(self, other: "SymbolicSet") -> "SymbolicSet":
        return self & ~other

    def shift_down(self, by: int = 1) -> "SymbolicSet":
        """The set {n : n + by in self}, clamped to the naturals."""
        finite = frozenset(x - by for x in self.finite if x > by)
        tail = None if self.tail is None else max(self.tail - by, 1)
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


WHOLE = "whole"

_FAMILIES = {
    "singletons": SymbolicSet.of,
    "tails": SymbolicSet.tail_from,
    "whole": lambda _: SymbolicSet.all_naturals(),
}


@dataclass(frozen=True)
class SymbolicModel:
    """An infinite space given by its scope rule, with narrated verdicts.

    ``rule`` is WHOLE, where every scope is the whole carrier, or a tuple
    of nonnegative offsets containing 0, where scope(n) = {n + o : o in
    rule}. Closure, derived set and openness are read off the rule.
    ``families`` names the parametric cover families usable in subcover
    checks; ``verdicts`` holds the six verdicts in CompactnessReport field
    order, each with its one-line argument.
    """

    name: str
    carrier: str
    rule: Union[str, Tuple[int, ...]]
    families: Tuple[str, ...]
    verdicts: Tuple[Verdict, ...]

    def carrier_text(self) -> str:
        return self.carrier

    def derived_set(self, s: SymbolicSet) -> SymbolicSet:
        """Points whose scope meets s away from the point itself."""
        if self.rule == WHOLE:
            # scope(x) - {x} misses s only when s is empty or s = {x}
            if s.tail is None and len(s.finite) <= 1:
                return ~s if s.finite else s
            return SymbolicSet.all_naturals()
        out = SymbolicSet.empty()
        for o in self.rule:
            if o:
                out = out | s.shift_down(o)
        return out

    def aura_closure(self, s: SymbolicSet) -> SymbolicSet:
        return s | self.derived_set(s)

    def is_aura_open(self, s: SymbolicSet) -> bool:
        """s holds the scope of each of its members."""
        if self.rule == WHOLE:
            return s.is_empty() or s.is_all()
        return all((s - s.shift_down(o)).is_empty() for o in self.rule)

    def cover_families(self) -> dict:
        return {name: _FAMILIES[name] for name in self.families}

    def compactness_report(self) -> CompactnessReport:
        return CompactnessReport(self.name, self.carrier, *self.verdicts)


_DISCRETE_AMBIENT = Verdict(
    False, "the ambient topology is discrete on an infinite carrier", imported=True
)

_IMPLIED = Verdict(True, "implied by scope-compactness")


def _whole_model(name: str, label: str, carrier: str, tau_compact: Verdict) -> SymbolicModel:
    """A model on the carrier ``label`` whose every scope is the carrier."""
    return SymbolicModel(
        name=name,
        carrier=carrier,
        rule=WHOLE,
        families=("whole",),
        verdicts=(
            Verdict(
                True,
                f"the only scope-open sets are {{}} and {label}, so every "
                f"scope-open cover contains {label} itself",
            ),
            _IMPLIED,
            _IMPLIED,
            Verdict(
                True,
                "any set with two or more points has every point of the "
                "carrier as a limit point",
            ),
            Verdict(
                True,
                "every sequence converges to every point: the only scope-open "
                "set containing a point is the whole carrier",
            ),
            tau_compact,
        ),
    )


def _built_ins(carrier_label: str) -> tuple:
    """The built-in models; the label names the carrier of ``trivial``."""
    return (
        SymbolicModel(
            name="nat-successor",
            carrier="N = {1,2,3,...}, scope(n) = {n,n+1}",
            rule=(0, 1),
            families=("tails", "whole"),
            verdicts=(
                Verdict(
                    True,
                    "every scope-open set containing 1 contains 2, 3, ... and so "
                    "is N; a scope-open cover has such a member, a one-member "
                    "subcover",
                ),
                _IMPLIED,
                Verdict(
                    True,
                    "every scope-open cover consists of tails plus possibly N; "
                    "choosing one member containing each n selects a countable "
                    "subcover",
                ),
                Verdict(
                    True,
                    "an infinite set contains some a >= 2, and then a-1 has scope "
                    "{a-1,a} meeting the set away from itself",
                ),
                Verdict(
                    True,
                    "the only scope-open set containing 1 is N itself, so every "
                    "sequence converges to 1",
                ),
                _DISCRETE_AMBIENT,
            ),
        ),
        SymbolicModel(
            name="nat-discrete",
            carrier="N = {1,2,3,...}, scope(n) = {n}",
            rule=(0,),
            families=("singletons", "tails", "whole"),
            verdicts=(
                Verdict(
                    False,
                    "the singletons cover N and every set is scope-open; a finite "
                    "subfamily covers only finitely many points",
                    witness_family="singletons",
                ),
                Verdict(
                    False,
                    "the singleton cover is countable, so the same witness applies",
                    witness_family="singletons",
                ),
                Verdict(
                    True,
                    "the carrier is countable; choosing one member per point "
                    "selects a countable subcover",
                ),
                Verdict(
                    False,
                    "every derived set is empty, so no infinite set has a limit "
                    "point",
                ),
                Verdict(
                    False,
                    "a subsequence converging to x must eventually sit inside the "
                    "scope-open set {x}; the sequence 1,2,3,... never does",
                ),
                _DISCRETE_AMBIENT,
            ),
        ),
        _whole_model(
            "trivial",
            carrier_label,
            f"{carrier_label} (infinite), scope(x) = {carrier_label}",
            Verdict(
                False,
                f"the standard topology on {carrier_label} is not compact",
                imported=True,
            ),
        ),
        _whole_model(
            "cofinite-trivial",
            "N",
            "N = {1,2,3,...} with the cofinite topology, scope(n) = N",
            Verdict(True, "the cofinite topology on any set is compact", imported=True),
        ),
    )


MODEL_NAMES = tuple(model.name for model in _built_ins("R"))


def get_model(name: str, carrier_label: str = "R") -> SymbolicModel:
    for model in _built_ins(carrier_label):
        if model.name == name:
            return model
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
        union = union | build(p)
    return union.is_all()
