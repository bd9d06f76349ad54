"""Exhaustive enumeration of small spaces and predicate search.

Spaces are enumerated as labeled topologies (via their specialization
preorders) times the full fiber of scope functions over each topology.
Searches and the implication matrix scan that grid in a fixed canonical
order, so reports are byte-stable regardless of worker count.
"""

from __future__ import annotations

import itertools
import random
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import kernel
from .aura import AuraSpace, ScopeFunction, space_document
from .connectivity import (
    is_aura_connected,
    is_aura_locally_connected,
    is_aura_path_connected,
)
from .constructions import _box_mask
from .errors import (
    LimitOutOfRange,
    OpenSetNotInTopology,
    PointNotInOwnAura,
    SamplesOutOfRange,
    SizeOutOfRange,
    UnknownAtom,
    WorkersOutOfRange,
)
from .finite import (
    FiniteTopSpace,
    PointSet,
    PointUniverse,
    TopologyFamily,
    family_key,
    is_tau_connected,
)

__all__ = [
    "ATOM_NAMES",
    "PredicateExpr",
    "parse_predicate",
    "enumerate_topologies",
    "enumerate_auras",
    "search",
    "implication_matrix",
    "SearchReport",
    "Witness",
]

MAX_FULL_SIZE = 4
MAX_SIZE = 5

_LABELS = string.ascii_lowercase


def _labels(n: int) -> Tuple[str, ...]:
    return tuple(_LABELS[:n])


def enumerate_topologies(n: int) -> List[FiniteTopSpace]:
    """All labeled topologies on n points, canonically ordered.

    Counts for n = 0..5 are 1, 1, 4, 29, 355, 6942.
    """
    if n < 0 or n > MAX_SIZE:
        raise SizeOutOfRange(f"topology enumeration supports 0..{MAX_SIZE} points, got {n}")
    universe = PointUniverse(_labels(n))
    families = []
    for rows in kernel.enumerate_preorders(n):
        masks = set(kernel.union_closure(rows))
        masks.add(0)
        families.append(TopologyFamily(universe, masks, validate=False))
    families.sort(key=lambda fam: fam.canonical_key())
    return [FiniteTopSpace(universe, fam) for fam in families]


def _fiber_choices(space: FiniteTopSpace) -> List[List[int]]:
    """Per point, the open sets that contain it, in canonical family order.

    The grid over the space is the product of these lists, with the last
    point's choice varying fastest. Every enumeration, count, scan and
    ``aura_index`` reads the grid from here.
    """
    opens = sorted(space.topology.mask_set, key=family_key)
    return [[m for m in opens if (m >> i) & 1] for i in range(space.universe.n)]


def _checked_choices(space: FiniteTopSpace) -> List[List[int]]:
    """``_fiber_choices(space)``, with every candidate checked once.

    ``AuraSpace`` accepts a scope tuple exactly when each entry i is open
    and contains point i. Every tuple of the grid takes its entry i from
    list i, so once each candidate of each list passes that test, every
    tuple of the product passes it too. The scans therefore walk plain
    tuples and build no space to validate them. A failing candidate raises
    the error ``AuraSpace`` raises for it.
    """
    choices = _fiber_choices(space)
    opens = space.topology.mask_set
    for i, (label, candidates) in enumerate(zip(space.universe.labels, choices)):
        for m in candidates:
            if m not in opens:
                raise OpenSetNotInTopology(label)
            if not (m >> i) & 1:
                raise PointNotInOwnAura(label)
    return choices


def enumerate_auras(space: FiniteTopSpace):
    """Every scope function over the space, in lexicographic order of the
    per-point open-set choices."""
    choices = _fiber_choices(space)
    for picks in itertools.product(*choices):
        yield AuraSpace(space, ScopeFunction(space.universe, picks))


def count_auras(space: FiniteTopSpace) -> int:
    count = 1
    for c in _fiber_choices(space):
        count *= len(c)
    return count


# ---------------------------------------------------------------------------
# predicate atoms

def _cl_idempotent(s: AuraSpace) -> bool:
    """cl(cl A) = cl A for every A, checked on singletons only.

    The closure is additive (a scope meets a union exactly when it meets
    one of its parts) and cl({}) = {}, so cl(cl A) is the union of
    cl(cl {x}) over x in A and cl A the union of cl {x}. Idempotence on
    every singleton therefore gives it on every set, and the singletons
    are sets themselves: n checks instead of 2**n.
    """
    n = s.n
    scopes = s.scope_masks
    for x in range(n):
        once = kernel.aura_closure_mask(n, scopes, 1 << x)
        if kernel.aura_closure_mask(n, scopes, once) != once:
            return False
    return True


def _tau_connected(s) -> bool:
    """Whether τ is connected. It reads τ alone, so it takes the
    ``FiniteTopSpace`` itself (as the scans pass it, once per topology) or
    any ``AuraSpace`` over it."""
    return is_tau_connected(s.space if isinstance(s, AuraSpace) else s)


def _tau_a_equals_tau(s: AuraSpace) -> bool:
    return set(s.aura_topology_masks) == s.space.topology.mask_set


def _tau_a_indiscrete(s: AuraSpace) -> bool:
    full = s.universe.full_mask
    return set(s.aura_topology_masks) == {0, full}


ATOMS = {
    "transitive": lambda s: s.classification.transitive,
    "symmetric": lambda s: s.classification.symmetric,
    "trivial": lambda s: s.classification.trivial,
    "discrete": lambda s: s.classification.discrete,
    "tauConnected": _tau_connected,
    "aConnected": is_aura_connected,
    "aPathConnected": is_aura_path_connected,
    "aLocallyConnected": is_aura_locally_connected,
    "aT0": lambda s: s.separation.t0,
    "aT1": lambda s: s.separation.t1,
    "aT2": lambda s: s.separation.t2,
    "clIdempotent": _cl_idempotent,
    "tauAEqualsTau": _tau_a_equals_tau,
    "tauAIndiscrete": _tau_a_indiscrete,
}

ATOM_NAMES = tuple(ATOMS)


# The two atoms that read the ambient topology; the other twelve read only
# the scope tuple (see ``_ScopeFacts``).
TOPOLOGY_ATOMS = ("tauConnected", "tauAEqualsTau")
SCOPE_ATOMS = tuple(a for a in ATOM_NAMES if a not in TOPOLOGY_ATOMS)


class _ScopeFacts:
    """What one scope tuple decides by itself, kept in a worker's memo.

    A space of the grid is its topology τ plus its scope tuple, on the
    canonical labels of its size n, which is the tuple's length. None of
    the twelve ``SCOPE_ATOMS`` reads τ:

    - ``transitive``, ``symmetric``, ``trivial`` and ``discrete``
      (``classify``) and ``clIdempotent`` read ``scope_masks`` and n (the
      full mask is ``(1 << n) - 1``);
    - ``aT0``, ``aT1`` and ``aT2`` (``separation_axioms``) read
      ``hull_masks``;
    - ``aConnected`` floods ``comparability_rows`` over the full mask,
      ``aLocallyConnected`` floods them inside each hull, and
      ``aPathConnected`` counts the components of ``hull_masks``;
    - ``tauAIndiscrete`` compares ``aura_topology_masks`` with {∅, X}.

    ``hull_masks``, ``comparability_rows`` and ``aura_topology_masks`` are
    built from n and ``scope_masks`` alone. τ only decides which tuples
    occur, since every scope must be τ-open. So all spaces with one scope
    tuple give each scope-only atom the same value, and the first of them
    decides it for the rest. The same holds for τ_a, kept as a frozenset:
    on a later space ``tauAEqualsTau`` is one comparison of that set with
    the space's τ.

    The grid scans build the first space of each tuple as a validated
    ``AuraSpace`` and decide on it every atom the scan reads
    (``_first_of_tuple``). A later space of the tuple is only its topology
    and its tuple: it is valid because its tuple is drawn from checked
    choices (``_checked_choices``), and its values are those of the entry,
    so it needs no space of its own. A search also keeps in ``verdicts``
    its predicate's outcome per value of the two topology atoms, since
    nothing else enters it.

    A memo holds one entry per tuple met (64 at n = 3, 4,096 at n = 4),
    made of bools, frozensets of ints and small dicts of bools, so no space
    is kept alive.
    """

    __slots__ = ("values", "vector", "tau_a", "verdicts")

    def __init__(self):
        self.values: dict = {}  # scope-only atom -> value, filled lazily
        self.vector: Optional[tuple] = None  # all of them, in SCOPE_ATOMS order
        self.tau_a: Optional[frozenset] = None  # the scope-open masks
        self.verdicts: dict = {}  # (tauConnected, tauAEqualsTau) -> hit values


# A scan's memo of what each scope tuple decides.
ScopeMemo = Dict[Tuple[int, ...], _ScopeFacts]


class _Valuation:
    """Lazy atom values on one space, read through a scan's memo.

    A scope-only atom is looked up in the memo entry of the space's scope
    tuple, and ``tauAEqualsTau`` compares the entry's τ_a with the space's
    τ. A value missing from the entry is decided by ``ATOMS[atom]`` on this
    space and stored, so each atom runs once per scope tuple; the grid scans
    use a valuation only on the first space of each tuple
    (``_first_of_tuple``). ``tauConnected`` is kept for this space alone.
    Without a memo from the caller a valuation decides every atom on its
    own space.
    """

    __slots__ = ("space", "facts", "topo")

    def __init__(self, space: AuraSpace, memo: Optional[ScopeMemo] = None):
        self.space = space
        if memo is None:
            memo = {}
        facts = memo.get(space.scope_masks)
        if facts is None:
            facts = memo[space.scope_masks] = _ScopeFacts()
        self.facts = facts
        self.topo: dict = {}  # tauConnected, once decided

    def get(self, atom: str) -> bool:
        if atom == "tauConnected":
            values = self.topo
        elif atom == "tauAEqualsTau":
            return self._tau_a_equals_tau()
        else:
            values = self.facts.values
        value = values.get(atom)
        if value is None:
            value = values[atom] = ATOMS[atom](self.space)
        return value

    def _tau_a_equals_tau(self) -> bool:
        s = self.space
        facts = self.facts
        if facts.tau_a is not None:
            return facts.tau_a == s.space.topology.mask_set
        value = ATOMS["tauAEqualsTau"](s)
        facts.tau_a = frozenset(s.aura_topology_masks)
        return value


def _first_of_tuple(space: FiniteTopSpace, picks: Tuple[int, ...], memo: ScopeMemo,
                    atoms: Tuple[str, ...]) -> _ScopeFacts:
    """The memo entry of a scope tuple met for the first time, on the grid
    space (``space``, ``picks``).

    That space is built and validated, and it decides each of ``atoms`` but
    ``tauConnected``, which reads τ alone and is decided on the topology.
    So the entry holds every value that a later space of the tuple needs,
    and a later space builds nothing.
    """
    valuation = _Valuation(AuraSpace(space, ScopeFunction(space.universe, picks)), memo)
    for atom in atoms:
        if atom != "tauConnected":
            valuation.get(atom)
    return valuation.facts


_UNSEEN = object()


def _hit_values(expr: PredicateExpr, space: FiniteTopSpace, picks: Tuple[int, ...],
                memo: ScopeMemo, tau_connected: Optional[bool]) -> Optional[dict]:
    """The predicate's atom values on the grid space (``space``, ``picks``)
    if the predicate holds there, else None.

    ``tau_connected`` is the topology's ``tauConnected``, or None when the
    predicate does not read it. Every other atom comes from the tuple's memo
    entry (``_first_of_tuple``), and ``tauAEqualsTau`` from comparing its
    τ_a with τ. So the outcome depends only on the entry and on the two
    topology atoms, and it is kept in the entry under their values: a later
    space with the same pair evaluates nothing.
    """
    facts = memo.get(picks) or _first_of_tuple(space, picks, memo, expr.atoms)
    tau_a_equals_tau = None if facts.tau_a is None else facts.tau_a == space.topology.mask_set
    key = (tau_connected, tau_a_equals_tau)
    hit = facts.verdicts.get(key, _UNSEEN)
    if hit is _UNSEEN:
        values = dict(facts.values, tauConnected=tau_connected,
                      tauAEqualsTau=tau_a_equals_tau)
        hit = {a: values[a] for a in expr.atoms} if expr.evaluate(values) else None
        facts.verdicts[key] = hit
    return hit


# ---------------------------------------------------------------------------
# predicate expressions: and/or/not (also &, |, !) over named atoms

class PredicateExpr:
    def __init__(self, text: str, atoms: Tuple[str, ...], fn: Callable):
        self.text = text
        self.atoms = atoms
        self._fn = fn

    def evaluate(self, valuation) -> bool:
        """The predicate on a valuation: anything whose ``get(atom)`` gives
        the atom's value, such as a ``_Valuation`` or a dict."""
        return self._fn(valuation)

    def holds_on(self, space: AuraSpace) -> bool:
        return self.evaluate(_Valuation(space))


_TOKEN = re.compile(r"\s*(\(|\)|&{1,2}|\|{1,2}|!|\w+)")


def _tokenize(text: str) -> List[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad character in predicate at offset {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_predicate(text: str) -> PredicateExpr:
    tokens = _tokenize(text)
    pos = 0
    atoms: set = set()

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_or():
        node = parse_and()
        while peek() in ("or", "|", "||"):
            take()
            rhs = parse_and()
            node = (lambda l, r: lambda v: l(v) or r(v))(node, rhs)
        return node

    def parse_and():
        node = parse_unary()
        while peek() in ("and", "&", "&&"):
            take()
            rhs = parse_unary()
            node = (lambda l, r: lambda v: l(v) and r(v))(node, rhs)
        return node

    def parse_unary():
        tok = peek()
        if tok in ("not", "!"):
            take()
            inner = parse_unary()
            return lambda v: not inner(v)
        if tok == "(":
            take()
            inner = parse_or()
            if take() != ")":
                raise ValueError("unbalanced parenthesis in predicate")
            return inner
        if tok is None:
            raise ValueError("predicate ended unexpectedly")
        take()
        if tok in (")", "and", "or", "&", "|", "&&", "||"):
            raise ValueError(f"misplaced {tok!r} in predicate")
        if tok not in ATOMS:
            raise UnknownAtom(tok)
        atoms.add(tok)
        return (lambda name: lambda v: v.get(name))(tok)

    fn = parse_or()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in predicate: {' '.join(tokens[pos:])}")
    return PredicateExpr(text, tuple(a for a in ATOM_NAMES if a in atoms), fn)


# ---------------------------------------------------------------------------
# reports

def space_descriptor(s: AuraSpace) -> str:
    universe = s.universe
    opens = ",".join(
        PointSet(universe, m).text()
        for m in sorted(s.space.topology.mask_set, key=family_key)
    )
    scopes = " ".join(
        f"{lab}:{PointSet(universe, m).text()}"
        for lab, m in zip(universe.labels, s.scope_masks)
    )
    return f"points {','.join(universe.labels)} | opens {opens} | scopes {scopes}"


def _space_json(s: AuraSpace) -> dict:
    """The witness's space document, built once per rendered witness."""
    return space_document(s)


@dataclass
class Witness:
    topology_index: int
    aura_index: int
    descriptor: str
    document: dict
    valuation: dict

    def to_json(self) -> dict:
        return {
            "topologyIndex": self.topology_index,
            "auraIndex": self.aura_index,
            "space": self.document,
            "valuation": self.valuation,
        }


@dataclass
class SearchReport:
    command: str
    size: int
    spaces_scanned: int
    expression: Optional[str] = None
    witnesses: List[Witness] = field(default_factory=list)
    implications: Optional[dict] = None
    product_scan: Optional[str] = None
    seed: Optional[int] = None
    samples: Optional[int] = None

    def found(self) -> bool:
        return bool(self.witnesses)

    def lines(self) -> List[str]:
        out = [f"command: {self.command}", f"size: {self.size}"]
        if self.expression is not None:
            out.append(f"expression: {self.expression}")
        if self.seed is not None:
            out.append(f"sampling: {self.samples} spaces with seed {self.seed}")
        out.append(f"spaces scanned: {self.spaces_scanned}")
        if self.expression is not None:
            out.append(f"witnesses: {len(self.witnesses)}")
            for i, w in enumerate(self.witnesses, start=1):
                out.append(f"witness {i}: {w.descriptor}")
                vals = " ".join(f"{k}={str(v).lower()}" for k, v in w.valuation.items())
                out.append(f"  valuation: {vals}")
        if self.implications is not None:
            out.append(f"atoms: {' '.join(ATOM_NAMES)}")
            out.append("implications:")
            for (p, q), verdict in self.implications.items():
                if verdict is None:
                    out.append(f"  {p} => {q}: holds")
                else:
                    out.append(f"  {p} => {q}: fails | witness: {verdict.descriptor}")
        if self.product_scan is not None:
            out.append(f"product scan: {self.product_scan}")
        return out

    def text(self) -> str:
        return "\n".join(self.lines())

    def to_json(self) -> dict:
        out = {
            "command": self.command,
            "size": self.size,
            "spacesScanned": self.spaces_scanned,
        }
        if self.expression is not None:
            out["expression"] = self.expression
            out["witnesses"] = [w.to_json() for w in self.witnesses]
        if self.seed is not None:
            out["seed"] = self.seed
            out["samples"] = self.samples
        if self.implications is not None:
            out["implications"] = {
                f"{p} => {q}": (None if w is None else w.to_json())
                for (p, q), w in self.implications.items()
            }
        if self.product_scan is not None:
            out["productScan"] = self.product_scan
        return out


# ---------------------------------------------------------------------------
# scanning

# One space that satisfies the predicate: (topology_index, aura_index,
# scope_masks, valuation). Workers pickle these back; only the hits a report
# keeps are rendered into witnesses.
Hit = Tuple[int, int, Tuple[int, ...], dict]


def _tau_connected_if_read(expr: PredicateExpr, space: FiniteTopSpace) -> Optional[bool]:
    """``tauConnected`` of the topology, decided once, if the predicate reads it."""
    return ATOMS["tauConnected"](space) if "tauConnected" in expr.atoms else None


def _scan_topology(space: FiniteTopSpace, topo_index: int, expr: PredicateExpr,
                   memo: ScopeMemo, found: List[Hit], keep: Optional[int]) -> int:
    """Scan one topology's grid for the predicate; return the spaces scanned.

    The grid is walked as plain scope tuples, in ``enumerate_auras`` order,
    so a tuple's position is its ``aura_index``. Each tuple is a valid scope
    function: it takes its entry i from list i of ``_checked_choices``,
    whose every candidate passed the test ``AuraSpace`` makes of entry i
    (open, and containing point i). Only the first space of each scope
    tuple is built, and it decides the tuple's atoms (``_first_of_tuple``);
    ``tauConnected`` is decided once for the topology (``_hit_values``).

    Hits are appended to ``found`` while it holds fewer than ``keep`` (all
    of them if ``keep`` is None): the grid is visited in ascending order, so
    these are the first ones.
    """
    tau_connected = _tau_connected_if_read(expr, space)
    scanned = 0
    for aura_index, picks in enumerate(itertools.product(*_checked_choices(space))):
        scanned += 1
        vals = _hit_values(expr, space, picks, memo, tau_connected)
        if vals is not None and (keep is None or len(found) < keep):
            found.append((topo_index, aura_index, picks, vals))
    return scanned


def _search_worker(args) -> Tuple[int, List[Hit]]:
    """Spaces scanned, and the first ``keep`` hits, of one worker's share."""
    n, expr_text, keep, worker, workers = args
    expr = parse_predicate(expr_text)
    topologies = enumerate_topologies(n)
    memo: ScopeMemo = {}
    scanned = 0
    found: List[Hit] = []
    for ti in range(worker, len(topologies), workers):
        scanned += _scan_topology(topologies[ti], ti, expr, memo, found, keep)
    return scanned, found


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise WorkersOutOfRange(f"workers must be at least 1, got {workers}")


def _run_partitioned(n: int, expr_text: str, keep: Optional[int],
                     workers: int) -> Tuple[int, List[Hit]]:
    """Spaces scanned, and the first ``keep`` hits in grid order.

    Each worker keeps its own first ``keep`` hits, which hold the first
    ``keep`` of all."""
    jobs = [(n, expr_text, keep, w, workers) for w in range(workers)]
    if workers <= 1:
        results = [_search_worker(jobs[0])]
    else:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_search_worker, jobs)
    scanned = sum(r[0] for r in results)
    hits = [h for r in results for h in r[1]]
    hits.sort(key=lambda h: (h[0], h[1]))
    return scanned, hits[:keep]


def _render_witnesses(topologies: List[FiniteTopSpace], hits: List[Hit]) -> List[Witness]:
    """Rebuild each hit's space and render its descriptor and document.
    Hits of one scope tuple share their values, so each witness gets a copy."""
    witnesses = []
    for ti, aura_index, scope_masks, vals in hits:
        space = topologies[ti]
        s = AuraSpace(space, ScopeFunction(space.universe, scope_masks))
        witnesses.append(Witness(ti, aura_index, space_descriptor(s), _space_json(s),
                                 dict(vals)))
    return witnesses


def search(n: int, expression: str, limit: Optional[int] = None, workers: int = 1,
           allow_large: bool = False, samples: Optional[int] = None,
           seed: int = 0) -> SearchReport:
    """Scan every space of the given size for the predicate.

    Size 5 needs either ``samples`` (seeded random scan) or ``allow_large``
    (full scan; the fiber count is in the millions).  The whole grid is
    always scanned so reports do not depend on worker count.  ``limit``
    keeps the first witnesses in grid (or sample) order, and only those are
    rendered; a negative limit raises ``LimitOutOfRange``, a negative
    sample count ``SamplesOutOfRange`` and fewer than one worker
    ``WorkersOutOfRange``.
    """
    expr = parse_predicate(expression)
    if n < 0 or n > MAX_SIZE:
        raise SizeOutOfRange(f"search supports sizes 0..{MAX_SIZE}, got {n}")
    if n > MAX_FULL_SIZE and samples is None and not allow_large:
        raise SizeOutOfRange(
            f"full scans are capped at {MAX_FULL_SIZE} points; pass samples= "
            "for a seeded scan or allow_large=True to force it"
        )

    if limit is not None and limit < 0:
        raise LimitOutOfRange(f"limit must be a nonnegative count, got {limit}")
    if samples is not None and samples < 0:
        raise SamplesOutOfRange(f"samples must be a nonnegative count, got {samples}")
    _check_workers(workers)

    if samples is not None:
        return _sampled_search(n, expr, samples, seed, limit)

    scanned, hits = _run_partitioned(n, expression, limit, workers)
    witnesses = _render_witnesses(enumerate_topologies(n), hits)
    return SearchReport("search", n, scanned, expression=expression,
                        witnesses=witnesses)


def _sampled_search(n: int, expr: PredicateExpr, samples: int, seed: int,
                    limit: Optional[int]) -> SearchReport:
    """Scan ``samples`` seeded random grid spaces, read as in ``_scan_topology``."""
    rng = random.Random(seed)
    topologies = enumerate_topologies(n)
    memo: ScopeMemo = {}
    grids: dict = {}  # topology index -> (checked choices, tauConnected)
    hits: List[Hit] = []
    for k in range(samples):
        ti = rng.randrange(len(topologies))
        space = topologies[ti]
        grid = grids.get(ti)
        if grid is None:
            grid = grids[ti] = (_checked_choices(space), _tau_connected_if_read(expr, space))
        choices, tau_connected = grid
        digits = [rng.randrange(len(c)) for c in choices]
        picks = tuple(c[d] for c, d in zip(choices, digits))
        vals = _hit_values(expr, space, picks, memo, tau_connected)
        if vals is not None:
            # Mixed-radix position of the picks in enumerate_auras order,
            # where the last point's choice varies fastest.
            aura_index = 0
            for c, d in zip(choices, digits):
                aura_index = aura_index * len(c) + d
            hits.append((ti, aura_index, picks, vals))
    return SearchReport("search", n, samples, expression=expr.text,
                        witnesses=_render_witnesses(topologies, hits[:limit]),
                        seed=seed, samples=samples)


# ---------------------------------------------------------------------------
# implication matrix

# What the first space of each scope tuple decides for the matrix.
_MATRIX_DECIDED = SCOPE_ATOMS + ("tauAEqualsTau",)


def _matrix_worker(args) -> Tuple[int, dict]:
    """First witness of every failed implication p => q in this worker's
    share of the grid.

    The worker visits its spaces in ascending (topology_index, aura_index)
    order, so the first space that makes p true and q false is already the
    least one: a pair is recorded only while it is absent.

    The grid is walked as plain scope tuples, as in ``_scan_topology``:
    every tuple is valid because each candidate it is drawn from passed
    ``_checked_choices``, which checks what ``AuraSpace`` checks. Every
    space is read through the worker's scope memo. The twelve scope-only
    atoms read nothing but the scope tuple (the proof is in
    ``_ScopeFacts``), so the first space of each distinct tuple is built and
    decides them, with τ_a (``_first_of_tuple``; 4,096 of the 59,123 spaces
    at size 4); ``tauConnected`` runs once per topology, and
    ``tauAEqualsTau`` compares the tuple's memoised τ_a with each space's
    τ. A witness is built again from its tuple to be rendered.

    The pairs a space makes false depend only on its valuation, and every
    pair of a valuation met before was recorded then, at an earlier space.
    So only the first space of each distinct valuation runs the pair loop
    (27 of the 59,123 spaces at size 4). The valuation is keyed as the
    scope-only values in ``SCOPE_ATOMS`` order (one tuple per scope tuple,
    kept in the memo) plus the two topology atoms: the same fourteen values
    in a fixed arrangement, so two spaces share a key exactly when they
    share a valuation.
    """
    n, worker, workers = args
    topologies = enumerate_topologies(n)
    memo: ScopeMemo = {}
    scanned = 0
    first: dict = {}
    seen = set()
    for ti in range(worker, len(topologies), workers):
        space = topologies[ti]
        tau = space.topology.mask_set
        tau_connected = ATOMS["tauConnected"](space)
        for aura_index, picks in enumerate(itertools.product(*_checked_choices(space))):
            scanned += 1
            facts = memo.get(picks)
            if facts is None:
                facts = _first_of_tuple(space, picks, memo, _MATRIX_DECIDED)
                facts.vector = tuple(facts.values[a] for a in SCOPE_ATOMS)
            tau_a_equals_tau = facts.tau_a == tau
            key = (facts.vector, tau_connected, tau_a_equals_tau)
            if key in seen:
                continue
            seen.add(key)
            values = dict(facts.values, tauConnected=tau_connected,
                          tauAEqualsTau=tau_a_equals_tau)
            holds = [a for a in ATOM_NAMES if values[a]]
            fails = [a for a in ATOM_NAMES if not values[a]]
            wit = None
            for p in holds:
                for q in fails:
                    if (p, q) not in first:
                        if wit is None:
                            s = AuraSpace(space, ScopeFunction(space.universe, picks))
                            wit = Witness(ti, aura_index, space_descriptor(s),
                                          _space_json(s), {})
                        first[(p, q)] = (ti, aura_index, wit)
    return scanned, first


# A product-scan factor: (n, scope masks, hull masks).
Factor = Tuple[int, Tuple[int, ...], Tuple[int, ...]]

_FACTOR_SIZES = (2, 3)


def _product_pair_pool() -> List[Factor]:
    """Every 2- and 3-point space as a factor, in grid order. The scope
    tuples are valid for the reason given in ``_scan_topology``, so no
    space is built; the hulls come straight from the kernel."""
    pool = []
    for n in _FACTOR_SIZES:
        for space in enumerate_topologies(n):
            for picks in itertools.product(*_checked_choices(space)):
                pool.append((n, picks, tuple(kernel.hull_masks(n, picks))))
    return pool


def _factors_differ(x: Factor, y: Factor, boxes: List[List[int]]) -> bool:
    """Whether the product scope topology of two factors differs from the
    closure of their open boxes, compared through minimal opens (see
    ``product_strictness_scan``). ``boxes[u][v]`` is ``_box_mask(u, v, ny)``
    for y's ``ny`` points."""
    nx, scopes_x, hulls_x = x
    ny, scopes_y, hulls_y = y
    prod_scopes = [boxes[u][v] for u in scopes_x for v in scopes_y]
    box_hulls = [boxes[u][v] for u in hulls_x for v in hulls_y]
    return kernel.hull_masks(nx * ny, prod_scopes) != box_hulls


_PRODUCT_SCAN_CACHE: Optional[str] = None


def product_strictness_scan() -> str:
    """Compare the product scope topology with the closure of open boxes over
    every ordered pair of 2- and 3-point factors, and say whether any pair
    separates them.

    Both families are finite topologies (boxes of scope-open sets are closed
    under intersection), and a finite topology is the set of unions of its
    minimal opens, so the two are equal exactly when every point has the same
    minimal open in both. In the scope topology of the product that is the
    product hull of (x, y). In the box closure it is hull(x) x hull(y): that
    box is open, and every open set around (x, y) contains a box U x V with
    x in U and y in V scope-open, hence hull(x) in U and hull(y) in V. So each
    pair compares n_x * n_y hulls instead of two materialised topologies.

    The verdict of a pair depends only on its two (n, scopes, hulls)
    tuples, and the pool repeats them: the same scopes are admissible
    under several topologies, so the 371 factors hold 68 distinct tuples.
    Each distinct ordered pair (x, y) is therefore decided once and counts
    for the c_x * c_y pool pairs it stands for, where c is the tuple's
    multiplicity; the totals, and so the message, are those of the full
    len(pool) ** 2 scan.
    """
    global _PRODUCT_SCAN_CACHE
    if _PRODUCT_SCAN_CACHE is not None:
        return _PRODUCT_SCAN_CACHE
    pool = _product_pair_pool()
    # Every box the scan forms, built once and looked up per pair.
    width = 1 << max(_FACTOR_SIZES)
    boxes = {ny: [[_box_mask(u, v, ny) for v in range(1 << ny)] for u in range(width)]
             for ny in _FACTOR_SIZES}
    pairs = len(pool) ** 2
    counts = Counter(pool).items()
    strict = sum(cx * cy for x, cx in counts for y, cy in counts
                 if _factors_differ(x, y, boxes[y[0]]))
    if strict:
        msg = (f"product scope topology differs from the box closure on "
               f"{strict} of {pairs} factor pairs")
    else:
        msg = (f"product scope topology equals the box closure on all "
               f"{pairs} ordered pairs of 2- and 3-point factors")
    _PRODUCT_SCAN_CACHE = msg
    return msg


def implication_matrix(n: int, workers: int = 1) -> SearchReport:
    """First-witness matrix for every ordered atom pair at the given size."""
    if n < 0 or n > MAX_FULL_SIZE:
        raise SizeOutOfRange(f"matrix supports sizes 0..{MAX_FULL_SIZE}, got {n}")
    _check_workers(workers)
    jobs = [(n, w, workers) for w in range(workers)]
    if workers <= 1:
        results = [_matrix_worker(jobs[0])]
    else:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_matrix_worker, jobs)

    scanned = sum(r[0] for r in results)
    merged: dict = {}
    for _, first in results:
        for key, entry in first.items():
            prev = merged.get(key)
            if prev is None or entry[:2] < prev[:2]:
                merged[key] = entry

    implications = {}
    for p in ATOM_NAMES:
        for q in ATOM_NAMES:
            if p == q:
                continue
            entry = merged.get((p, q))
            if entry is None:
                implications[(p, q)] = None
            else:
                _, _, wit = entry
                witness = Witness(wit.topology_index, wit.aura_index,
                                  wit.descriptor, wit.document,
                                  {p: True, q: False})
                implications[(p, q)] = witness

    return SearchReport("matrix", n, scanned, implications=implications,
                        product_scan=product_strictness_scan())
