"""Exhaustive enumeration of small spaces and predicate search.

Spaces are enumerated as labeled topologies (via their specialization
preorders) times the full fiber of scope functions over each topology.
``search`` and ``implication_matrix`` read that grid in two passes, in
one process (``_scan``). Pass 1 decides one scope tuple per relabelling
class under the discrete topology, which admits every tuple
(``_scope_classes``, ``_decide``). A space's valuation is fixed by its
tuple's class values, whether τ is connected and whether the tuple is τ's
minimal opens, so pass 1 decides every space of the grid. Pass 2 reads
the topologies in grid order: a search filters each grid against the set
of tuples whose key holds and stops at the last witness it keeps
(``_grid_matches``), and the matrix keeps the first space of each key
(``_first_keys``). A search keeps at most ``MAX_WITNESSES`` witnesses and
raises ``TooManyWitnesses`` past them. Each space a report keeps is
rendered once (``_render_witnesses``).
"""

from __future__ import annotations

import re
import string
from collections import Counter, namedtuple
from itertools import islice, product
from math import prod
from typing import Callable, Dict, List, Optional, Set, Tuple

from . import kernel
from .aura import AuraSpace, space_document
from .connectivity import (
    is_aura_connected,
    is_aura_locally_connected,
    is_aura_path_connected,
)
from .errors import (
    LimitOutOfRange,
    OpenSetNotInTopology,
    PointNotInOwnAura,
    SizeOutOfRange,
    TooManyWitnesses,
    UnknownAtom,
)
from .finite import PointSet, PointUniverse, TopologyFamily, is_tau_connected

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
# The most witnesses one search collects: every size-4 space, so no search
# at n <= 4 reaches it.
MAX_WITNESSES = 59_123

_LABELS = string.ascii_lowercase


def _labels(n: int) -> Tuple[str, ...]:
    return tuple(_LABELS[:n])


def enumerate_topologies(n: int) -> List[TopologyFamily]:
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
    return families


def _fiber_choices(topology: TopologyFamily) -> List[List[int]]:
    """Per point, the open sets that contain it, in canonical family order.

    The grid over the topology is the product of these lists, with the last
    point's choice varying fastest. Every enumeration, count, scan and
    ``aura_index`` reads the grid from here.
    """
    opens = topology.ordered_masks
    return [[m for m in opens if (m >> i) & 1] for i in range(topology.universe.n)]


def _checked_choices(topology: TopologyFamily) -> List[List[int]]:
    """``_fiber_choices(topology)``, with every candidate checked once.

    ``AuraSpace(topology, picks)`` accepts a scope tuple exactly when it
    has one entry per point and each entry i is open and contains point i.
    Every tuple of the grid takes its entry i from list i, one list per
    point, so once each candidate of each list passes that test, every
    tuple of the product passes it too. The scans therefore walk plain
    tuples and build no space to validate them. A failing candidate raises
    the error ``AuraSpace`` raises for it.
    """
    choices = _fiber_choices(topology)
    opens = topology.mask_set
    for i, (label, candidates) in enumerate(zip(topology.universe.labels, choices)):
        for m in candidates:
            if m not in opens:
                raise OpenSetNotInTopology(label)
            if not (m >> i) & 1:
                raise PointNotInOwnAura(label)
    return choices


def enumerate_auras(topology: TopologyFamily):
    """Every scope function over the topology, in lexicographic order of the
    per-point open-set choices."""
    for picks in product(*_fiber_choices(topology)):
        yield AuraSpace(topology, picks)


def count_auras(topology: TopologyFamily) -> int:
    return prod(map(len, _fiber_choices(topology)))


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
    ``TopologyFamily`` itself (as the scans pass it, once per topology) or
    any ``AuraSpace`` over it."""
    return is_tau_connected(s.topology if isinstance(s, AuraSpace) else s)


def _tau_a_equals_tau(s: AuraSpace) -> bool:
    """Whether τ_a = τ, compared through minimal opens.

    A finite topology is the set of unions of its minimal opens, so two of
    them are equal exactly when every point has the same minimal open in
    both. In τ_a that is the hull of the point (τ_a is all unions of the
    hulls, and hull(x) lies in every scope-open set around x), and in τ it
    is m(x). So n comparisons decide it, and τ_a is never built.
    """
    return s.hull_masks == s.topology.minimal_masks


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
# the scope tuple (see ``_decide``).
TOPOLOGY_ATOMS = ("tauConnected", "tauAEqualsTau")
SCOPE_ATOMS = tuple(a for a in ATOM_NAMES if a not in TOPOLOGY_ATOMS)

# A scan's memo: scope tuple -> values, the tuple's values of the
# scope-only atoms the scan reads, in ``SCOPE_ATOMS`` order.
ScopeMemo = Dict[Tuple[int, ...], tuple]


def _decide(memo: ScopeMemo, topology: TopologyFamily, picks: Tuple[int, ...],
            atoms: Tuple[str, ...]) -> tuple:
    """Decide the scope tuple ``picks`` on one space, over ``topology``,
    and enter it in the memo; return its values.

    ``atoms`` are scope-only atoms in ``SCOPE_ATOMS`` order, and ``values``
    holds theirs in that order. The space is built and validated, and it
    decides each of them through ``ATOMS``.

    None of the twelve ``SCOPE_ATOMS`` reads τ. A space of the grid is its
    topology τ plus its scope tuple, on the canonical labels of its size n,
    which is the tuple's length, and:

    - ``transitive``, ``symmetric``, ``trivial`` and ``discrete``
      (``classify``) and ``clIdempotent`` read ``scope_masks`` and n (the
      full mask is ``(1 << n) - 1``);
    - ``aT0``, ``aT1`` and ``aT2`` (``separation_axioms``) read
      ``hull_masks``;
    - ``aConnected`` floods ``comparability_rows`` over the full mask,
      ``aLocallyConnected`` floods them inside each hull, and
      ``aPathConnected`` counts their components;
    - ``tauAIndiscrete`` compares ``aura_topology_masks`` with {∅, X}.

    ``hull_masks`` is built from n and ``scope_masks`` alone, and
    ``comparability_rows`` and ``aura_topology_masks`` from the hulls. τ
    only decides which tuples occur, since every scope must be τ-open. So
    all spaces with one scope tuple give each scope-only atom the same
    value, and one of them decides it for the rest, which build nothing.
    The two topology atoms are left to the scans: ``tauConnected`` reads τ
    alone, and ``tauAEqualsTau`` holds on a grid space exactly when its
    tuple is τ's minimal opens (see ``_grid_matches``).

    The scope-only atoms also agree on relabelled tuples. For a
    permutation σ of the n labels, the tuple σ·a has entry σ(x) equal to
    σ(a(x)), so σ is an isomorphism from (X, a) to (X, σ·a): y ∈ a(x)
    exactly when σy ∈ (σ·a)(σx). Each scope-only atom is defined from n
    and that relation alone (the hulls, the comparability rows and τ_a are
    built from it), so it takes the same value on both tuples. A full grid
    holds every tuple of a class (σ·a is admitted by the relabelled
    topology σ(τ), which is in the grid too), so every relabelling σ·a not
    yet in the memo is entered as well, with this tuple's ``values``.

    The memo holds one entry per tuple: 64 tuples in 16 classes at n = 3,
    4,096 in 218 at n = 4 and 1,048,576 in 9,608 at n = 5 (the unlabeled
    digraphs, OEIS A000273). A class shares one tuple of bools, so no space
    is kept alive.
    """
    s = AuraSpace(topology, picks)
    memo[picks] = values = tuple([ATOMS[a](s) for a in atoms])
    for source, table in kernel.relabelings(len(picks)):
        image = tuple([table[picks[x]] for x in source])
        if image not in memo:
            memo[image] = values
    return values


# ---------------------------------------------------------------------------
# predicate expressions: and/or/not (also &, |, !) over named atoms

class PredicateExpr:
    def __init__(self, text: str, atoms: Tuple[str, ...], fn: Callable):
        self.text = text
        self.atoms = atoms
        self._fn = fn

    def evaluate(self, valuation: dict) -> bool:
        """The predicate on a valuation, a dict from each atom it reads to
        the atom's value."""
        return self._fn(valuation)

    def holds_on(self, space: AuraSpace) -> bool:
        return self.evaluate({a: ATOMS[a](space) for a in self.atoms})


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
        for m in s.topology.ordered_masks
    )
    scopes = " ".join(
        f"{lab}:{PointSet(universe, m).text()}"
        for lab, m in zip(universe.labels, s.scope_masks)
    )
    return f"points {','.join(universe.labels)} | opens {opens} | scopes {scopes}"


def _space_json(s: AuraSpace) -> dict:
    """The witness's space document, built once per rendered witness."""
    return space_document(s)


class Witness(namedtuple("Witness", "topology_index aura_index descriptor document valuation")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "topologyIndex": self.topology_index,
            "auraIndex": self.aura_index,
            "space": self.document,
            "valuation": self.valuation,
        }


class SearchReport(namedtuple("SearchReport", "command size spaces_scanned expression witnesses "
                              "implications product_scan", defaults=(None,) * 4)):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        # Each report gets its own empty witness list by default.
        report = super().__new__(cls, *args, **kwargs)
        return report if report.witnesses is not None else report._replace(witnesses=[])

    def found(self) -> bool:
        return bool(self.witnesses)

    def lines(self) -> List[str]:
        out = [f"command: {self.command}", f"size: {self.size}"]
        if self.expression is not None:
            out.append(f"expression: {self.expression}")
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

# One hit of a scan: (topology_index, aura_index, scope_masks, valuation).
# Only the hits a report keeps are rendered.
Hit = Tuple[int, int, Tuple[int, ...], dict]

# A space's valuation key over the atoms a scan reads: (the scope-only
# atoms' values, tauConnected, tauAEqualsTau). An atom the scan does not
# read is None or left out of the values. Two spaces share a key exactly
# when they agree on every atom read (``_valuation`` reads it back).
Key = Tuple[tuple, Optional[bool], Optional[bool]]


def _scope_atoms(atoms: Tuple[str, ...]) -> Tuple[str, ...]:
    """The scope-only atoms among ``atoms``, in ``SCOPE_ATOMS`` order."""
    return tuple(a for a in SCOPE_ATOMS if a in atoms)


def _valuation(atoms: Tuple[str, ...], key: Key) -> dict:
    """The valuation a key over ``atoms`` stands for, in their order."""
    values, tau_connected, tau_a_equals_tau = key
    known = dict(zip(_scope_atoms(atoms), values),
                 tauConnected=tau_connected, tauAEqualsTau=tau_a_equals_tau)
    return {a: known[a] for a in atoms}


def _verdicts(expr: PredicateExpr) -> Callable[[Key], Optional[dict]]:
    """A key's verdict: its valuation if its spaces satisfy ``expr``, else
    None. A space's valuation is fixed by its key, so the predicate is
    evaluated once per key, and the spaces of one key share the dict."""
    verdicts: Dict[Key, Optional[dict]] = {}

    def verdict(key: Key) -> Optional[dict]:
        if key not in verdicts:
            valuation = _valuation(expr.atoms, key)
            verdicts[key] = valuation if expr.evaluate(valuation) else None
        return verdicts[key]

    return verdict


def _aura_index(choices: List[List[int]], picks: Tuple[int, ...]) -> int:
    """The position of ``picks`` in the grid of ``choices``, in
    ``enumerate_auras`` order: a mixed-radix number whose last digit, the
    last point's choice, varies fastest."""
    index = 0
    for c, m in zip(choices, picks):
        index = index * len(c) + c.index(m)
    return index


def _scope_classes(discrete: TopologyFamily, atoms: Tuple[str, ...]) -> ScopeMemo:
    """Pass 1: the scope memo of the whole grid over ``atoms``.

    Every scope tuple is reflexive (x ∈ a(x)), and ``discrete``, the
    discrete topology, admits every reflexive tuple, since every set is
    open in it. It is topology 0 of the grid: its family holds every other
    one's, so it sorts first. Its grid therefore meets every tuple that any
    space of the grid has, and ``_decide`` decides the first tuple of each
    relabelling class and enters the whole class: 16 classes of 64 tuples
    at n = 3, and 218 of 4,096 at n = 4.
    """
    scope = _scope_atoms(atoms)
    memo: ScopeMemo = {}
    for picks in product(*_checked_choices(discrete)):
        if picks not in memo:
            _decide(memo, discrete, picks, scope)
    return memo


def _scan(n: int, expr: Optional[PredicateExpr], keep: Optional[int]
          ) -> Tuple[List[TopologyFamily], int, List[Hit]]:
    """The size-n grid's topologies, spaces scanned and hits: the first
    ``keep`` spaces (all if None) where ``expr`` holds (``_grid_matches``),
    or, if ``expr`` is None, the first space of each valuation key over
    every atom (``_first_keys``, see ``implication_matrix``).

    Pass 1 (``_scope_classes``) decides every scope tuple of the grid, and
    pass 2 reads each space's key from it, so every space is decided, and
    the spaces scanned are all of them, Σ ``count_auras``. Each
    topology's ``_checked_choices`` gives its grid as plain tuples, which
    are valid scope functions, so no space is built to validate them.
    """
    topologies = enumerate_topologies(n)
    atoms = ATOM_NAMES if expr is None else expr.atoms
    grids = [_checked_choices(topology) for topology in topologies]
    scanned = sum(prod(map(len, choices)) for choices in grids)
    memo = _scope_classes(topologies[0], atoms)
    if expr is None:
        return topologies, scanned, _first_keys(topologies, grids, memo)
    return topologies, scanned, _grid_matches(topologies, grids, memo, expr, keep)


def _grid_matches(topologies: List[TopologyFamily], grids: List[List[List[int]]],
                  memo: ScopeMemo, expr: PredicateExpr, keep: Optional[int]) -> List[Hit]:
    """Pass 2 of a search: the first ``keep`` grid spaces (all if None)
    where ``expr`` holds, in grid order. The walk stops at the last one
    kept, and decides ``tauConnected`` as it reaches each topology, only if
    ``expr`` reads it.

    A space's key is its tuple's class values, tc(τ) and whether the tuple
    is m_τ, τ's minimal opens (``tauAEqualsTau``): hull(x) ⊇ a(x) ⊇
    m_τ(x), since the hull is scope-open and so holds the scope of its
    point, and a(x) is a τ-open set around x. So hulls equal to m_τ force
    a = m_τ. Conversely, minimal opens are transitive (y ∈ m(x) gives
    m(y) ⊆ m(x)), and a transitive tuple is its own hull, so a = m_τ gives
    hulls = a = m_τ. ``_tau_a_equals_tau`` compares the hulls with m_τ, so
    it holds exactly when a = m_τ.

    So for each value t of tc met, the tuples whose key (values, t, False)
    satisfies ``expr`` form one set H_t, built once from the memo with the
    predicate evaluated once per key. On a topology with tc(τ) = t every
    tuple but m_τ has that key, and m_τ, which is in τ's grid, has
    (values, t, True). So the hits of τ are the tuples of its grid in H_t,
    with m_τ taken out and put back exactly when its own key holds; the
    grid is filtered against that set in C and cut at the hits still
    wanted.
    """
    atoms = expr.atoms
    tc_read, equals_read = "tauConnected" in atoms, "tauAEqualsTau" in atoms
    verdict = _verdicts(expr)
    hitting: Dict[Optional[bool], Set[Tuple[int, ...]]] = {}  # t -> H_t
    hits: List[Hit] = []
    for ti, choices in enumerate(grids):
        if keep is not None and len(hits) == keep:
            break
        tau_connected = ATOMS["tauConnected"](topologies[ti]) if tc_read else None
        found = hitting.get(tau_connected)
        if found is None:
            away = False if equals_read else None
            holds = {v for v in set(memo.values())
                     if verdict((v, tau_connected, away)) is not None}
            found = hitting[tau_connected] = {p for p, v in memo.items() if v in holds}
        # m_τ's membership in H_t, flipped for this topology where its own
        # key says otherwise, and flipped back after.
        minimal = topologies[ti].minimal_masks if equals_read else None
        flip = set()
        if equals_read and (minimal in found) != (
                verdict((memo[minimal], tau_connected, True)) is not None):
            flip.add(minimal)
        found ^= flip
        wanted = None if keep is None else keep - len(hits)
        for picks in islice(filter(found.__contains__, product(*choices)), wanted):
            key = (memo[picks], tau_connected, picks == minimal if equals_read else None)
            hits.append((ti, _aura_index(choices, picks), picks, verdict(key)))
        found ^= flip
    return hits


def _first_keys(topologies: List[TopologyFamily], grids: List[List[List[int]]],
                memo: ScopeMemo) -> List[Hit]:
    """Pass 2 of the matrix: the first grid space of each valuation key
    over every atom, in grid order.

    Keys are those of ``_grid_matches``: on a topology every tuple but m_τ
    has the key (its class values, tc(τ), False), and m_τ has (its values,
    tc(τ), True). So each topology's grid is read once through the memo,
    the first position of each class values, with m_τ's position left out,
    is the first space of each False key there, and m_τ's position is the
    one space of its True key.
    """
    firsts: Dict[Key, Hit] = {}
    for ti, choices in enumerate(grids):
        topology = topologies[ti]
        tau_connected = ATOMS["tauConnected"](topology)
        grid = list(product(*choices))
        values = list(map(memo.__getitem__, grid))
        at_minimal = _aura_index(choices, topology.minimal_masks)
        keys = [((values[at_minimal], tau_connected, True), at_minimal)]
        values[at_minimal] = None
        # Read backwards, so that each values keeps its first position.
        first = dict(zip(reversed(values), range(len(values) - 1, -1, -1)))
        keys += [((v, tau_connected, False), i) for v, i in first.items() if v is not None]
        for key, i in sorted(keys, key=lambda item: item[1]):
            if key not in firsts:
                firsts[key] = (ti, i, grid[i], _valuation(ATOM_NAMES, key))
    return list(firsts.values())


def _render_witnesses(topologies: List[TopologyFamily], hits: List[Hit]) -> List[Witness]:
    """One witness per hit, in order. Each distinct space is built again
    from its tuple and rendered once, and each witness gets its own copy of
    its valuation, since hits of one key share theirs."""
    shown: dict = {}  # (topology index, aura index) -> (descriptor, document)
    witnesses = []
    for ti, aura_index, scope_masks, valuation in hits:
        view = shown.get((ti, aura_index))
        if view is None:
            s = AuraSpace(topologies[ti], scope_masks)
            view = shown[(ti, aura_index)] = (space_descriptor(s), _space_json(s))
        witnesses.append(Witness(ti, aura_index, *view, dict(valuation)))
    return witnesses


def search(n: int, expression: str, limit: Optional[int] = None) -> SearchReport:
    """Scan every space of the given size for the predicate.

    Every space of the grid is decided, and the walk stops at the last
    witness kept (see ``_scan``).  ``limit`` keeps the first witnesses in
    grid order, and only those are rendered; a negative limit raises
    ``LimitOutOfRange``.  A search that would keep more than
    ``MAX_WITNESSES`` raises ``TooManyWitnesses`` before it renders any.
    """
    expr = parse_predicate(expression)
    if n < 0 or n > MAX_SIZE:
        raise SizeOutOfRange(f"search supports sizes 0..{MAX_SIZE}, got {n}")
    if limit is not None and limit < 0:
        raise LimitOutOfRange(f"limit must be a nonnegative count, got {limit}")

    over = MAX_WITNESSES + 1
    topologies, scanned, hits = _scan(n, expr, over if limit is None else min(limit, over))
    if len(hits) == over:
        raise TooManyWitnesses(
            f"more than {MAX_WITNESSES} witnesses, the witness budget of one search; "
            f"keep the first ones with --limit (at most {MAX_WITNESSES})")
    return SearchReport("search", n, scanned, expression=expression,
                        witnesses=_render_witnesses(topologies, hits))


# ---------------------------------------------------------------------------
# implication matrix

# A product-scan factor: (n, scope masks, hull masks).
Factor = Tuple[int, Tuple[int, ...], Tuple[int, ...]]

_FACTOR_SIZES = (2, 3)


def _product_pair_pool() -> List[Factor]:
    """Every 2- and 3-point space as a factor, in grid order. The scope
    tuples are valid for the reason given in ``_checked_choices``, so no
    space is built; the hulls come straight from the kernel. The same
    scopes are admissible under several topologies, so the 371 factors
    hold 68 distinct scope tuples, and each tuple's hulls are closed once."""
    pool = []
    hulls = {}
    for n in _FACTOR_SIZES:
        for topology in enumerate_topologies(n):
            for picks in product(*_checked_choices(topology)):
                if picks not in hulls:
                    hulls[picks] = tuple(kernel.hull_masks(n, picks))
                pool.append((n, picks, hulls[picks]))
    return pool


# The ``count`` right-hand factors of one size ny, laid side by side for
# left-hand factors of nx points: lane j, of nx * ny bits, stands for the
# j-th factor, and ``lsb`` has bit 0 of every lane set.
# ``scope_boxes[u][v]`` holds in each lane the box u × (the factor's scope
# of point v), for every left mask u, and ``hull_boxes[u][v]`` the box
# u × (the factor's hull of point v).
_Lanes = namedtuple("_Lanes", "ny count lsb scope_boxes hull_boxes")


def _pack_lanes(nx: int, ny: int, ys: List[Factor], boxes: List[List[int]]) -> _Lanes:
    """Lay the ny-point factors ``ys`` out in lanes for nx-point left
    factors. ``boxes[u][w]`` is ``_box_mask(u, w, ny)``."""
    width = nx * ny
    shifts = [j * width for j in range(len(ys))]

    def packed(field):
        return [[sum(boxes[u][y[field][v]] << s for y, s in zip(ys, shifts))
                 for v in range(ny)] for u in range(1 << nx)]

    return _Lanes(ny, len(ys), sum(1 << s for s in shifts), packed(1), packed(2))


def _differing_lanes(x: Factor, lanes: _Lanes) -> List[bool]:
    """Per lane, whether the product scope topology of x and the lane's
    factor differs from the closure of their open boxes, compared through
    minimal opens (see ``product_strictness_scan``). One ``packed_hulls``
    call closes the product scopes of every lane, and each lane's product
    hulls are XORed with the boxes hull(x) × hull(y) they should equal."""
    _, scopes_x, hulls_x = x
    points = range(lanes.ny)
    rows = [lanes.scope_boxes[u][v] for u in scopes_x for v in points]
    wanted = [lanes.hull_boxes[u][v] for u in hulls_x for v in points]
    width = len(scopes_x) * lanes.ny
    diff = 0
    for got, want in zip(kernel.packed_hulls(width, rows, lanes.lsb), wanted):
        diff |= got ^ want
    lane = (1 << width) - 1
    return [bool((diff >> (j * width)) & lane) for j in range(lanes.count)]


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
    len(pool) ** 2 scan. The product hulls are closed from the product
    scopes, never read off hull(x) × hull(y): for each distinct x and each
    size of y, one ``_differing_lanes`` call decides x against every
    distinct y of that size, one lane per y, so the 68 ** 2 pairs take 136
    calls.
    """
    from .constructions import _box_mask

    pool = _product_pair_pool()
    # Every box the scan forms, built once and looked up to pack the lanes.
    width = 1 << max(_FACTOR_SIZES)
    boxes = {ny: [[_box_mask(u, v, ny) for v in range(1 << ny)] for u in range(width)]
             for ny in _FACTOR_SIZES}
    pairs = len(pool) ** 2
    counts = Counter(pool)
    strict = 0
    for ny in _FACTOR_SIZES:
        ys = [y for y in counts if y[0] == ny]
        for nx in _FACTOR_SIZES:
            lanes = _pack_lanes(nx, ny, ys, boxes[ny])
            for x in counts:
                if x[0] == nx:
                    strict += counts[x] * sum(counts[y] for y, differs
                                              in zip(ys, _differing_lanes(x, lanes)) if differs)
    if strict:
        return (f"product scope topology differs from the box closure on "
                f"{strict} of {pairs} factor pairs")
    return (f"product scope topology equals the box closure on all "
            f"{pairs} ordered pairs of 2- and 3-point factors")


def implication_matrix(n: int) -> SearchReport:
    """First-witness matrix for every ordered atom pair at the given size.

    The pairs p => q that a space makes fail depend only on its valuation,
    so only the first space of each valuation is read (``_scan`` without a
    predicate): 27 of the 59,123 spaces at size 4. Read in grid order, the
    first of them that makes p true and q false is the first such space of
    the grid, and it is the pair's witness. Each witness space is rendered
    once, however many pairs it fails.
    """
    if n < 0 or n > MAX_FULL_SIZE:
        raise SizeOutOfRange(f"matrix supports sizes 0..{MAX_FULL_SIZE}, got {n}")
    topologies, scanned, firsts = _scan(n, None, None)
    first: dict = {}
    for ti, aura_index, picks, values in firsts:
        for p in ATOM_NAMES:
            if values[p]:
                for q in ATOM_NAMES:
                    if not values[q]:
                        first.setdefault((p, q), (ti, aura_index, picks))
    failed = [(p, q) for p in ATOM_NAMES for q in ATOM_NAMES if (p, q) in first]
    witnesses = _render_witnesses(topologies, [first[(p, q)] + ({p: True, q: False},)
                                               for p, q in failed])
    implications = {(p, q): None for p in ATOM_NAMES for q in ATOM_NAMES if p != q}
    implications.update(zip(failed, witnesses))
    return SearchReport("matrix", n, scanned, implications=implications,
                        product_scan=product_strictness_scan())
