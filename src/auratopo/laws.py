"""Structural laws checked by exhaustive enumeration over small spaces.

Each law quantifies over the complete grid of spaces on up to three
points (373 of them), or over ordered factor pairs drawn from the two-
and three-point grids, and re-derives a pinned identity through the
public operators. A failing law reports concrete witnesses, so a broken
operator or kernel is traced to a printable space rather than a flag.

Closure values inside the shared fact tables are read through the
kernel module attribute on purpose: patching ``kernel.aura_closure_mask``
must make the closure laws fail loudly, which the test suite uses to
prove the laws are live.

Most laws state one instance. A space law (``_space_law``) is a
statement about one space and a pair law (``_pair_law``) one about a
factor pair; the driver owns the walk over the grid described next.

Laws whose instances repeat one verdict many times run through class
replay (``_walk``), the module's one replay. Each instance list comes
with one class id per instance, built once per run by ``LawContext``:
the grid spaces under ``_scope_key``, the labels and the scope tuple (373
spaces, 70 classes); the factor pairs ``ctx.pairs`` under ``_pair_key``,
both sizes and scope tuples (6,597 pairs, 528 classes); and each
universe's sequences under their cycle mask (507 sequences, 7 classes on
three points). ``_walk`` goes through the instances in grid order: an
instance whose class has already passed adds that pass's check count,
and every other instance runs through the operators. So a passing class
runs once, and a failing class runs instance by instance, in place,
until one passes, and reports under a fault keep their bytes. Every
space law and ``cech-closure-axioms`` walk the scope classes, the pair
laws and the box half of ``product-topology-chain`` the pair classes,
and the convergence criterion, within a space, the cycle masks. The two
image laws walk their sources under size and hulls (``_image_walk``).
``scope-topology-subfamily`` reads the ambient topology, so each space
is a class of its own. ``product-topology-chain`` checks every pair but
memoises, per class, the product's two topologies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from . import kernel
from .aura import (
    AuraSpace,
    aura_interior,
    derived_set,
    is_aura_closed,
    is_aura_continuous,
    make_aura_space,
)
from .connectivity import aura_components, is_aura_connected, is_aura_locally_connected
from .constructions import _box_mask, product, product_topology_of_factors, subspace
from .covering import (
    fip,
    is_aura_compact,
    is_aura_limit_point_compact,
    is_aura_lindelof,
    is_countably_aura_compact,
)
from .finite import PointUniverse, mask_indices
from .genopen import GeneralizedClass, generalized_family
from .search import enumerate_auras, enumerate_topologies, space_descriptor
from .sequences import converges_to, short_sequences, transitive_criterion
from .verification import MAX_LAW_SIZE, check_law_size

MAX_WITNESSES = 5

CORE = "core"
EXTENDED = "extended"

# A failure message, or a callable that builds it when a check fails.
Message = Union[str, Callable[[], str]]


class SpaceFacts:
    """Memoised per-space tables shared by every law.

    Every table is built on first use, so a space pays only for the
    tables that the laws run over it read: most product spaces, for
    instance, never need closures, derived sets or interiors. The hulls,
    the classification and the separation flags are read from the
    ``AuraSpace``, which holds each of them once.
    """

    __slots__ = ("space", "n", "size", "full", "scopes", "__dict__")

    def __init__(self, s: AuraSpace):
        self.space = s
        self.n = s.n
        self.size = 1 << s.n
        self.full = s.universe.full_mask
        self.scopes = s.scope_masks

    @cached_property
    def cl(self) -> list:
        # The closure table is the fault-injection point for the suite.
        return [kernel.aura_closure_mask(self.n, self.scopes, a) for a in range(self.size)]

    @cached_property
    def d(self) -> list:
        return [derived_set(self.space, a).mask for a in range(self.size)]

    @cached_property
    def itr(self) -> list:
        return [aura_interior(self.space, a).mask for a in range(self.size)]

    @cached_property
    def tau_a_set(self) -> frozenset:
        return frozenset(self.space.aura_topology_masks)

    @cached_property
    def closed_masks(self) -> list:
        return [a for a in range(self.size) if is_aura_closed(self.space, a)]

    @cached_property
    def connected(self) -> bool:
        return is_aura_connected(self.space)

    @cached_property
    def blocks(self) -> tuple:
        return aura_components(self.space).blocks

    @cached_property
    def conn_masks(self) -> list:
        """All carrier masks connected in the subspace sense."""
        return [a for a in range(self.size) if is_aura_connected(self.space, a)]


class LawContext:
    """Space grid, class ids and one memo for one law run.

    ``_memoised`` keeps every value the laws share under a tuple key that
    names what the value is built from. ``facts`` keeps its own dict: it
    is the hot path.
    """

    def __init__(self, max_n: int = MAX_LAW_SIZE):
        check_law_size(max_n)
        self.max_n = max_n
        self._facts: Dict[AuraSpace, SpaceFacts] = {}
        self._memo: Dict[tuple, object] = {}
        self.discrete_pair = make_aura_space(
            ["0", "1"],
            [[], ["0"], ["1"], ["0", "1"]],
            {"0": ["0"], "1": ["1"]},
        )

    def _memoised(self, key: tuple, build: Callable[[], object]):
        """The value under ``key``, built by ``build()`` on first use. The
        test is membership, since a value may be false."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def spaces(self, n: int) -> list:
        return self._memoised(("spaces", n), lambda: [
            s for top in enumerate_topologies(n) for s in enumerate_auras(top)
        ])

    @cached_property
    def grid(self) -> list:
        """Every space up to ``max_n`` points, in grid order."""
        return [s for n in range(self.max_n + 1) for s in self.spaces(n)]

    @cached_property
    def scope_classes(self) -> List[int]:
        """The class id of each grid space under ``_scope_key``."""
        return _class_ids(_scope_key(s) for s in self.grid)

    def facts(self, s: AuraSpace) -> SpaceFacts:
        f = self._facts.get(s)
        if f is None:
            f = SpaceFacts(s)
            self._facts[s] = f
        return f

    @cached_property
    def pairs(self) -> list:
        """Ordered nonempty factor pairs with at most six product points:
        the sizes (2, 2), (2, 3) and (3, 2) in turn, left-major in grid order.

        Empty factors are excluded: with one factor empty the product is
        empty and the projections cannot be onto, so the factor-recovery
        laws are stated for nonempty factors only.
        """
        return [
            (sx, sy)
            for nx, ny in ((2, 2), (2, 3), (3, 2)) if max(nx, ny) <= self.max_n
            for sx in self.spaces(nx) for sy in self.spaces(ny)
        ]

    @cached_property
    def pair_classes(self) -> List[int]:
        """The class id of each factor pair under ``_pair_key``."""
        return _class_ids(_pair_key(sx, sy) for sx, sy in self.pairs)

    def product_of(self, sx: AuraSpace, sy: AuraSpace) -> AuraSpace:
        return self._memoised(("product", sx, sy), lambda: product(sx, sy))

    def boxes(self, nx: int, ny: int) -> list:
        """``_box_mask(a, b, ny)`` at ``a * 2**ny + b``, for every pair of
        carrier masks, built once per pair of factor sizes."""
        return self._memoised(
            ("boxes", nx, ny),
            lambda: [_box_mask(a, b, ny) for a in range(1 << nx) for b in range(1 << ny)],
        )

    def subspace_of(self, s: AuraSpace, ym: int) -> AuraSpace:
        """``subspace(s, ym)``, built once per space and carrier mask.

        The memo keeps the equal space that ``facts`` already holds, so a
        subspace met before under another carrier is not kept twice.
        """
        return self._memoised(("subspace", s, ym), lambda: self.facts(subspace(s, ym)).space)

    def sequences(self, universe: PointUniverse) -> tuple:
        """The short sequences of ``universe`` and their cycle masks, built
        once per universe."""
        def build() -> tuple:
            seqs = list(short_sequences(universe))
            return seqs, [q.cycle_mask() for q in seqs]
        return self._memoised(("sequences", universe), build)

    def onto_maps(self, m: int, n: int) -> tuple:
        """Every onto map from ``m`` points to ``n`` points, as image tuples,
        built once per pair of sizes."""
        return self._memoised(("onto", m, n), lambda: tuple(
            images for images in itertools.product(range(n), repeat=m)
            if len(set(images)) == n
        ))

    def projections(self, nx: int, ny: int) -> tuple:
        """The left and right projections of a product of an ``nx``-point
        and an ``ny``-point factor, as image tuples: product point k is the
        pair (k // ny, k % ny)."""
        return self._memoised(("projections", nx, ny), lambda: (
            tuple(k // ny for k in range(nx * ny)),
            tuple(k % ny for k in range(nx * ny)),
        ))

    def has_continuous_surjection(self, src: SpaceFacts, dst: SpaceFacts) -> bool:
        """Does any onto map carry src continuously to dst?

        Continuity only consults the two scope topologies, so results
        are memoised per pair of ``_image_key``; each onto map of
        ``onto_maps`` is tested with ``is_aura_continuous``.
        """
        if dst.n > src.n or dst.n == 0 != src.n:
            return False
        a, b = src.space, dst.space
        return self._memoised(("surjection", _image_key(src), _image_key(dst)), lambda: any(
            is_aura_continuous(m, a, b) for m in self.onto_maps(a.n, b.n)
        ))


@dataclass(frozen=True)
class Law:
    name: str
    tier: str
    description: str
    run: Callable


@dataclass
class _Tally:
    """Failure collector with a witness cap; ``decided`` counts the
    instances that the class replay ran through the operators."""

    law: str
    checks: int = 0
    failed: int = 0
    decided: int = 0
    messages: List[str] = field(default_factory=list)

    def verify(self, ok: bool, detail: Message, s: Optional[AuraSpace] = None) -> None:
        """Count one check; a callable ``detail`` is called only on failure."""
        self.checks += 1
        if ok:
            return
        self.failed += 1
        if len(self.messages) < MAX_WITNESSES:
            if not isinstance(detail, str):
                detail = detail()
            where = f" | space: {space_descriptor(s)}" if s is not None else ""
            self.messages.append(f"{self.law}: {detail}{where}")


def _class_ids(keys: Iterable) -> List[int]:
    """Each key's class id: the number of distinct keys met before its first."""
    ids: Dict[object, int] = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def _walk(t: _Tally, ids: Sequence, run: Callable[[int], None]) -> None:
    """Class replay: walk the positions of ``ids`` in grid order and call
    ``run(pos)`` on each one whose class has not passed yet; the others
    add the check count of their class's passing instance to ``t``.

    A law builds each instance's key from exactly the inputs its verdict
    reads, so every instance of a class makes the same checks with the
    same outcomes, and ``ids[pos]`` names the class of position ``pos``.
    An instance that runs is counted in ``t.decided``; if it passes, its
    check count is kept for its class. So a passing class runs once, and
    a failing one runs in full, in place, until one of its instances
    passes: a report under a fault is the report of a walk that runs
    every instance, witness for witness.

    The trade-off is that a replayed instance does not run the
    operators: a fault that reads an input outside the key passes. Each
    law argues in its docstring that its key holds every input it reads.
    The test suite checks the convergence key against every sequence it
    stands for, on all spaces up to two points and a sample of the
    three-point ones, pins the outcomes of faults that break some keys
    to those of runs that checked every instance, and compares the walk
    with one that runs every instance.
    """
    passed: Dict[object, int] = {}
    for pos, c in enumerate(ids):
        count = passed.get(c)
        if count is not None:
            t.checks += count
            continue
        before, failed = t.checks, t.failed
        run(pos)
        t.decided += 1
        if t.failed == failed:
            passed[c] = t.checks - before


def _pair_key(sx: AuraSpace, sy: AuraSpace) -> tuple:
    """Replay key of a factor pair: both sizes and both scope tuples.

    It is sufficient for every verdict that reads only scope data. The
    closure of a set collects the points whose scope meets it, the hull
    of x collects the points reached from x through scopes, and τ_a is
    the unions of hulls: all three are functions of the scopes. The
    scopes of the product are the boxes a(x) × b(y) of the factor
    scopes, in an order fixed by the two sizes, so the closure, hulls
    and τ_a of the product are functions of the key too, as are the
    box family built from the two τ_a and the projection maps. So
    ``product-topology-chain`` may take τ_{a×b} of every pair from the
    first pair of its key. The ambient topologies are not in the key, so
    no verdict that reads them may be replayed under it.
    """
    return (sx.n, sx.scope_masks, sy.n, sy.scope_masks)


def _product_topology_key(sx: AuraSpace, sy: AuraSpace) -> tuple:
    """Class key of the product topology: both sizes and both topologies.

    ``product`` builds the topology as all unions of the boxes
    m(x) × m(y) of the factors' minimal opens, and a box's mask is placed
    by the two sizes alone. The minimal open m(x) is the intersection of
    the opens that contain x, a function of the factor's open family. So
    two pairs with the same key get the same product open family, whatever
    their scopes.
    """
    return (sx.n, sx.topology.mask_set, sy.n, sy.topology.mask_set)


def _image_key(f: SpaceFacts) -> tuple:
    """Replay key of a source or a target of the image laws: its size
    and hulls.

    ``has_continuous_surjection`` reads both spaces only through their
    sizes and hulls: a map is onto by the sizes alone, and continuity is
    hull monotonicity. So its verdict is a function of the two keys. The
    key splits the grid as size and τ_a would: τ_a is the unions of the
    hulls, and the hull of x is the least member of τ_a holding x. The
    targets each source tests are fixed lists, so every source of a
    class makes the same checks with the same outcomes. Being a source
    (compact, or connected and nonempty) is decided on every space
    before the walk.
    """
    return (f.n, f.space.hull_masks)


@dataclass(frozen=True)
class LawOutcome:
    name: str
    tier: str
    checks: int
    failed: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass(frozen=True)
class LawReport:
    max_n: int
    outcomes: tuple

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def lines(self) -> list:
        out = []
        for o in self.outcomes:
            if o.ok:
                out.append(f"law {o.name}: ok ({o.checks} checks)")
            else:
                out.append(f"law {o.name}: FAIL ({o.failed} of {o.checks} checks)")
                out.extend(f"  {m}" for m in o.failures)
        status = "all laws hold" if self.ok else "law failures present"
        out.append(f"laws: {status} on sizes 0..{self.max_n}")
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def to_json(self) -> dict:
        return {
            "maxSize": self.max_n,
            "ok": self.ok,
            "laws": [
                {
                    "name": o.name,
                    "tier": o.tier,
                    "checks": o.checks,
                    "failed": o.failed,
                    "failures": list(o.failures),
                }
                for o in self.outcomes
            ],
        }


LAWS: List[Law] = []


def _law(name: str, tier: str, description: str):
    def wrap(fn):
        LAWS.append(Law(name, tier, description, fn))
        return fn
    return wrap


def _scope_key(s: AuraSpace) -> tuple:
    """Replay key of a space: its labels and its scope tuple."""
    return (s.universe.labels, s.scope_masks)


def _space_law(name: str, tier: str, description: str):
    """Register ``fn(ctx, t, s, f)``, a statement about one space, as a
    law over every space of the grid, with ``f`` the space's shared fact
    tables, replayed over ``ctx.scope_classes``, the classes of
    ``_scope_key``.

    The key is complete for all 19 space laws: each body reads the space
    only through n, its labels and its scope masks. The closure collects
    the points whose scope meets a set, the interior the points whose
    scope stays inside it, and the derived set the points whose scope
    meets it elsewhere. The hulls close the scopes, τ_a is the unions of
    the hulls, and the classification and separation flags read the
    scopes and the hulls. Connectivity floods hull comparability, on a
    proper carrier with the scopes cut to it, and the component blocks
    and local connectedness read the same rows. Closedness and the cover
    and intersection tests go through τ_a, the closure and the interior,
    ``genopen`` through the closure and the interior, and continuity into
    the fixed two-point space through the hulls of both spaces. The
    scopes of ``subspace(s, ym)`` are those of ``s`` cut to ``ym`` and
    renumbered, so its closure and τ_a are functions of the key and
    ``ym``. The convergence body walks the sequences of the universe, a
    function of the labels, and tests each cycle against the hulls and
    the scopes; the cover scans of ``compact-chain-flags`` read n and
    τ_a. The ambient topology reaches only the failure text, and a
    key that failed is rerun in full on every later space. So every
    labelled scope tuple still runs through the operators, and only
    spaces that differ in the ambient topology alone are replayed: at
    sizes up to 3 the 373 spaces fall into 70 keys. A law that reads the
    ambient topology is written by hand and runs on every space.
    """
    def wrap(fn):
        def run(ctx: LawContext, t: _Tally) -> None:
            grid = ctx.grid
            _walk(t, ctx.scope_classes, lambda pos: fn(ctx, t, grid[pos], ctx.facts(grid[pos])))
        _law(name, tier, description)(run)
        return fn
    return wrap


def _pair_law(name: str, tier: str, description: str):
    """Register ``fn(ctx, t, sx, sy)``, a statement about one factor pair,
    as a law over ``ctx.pairs``, replayed over
    ``ctx.pair_classes``, the classes of ``_pair_key``.

    The replay is sound only if ``fn`` reads nothing of the pair but
    scope data; each pair law argues so in its docstring.
    """
    def wrap(fn):
        def run(ctx: LawContext, t: _Tally) -> None:
            _walk(t, ctx.pair_classes, lambda pos: fn(ctx, t, *ctx.pairs[pos]))
        _law(name, tier, description)(run)
        return fn
    return wrap


@_law(
    "cech-closure-axioms",
    CORE,
    "closure is grounded, extensive, monotone, additive, and not idempotent in general",
)
def _cech_axioms(ctx: LawContext, t: _Tally) -> None:
    """Walks the scope classes: every check and the idempotence flag
    read only the closure table, a function of ``_scope_key``, so a
    replayed space would set the flag as the first space of its class
    did."""
    idempotent_everywhere = True

    def instance(pos: int) -> None:
        nonlocal idempotent_everywhere
        s = ctx.grid[pos]
        f = ctx.facts(s)
        t.verify(f.cl[0] == 0, "closure of the empty set is nonempty", s)
        for a in range(f.size):
            ca = f.cl[a]
            t.verify(not a & ~ca, lambda: f"set {a:#x} escapes its own closure", s)
            if f.cl[ca] != ca:
                idempotent_everywhere = False
        for a in range(f.size):
            for b in range(f.size):
                t.verify(
                    f.cl[a | b] == f.cl[a] | f.cl[b],
                    lambda: f"closure not additive on {a:#x}, {b:#x}",
                    s,
                )
                if not a & ~b:
                    t.verify(
                        not f.cl[a] & ~f.cl[b],
                        lambda: f"closure not monotone on {a:#x} inside {b:#x}",
                        s,
                    )

    _walk(t, ctx.scope_classes, instance)
    if ctx.max_n >= 3:
        t.verify(
            not idempotent_everywhere,
            "no space with a non-idempotent closure was found, the grid should contain one",
        )


@_space_law(
    "closure-interior-duality",
    CORE,
    "interior is the complement of the closure of the complement",
)
def _duality(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    for a in range(f.size):
        t.verify(
            f.itr[a] == f.full & ~f.cl[f.full & ~a],
            lambda: f"duality breaks on {a:#x}",
            s,
        )


@_space_law(
    "derived-closure-decomposition",
    CORE,
    "closure of a set is the set joined with its derived set",
)
def _derived_closure(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    for a in range(f.size):
        t.verify(
            f.cl[a] == a | f.d[a],
            lambda: f"closure of {a:#x} is not the union with its derived set",
            s,
        )


@_space_law(
    "derived-set-laws",
    CORE,
    "derived set is grounded, monotone, additive, and detects closedness",
)
def _derived_laws(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    t.verify(f.d[0] == 0, "derived set of the empty set is nonempty", s)
    for a in range(f.size):
        t.verify(
            is_aura_closed(s, a) == (not f.d[a] & ~a),
            lambda: f"closed flag disagrees with derived containment on {a:#x}",
            s,
        )
        for b in range(f.size):
            t.verify(
                f.d[a | b] == f.d[a] | f.d[b],
                lambda: f"derived set not additive on {a:#x}, {b:#x}",
                s,
            )
            if not a & ~b:
                t.verify(
                    not f.d[a] & ~f.d[b],
                    lambda: f"derived set not monotone on {a:#x} inside {b:#x}",
                    s,
                )


@_law(
    "scope-topology-subfamily",
    CORE,
    "scope-open sets are open, and hulls are the minimal scope-open neighbourhoods",
)
def _subfamily(ctx: LawContext, t: _Tally) -> None:
    """Runs on every space, each its own class: τ_a ⊆ τ reads the ambient
    topology, which ``_scope_key`` does not hold."""
    def instance(pos: int) -> None:
        s = ctx.grid[pos]
        f = ctx.facts(s)
        ambient = s.topology.mask_set
        for u in s.aura_topology_masks:
            t.verify(u in ambient, lambda: f"scope-open {u:#x} is not open", s)
        for i in range(f.n):
            h = s.hull_masks[i]
            t.verify(h in f.tau_a_set, lambda: f"hull of point {i} is not scope-open", s)
            t.verify(bool((h >> i) & 1), lambda: f"hull of point {i} misses the point", s)
            for u in s.aura_topology_masks:
                if (u >> i) & 1:
                    t.verify(
                        not h & ~u,
                        lambda: f"hull of point {i} exceeds a scope-open set containing it",
                        s,
                    )

    _walk(t, range(len(ctx.grid)), instance)


@_space_law(
    "transitive-scope-base-idempotent",
    CORE,
    "on transitive spaces scopes equal hulls and the closure is idempotent",
)
def _transitive_base(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    if not s.classification.transitive:
        return
    t.verify(
        list(f.scopes) == list(s.hull_masks),
        "scopes and hulls differ on a transitive space",
        s,
    )
    for a in range(f.size):
        t.verify(
            f.cl[f.cl[a]] == f.cl[a],
            lambda: f"closure not idempotent on {a:#x} despite transitivity",
            s,
        )


def _trace(mask: int, positions: list) -> int:
    """``mask`` cut to the carrier with ascending points ``positions`` and
    renumbered, apart from ``constructions.subspace``, which the laws check."""
    out = 0
    for k, p in enumerate(positions):
        if (mask >> p) & 1:
            out |= 1 << k
    return out


@_space_law(
    "subspace-closure-trace",
    CORE,
    "subspace closure is the ambient closure cut to the carrier",
)
def _subspace_closure(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    for ym in range(1, f.size):
        positions = list(mask_indices(ym))
        fs = ctx.facts(ctx.subspace_of(s, ym))
        for a in range(f.size):
            if not a & ~ym:
                a_sub = _trace(a, positions)
                t.verify(
                    fs.cl[a_sub] == _trace(f.cl[a], positions),
                    lambda: f"subspace closure of {a_sub:#x} in carrier {ym:#x} is not the trace",
                    s,
                )


@_space_law(
    "subspace-topology-inclusion",
    CORE,
    "traces of scope-open sets are scope-open in the subspace, with equality when transitive",
)
def _subspace_tau(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    for ym in range(1, f.size):
        positions = list(mask_indices(ym))
        fs = ctx.facts(ctx.subspace_of(s, ym))
        trace = {_trace(u, positions) for u in s.aura_topology_masks}
        t.verify(
            trace <= fs.tau_a_set,
            lambda: f"trace family escapes the subspace scope topology on carrier {ym:#x}",
            s,
        )
        if s.classification.transitive:
            t.verify(
                trace == fs.tau_a_set,
                lambda: f"transitive space has a strict trace on carrier {ym:#x}",
                s,
            )


@_pair_law(
    "product-closure-box",
    CORE,
    "closure of a box is the box of the closures",
)
def _product_closure(ctx: LawContext, t: _Tally, sx: AuraSpace, sy: AuraSpace) -> None:
    """Replayed per factor pair under ``_pair_key``: the product closure
    and both factor closures are functions of the scopes.

    Only the 16 or 32 boxes compared are closed in the product, through
    the kernel attribute, and both box masks come from ``ctx.boxes``.
    """
    fx, fy = ctx.facts(sx), ctx.facts(sy)
    prod = ctx.product_of(sx, sy)
    n, scopes = prod.n, prod.scope_masks
    boxes = ctx.boxes(fx.n, fy.n)
    cx, cy, size_y = fx.cl, fy.cl, fy.size
    for a in range(fx.size):
        for b in range(size_y):
            got = kernel.aura_closure_mask(n, scopes, boxes[a * size_y + b])
            want = boxes[cx[a] * size_y + cy[b]]
            t.verify(
                got == want,
                lambda: f"box closure mismatch on {a:#x} x {b:#x}",
                prod,
            )


@_law(
    "product-topology-chain",
    CORE,
    "boxes of scope-open sets generate a subfamily of the product scope topology, inside the product topology",
)
def _product_chain(ctx: LawContext, t: _Tally) -> None:
    """The box-family half reads the two factor τ_a and the product τ_a,
    so it walks the pair classes.

    The other half tests τ_{a×b} ⊆ τ_X × τ_Y on every pair of
    ``ctx.pairs``, as one subset test of two memoised families. τ_{a×b}
    is a function of ``_pair_key`` (528 classes at sizes up to 3), and
    τ_X × τ_Y of ``_product_topology_key`` (248 classes); each family is
    taken from the product of the first pair of its class. So the test
    reads the same two families that the pair's own product holds. A pass
    only adds its check. A pair whose test fails is walked in a class of
    its own, so it runs in place, after its box half, and builds its own
    product, which decides the check again and names the witness.
    """
    tau_a_of: Dict[int, frozenset] = {}
    topology_of: Dict[tuple, frozenset] = {}
    ids = []
    for pos, ((sx, sy), c) in enumerate(zip(ctx.pairs, ctx.pair_classes)):
        tau_a = tau_a_of.get(c)
        if tau_a is None:
            tau_a = tau_a_of[c] = ctx.facts(ctx.product_of(sx, sy)).tau_a_set
        topology_key = _product_topology_key(sx, sy)
        topology = topology_of.get(topology_key)
        if topology is None:
            topology = topology_of[topology_key] = ctx.product_of(sx, sy).topology.mask_set
        ids.append(c if tau_a <= topology else -1 - pos)

    def instance(pos: int) -> None:
        sx, sy = ctx.pairs[pos]
        prod = ctx.product_of(sx, sy)
        t.verify(
            product_topology_of_factors(sx, sy).mask_set <= ctx.facts(prod).tau_a_set,
            "box-generated family escapes the product scope topology",
            prod,
        )
        if ids[pos] >= 0:
            t.checks += 1
            return
        t.verify(
            ctx.facts(prod).tau_a_set <= prod.topology.mask_set,
            "product scope topology escapes the product topology",
            prod,
        )

    _walk(t, ids, instance)


@_pair_law(
    "product-transitive-equality",
    CORE,
    "with transitive factors the box-generated family is the whole product scope topology",
)
def _product_equality(ctx: LawContext, t: _Tally, sx: AuraSpace, sy: AuraSpace) -> None:
    """Replayed under ``_pair_key``: transitivity, the box family and the
    product τ_a are functions of the scopes."""
    if not (sx.classification.transitive and sy.classification.transitive):
        return
    prod = ctx.product_of(sx, sy)
    t.verify(
        product_topology_of_factors(sx, sy).mask_set == ctx.facts(prod).tau_a_set,
        "transitive factors produced a strictly larger product scope topology",
        prod,
    )


@_space_law(
    "connected-characterizations",
    CORE,
    "no separation, no proper clopen set, and no onto two-point discrete map agree",
)
def _characterizations(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    two = ctx.discrete_pair
    clopen_free = not any(a in f.tau_a_set and is_aura_closed(s, a) for a in range(1, f.full))
    t.verify(
        f.connected == clopen_free,
        "separation verdict disagrees with the proper clopen scan",
        s,
    )
    splittable = any(is_aura_continuous(m, s, two) for m in ctx.onto_maps(s.n, two.n))
    t.verify(
        f.connected == (not splittable),
        "two-point discrete maps disagree with the separation verdict",
        s,
    )


def _image_walk(ctx: LawContext, t: _Tally, sources: list, targets: list,
                check: Callable[[SpaceFacts, SpaceFacts, bool], None]) -> None:
    """Walk ``sources`` under ``_image_key``, calling ``check(fs, fd, onto)``
    on each target ``fd`` in grid order, with ``onto`` whether a continuous
    onto map carries ``fs`` to ``fd``: asked once per class of targets, of
    its first target, in order of first targets."""
    target_ids = _class_ids(_image_key(f) for f in targets)
    first: Dict[int, SpaceFacts] = {}
    for c, fd in zip(target_ids, targets):
        first.setdefault(c, fd)

    def instance(pos: int) -> None:
        fs = sources[pos]
        onto = [ctx.has_continuous_surjection(fs, fd) for fd in first.values()]
        for fd, c in zip(targets, target_ids):
            check(fs, fd, onto[c])

    _walk(t, _class_ids(_image_key(f) for f in sources), instance)


@_law(
    "continuous-image-connected",
    CORE,
    "a continuous onto image of a connected space is connected",
)
def _image_connected(ctx: LawContext, t: _Tally) -> None:
    """The sources are the nonempty connected spaces, the targets the
    disconnected ones; the message reads the source only on a failure."""
    all_facts = [ctx.facts(s) for s in ctx.grid]

    def check(fs: SpaceFacts, fd: SpaceFacts, onto: bool) -> None:
        if fd.n <= fs.n:
            t.verify(
                not onto,
                lambda: "a continuous onto map lands a connected space on a disconnected one "
                f"with scopes {['{:#x}'.format(m) for m in fd.scopes]}",
                fs.space,
            )

    _image_walk(ctx, t, [f for f in all_facts if f.connected and f.n >= 1],
                [f for f in all_facts if not f.connected], check)


@_space_law(
    "connected-union-common-point",
    CORE,
    "unions of connected subsets through a common point are connected",
)
def _union_common(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    conn = [a for a in f.conn_masks if a]
    for a, b in itertools.combinations(conn, 2):
        if a & b:
            t.verify(
                is_aura_connected(s, a | b),
                lambda: f"union {a | b:#x} of overlapping connected sets is disconnected",
                s,
            )
    if f.n >= 3:
        for a, b, c in itertools.combinations(conn, 3):
            if a & b & c:
                t.verify(
                    is_aura_connected(s, a | b | c),
                    lambda: f"union {a | b | c:#x} of three connected sets through a common point is disconnected",
                    s,
                )


@_space_law(
    "component-properties",
    CORE,
    "components are connected, maximal, closed, and partition the space",
)
def _components(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    union = 0
    for b in f.blocks:
        t.verify(is_aura_connected(s, b.mask), lambda: f"component {b.mask:#x} is disconnected", s)
        t.verify(is_aura_closed(s, b.mask), lambda: f"component {b.mask:#x} is not closed", s)
        t.verify(not union & b.mask, "components overlap", s)
        union |= b.mask
    t.verify(union == f.full, "components miss part of the space", s)
    block_masks = [b.mask for b in f.blocks]
    for c in f.conn_masks:
        if not c:
            continue
        inside = sum(1 for bm in block_masks if not c & ~bm)
        t.verify(
            inside == 1,
            lambda: f"connected set {c:#x} is not inside exactly one component",
            s,
        )


@_space_law(
    "locally-connected-open-components",
    CORE,
    "in a locally connected space every component is scope-open",
)
def _lc_open_components(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    if not is_aura_locally_connected(s):
        return
    for b in f.blocks:
        t.verify(
            b.mask in f.tau_a_set,
            lambda: f"component {b.mask:#x} of a locally connected space is not scope-open",
            s,
        )


@_space_law(
    "transitive-local-connectivity",
    CORE,
    "a transitive space with connected scopes is locally connected",
)
def _transitive_lc(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    if not s.classification.transitive:
        return
    if all(is_aura_connected(s, m) for m in f.scopes):
        t.verify(
            is_aura_locally_connected(s),
            "transitive space with connected scopes is not locally connected",
            s,
        )


@_space_law(
    "symmetric-transitive-local-connectivity",
    CORE,
    "with symmetry and transitivity, local connectedness means every scope is connected",
)
def _sym_trans_lc(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    if not (s.classification.transitive and s.classification.symmetric):
        return
    lhs = is_aura_locally_connected(s)
    rhs = all(is_aura_connected(s, m) for m in f.scopes)
    t.verify(
        lhs == rhs,
        "local connectedness and scope connectedness split on a symmetric transitive space",
        s,
    )


@_space_law(
    "transitive-convergence-criterion",
    CORE,
    "eventual containment in the scope matches convergence on transitive spaces",
)
def _convergence(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    """Within a space, walks the cycle-mask classes of its sequences.

    ``aura_limits`` tests cycle ⊆ hull(x) and ``transitive_criterion``
    tests cycle ⊆ a(x); both read a sequence only through
    ``q.cycle_mask()``, and ``converges_to`` only through
    ``aura_limits``. So on one space every sequence with a given cycle
    mask gets the verdicts of the first one, and a mask that fails is
    rerun on each of its sequences, in place and with its own text.
    The text is rendered for each sequence the walk runs.
    """
    transitive = s.classification.transitive
    labels = s.universe.labels
    seqs, masks = ctx.sequences(s.universe)

    def instance(pos: int) -> None:
        q = seqs[pos]
        text = q.text()
        for x in labels:
            crit = transitive_criterion(s, q, x)
            conv = converges_to(s, q, x)
            t.verify(
                not crit or conv,
                lambda: f"criterion holds at {x} for {text} without convergence",
                s,
            )
            if transitive:
                t.verify(
                    crit == conv,
                    lambda: f"criterion and convergence split at {x} for {text} on a transitive space",
                    s,
                )

    _walk(t, masks, instance)


@_space_law(
    "fip-compactness-equivalence",
    CORE,
    "the finite intersection property shortcut matches the literal sub-list scan and compactness",
)
def _fip_law(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    t.verify(is_aura_compact(s), "finite space flagged non-compact", s)
    closed = f.closed_masks
    for size in range(0, min(4, len(closed)) + 1):
        for combo in itertools.combinations(closed, size):
            res = fip(s, combo)
            literal = all(
                reduce(int.__and__, sub, f.full)
                for r in range(len(combo) + 1)
                for sub in itertools.combinations(combo, r)
            )
            t.verify(
                res.fip_holds == literal,
                lambda: f"shortcut disagrees with the literal scan on family {list(combo)}",
                s,
            )
            t.verify(
                res.fip_holds == res.intersection_nonempty,
                lambda: f"family {list(combo)} has the property but an empty total intersection",
                s,
            )


@_space_law(
    "separation-axiom-chain",
    CORE,
    "hull-based separation axioms match their definitions and chain downwards",
)
def _separation(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    hulls, sep = s.hull_masks, s.separation
    t0 = t1 = t2 = True
    for i in range(s.n):
        for j in range(s.n):
            if i == j:
                continue
            if (hulls[i] >> j) & 1 and (hulls[j] >> i) & 1:
                t0 = False
            if (hulls[i] >> j) & 1:
                t1 = False
            if i < j and hulls[i] & hulls[j]:
                t2 = False
    t.verify(sep.t0 == t0, "t0 flag disagrees with the hull definition", s)
    t.verify(sep.t1 == (t1 and t0), "t1 flag disagrees with the hull definition", s)
    t.verify(sep.t2 == (t2 and t1 and t0), "t2 flag disagrees with the hull definition", s)
    t.verify(not sep.t2 or sep.t1, "t2 without t1", s)
    t.verify(not sep.t1 or sep.t0, "t1 without t0", s)


@_space_law(
    "t2-closed-subsets",
    CORE,
    "in a finite t2 space every subset is scope-closed",
)
def _t2_closed(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    if not s.separation.t2:
        return
    for a in range(f.size):
        t.verify(
            is_aura_closed(s, a),
            lambda: f"subset {a:#x} of a t2 space is not closed",
            s,
        )


@_space_law(
    "generalized-open-hierarchy",
    CORE,
    "scope-open implies alpha, alpha implies semi and pre, and their union sits inside beta",
)
def _hierarchy(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    alpha, semi, pre, beta = (
        {ps.mask for ps in generalized_family(s, cls)} for cls in GeneralizedClass
    )
    t.verify(f.tau_a_set <= alpha, "a scope-open set is not alpha-open", s)
    t.verify(alpha <= semi & pre, "an alpha-open set is not both semi- and pre-open", s)
    t.verify(semi | pre <= beta, "a semi- or pre-open set is not beta-open", s)


@_space_law(
    "compact-chain-flags",
    CORE,
    "compactness, countable compactness, and the Lindelof property all hold on finite spaces",
)
def _compact_chain(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    compact = is_aura_compact(s, oracle=True)
    countable = is_countably_aura_compact(s, oracle=True)
    lindelof = is_aura_lindelof(s, oracle=True)
    t.verify(compact, "finite space flagged non-compact by the cover scan", s)
    t.verify(not compact or countable, "compact without countably compact", s)
    t.verify(not compact or lindelof, "compact without Lindelof", s)


@_space_law(
    "compact-implies-limit-finite",
    CORE,
    "compact finite spaces are limit point compact, vacuously",
)
def _compact_limit(ctx: LawContext, t: _Tally, s: AuraSpace, f: SpaceFacts) -> None:
    t.verify(
        not is_aura_compact(s) or is_aura_limit_point_compact(s),
        "compact space flagged not limit point compact",
        s,
    )


@_law(
    "continuous-image-compact",
    CORE,
    "a continuous onto image of a compact space is compact",
)
def _image_compact(ctx: LawContext, t: _Tally) -> None:
    """The sources are the compact spaces and the targets every space; a
    source tests the compactness of every target it reaches."""
    all_facts = [ctx.facts(s) for s in ctx.grid]

    def check(fs: SpaceFacts, fd: SpaceFacts, onto: bool) -> None:
        if onto:
            t.verify(
                is_aura_compact(fd.space),
                "continuous onto image of a compact space flagged non-compact",
                fd.space,
            )

    _image_walk(ctx, t, [f for f in all_facts if is_aura_compact(f.space)], all_facts, check)


@_pair_law(
    "projection-continuity",
    EXTENDED,
    "projections are continuous and onto, and pull compactness and connectedness back to the factors",
)
def _projections(ctx: LawContext, t: _Tally, sx: AuraSpace, sy: AuraSpace) -> None:
    """Replayed under ``_pair_key``: the projections are fixed by the two
    sizes, and continuity, connectedness and compactness read only the
    scope topologies of the product and the factors."""
    prod = ctx.product_of(sx, sy)
    left, right = ctx.projections(sx.n, sy.n)
    t.verify(is_aura_continuous(left, prod, sx), "left projection is not continuous", prod)
    t.verify(is_aura_continuous(right, prod, sy), "right projection is not continuous", prod)
    t.verify(len(set(left)) == sx.n and len(set(right)) == sy.n, "projection is not onto", prod)
    if ctx.facts(prod).connected:
        t.verify(
            ctx.facts(sx).connected and ctx.facts(sy).connected,
            "connected product with a disconnected factor",
            prod,
        )
    if is_aura_compact(prod):
        t.verify(
            is_aura_compact(sx) and is_aura_compact(sy),
            "compact product with a non-compact factor",
            prod,
        )


@_pair_law(
    "product-connected-factors",
    EXTENDED,
    "a product of nonempty spaces is connected exactly when both factors are",
)
def _product_connected(ctx: LawContext, t: _Tally, sx: AuraSpace, sy: AuraSpace) -> None:
    """Replayed under ``_pair_key``: connectedness reads only the hulls."""
    fx, fy = ctx.facts(sx), ctx.facts(sy)
    prod = ctx.product_of(sx, sy)
    t.verify(
        ctx.facts(prod).connected == (fx.connected and fy.connected),
        "product connectedness disagrees with the factors",
        prod,
    )


LAW_NAMES = tuple(law.name for law in LAWS)


def get_law(name: str) -> Law:
    for law in LAWS:
        if law.name == name:
            return law
    raise ValueError(f"unknown law {name!r}")


def run_laws(
    names: Optional[Iterable[str]] = None,
    tier: Optional[str] = None,
    max_n: int = MAX_LAW_SIZE,
    ctx: Optional[LawContext] = None,
) -> LawReport:
    """Run a selection of laws (default all) and collect outcomes."""
    selected = [get_law(n) for n in names] if names is not None else list(LAWS)
    if tier is not None:
        if tier not in (CORE, EXTENDED):
            raise ValueError(f"unknown law tier {tier!r}")
        selected = [law for law in selected if law.tier == tier]
    if ctx is None:
        ctx = LawContext(max_n)
    outcomes = []
    for law in selected:
        tally = _Tally(law.name)
        law.run(ctx, tally)
        outcomes.append(
            LawOutcome(law.name, law.tier, tally.checks, tally.failed, tuple(tally.messages))
        )
    return LawReport(max_n=ctx.max_n, outcomes=outcomes)
