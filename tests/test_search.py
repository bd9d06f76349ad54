import functools
import importlib
import itertools
import json
import random
from collections import Counter

import pytest

from auratopo import (
    ATOM_NAMES,
    AuraSpace,
    LimitOutOfRange,
    SizeOutOfRange,
    TooManyWitnesses,
    UnknownAtom,
    count_auras,
    enumerate_auras,
    enumerate_topologies,
    implication_matrix,
    parse_predicate,
)
from auratopo import constructions, kernel
from auratopo.aura import classify, separation_axioms
from auratopo.connectivity import is_aura_connected, is_aura_path_connected
from auratopo.search import ATOMS, SCOPE_ATOMS, TOPOLOGY_ATOMS, search, space_descriptor
from helpers import all_small_spaces, grid_and_random_spaces, rand_space
from oracles import brute_closure, brute_tau_a, brute_topologies, plain_walk

# The package's `search` attribute is the function, so fetch the module itself.
search_module = importlib.import_module("auratopo.search")


def test_topology_enumeration_counts():
    assert [len(enumerate_topologies(n)) for n in range(5)] == [1, 1, 4, 29, 355]


def test_enumeration_matches_the_brute_filter():
    for n in range(4):
        got = {fs.mask_set for fs in enumerate_topologies(n)}
        expected = {frozenset(f) for f in brute_topologies(n)}
        assert got == expected


def test_enumeration_order_is_stable():
    first = [t.canonical_key() for t in enumerate_topologies(3)]
    second = [t.canonical_key() for t in enumerate_topologies(3)]
    assert first == second == sorted(first)


def test_aura_grid_totals():
    assert sum(count_auras(s) for s in enumerate_topologies(2)) == 9
    assert sum(count_auras(s) for s in enumerate_topologies(3)) == 362
    for space in enumerate_topologies(3):
        assert count_auras(space) == sum(1 for _ in enumerate_auras(space))


def test_size_gates():
    with pytest.raises(SizeOutOfRange):
        enumerate_topologies(6)
    with pytest.raises(SizeOutOfRange, match="sizes 0..5, got 6"):
        search(6, "transitive")
    with pytest.raises(SizeOutOfRange):
        implication_matrix(5)


def test_atoms_agree_with_the_module_predicates():
    rng = random.Random(80)
    for _ in range(40):
        s = rand_space(rng, rng.randrange(1, 5))
        cls = classify(s)
        sep = separation_axioms(s)
        assert ATOMS["transitive"](s) == cls.transitive
        assert ATOMS["symmetric"](s) == cls.symmetric
        assert ATOMS["aConnected"](s) == is_aura_connected(s)
        assert ATOMS["aPathConnected"](s) == is_aura_path_connected(s)
        assert ATOMS["aT0"](s) == sep.t0
        assert ATOMS["aT2"](s) == sep.t2


def test_predicate_parsing_and_precedence():
    expr = parse_predicate("transitive and not symmetric or discrete")
    assert expr.atoms == ("transitive", "symmetric", "discrete")
    # "or" binds loosest: (transitive and not symmetric) or discrete
    s_discrete = next(
        s
        for topo in enumerate_topologies(2)
        for s in enumerate_auras(topo)
        if classify(s).discrete
    )
    assert expr.holds_on(s_discrete)
    bang = parse_predicate("!(aT1 || aT2) && tauConnected")
    assert set(bang.atoms) == {"aT1", "aT2", "tauConnected"}


def test_predicate_errors():
    with pytest.raises(UnknownAtom):
        parse_predicate("transitive and compactish")
    with pytest.raises(ValueError, match="misplaced"):
        parse_predicate("and transitive")
    with pytest.raises(ValueError, match="unbalanced"):
        parse_predicate("(transitive")
    with pytest.raises(ValueError, match="trailing tokens"):
        parse_predicate("transitive symmetric")
    with pytest.raises(ValueError, match="bad character"):
        parse_predicate("transitive @ symmetric")
    with pytest.raises(ValueError, match="ended unexpectedly"):
        parse_predicate("not")


def test_search_finds_pinned_witnesses():
    # Scope-connected but not connected in the ambient topology.
    report = search(2, "aConnected and not tauConnected")
    assert report.found()
    w = report.witnesses[0]
    assert w.valuation == {"tauConnected": False, "aConnected": True}
    assert "points a,b" in w.descriptor
    # Non-idempotent closure needs three points.
    assert not search(2, "not clIdempotent").found()
    assert search(3, "not clIdempotent").found()
    # No space this small separates the two connectedness notions' chain.
    assert not search(3, "aConnected and not aPathConnected").found()


def test_search_scan_totals_and_limit():
    report = search(3, "transitive", limit=4)
    assert report.spaces_scanned == 362
    assert len(report.witnesses) == 4
    unlimited = search(3, "transitive")
    assert report.witnesses == unlimited.witnesses[:4]


def _runs(runs, call):
    """``call()``, run ``runs`` times in this process. Every run must give
    the first one's result: a walk leaves nothing behind that changes the
    next (the caches it warms, such as ``kernel.relabelings``, hold only
    what a cold run computes)."""
    results = [call() for _ in range(runs)]
    assert all(result == results[0] for result in results[1:])
    return results[0]


@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("limit", [0, 1, 5])
def test_limited_report_is_the_unlimited_one_truncated(limit, runs):
    expr = "aConnected and not tauConnected"
    full = _runs(runs, lambda: search(3, expr).to_json())
    assert len(full["witnesses"]) > 5
    full["witnesses"] = full["witnesses"][:limit]
    assert _runs(runs, lambda: search(3, expr, limit=limit).to_json()) == full


@pytest.mark.parametrize(
    "kwargs",
    [
        {"limit": 4},
        {"limit": None},
        {"limit": 400},
    ],
)
def test_search_renders_only_the_witnesses_it_returns(monkeypatch, kwargs):
    calls = []
    original = search_module._space_json

    def counted(s):
        calls.append(s)
        return original(s)

    monkeypatch.setattr(search_module, "_space_json", counted)
    report = search(3, "transitive", **kwargs)
    assert report.witnesses
    assert len(calls) == len(report.witnesses)


def test_single_worker_search_enumerates_the_topologies_once(monkeypatch):
    calls = []
    original = kernel.enumerate_preorders

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(kernel, "enumerate_preorders", counted)
    report = search(3, "aConnected and not tauConnected", limit=5)
    assert len(report.witnesses) == 5
    assert calls == [3]


def test_negative_limit_is_rejected():
    assert len(search(2, "aT0 and not aT1").witnesses) == 4
    with pytest.raises(LimitOutOfRange, match="got -1"):
        search(2, "aT0 and not aT1", limit=-1)


def test_a_search_past_the_witness_budget_renders_nothing(monkeypatch):
    # Pass 2 keeps at most one hit past the budget, and a search that
    # reaches it raises before it renders a witness.
    keeps, rendered = [], []
    scan, space_json = search_module._scan, search_module._space_json

    def recorded(n, expr, keep):
        keeps.append(keep)
        return scan(n, expr, keep)

    def counted(s):
        rendered.append(s)
        return space_json(s)

    monkeypatch.setattr(search_module, "MAX_WITNESSES", 5)
    monkeypatch.setattr(search_module, "_scan", recorded)
    monkeypatch.setattr(search_module, "_space_json", counted)
    for limit in (None, 6, 400):
        with pytest.raises(TooManyWitnesses, match="more than 5 witnesses.*--limit"):
            search(3, "transitive", limit=limit)
    assert rendered == []
    report = search(3, "transitive", limit=5)
    assert len(report.witnesses) == len(rendered) == 5
    assert keeps == [6, 6, 6, 5]


def test_a_second_run_in_one_process_gives_the_same_report():
    first = search(3, "aT1 and not aT2")
    second = search(3, "aT1 and not aT2")
    assert first.to_json() == second.to_json()
    m1 = implication_matrix(2)
    m2 = implication_matrix(2)
    assert m1.to_json() == m2.to_json()


def test_matrix_reports_every_ordered_pair():
    report = implication_matrix(2)
    pairs = len(ATOM_NAMES) * (len(ATOM_NAMES) - 1)
    assert len(report.implications) == pairs
    # Discrete scopes are transitive, so no witness can exist.
    assert report.implications[("discrete", "transitive")] is None
    # The indiscrete aura on two points is connected but not discrete.
    assert report.implications[("aConnected", "discrete")] is not None
    text = report.text()
    assert "discrete => transitive: holds" in text
    assert report.product_scan is not None
    data = json.dumps(report.to_json())
    assert "productScan" in data


def _brute_first_witnesses(n):
    """First (topology_index, aura_index, descriptor) of every failing ordered
    atom pair, from a plain grid scan that evaluates every atom on every
    space and skips nothing."""
    first = {}
    for ti, top in enumerate(enumerate_topologies(n)):
        for ai, s in enumerate(enumerate_auras(top)):
            vals = {a: fn(s) for a, fn in ATOMS.items()}
            for p in ATOM_NAMES:
                for q in ATOM_NAMES:
                    if vals[p] and not vals[q] and (p, q) not in first:
                        first[(p, q)] = (ti, ai, space_descriptor(s))
    return first


@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("n", [2, 3])
def test_matrix_matches_a_brute_first_witness_scan(n, runs):
    expected = _brute_first_witnesses(n)
    report = _runs(runs, lambda: implication_matrix(n))
    assert list(report.implications) == [
        (p, q) for p in ATOM_NAMES for q in ATOM_NAMES if p != q]
    for (p, q), w in report.implications.items():
        if (p, q) not in expected:
            assert w is None
        else:
            assert (w.topology_index, w.aura_index, w.descriptor) == expected[(p, q)]
            assert w.valuation == {p: True, q: False}


def test_witness_documents_parse_back():
    from auratopo import parse_document

    report = search(2, "not clIdempotent or trivial")
    for w in report.witnesses[:3]:
        doc = dict(w.document)
        parsed = parse_document(json.dumps(doc))
        assert space_descriptor(parsed.space) == w.descriptor


@pytest.mark.parametrize("workers", [-1, 0, 2])
def test_scans_take_no_worker_count(workers):
    # Both scans run in one process; the worker count and its error are gone.
    with pytest.raises(TypeError, match="workers"):
        search(2, "trivial", workers=workers)
    with pytest.raises(TypeError, match="workers"):
        implication_matrix(2, workers=workers)
    assert not hasattr(importlib.import_module("auratopo.errors"), "WorkersOutOfRange")


def test_singleton_idempotence_matches_the_definitional_scan():
    seen = set()
    for s in grid_and_random_spaces(seed=81, count=150):
        n, scopes = s.n, s.scope_masks
        definitional = all(
            brute_closure(n, scopes, brute_closure(n, scopes, a)) == brute_closure(n, scopes, a)
            for a in range(1 << n)
        )
        assert ATOMS["clIdempotent"](s) == definitional
        seen.add(definitional)
    assert seen == {True, False}


def _small_factor_pool():
    """Every 2-point factor and every fifth 3-point one: 9 + 73 factors."""
    pool = []
    for n, step in ((2, 1), (3, 5)):
        spaces = [s for top in enumerate_topologies(n) for s in enumerate_auras(top)]
        pool.extend((n, s.scope_masks, s.hull_masks) for s in spaces[::step])
    return pool


def _topologies_differ(x, y):
    """The comparison the scan used to make: the whole product scope topology
    against the union closure of the open boxes."""
    (nx, scopes_x, _), (ny, scopes_y, _) = x, y
    box = constructions._box_mask
    prod_scopes = [box(u, v, ny) for u in scopes_x for v in scopes_y]
    tau_x = kernel.tau_a_masks(kernel.hull_masks(nx, scopes_x))
    tau_y = kernel.tau_a_masks(kernel.hull_masks(ny, scopes_y))
    boxes = [box(u, v, ny) for u in tau_x for v in tau_y if u and v]
    tau_prod = kernel.tau_a_masks(kernel.hull_masks(nx * ny, prod_scopes))
    return set(tau_prod) != set(kernel.union_closure(boxes)) | {0}


@pytest.fixture
def small_product_scan(monkeypatch):
    pool = _small_factor_pool()
    monkeypatch.setattr(search_module, "_product_pair_pool", lambda: pool)
    return pool


def _lane_groups(pool):
    """Every left-hand factor of the pool with the lanes it is decided
    against: one group per factor size, every factor of that size a lane."""
    for ny in (2, 3):
        ys = [y for y in pool if y[0] == ny]
        boxes = [[constructions._box_mask(u, v, ny) for v in range(1 << ny)] for u in range(8)]
        for nx in (2, 3):
            lanes = search_module._pack_lanes(nx, ny, ys, boxes)
            for x in pool:
                if x[0] == nx:
                    yield x, ys, lanes


def test_product_scan_hull_verdict_matches_the_topology_comparison(small_product_scan):
    pool = small_product_scan
    for x, ys, lanes in _lane_groups(pool):
        assert search_module._differing_lanes(x, lanes) == [_topologies_differ(x, y) for y in ys]
    assert search_module.product_strictness_scan() == (
        "product scope topology equals the box closure on all "
        f"{len(pool) ** 2} ordered pairs of 2- and 3-point factors"
    )


def test_product_scan_reports_a_broken_hull(small_product_scan, monkeypatch):
    pool = small_product_scan
    # A scope stands in for the hull, which differs where the scope is not transitive.
    broken = [(n, scopes, scopes) for n, scopes, _ in pool]
    intact = sum(1 for _, scopes, hulls in pool if scopes == hulls)
    assert 0 < intact < len(pool)
    monkeypatch.setattr(search_module, "_product_pair_pool", lambda: broken)
    assert search_module.product_strictness_scan() == (
        "product scope topology differs from the box closure on "
        f"{len(pool) ** 2 - intact ** 2} of {len(pool) ** 2} factor pairs"
    )


def test_product_scan_reports_a_broken_box(small_product_scan, monkeypatch):
    pool = small_product_scan
    box = constructions._box_mask
    # Drops the first right-hand point from every box over two or more left points.
    # The scan imports the box from constructions each time it runs.
    monkeypatch.setattr(constructions, "_box_mask",
                        lambda u, v, ny: box(u, v & ~1 if u & (u - 1) else v, ny))
    message = search_module.product_strictness_scan()
    prefix = "product scope topology differs from the box closure on "
    assert message.startswith(prefix)
    strict, _, total, *_ = message[len(prefix):].split()
    assert 0 < int(strict) and int(total) == len(pool) ** 2


def test_product_scan_decides_each_distinct_factor_pair_once(monkeypatch):
    pool = _small_factor_pool() * 2
    packed = []
    pack, differing = search_module._pack_lanes, search_module._differing_lanes
    pairs = []

    def recorded(nx, ny, ys, boxes):
        lanes = pack(nx, ny, ys, boxes)
        packed.append((lanes, list(ys)))
        return lanes

    def counted(x, lanes):
        ys = next(ys for packed_lanes, ys in packed if packed_lanes is lanes)
        verdicts = differing(x, lanes)
        assert len(verdicts) == len(ys)
        pairs.extend((x, y) for y in ys)
        return verdicts

    monkeypatch.setattr(search_module, "_pack_lanes", recorded)
    monkeypatch.setattr(search_module, "_differing_lanes", counted)
    monkeypatch.setattr(search_module, "_product_pair_pool", lambda: pool)
    distinct = set(pool)
    assert len(distinct) <= len(pool) // 2
    assert search_module.product_strictness_scan() == (
        "product scope topology equals the box closure on all "
        f"{len(pool) ** 2} ordered pairs of 2- and 3-point factors"
    )
    # Each distinct ordered pair fills exactly one lane.
    assert Counter(pairs) == {(x, y): 1 for x in distinct for y in distinct}

    # The strict pairs are weighted by multiplicity, as in a scan of every pair.
    broken = [(n, scopes, scopes) for n, scopes, _ in pool]
    intact = sum(1 for _, scopes, hulls in pool if scopes == hulls)
    pairs.clear()
    monkeypatch.setattr(search_module, "_product_pair_pool", lambda: broken)
    assert search_module.product_strictness_scan() == (
        "product scope topology differs from the box closure on "
        f"{len(pool) ** 2 - intact ** 2} of {len(pool) ** 2} factor pairs"
    )
    assert len(pairs) == len(set(broken)) ** 2


def test_product_scan_counts_broken_hulls_on_the_full_pool(monkeypatch):
    # With every factor's hulls replaced by its scopes, the 68 ** 2 distinct
    # pairs of the full pool give this count; it was measured with a
    # separate hull_masks closure per pair.
    pool = search_module._product_pair_pool()
    assert len(pool) == 371
    monkeypatch.setattr(search_module, "_product_pair_pool",
                        lambda: [(n, scopes, scopes) for n, scopes, _ in pool])
    assert search_module.product_strictness_scan() == (
        "product scope topology differs from the box closure on "
        "97240 of 137641 factor pairs"
    )


def test_product_pair_pool_closes_each_distinct_scope_tuple_once(monkeypatch):
    calls = []
    original = kernel.hull_masks

    def counted(n, scopes):
        calls.append(tuple(scopes))
        return original(n, scopes)

    monkeypatch.setattr(kernel, "hull_masks", counted)
    pool = search_module._product_pair_pool()
    assert len(pool) == 371
    assert len(calls) == len(set(calls)) == len({scopes for _, scopes, _ in pool}) == 68
    assert all(hulls == tuple(original(n, scopes)) for n, scopes, hulls in pool)


def _split_scope_verdicts(atoms):
    """(scope tuple, atom) for every scope-only atom that gives two spaces of
    one scope tuple on at most three points different values."""
    values = {}
    for s in all_small_spaces(3):
        for a in SCOPE_ATOMS:
            values.setdefault((s.scope_masks, a), set()).add(atoms[a](s))
    return [key for key, seen in values.items() if len(seen) > 1]


def test_scope_only_atoms_read_nothing_but_the_scope_tuple():
    # The premise of the scan's scope memo: every topology that admits a
    # scope tuple gives each of the twelve scope-only atoms the same value.
    assert set(SCOPE_ATOMS) | set(TOPOLOGY_ATOMS) == set(ATOM_NAMES)
    assert len(SCOPE_ATOMS) == 12
    tuples = Counter(s.scope_masks for s in all_small_spaces(3))
    assert sum(1 for key in tuples if len(key) == 3) == 64
    assert max(tuples.values()) > 1
    assert _split_scope_verdicts(ATOMS) == []
    # The check has teeth: an atom that also reads the topology is caught.
    leaky = dict(ATOMS, aT0=lambda s: s.separation.t0 or len(s.topology.mask_set) > 4)
    assert _split_scope_verdicts(leaky)


def test_memoised_tau_a_equals_tau_matches_the_definition():
    expr = parse_predicate("tauAEqualsTau")
    memo = {}
    spaces = list(all_small_spaces(3))
    for s in spaces:
        expected = frozenset(brute_tau_a(s.n, s.scope_masks)) == s.topology.mask_set
        assert ATOMS["tauAEqualsTau"](s) == expected
        assert expr.holds_on(s) == expected
        # The memo holds values only: with no scope-only atom read they are
        # (), which is falsy, so membership decides whether to decide again.
        if s.scope_masks not in memo:
            assert search_module._decide(memo, s.topology, s.scope_masks, ()) == ()
        assert memo[s.scope_masks] == ()
        # Read as pass 2 reads it: the tuple itself against the minimal opens.
        assert (s.scope_masks == s.topology.minimal_masks) == expected
        # And as the plain walk reads it: the space's own hulls against them.
        assert (s.hull_masks == s.topology.minimal_masks) == expected
    assert len(memo) < len(spaces)
    # The plain walk's key carries the same verdict, space by space in grid order.
    walked = [key for n in range(4) for *_, key in
              plain_walk(enumerate_topologies(n), expr.atoms)]
    assert walked == [((), None, ATOMS["tauAEqualsTau"](s)) for s in spaces]


@functools.lru_cache(maxsize=None)
def _plain_grid(n):
    """The plain walk of the size-n grid over every atom, as a list."""
    return list(plain_walk(enumerate_topologies(n), ATOM_NAMES))


@pytest.mark.parametrize("n, size", [(0, 1), (1, 1), (2, 6), (3, 21), (4, 27)])
def test_matrix_keeps_the_first_space_of_each_plain_walk_key(n, size):
    topologies = enumerate_topologies(n)
    assert len(topologies[0].mask_set) == 1 << n  # pass 1 runs under the discrete topology
    firsts = {}
    for ti, aura_index, picks, key in _plain_grid(n):
        if key not in firsts:
            firsts[key] = (ti, aura_index, picks, search_module._valuation(ATOM_NAMES, key))
    assert len(firsts) == size
    walked, scanned, hits = search_module._scan(n, None, None)
    assert [t.canonical_key() for t in walked] == [t.canonical_key() for t in topologies]
    # The first space of each key, in grid order, with the key's valuation.
    assert hits == sorted(firsts.values(), key=lambda h: h[:2])
    assert scanned == sum(map(count_auras, topologies))


@pytest.mark.parametrize("expression", [
    "tauAEqualsTau and not aT0",
    "not tauAEqualsTau and transitive",
    "tauAEqualsTau or aT1",
])
def test_minimal_opens_hit_by_their_own_key(expression):
    # Pass 2 filters each topology's grid against the tuples whose key
    # would hit away from m_τ, τ's minimal opens, and takes m_τ by its own
    # key (see _grid_matches). The first predicate hits only m_τ tuples,
    # the second every transitive tuple but m_τ, which is transitive, and
    # the third m_τ also where aT1 fails.
    expr = parse_predicate(expression)
    verdicts = {}  # plain walk key -> the space's valuation if it is a hit, else None
    for n in range(5):
        expected = []
        for ti, aura_index, picks, key in _plain_grid(n):
            if key not in verdicts:
                full = search_module._valuation(ATOM_NAMES, key)
                valuation = {a: full[a] for a in expr.atoms}
                verdicts[key] = valuation if expr.evaluate(valuation) else None
            if verdicts[key] is not None:
                expected.append((ti, aura_index, picks, verdicts[key]))
        assert expected or n < 2
        for limit in (None, 0, 1, 5):
            _, _, hits = search_module._scan(n, expr, limit)
            assert hits == expected[:limit], (n, limit)
    report = search(4, expression, limit=5)
    assert [(w.topology_index, w.aura_index, w.valuation) for w in report.witnesses] == \
        [(ti, aura_index, valuation) for ti, aura_index, _, valuation in expected[:5]]


def _draws(monkeypatch, run):
    """The tuples drawn from each ``product`` call of the scans while
    ``run`` runs, per call and in call order, for the calls over
    4-point grids."""
    draws = []

    def counted(*choices):
        draws.append(0)
        for picks in itertools.product(*choices):
            draws[-1] += len(choices) == 4
            yield picks

    monkeypatch.setattr(search_module, "product", counted)
    run()
    monkeypatch.setattr(search_module, "product", itertools.product)
    return [d for d in draws if d]


def test_pass_two_stops_at_the_last_witness(monkeypatch):
    # Pass 1 reads the 4,096 tuples of the discrete topology. Then a limited
    # search stops at its last hit, and the matrix reads every space.
    draws = _draws(monkeypatch, lambda: search(4, "aConnected and not tauConnected", limit=5))
    assert draws[0] == 4096
    assert sum(draws[1:]) < 100
    draws = _draws(monkeypatch, lambda: implication_matrix(4))
    assert draws[0] == 4096
    assert sum(draws[1:]) == 59123


def test_scans_decide_scope_atoms_once_per_scope_tuple(monkeypatch):
    # Once per relabelling class of scope tuples (see _decide): the 64
    # tuples at n = 3 fall into 16 classes, the 4,096 at n = 4 into 218.
    # tauAEqualsTau is never evaluated: the scans compare each tuple with
    # its topology's minimal opens.
    tuples = len({s.scope_masks for s in all_small_spaces(3) if s.n == 3})
    topologies = len(enumerate_topologies(3))
    assert (tuples, topologies) == (64, 29)
    classes = 16

    calls = Counter()
    for atom, fn in list(ATOMS.items()):
        def counted(s, _atom=atom, _fn=fn):
            calls[_atom] += 1
            return _fn(s)
        monkeypatch.setitem(ATOMS, atom, counted)
    report = implication_matrix(3)
    assert report.spaces_scanned == 362
    for atom in SCOPE_ATOMS:
        assert calls[atom] == classes, atom
    assert calls["tauConnected"] == topologies
    assert calls["tauAEqualsTau"] == 0

    calls.clear()
    search(3, "tauAEqualsTau and not aConnected or tauConnected and not aT0")
    assert 0 < max(calls[a] for a in SCOPE_ATOMS) <= classes
    assert 0 < calls["tauConnected"] <= topologies
    assert calls["tauAEqualsTau"] == 0

    calls.clear()
    _, scanned, firsts = search_module._scan(4, None, None)
    assert scanned == 59123
    assert len(firsts) == 27  # distinct valuations
    for atom in SCOPE_ATOMS:
        assert calls[atom] == 218, atom
    assert calls["tauConnected"] == 355
    assert calls["tauAEqualsTau"] == 0


def _relabelling_faults(atoms, max_n):
    """Every (tuple, source, what) at which a scope-only atom or a hull
    differs between a scope tuple on at most ``max_n`` points, under the
    discrete topology, and one of its n! relabellings; and the number of
    relabelling classes per size."""
    faults, classes = [], []
    for n in range(max_n + 1):
        # Under the discrete topology every reflexive tuple is valid.
        discrete = next(t for t in enumerate_topologies(n) if len(t.mask_set) == 1 << n)
        choices = [[m for m in range(1 << n) if (m >> x) & 1] for x in range(n)]
        decided = {}
        for picks in itertools.product(*choices):
            s = AuraSpace(discrete, picks)
            decided[picks] = ({a: atoms[a](s) for a in SCOPE_ATOMS}, s.hull_masks)
        canonical = set()
        for picks, (values, hulls) in decided.items():
            images = []
            for source, table in kernel.relabelings(n):
                image = tuple(table[picks[x]] for x in source)
                images.append(image)
                image_values, image_hulls = decided[image]
                for a in SCOPE_ATOMS:
                    if image_values[a] != values[a]:
                        faults.append((picks, source, a))
                if image_hulls != tuple(table[hulls[x]] for x in source):
                    faults.append((picks, source, "hulls"))
            canonical.add(min(images))
        classes.append(len(canonical))
    return faults, classes


def test_scope_atoms_and_hulls_are_invariant_under_relabelling():
    # The premise of the orbit fill: every scope-only atom takes one value
    # on a relabelling class, and the hulls move with the labels. Under the
    # discrete topology every reflexive tuple occurs (4,096 at n = 4).
    faults, classes = _relabelling_faults(ATOMS, 4)
    assert faults == []
    assert classes == [1, 1, 3, 16, 218]  # unlabeled digraphs, OEIS A000273
    # The check has teeth: an atom that reads a label is caught.
    leaky = dict(ATOMS, aT0=lambda s: s.separation.t0 or s.scope_masks[0] == 1)
    faults, _ = _relabelling_faults(leaky, 3)
    assert faults and {what for _, _, what in faults} == {"aT0"}


def test_orbit_filled_memo_equals_a_per_tuple_memo(monkeypatch):
    # The memo that each full-grid scan fills one relabelling class at a
    # time holds, for every tuple, what deciding that tuple on its own
    # first grid space gives: the scope-only values, and nothing else.
    memos = []
    decide = search_module._decide

    def capture(memo, *args, **kwargs):
        if not memos or memos[-1] is not memo:
            memos.append(memo)
        return decide(memo, *args, **kwargs)

    monkeypatch.setattr(search_module, "_decide", capture)
    # Never true, and it reads every atom, so the search decides them all.
    never = "transitive and not transitive and " + " and ".join(ATOM_NAMES)
    for n in range(5):
        plain = {}
        for space in enumerate_topologies(n):
            for picks in itertools.product(*search_module._checked_choices(space)):
                if picks not in plain:
                    s = AuraSpace(space, picks)
                    plain[picks] = tuple(ATOMS[a](s) for a in SCOPE_ATOMS)
        assert len(plain) == 1 << (n * n - n)
        memos.clear()
        implication_matrix(n)
        assert search(n, never, limit=0).spaces_scanned > 0
        assert len(memos) == 2
        for memo in memos:
            assert memo == plain
            assert len({id(values) for values in memo.values()}) == [1, 1, 3, 16, 218][n]


def _brute_hits(n, expression):
    """(topology_index, aura_index, descriptor, valuation) of every space
    that satisfies the predicate, from a plain scan that decides every atom
    on every space with no memo."""
    expr = parse_predicate(expression)
    hits = []
    for ti, top in enumerate(enumerate_topologies(n)):
        for ai, s in enumerate(enumerate_auras(top)):
            vals = {a: fn(s) for a, fn in ATOMS.items()}
            if expr.evaluate(vals):
                hits.append((ti, ai, space_descriptor(s), {a: vals[a] for a in expr.atoms}))
    return hits


@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("expression", [
    "tauAEqualsTau and not aConnected",
    "tauConnected and not aT0",
    "not tauAEqualsTau and aLocallyConnected or tauConnected and not clIdempotent",
])
def test_search_matches_a_per_space_brute_scan(expression, runs):
    expected = _brute_hits(3, expression)
    assert 0 < len(expected) < 362
    report = _runs(runs, lambda: search(3, expression))
    got = [(w.topology_index, w.aura_index, w.descriptor, w.valuation)
           for w in report.witnesses]
    assert got == expected

