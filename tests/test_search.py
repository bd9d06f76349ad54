import importlib
import json
import random

import pytest

from auratopo import (
    ATOM_NAMES,
    LimitOutOfRange,
    SizeOutOfRange,
    UnknownAtom,
    count_auras,
    enumerate_auras,
    enumerate_topologies,
    implication_matrix,
    parse_predicate,
    search,
)
from auratopo.aura import classify, separation_axioms
from auratopo.connectivity import is_aura_connected, is_aura_path_connected
from auratopo.search import ATOMS, space_descriptor
from helpers import rand_space
from oracles import brute_topologies

# The package's `search` attribute is the function, so fetch the module itself.
search_module = importlib.import_module("auratopo.search")


def test_topology_enumeration_counts():
    assert [len(enumerate_topologies(n)) for n in range(5)] == [1, 1, 4, 29, 355]


def test_enumeration_matches_the_brute_filter():
    for n in range(4):
        got = {fs.topology.mask_set for fs in enumerate_topologies(n)}
        expected = {frozenset(f) for f in brute_topologies(n)}
        assert got == expected


def test_enumeration_order_is_stable():
    first = [s.topology.canonical_key() for s in enumerate_topologies(3)]
    second = [s.topology.canonical_key() for s in enumerate_topologies(3)]
    assert first == second == sorted(first)


def test_aura_grid_totals():
    assert sum(count_auras(s) for s in enumerate_topologies(2)) == 9
    assert sum(count_auras(s) for s in enumerate_topologies(3)) == 362
    for space in enumerate_topologies(3):
        assert count_auras(space) == sum(1 for _ in enumerate_auras(space))


def test_size_gates():
    with pytest.raises(SizeOutOfRange):
        enumerate_topologies(6)
    with pytest.raises(SizeOutOfRange):
        search(6, "transitive")
    with pytest.raises(SizeOutOfRange, match="full scans are capped"):
        search(5, "transitive")
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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("limit", [0, 1, 5])
def test_limited_report_is_the_unlimited_one_truncated(limit, workers):
    expr = "aConnected and not tauConnected"
    full = search(3, expr, workers=workers).to_json()
    assert len(full["witnesses"]) > 5
    full["witnesses"] = full["witnesses"][:limit]
    assert search(3, expr, limit=limit, workers=workers).to_json() == full


@pytest.mark.parametrize(
    "kwargs",
    [
        {"limit": 4},
        {"limit": None},
        {"limit": 3, "samples": 60, "seed": 5},
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


def test_negative_limit_is_rejected():
    assert len(search(2, "aT0 and not aT1").witnesses) == 4
    with pytest.raises(LimitOutOfRange, match="got -1"):
        search(2, "aT0 and not aT1", limit=-1)
    with pytest.raises(LimitOutOfRange):
        search(2, "aT0 and not aT1", limit=-1, samples=50)


def test_worker_count_never_changes_the_report():
    solo = search(3, "aT1 and not aT2", workers=1)
    duo = search(3, "aT1 and not aT2", workers=2)
    assert solo.to_json() == duo.to_json()
    m1 = implication_matrix(2, workers=1)
    m2 = implication_matrix(2, workers=2)
    assert m1.to_json() == m2.to_json()


def test_sampled_search_is_seeded():
    a = search(5, "trivial", samples=200, seed=11)
    b = search(5, "trivial", samples=200, seed=11)
    assert a.to_json() == b.to_json()
    assert a.spaces_scanned == 200
    assert a.seed == 11
    c = search(5, "trivial", samples=200, seed=12)
    assert c.seed == 12


def test_sampled_witnesses_carry_their_fiber_index():
    from auratopo import parse_document

    report = search(3, "transitive or not transitive", samples=60, seed=5)
    assert len(report.witnesses) == 60
    topologies = enumerate_topologies(3)
    for w in report.witnesses:
        listed = list(enumerate_auras(topologies[w.topology_index]))[w.aura_index]
        sampled = parse_document(json.dumps(w.document))
        assert space_descriptor(listed) == w.descriptor
        assert listed == sampled.space
    # The index is a position in the fiber, not the sample's ordinal.
    assert any(w.aura_index != k for k, w in enumerate(report.witnesses))


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


def test_witness_documents_parse_back():
    from auratopo import parse_document

    report = search(2, "not clIdempotent or trivial")
    for w in report.witnesses[:3]:
        doc = dict(w.document)
        parsed = parse_document(json.dumps(doc))
        assert space_descriptor(parsed.space) == w.descriptor
