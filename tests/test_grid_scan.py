"""The mask-tuple grid scans against the validated path.

``search`` and ``matrix`` walk each topology's grid as plain scope tuples
and build an ``AuraSpace`` only for the first tuple of each relabelling
class and for each rendered witness. These tests compare them with
references that build and validate every space (``enumerate_auras``) and
decide every atom on it.
"""

import importlib
import itertools
import json

import pytest

from auratopo import (
    ATOM_NAMES,
    OpenSetNotInTopology,
    PointNotInOwnAura,
    count_auras,
    enumerate_auras,
    enumerate_topologies,
    implication_matrix,
    parse_predicate,
)
from auratopo.cli import main
from auratopo.search import ATOMS, SearchReport, Witness, search, space_descriptor

search_module = importlib.import_module("auratopo.search")

# Always true, and it reads all fourteen atoms, so each hit carries the
# scan's full valuation of its space.
EVERY_ATOM = "transitive or not transitive or " + " or ".join(ATOM_NAMES)


def _witness(ti, ai, s, valuation):
    return Witness(ti, ai, space_descriptor(s), search_module._space_json(s), valuation)


def _reference_search(n, expression, limit=None):
    """The search report from validated spaces, each atom decided on its own
    space with no memo."""
    expr = parse_predicate(expression)
    topologies = enumerate_topologies(n)
    hits = []
    for ti, top in enumerate(topologies):
        for ai, s in enumerate(enumerate_auras(top)):
            if expr.holds_on(s):
                hits.append(_witness(ti, ai, s, {a: ATOMS[a](s) for a in expr.atoms}))
    scanned = sum(count_auras(top) for top in topologies)
    return SearchReport("search", n, scanned, expression=expression, witnesses=hits[:limit])


def _reference_matrix(n):
    first = {}
    for ti, top in enumerate(enumerate_topologies(n)):
        for ai, s in enumerate(enumerate_auras(top)):
            vals = {a: fn(s) for a, fn in ATOMS.items()}
            for p in ATOM_NAMES:
                for q in ATOM_NAMES:
                    if vals[p] and not vals[q] and (p, q) not in first:
                        first[(p, q)] = _witness(ti, ai, s, {p: True, q: False})
    scanned = sum(count_auras(top) for top in enumerate_topologies(n))
    implications = {(p, q): first.get((p, q))
                    for p in ATOM_NAMES for q in ATOM_NAMES if p != q}
    return SearchReport("matrix", n, scanned, implications=implications,
                        product_scan=search_module.product_strictness_scan())


def _cli_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_scan_valuations_match_the_validated_spaces(n):
    report = search(n, EVERY_ATOM)
    spaces = [(ti, ai, s) for ti, top in enumerate(enumerate_topologies(n))
              for ai, s in enumerate(enumerate_auras(top))]
    assert [(w.topology_index, w.aura_index) for w in report.witnesses] == \
        [(ti, ai) for ti, ai, _ in spaces]
    for w, (_, _, s) in zip(report.witnesses, spaces):
        expected = {a: ATOMS[a](s) for a in ATOM_NAMES}
        assert w.valuation == expected
        assert w.valuation == {a: parse_predicate(a).holds_on(s) for a in ATOM_NAMES}
        assert w.descriptor == space_descriptor(s)


@pytest.mark.parametrize("argv, reference", [
    (["search", "--size", "3", "--where", "tauAEqualsTau and not aT0 or not tauAEqualsTau and aT1"],
     lambda: _reference_search(3, "tauAEqualsTau and not aT0 or not tauAEqualsTau and aT1")),
    (["search", "--size", "3", "--where", "aConnected and not clIdempotent", "--limit", "9"],
     lambda: _reference_search(3, "aConnected and not clIdempotent", limit=9)),
    (["search", "--size", "3", "--where", "aConnected and not tauConnected or tauAEqualsTau"],
     lambda: _reference_search(3, "aConnected and not tauConnected or tauAEqualsTau")),
    (["matrix", "--size", "3"], lambda: _reference_matrix(3)),
])
def test_json_reports_match_a_validated_reference(capsys, argv, reference):
    code, got = _cli_json(capsys, *argv)
    expected = reference().to_json()
    assert code == (0 if argv[0] == "matrix" or expected["witnesses"] else 1)
    assert got == expected
    if argv[0] == "search":
        assert 0 < len(got["witnesses"]) < got["spacesScanned"]


def _patch_a_bad_candidate(monkeypatch, n, topo_key, point, mask):
    """Make ``_fiber_choices`` offer ``mask`` to ``point`` on one topology."""
    original = search_module._fiber_choices

    def with_bad(topology):
        choices = original(topology)
        if topology.universe.n == n and topology.canonical_key() == topo_key:
            choices[point] = choices[point] + [mask]
        return choices

    monkeypatch.setattr(search_module, "_fiber_choices", with_bad)


@pytest.mark.parametrize("opens, mask, error", [
    # {a} is not open in the indiscrete topology on {a, b}.
    (2, 0b01, OpenSetNotInTopology),
    # {b} is open in the discrete topology but misses a.
    (4, 0b10, PointNotInOwnAura),
])
def test_scans_reject_a_bad_candidate(monkeypatch, capsys, opens, mask, error):
    target = next(t for t in enumerate_topologies(2) if len(t.mask_set) == opens)
    _patch_a_bad_candidate(monkeypatch, 2, target.canonical_key(), 0, mask)
    with pytest.raises(error, match="'a'"):
        search(2, "aT0")
    with pytest.raises(error):
        implication_matrix(2)
    with pytest.raises(error):
        search_module._product_pair_pool()
    # enumerate_auras validates through AuraSpace, with the same verdict.
    with pytest.raises(error):
        list(enumerate_auras(target))
    for argv in (["search", "--size", "2", "--where", "aT0"], ["matrix", "--size", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_every_grid_reader_follows_the_fiber_choices(monkeypatch):
    # Reverse each point's candidates: enumeration, counts, both scans
    # and the product pool must all follow.
    original = search_module._fiber_choices
    monkeypatch.setattr(search_module, "_fiber_choices",
                        lambda space: [c[::-1] for c in original(space)])
    tops = enumerate_topologies(3)
    listed = {ti: list(enumerate_auras(top)) for ti, top in enumerate(tops)}
    for ti, top in enumerate(tops):
        reversed_grid = itertools.product(*[c[::-1] for c in original(top)])
        assert [s.scope_masks for s in listed[ti]] == list(reversed_grid)
        assert count_auras(top) == len(listed[ti])
    report = search(3, "aConnected and not tauConnected")
    assert report.witnesses
    for w in report.witnesses:
        assert space_descriptor(listed[w.topology_index][w.aura_index]) == w.descriptor
    matrix = implication_matrix(3)
    for w in matrix.implications.values():
        if w is not None:
            assert space_descriptor(listed[w.topology_index][w.aura_index]) == w.descriptor
    pool = search_module._product_pair_pool()
    assert pool == [(n, s.scope_masks, s.hull_masks) for n in (2, 3)
                    for top in enumerate_topologies(n) for s in enumerate_auras(top)]
    assert len(pool) == 371


@pytest.mark.parametrize("argv", [
    ["matrix", "--json"],
    ["search", "--where", "aConnected and not tauConnected or tauAEqualsTau and not aT0",
     "--limit", "25"],
    ["search", "--where", "aConnected and not tauConnected", "--limit", "5"],
])
@pytest.mark.parametrize("n", ["3", "4"])
def test_a_second_run_prints_the_bytes_of_the_first(capsys, argv, n):
    # Each run fills its own memo one relabelling class at a time, builds
    # its own hitting sets and edits them per topology, and stops at its
    # own last hit; a second run in the same process must not show it.
    outputs = []
    for _ in range(2):
        assert main([argv[0], "--size", n, *argv[1:]]) in (0, 1)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") > 10
