"""The small result records: fields, construction, text form, equality and
immutability.

Each record is a named tuple. The ``repr`` strings below are the exact text
these records have always printed.
"""

import pytest

from auratopo import (
    aura_components,
    classify,
    find_aura_separation,
    load_fixture,
    parse_document,
    separation_axioms,
)
from auratopo.aura import AuraClassification, SeparationAxioms
from auratopo.connectivity import ComponentPartition, Separation
from auratopo.documents import SpaceDocument
from auratopo.search import SearchReport, Witness, search

DISCRETE2 = "AuraSpace(TopologyFamily({{}, {1}, {2}, {1,2}}), scope {1:{1}, 2:{2}})"
SIERPINSKI = ('{"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]], '
              '"aura": {"a": ["a"], "b": ["a", "b"]}, "name": "sierpinski2"}')
SIERPINSKI2 = "AuraSpace(TopologyFamily({{}, {a}, {a,b}}), scope {a:{a}, b:{a,b}})"
WITNESS = ("Witness(topology_index=0, aura_index=0, descriptor='points a,b | opens "
           "{},{a},{b},{a,b} | scopes a:{a} b:{b}', document={'points': ['a', 'b'], "
           "'opens': [[], ['a'], ['b'], ['a', 'b']], 'aura': {'a': ['a'], 'b': ['b']}}, "
           "valuation={'discrete': True, 'aT2': True})")


def _report():
    return search(2, "discrete and aT2", limit=1)


def test_fields_in_order():
    assert AuraClassification._fields == ("transitive", "symmetric", "trivial", "discrete")
    assert SeparationAxioms._fields == ("t0", "t1", "t2")
    assert SpaceDocument._fields == ("space", "name")
    assert Separation._fields == ("u", "v", "notion")
    assert ComponentPartition._fields == ("space", "blocks")
    assert Witness._fields == ("topology_index", "aura_index", "descriptor", "document",
                               "valuation")
    assert SearchReport._fields == ("command", "size", "spaces_scanned", "expression",
                                    "witnesses", "implications", "product_scan")


def test_keyword_construction_and_defaults():
    s = load_fixture("discrete2")
    assert classify(s) == AuraClassification(discrete=True, trivial=False, symmetric=True,
                                             transitive=True)
    assert separation_axioms(s) == SeparationAxioms(t2=True, t1=True, t0=True)
    sep = find_aura_separation(s)
    assert sep == Separation(notion="aura", v=sep.v, u=sep.u)
    parts = aura_components(s)
    assert parts == ComponentPartition(blocks=parts.blocks, space=s)
    assert SpaceDocument(s).name is None
    assert SpaceDocument(name="x", space=s) == SpaceDocument(s, "x")
    w = _report().witnesses[0]
    assert w == Witness(valuation=w.valuation, document=w.document, descriptor=w.descriptor,
                        aura_index=0, topology_index=0)
    report = SearchReport("matrix", 0, 1)
    assert report[3:] == (None, [], None, None)
    # Each report gets a witness list of its own.
    assert report.witnesses is not SearchReport("matrix", 0, 1).witnesses


def test_repr_text():
    s = load_fixture("discrete2")
    assert repr(classify(s)) == ("AuraClassification(transitive=True, symmetric=True, "
                                 "trivial=False, discrete=True)")
    assert repr(separation_axioms(s)) == "SeparationAxioms(t0=True, t1=True, t2=True)"
    assert repr(find_aura_separation(s)) == "Separation(u={1}, v={2}, notion='aura')"
    assert repr(aura_components(s)) == (
        f"ComponentPartition(space={DISCRETE2}, blocks=({{1}}, {{2}}))")
    assert repr(parse_document(SIERPINSKI)) == (
        f"SpaceDocument(space={SIERPINSKI2}, name='sierpinski2')")
    report = _report()
    assert repr(report.witnesses[0]) == WITNESS
    assert repr(report) == (
        "SearchReport(command='search', size=2, spaces_scanned=9, "
        f"expression='discrete and aT2', witnesses=[{WITNESS}], implications=None, "
        "product_scan=None)")
    assert repr(SearchReport("matrix", 0, 1, implications={}, product_scan="p")) == (
        "SearchReport(command='matrix', size=0, spaces_scanned=1, expression=None, "
        "witnesses=[], implications={}, product_scan='p')")


def test_equality_and_hashing():
    s, t = load_fixture("discrete2"), load_fixture("discrete2")
    hashable = [
        (classify(s), classify(t), AuraClassification(True, True, True, False)),
        (separation_axioms(s), separation_axioms(t), SeparationAxioms(False, False, False)),
        (find_aura_separation(s), find_aura_separation(t), None),
        (aura_components(s), aura_components(t), aura_components(load_fixture("chain3"))),
        (SpaceDocument(s, "x"), SpaceDocument(t, "x"), SpaceDocument(s)),
    ]
    for record, same, other in hashable:
        assert record == same and hash(record) == hash(same)
        assert hash(record) == hash(tuple(getattr(record, f) for f in record._fields))
        assert record != other
    report, again = _report(), _report()
    assert report == again and report.witnesses[0] == again.witnesses[0]
    assert report != SearchReport("search", 2, 9)
    # Their dict and list fields keep these two unhashable.
    for record in (report, report.witnesses[0]):
        with pytest.raises(TypeError):
            hash(record)


def test_records_are_immutable():
    s = load_fixture("discrete2")
    report = _report()
    records = [classify(s), separation_axioms(s), find_aura_separation(s),
               aura_components(s), SpaceDocument(s), report, report.witnesses[0]]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None
