"""The document layer against its references in ``oracles``.

Set rendering reads per-universe byte tables, the family order is one
int, ``serialize_space`` lays the document out itself, and
``parse_document`` builds masks in one pass. Each must give exactly what
the plain code it replaced gives: the same labels in the same order, the
same bytes, and for a bad document the same error class and message.
"""

import json
import random

import pytest

from auratopo import (
    AuraSpace,
    FIXTURE_NAMES,
    PointSet,
    PointUniverse,
    enumerate_topologies,
    generate_topology,
    load_fixture,
    parse_document,
    product,
    serialize_space,
    subspace,
)
from auratopo.aura import space_document
from auratopo.cli import main
from auratopo.errors import AuraError
from auratopo.finite import family_key, family_text, sorted_labels

from oracles import (
    reference_document,
    reference_family_key,
    reference_parse_document,
    reference_sorted_labels,
)

# Labels whose sorted order differs from their index order (p10 < p2),
# non-ASCII ones, and ones that JSON must escape.
_ODD_LABELS = ['"q"', "back\\slash", "é", "Ω", "日本", "tab\t", "", " ", "Z", "a|b",
               "\u2028", "\U0001f600", "ü1", "ü10"]
_LABEL_POOL = [f"p{i}" for i in range(64)] + _ODD_LABELS
_SIZES = list(range(0, 18)) + [23, 24, 25, 31, 32, 33, 40, 47, 48, 56, 63, 64]


def _random_labels(rng, n):
    return rng.sample(_LABEL_POOL, n)


def _random_space(rng, labels):
    """A generated topology on the labels, with a seeded scope per point."""
    universe = PointUniverse(labels)
    n = universe.n
    subbasis = [rng.getrandbits(n) for _ in range(rng.randrange(0, n + 2))]
    topology = generate_topology(universe, subbasis)
    opens = sorted(topology.mask_set)
    return AuraSpace(topology, [rng.choice([m for m in opens if m >> i & 1]) for i in range(n)])


def _json_dumps_document(s, name=None):
    doc = space_document(s)
    if name is not None:
        doc["name"] = name
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def test_sorted_labels_match_a_sort_of_the_members():
    rng = random.Random(3101)
    universes = [[f"p{i}" for i in range(64)], [f"p{i}" for i in range(12)]]
    universes += [_random_labels(rng, n) for n in _SIZES]
    for labels in universes:
        u = PointUniverse(labels)
        n = len(labels)
        masks = [0, u.full_mask] + [1 << i for i in range(n)]
        masks += [rng.getrandbits(n) for _ in range(60)]
        for m in masks:
            want = reference_sorted_labels(labels, m)
            assert sorted_labels(u, m) == want
            assert PointSet(u, m).text() == "{" + ",".join(want) + "}"
        shown = [PointSet(u, m).text() for m in sorted(masks, key=reference_family_key)]
        assert family_text(u, masks) == " ".join(shown)


def test_family_key_orders_as_size_then_indices():
    rng = random.Random(3102)
    for width in range(1, 65):
        masks = {0, (1 << width) - 1}
        masks |= {rng.getrandbits(width) for _ in range(80)}
        # Sets of one size, to exercise the tie-break on indices.
        size = rng.randrange(1, width + 1)
        masks |= {sum(1 << i for i in rng.sample(range(width), size)) for _ in range(40)}
        masks = sorted(masks)
        rng.shuffle(masks)
        assert sorted(masks, key=family_key) == sorted(masks, key=reference_family_key)


def test_canonical_key_keeps_the_topology_order():
    topologies = enumerate_topologies(4)
    for t in topologies:
        assert list(t.ordered_masks) == sorted(t.mask_set, key=reference_family_key)

    def reference_key(t):
        return tuple(reference_family_key(m) for m in sorted(t.mask_set, key=reference_family_key))

    reordered = sorted(topologies, key=reference_key)
    assert [t.mask_set for t in reordered] == [t.mask_set for t in topologies]


def _assert_serialized_as_json_dumps(s, name=None):
    text = serialize_space(s, name)
    assert text == _json_dumps_document(s, name)
    assert text == reference_document(s.universe.labels, s.topology.mask_set,
                                      s.scope_masks, name)
    again = parse_document(text)
    assert again.space == s and again.name == name


def test_serialize_space_matches_json_dumps_on_every_fixture():
    for name in FIXTURE_NAMES:
        s = load_fixture(name)
        _assert_serialized_as_json_dumps(s)
        _assert_serialized_as_json_dumps(s, name)
    _assert_serialized_as_json_dumps(product(load_fixture("rotor3"), load_fixture("ladder4")))
    clusters = load_fixture("clusters5")
    _assert_serialized_as_json_dumps(subspace(clusters, clusters.universe.subset(["2", "5"])))


def test_serialize_space_matches_json_dumps_on_random_spaces():
    rng = random.Random(3103)
    _assert_serialized_as_json_dumps(_random_space(rng, []))
    _assert_serialized_as_json_dumps(_random_space(rng, []), "")
    for _ in range(120):
        labels = _random_labels(rng, rng.randrange(1, 11))
        s = _random_space(rng, labels)
        _assert_serialized_as_json_dumps(s)
        _assert_serialized_as_json_dumps(s, rng.choice(_ODD_LABELS + ["name"]))


# ---------------------------------------------------------------------------
# parse_document: a seeded mutation fuzzer against the reference parser

_NON_LABELS = [7, 1.5, None, True, [], {}, ["p1"]]
_NON_LISTS = ["p1", "", 3, None, True, {"p1": 1}]


def _valid_document(rng):
    labels = _random_labels(rng, rng.randrange(1, 6))
    s = _random_space(rng, labels)
    doc = json.loads(serialize_space(s, "fuzz" if rng.random() < 0.5 else None))
    rng.shuffle(doc["opens"])
    return doc


def _some_list(doc, rng):
    """A label list of the document to damage: an open or a scope."""
    if rng.random() < 0.5 and isinstance(doc.get("opens"), list) and doc["opens"]:
        return rng.choice(doc["opens"])
    aura = doc.get("aura")
    if isinstance(aura, dict) and aura:
        return aura[rng.choice(list(aura))]
    return None


def _mutate(doc, rng):
    """Apply one seeded mutation to a document held as a dict."""
    kind = rng.randrange(14)
    fields = list(doc)
    if kind == 0 and fields:  # drop a field
        del doc[rng.choice(fields)]
    elif kind == 1:  # unknown field
        doc[rng.choice(["scopes", "Points", "", "names"])] = []
    elif kind == 2 and fields:  # mistyped field
        doc[rng.choice(fields)] = rng.choice(_NON_LISTS + [[], [1], {}])
    elif kind == 3 and isinstance(doc.get("points"), list) and doc["points"]:
        doc["points"][rng.randrange(len(doc["points"]))] = rng.choice(_NON_LABELS)
    elif kind == 4:  # non-string label inside an open or a scope
        target = _some_list(doc, rng)
        if isinstance(target, list):
            target.insert(rng.randrange(len(target) + 1), rng.choice(_NON_LABELS))
    elif kind == 5:  # unknown label inside an open or a scope
        target = _some_list(doc, rng)
        if isinstance(target, list):
            target.insert(rng.randrange(len(target) + 1), rng.choice(["zz", "P0", "p99"]))
    elif kind == 6 and isinstance(doc.get("points"), list) and doc["points"]:
        doc["points"].append(rng.choice(doc["points"]))  # duplicate label
    elif kind == 7 and isinstance(doc.get("opens"), list) and doc["opens"]:
        doc["opens"][rng.randrange(len(doc["opens"]))] = rng.choice(_NON_LISTS)
    elif kind == 8 and isinstance(doc.get("aura"), dict) and doc["aura"]:
        doc["aura"][rng.choice(list(doc["aura"]))] = rng.choice(_NON_LISTS)
    elif kind == 9 and isinstance(doc.get("aura"), dict) and doc["aura"]:
        lab = rng.choice(list(doc["aura"]))  # missing scope entry, maybe renamed
        entry = doc["aura"].pop(lab)
        if rng.random() < 0.5:
            doc["aura"]["zz"] = entry
    elif kind == 10 and isinstance(doc.get("aura"), dict) and doc["aura"]:
        doc["aura"]["zz"] = []  # unknown scope key
    elif kind == 11 and isinstance(doc.get("opens"), list) and doc["opens"]:
        doc["opens"].pop(rng.randrange(len(doc["opens"])))  # may break the topology
    elif kind == 12 and isinstance(doc.get("aura"), dict) and doc["aura"]:
        keys = list(doc["aura"])  # a scope copied from another point
        doc["aura"][rng.choice(keys)] = doc["aura"][rng.choice(keys)]
    elif kind == 13 and isinstance(doc.get("points"), list):
        extra = [f"q{i}" for i in range(65 - len(doc["points"]))]  # too many points
        doc["points"] += extra
        if isinstance(doc.get("aura"), dict):
            doc["aura"].update({lab: [lab] for lab in extra})
    return doc


def _mutant_text(rng):
    doc = _valid_document(rng)
    for _ in range(rng.randrange(1, 4)):
        doc = _mutate(doc, rng)
    text = json.dumps(doc)
    roll = rng.random()
    if roll < 0.05:
        return text[: rng.randrange(len(text))]  # truncated: a syntax error
    if roll < 0.08:
        return json.dumps(list(doc.values()))  # not an object
    return text


def _outcome(parse, text):
    try:
        doc = parse(text)
    except Exception as e:  # compared below, and required to be typed
        return (type(e), str(e))
    return ("accepted", doc.space, doc.name)


def test_mutated_documents_get_the_reference_verdict(tmp_path, capsys):
    rng = random.Random(3104)
    rejected = []
    for _ in range(400):
        text = _mutant_text(rng)
        want = _outcome(reference_parse_document, text)
        assert _outcome(parse_document, text) == want, text
        if want[0] != "accepted":
            assert issubclass(want[0], AuraError), (want, text)
            rejected.append(text)
    assert len(rejected) > 300
    for i, text in enumerate(rejected[:30]):
        path = tmp_path / f"mutant{i}.json"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_parse_as_the_reference_parses(name):
    from importlib import resources

    text = resources.files("auratopo").joinpath("data", f"{name}.json").read_text("utf-8")
    assert _outcome(parse_document, text) == _outcome(reference_parse_document, text)


def test_docs_bench_runs_every_phase(tmp_path):
    # benchmarks/docs_bench.py reaches into the parser's internals.
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "docs_bench.py"
    spec = importlib.util.spec_from_file_location("docs_bench", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    texts, paths, carrier = bench._write_documents(7, str(tmp_path))
    assert len(json.loads(texts["discrete"])["opens"]) == 4096
    run = bench._one_run(texts, paths, carrier)
    assert sorted(run) == ["analyze", "product", "subspace", "tau-a"]
    for name, row in run.items():
        last = "serialize_s" if name in ("subspace", "product") else "render_s"
        assert {"json_s", "masks_s", "validate_s", "parse_s", "work_s", last, "command_s"} == set(row)
        assert all(seconds > 0 for seconds in row.values()), (name, row)
