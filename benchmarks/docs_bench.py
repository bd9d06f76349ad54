"""In-process timings of the document commands, phase by phase.

Run with ``PYTHONPATH=src python3 benchmarks/docs_bench.py [--repeats N] [--seed S]``.
It writes seeded documents to a temporary directory: a 12-point discrete
document (4,096 opens, listed in a seeded order) with sparse seeded scopes,
the same points with singleton scopes, and discrete 3- and 4-point
factors. It then times ``analyze``, ``subspace`` (on 10 seeded points),
``tau-a`` and ``product`` on them, and each command's phases:

- ``json_s``: ``json.loads`` of its documents;
- ``masks_s``: the label-to-mask pass over the opens and scopes;
- ``validate_s``: ``TopologyFamily._validate`` of the listed opens;
- ``parse_s``: all of ``parse_document``, which holds the three above;
- ``work_s``: the command's computation on the parsed space;
- ``render_s``: the set texts of ``analyze`` and ``tau-a``;
- ``serialize_s``: ``serialize_space`` of the ``subspace`` and ``product``
  results;
- ``command_s``: ``cli.main`` end to end, with stdout captured.

Each repeat parses afresh and clears ``family_key``'s cache first, so it
pays what a fresh process pays. The output is one JSON object with the
median seconds of every phase per command.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import random
import statistics
import tempfile
import time

from auratopo import cli, constructions, documents
from auratopo.aura import classify, separation_axioms
from auratopo.connectivity import (
    aura_components,
    is_aura_connected,
    is_aura_locally_connected,
    is_aura_path_connected,
)
from auratopo.finite import (
    PointSet,
    PointUniverse,
    TopologyFamily,
    family_key,
    family_text,
    is_tau_connected,
)

POINTS = 12
SUBSPACE_POINTS = 10
SCOPE_DENSITY = 0.08


def _discrete_document(labels, scopes, rng, name):
    """Every subset of the labels is open; the opens come in a seeded order."""
    opens = [list(c) for r in range(len(labels) + 1)
             for c in itertools.combinations(labels, r)]
    rng.shuffle(opens)
    doc = {"points": labels, "opens": opens,
           "aura": {x: sorted(scopes[x]) for x in labels}, "name": name}
    return json.dumps(doc) + "\n"


def _seeded_scopes(labels, rng, density):
    return {x: {x} | {y for y in labels if y != x and rng.random() < density} for x in labels}


def _write_documents(seed, tmpdir):
    rng = random.Random(seed)
    labels = [f"p{i}" for i in range(POINTS)]
    carrier = sorted(rng.sample(range(POINTS), SUBSPACE_POINTS))
    left, right = ["a", "b", "c"], ["w", "x", "y", "z"]
    texts = {
        "discrete": _discrete_document(labels, _seeded_scopes(labels, rng, SCOPE_DENSITY),
                                       rng, "discrete12"),
        "identity": _discrete_document(labels, {x: {x} for x in labels}, rng, "identity12"),
        "left": _discrete_document(left, _seeded_scopes(left, rng, 0.4), rng, "left3"),
        "right": _discrete_document(right, _seeded_scopes(right, rng, 0.4), rng, "right4"),
    }
    paths = {}
    for key, text in texts.items():
        paths[key] = os.path.join(tmpdir, f"{key}.json")
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(text)
    return texts, paths, ",".join(labels[i] for i in carrier)


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def _parse_phases(text):
    """Seconds of json.loads, of the mask pass and of the validation."""
    json_s, raw = _timed(json.loads, text)
    points, aura = raw["points"], raw["aura"]

    def masks():
        bits = {lab: 1 << i for i, lab in enumerate(points)}
        return (documents._label_masks(raw["opens"], bits),
                documents._label_masks(list(map(aura.get, points)), bits))

    masks_s, (open_masks, _) = _timed(masks)
    family = TopologyFamily(PointUniverse(points), open_masks, validate=False)
    validate_s, _ = _timed(family._validate)
    return {"json_s": json_s, "masks_s": masks_s, "validate_s": validate_s}


def _analyze_work(s):
    classify(s)
    separation_axioms(s)
    tau_a = s.aura_topology_masks
    blocks = aura_components(s).blocks
    is_aura_connected(s)
    is_tau_connected(s.topology)
    is_aura_path_connected(s)
    is_aura_locally_connected(s)
    return tau_a, blocks


def _analyze_render(s, result):
    tau_a, blocks = result
    if s.n <= 6:
        family_text(s.universe, tau_a)
    return " ".join(PointSet(s.universe, b.mask).text() for b in blocks)


def _one_run(texts, paths, carrier):
    """Seconds per phase for each command, from one fresh parse each."""
    commands = {
        "analyze": (["discrete"], ["analyze", paths["discrete"]]),
        "subspace": (["discrete"], ["subspace", paths["discrete"], "--points", carrier]),
        "tau-a": (["identity"], ["tau-a", paths["identity"]]),
        "product": (["left", "right"], ["product", paths["left"], paths["right"]]),
    }
    out = {}
    for name, (keys, argv) in commands.items():
        family_key.cache_clear()
        row = {"json_s": 0.0, "masks_s": 0.0, "validate_s": 0.0, "parse_s": 0.0}
        spaces = []
        for key in keys:
            for phase, seconds in _parse_phases(texts[key]).items():
                row[phase] += seconds
            parse_s, doc = _timed(documents.parse_document, texts[key])
            row["parse_s"] += parse_s
            spaces.append(doc.space)
        s = spaces[0]
        if name == "analyze":
            row["work_s"], result = _timed(_analyze_work, s)
            row["render_s"], _ = _timed(_analyze_render, s, result)
        elif name == "subspace":
            chosen = s.universe.subset(carrier.split(","))
            row["work_s"], result = _timed(constructions.subspace, s, chosen)
            row["serialize_s"], _ = _timed(documents.serialize_space, result)
        elif name == "tau-a":
            row["work_s"], masks = _timed(lambda: s.aura_topology_masks)
            row["render_s"], _ = _timed(family_text, s.universe, masks)
        else:
            row["work_s"], result = _timed(constructions.product, *spaces)
            row["serialize_s"], _ = _timed(documents.serialize_space, result)
        family_key.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()):
            row["command_s"], code = _timed(cli.main, argv)
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
        out[name] = row
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    with tempfile.TemporaryDirectory() as tmpdir:
        texts, paths, carrier = _write_documents(args.seed, tmpdir)
        runs = [_one_run(texts, paths, carrier) for _ in range(args.repeats)]
    commands = {
        name: {phase: round(statistics.median(r[name][phase] for r in runs), 5)
               for phase in runs[0][name]}
        for name in runs[0]
    }
    print(json.dumps({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repeats": args.repeats,
        "seed": args.seed,
        "command_s": round(sum(row["command_s"] for row in commands.values()), 5),
        "commands": commands,
    }, indent=2))


if __name__ == "__main__":
    main()
