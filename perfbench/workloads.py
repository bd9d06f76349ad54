"""The four workloads: their CLI commands, seeded inputs and output checks.

A workload is a list of ``Command`` objects. Each command is run as a fresh
``python -m auratopo.cli`` process; its ``check`` reads the command's stdout
and returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

WORKLOADS = ("laws", "scan", "matrix", "docs")

SCAN_WHERE = "aConnected and not tauConnected"
LAW_COUNT = 28
LAW_CHECKS = 1324421
FIXTURE_CHECKS = 16
SIZE4_SPACES = 59123
ATOM_COUNT = 14

DOC_POINTS = 12
SUBSPACE_POINTS = 10
SCOPE_DENSITY = 0.08


@dataclass
class Command:
    label: str
    args: List[str]
    check: Callable[[bytes], List[str]]
    warmup: List[str]
    pinned: str = ""  # stdout sha256 at the commit that defined the benchmark


@dataclass
class Workload:
    name: str
    commands: List[Command]
    documents: Dict[str, str] = field(default_factory=dict)  # file name -> sha256


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lines(out: bytes) -> List[str]:
    return out.decode("utf-8").splitlines()


def _expect_line(lines: List[str], line: str) -> List[str]:
    return [] if line in lines else [f"missing line {line!r}"]


# ---------------------------------------------------------------------------
# laws: verify-paper

_LAW_LINE = re.compile(r"^law (\S+): ok \((\d+) checks\)$")


def check_laws(out: bytes) -> List[str]:
    lines = _lines(out)
    problems = []
    laws = [_LAW_LINE.match(line) for line in lines]
    laws = [m for m in laws if m]
    if len(laws) != LAW_COUNT:
        problems.append(f"{len(laws)} 'law ... ok' lines, expected {LAW_COUNT}")
    total = sum(int(m.group(2)) for m in laws)
    if total != LAW_CHECKS:
        problems.append(f"{total} law checks, expected {LAW_CHECKS}")
    fixtures = sum(1 for line in lines if line.startswith("ok "))
    if fixtures != FIXTURE_CHECKS:
        problems.append(f"{fixtures} fixture checks passed, expected {FIXTURE_CHECKS}")
    if not lines or lines[-1] != "verification: pass":
        problems.append("last line is not 'verification: pass'")
    return problems


# ---------------------------------------------------------------------------
# scan: search on the size-4 grid

def check_scan(out: bytes) -> List[str]:
    lines = _lines(out)
    problems = _expect_line(lines, f"spaces scanned: {SIZE4_SPACES}")
    problems += _expect_line(lines, "witnesses: 5")
    witnesses = [line.split(": ", 1)[1] for line in lines if line.startswith("witness ")]
    if len(witnesses) != 5:
        problems.append(f"{len(witnesses)} witnesses printed, expected 5")
    for i, text in enumerate(witnesses, start=1):
        labels, opens, scopes = oracle.parse_descriptor(text)
        if not all(x in scopes[x] and scopes[x] in set(opens) for x in labels):
            problems.append(f"witness {i} is not a scoped space")
        if not oracle.scope_connected(labels, scopes):
            problems.append(f"witness {i} is not aConnected")
        if oracle.tau_connected(labels, opens):
            problems.append(f"witness {i} is tauConnected")
    valuations = sum(1 for line in lines
                     if line == "  valuation: tauConnected=false aConnected=true")
    if valuations != 5:
        problems.append(f"{valuations} matching valuation lines, expected 5")
    return problems


# ---------------------------------------------------------------------------
# matrix: implication matrix on the size-4 grid

def check_matrix(out: bytes) -> List[str]:
    lines = _lines(out)
    problems = _expect_line(lines, f"spaces scanned: {SIZE4_SPACES}")
    implications = [line for line in lines if line.startswith("  ") and " => " in line]
    expected = ATOM_COUNT * (ATOM_COUNT - 1)
    if len(implications) != expected:
        problems.append(f"{len(implications)} implication lines, expected {expected}")
    problems += _expect_line(lines, "  transitive => clIdempotent: holds")
    problems += _expect_line(lines, "  clIdempotent => transitive: holds")
    return problems


# ---------------------------------------------------------------------------
# docs: seeded documents through analyze, subspace, tau-a and product

def _discrete_document(labels, scopes, rng: random.Random, name: str) -> str:
    """Every subset is open; the opens are listed in a seeded order."""
    opens = [sorted(s) for s in oracle.all_subsets(labels)]
    rng.shuffle(opens)
    doc = {"points": list(labels), "opens": opens,
           "aura": {x: sorted(scopes[x]) for x in labels}, "name": name}
    return json.dumps(doc) + "\n"


def _seeded_scopes(labels, rng: random.Random, density: float) -> oracle.Scopes:
    return {x: frozenset([x] + [y for y in labels if y != x and rng.random() < density])
            for x in labels}


def _roundtrip(out: bytes) -> List[str]:
    """Parse the emitted document and serialise it again: same bytes."""
    from auratopo.documents import parse_document, serialize_space

    text = out.decode("utf-8")
    doc = parse_document(text)
    again = serialize_space(doc.space, doc.name)
    return [] if again == text else ["emitted document does not round-trip"]


def _check_document(out: bytes, labels, opens, scopes) -> List[str]:
    """Structural check against the oracle, then the parse round trip."""
    try:
        doc = json.loads(out)
    except ValueError:
        return ["output is not a JSON document"]
    problems = []
    if doc.get("points") != list(labels):
        problems.append("points differ from the expected order")
    got_opens = [frozenset(o) for o in doc.get("opens", [])]
    if len(got_opens) != len(opens) or set(got_opens) != set(opens):
        problems.append(f"{len(got_opens)} opens, expected {len(opens)}")
    if got_opens != oracle.family_order(labels, got_opens):
        problems.append("opens are not in canonical order")
    aura = doc.get("aura", {})
    if {k: frozenset(v) for k, v in aura.items()} != dict(scopes):
        problems.append("scopes differ from the oracle")
    return problems or _roundtrip(out)


def docs_commands(seed: int, tmpdir: str) -> Workload:
    rng = random.Random(seed)
    labels = [f"p{i}" for i in range(DOC_POINTS)]
    scopes = _seeded_scopes(labels, rng, SCOPE_DENSITY)
    carrier = sorted(rng.sample(range(DOC_POINTS), SUBSPACE_POINTS))
    sub_labels = [labels[i] for i in carrier]
    left_labels, right_labels = ["a", "b", "c"], ["w", "x", "y", "z"]
    left_scopes = _seeded_scopes(left_labels, rng, 0.4)
    right_scopes = _seeded_scopes(right_labels, rng, 0.4)
    identity = {x: frozenset([x]) for x in labels}

    texts = {
        "discrete12.json": _discrete_document(labels, scopes, rng, f"discrete12-seed{seed}"),
        "identity12.json": _discrete_document(labels, identity, rng, f"identity12-seed{seed}"),
        "left3.json": _discrete_document(left_labels, left_scopes, rng, f"left3-seed{seed}"),
        "right4.json": _discrete_document(right_labels, right_scopes, rng, f"right4-seed{seed}"),
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = os.path.join(tmpdir, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)

    all12 = list(oracle.all_subsets(labels))

    def check_analyze(out: bytes) -> List[str]:
        want = oracle.analyze_lines(f"discrete12-seed{seed}", labels, all12, scopes)
        got = _lines(out)
        return [] if got == want else [
            f"analyze differs from the oracle at line {_first_diff(got, want)}"]

    def check_subspace(out: bytes) -> List[str]:
        keep = frozenset(sub_labels)
        sub_scopes = {x: scopes[x] & keep for x in sub_labels}
        return _check_document(out, sub_labels, list(oracle.all_subsets(sub_labels)),
                               sub_scopes)

    def check_tau_a(out: bytes) -> List[str]:
        sets = oracle.family_order(labels, all12)
        want = [f"scope topology: {len(sets)} sets",
                " ".join(oracle.set_text(s) for s in sets)]
        return [] if _lines(out) == want else ["tau-a listing differs from the oracle"]

    def check_product(out: bytes) -> List[str]:
        points = [f"{x}|{y}" for x in left_labels for y in right_labels]
        boxes = {f"{x}|{y}": frozenset(f"{u}|{v}" for u in left_scopes[x]
                                       for v in right_scopes[y])
                 for x in left_labels for y in right_labels}
        return _check_document(out, points, list(oracle.all_subsets(points)), boxes)

    small = paths["left3.json"]
    commands = [
        Command("analyze", ["analyze", paths["discrete12.json"]], check_analyze,
                ["analyze", small]),
        Command("subspace", ["subspace", paths["discrete12.json"],
                             "--points", ",".join(sub_labels)],
                check_subspace, ["subspace", small, "--points", "a,b"]),
        Command("tau-a", ["tau-a", paths["identity12.json"]], check_tau_a,
                ["tau-a", small]),
        Command("product", ["product", paths["left3.json"], paths["right4.json"]],
                check_product, ["product", small, small]),
    ]
    hashes = {name: sha256(text.encode("utf-8")) for name, text in texts.items()}
    return Workload("docs", commands, hashes)


def _first_diff(got: List[str], want: List[str]) -> int:
    for i, (a, b) in enumerate(zip(got, want), start=1):
        if a != b:
            return i
    return min(len(got), len(want)) + 1


# ---------------------------------------------------------------------------

def build(name: str, seed: int, tmpdir: str) -> Workload:
    """Commands of one workload; only ``docs`` depends on the seed."""
    if name == "docs":
        return docs_commands(seed, tmpdir)
    with open(PINS_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)
    if name == "laws":
        cmd = Command("verify-paper", ["verify-paper"], check_laws,
                      ["verify-paper", "--skip-laws"])
    elif name == "scan":
        cmd = Command("search", ["search", "--size", "4", "--where", SCAN_WHERE,
                                 "--limit", "5"],
                      check_scan, ["search", "--size", "2", "--where", "aConnected",
                                   "--limit", "1"])
    elif name == "matrix":
        # Every size runs the product scan, so the warm-up only parses arguments.
        cmd = Command("matrix", ["matrix", "--size", "4"], check_matrix,
                      ["matrix", "--help"])
    else:
        raise ValueError(f"unknown workload {name!r}")
    cmd.pinned = pins[name]
    return Workload(name, [cmd])
