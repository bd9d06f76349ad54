"""Acceptance gate: seven criteria, one verdict line each.

Each test covers one criterion end to end, with its time budget asserted
where one applies. The verdict lines are collected by conftest.py and
printed after the run.
"""

import functools
import itertools
import json
import random
import subprocess
import sys
import time

from conftest import CRITERION_LINES


def criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException as e:
                detail = str(e).splitlines()[0] if str(e) else type(e).__name__
                CRITERION_LINES.append(f"criterion {num} ({name}): FAIL - {detail}")
                raise
            CRITERION_LINES.append(f"criterion {num} ({name}): pass")

        return run

    return wrap


@criterion(1, "fixture exactness")
def test_criterion_1_fixture_exactness():
    from auratopo.verification import fixture_checks

    start = time.perf_counter()
    checks = fixture_checks()
    elapsed = time.perf_counter() - start
    failed = [c for c in checks if not c.ok]
    assert not failed, "; ".join(c.line() for c in failed)
    names = {c.name for c in checks}
    required = {
        "ladder4-scope-topology",
        "clusters5-scope-topology",
        "clusters5-components",
        "rotor3-scope-topology",
        "rotor3-not-transitive",
        "rotor3-subspace-scopes",
        "rotor3-subspace-scope-topology",
        "rotor3-subspace-strict-inclusion",
        "product-chain-strict-scope-topology",
        "product-indiscrete-scope-topology",
        "chain3-limits-cycle-2",
        "chain3-limits-cycle-1-2",
        "chain3-limits-cycle-0",
        "split3-connected-flags",
        "sierpinski2-scope-topology",
        "sierpinski2-connectivity",
    }
    assert required <= names
    assert elapsed < 1.0, f"fixture checks took {elapsed:.2f}s"


@criterion(2, "exhaustive law suite at n <= 3")
def test_criterion_2_law_suite():
    from auratopo import run_laws

    start = time.perf_counter()
    report = run_laws(tier="core", max_n=3)
    elapsed = time.perf_counter() - start
    witnesses = [
        line
        for outcome in report.outcomes
        if not outcome.ok
        for line in outcome.failures[:2]
    ]
    assert report.ok, "law failures:\n" + "\n".join(witnesses)
    assert len(report.outcomes) == 26
    assert all(o.checks > 0 for o in report.outcomes)
    assert elapsed < 15.0, f"law suite took {elapsed:.2f}s"


@criterion(3, "symbolic separations")
def test_criterion_3_symbolic_verdicts():
    from auratopo import get_model, subcover_check

    start = time.perf_counter()
    succ = get_model("nat-successor").compactness_report()
    assert succ.aura_compact.value is True
    assert succ.aura_compact.witness_family is None
    assert succ.countably_aura_compact.value is True
    assert succ.aura_limit_point_compact.value is True
    assert succ.aura_sequentially_compact.value is True

    trivial = get_model("trivial", "R").compactness_report()
    assert trivial.aura_compact.value is True
    assert trivial.countably_aura_compact.value is True
    assert trivial.aura_lindelof.value is True
    assert trivial.aura_limit_point_compact.value is True
    assert trivial.aura_sequentially_compact.value is True
    assert trivial.tau_compact.value is False
    assert trivial.tau_compact.imported is True

    disc = get_model("nat-discrete").compactness_report()
    assert disc.aura_compact.value is False
    assert disc.aura_limit_point_compact.value is False

    # The witnessed failures are real cover arithmetic, not annotations.
    model = get_model("nat-successor")
    assert subcover_check(model, "tails", [1])
    assert not subcover_check(model, "tails", [3, 5, 9])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"symbolic checks took {elapsed:.2f}s"


@criterion(4, "enumeration counts")
def test_criterion_4_enumeration_counts():
    from auratopo import enumerate_topologies
    from auratopo.finite import validate_topology
    from oracles import brute_topologies

    start = time.perf_counter()
    counts = [len(enumerate_topologies(n)) for n in range(5)]
    assert counts == [1, 1, 4, 29, 355]
    for n in range(4):
        got = {fs.mask_set for fs in enumerate_topologies(n)}
        assert got == {frozenset(f) for f in brute_topologies(n)}
    # n = 4 is beyond the brute scan; check the generator against itself.
    four = enumerate_topologies(4)
    seen = set()
    for fs in four:
        fam = fs.mask_set
        assert fam not in seen
        seen.add(fam)
        checked = validate_topology(fs.universe, fam)
        assert checked.mask_set == fam
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"enumeration checks took {elapsed:.2f}s"


def _strict_subspace_somewhere(space):
    from auratopo.constructions import subspace

    n = space.n
    tau = space.aura_topology_masks
    for carrier in range(1, 1 << n):
        size = bin(carrier).count("1")
        if size < 2 or size == n:
            continue
        positions = {}
        for i in range(n):
            if (carrier >> i) & 1:
                positions[i] = len(positions)

        def reindex(mask):
            out = 0
            for i in positions:
                if (mask >> i) & 1:
                    out |= 1 << positions[i]
            return out

        trace = {reindex(o & carrier) for o in tau}
        sub_fam = set(subspace(space, carrier).aura_topology_masks)
        assert trace <= sub_fam
        if trace < sub_fam:
            return True
    return False


@criterion(5, "search reproductions")
def test_criterion_5_search_reproductions():
    from auratopo import parse_document
    from auratopo.search import search

    budgets = []

    start = time.perf_counter()
    connected_not_tau = search(2, "aConnected and not tauConnected")
    budgets.append(time.perf_counter() - start)
    assert connected_not_tau.found()

    start = time.perf_counter()
    non_transitive = search(3, "not transitive")
    strict = False
    for witness in non_transitive.witnesses:
        space = parse_document(json.dumps(witness.document)).space
        if _strict_subspace_somewhere(space):
            strict = True
            break
    budgets.append(time.perf_counter() - start)
    assert non_transitive.found() and strict

    start = time.perf_counter()
    non_idem = search(3, "not clIdempotent")
    budgets.append(time.perf_counter() - start)
    assert non_idem.found()

    start = time.perf_counter()
    gap = search(3, "aConnected and not aPathConnected")
    budgets.append(time.perf_counter() - start)
    assert not gap.found()

    assert all(b < 10.0 for b in budgets), f"search budgets {budgets}"


@criterion(6, "property-based suites")
def test_criterion_6_property_suites():
    from auratopo import SymbolicSet, aura_closure, aura_interior, derived_set
    from helpers import rand_space

    rng = random.Random(20260817)
    spaces = [rand_space(rng, rng.randrange(1, 7)) for _ in range(500)]
    triples = 0
    for s in spaces:
        full = s.universe.full_mask
        assert aura_closure(s, 0).mask == 0
        for _ in range(20):
            a = rng.randrange(0, 1 << s.n)
            b = rng.randrange(0, 1 << s.n)
            triples += 1
            ca = aura_closure(s, a).mask
            cb = aura_closure(s, b).mask
            assert a & ~ca == 0
            assert aura_closure(s, a | b).mask == ca | cb
            if a & ~b == 0:
                assert ca & ~cb == 0
            assert aura_interior(s, a).mask == full & ~aura_closure(s, full & ~a).mask
            da = derived_set(s, a).mask
            assert ca == a | da
            assert derived_set(s, a | b).mask == da | derived_set(s, b).mask
    assert triples == 10_000

    def rand_symbolic():
        finite = frozenset(rng.sample(range(1, 30), rng.randrange(0, 6)))
        tail = rng.choice([None, rng.randrange(1, 30)])
        return SymbolicSet(finite, tail)

    for _ in range(1_000):
        x, y, z = rand_symbolic(), rand_symbolic(), rand_symbolic()
        assert (x | y) | z == x | (y | z)
        assert (x & y) & z == x & (y & z)
        assert x & (y | z) == (x & y) | (x & z)
        assert x | (y & z) == (x | y) & (x | z)
        assert ~(x | y) == ~x & ~y
        assert ~(x & y) == ~x | ~y
        assert ~~x == x
        assert x & (x | y) == x
        assert x | (x & y) == x
        assert (x - y) == x & ~y


@criterion(7, "determinism")
def test_criterion_7_determinism():
    from auratopo.search import implication_matrix

    def verify_json():
        proc = subprocess.run(
            [sys.executable, "-m", "auratopo.cli", "verify-paper", "--json"],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    first = verify_json()
    second = verify_json()
    assert first == second
    assert json.loads(first.decode())["ok"] is True

    first_run = implication_matrix(3).to_json()
    second_run = implication_matrix(3).to_json()
    assert first_run == second_run
