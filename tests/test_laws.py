import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from auratopo import LAW_NAMES, run_laws
from auratopo.aura import AuraSpace
from auratopo.constructions import product
from auratopo.finite import PointSet, TopologyFamily
from auratopo.genopen import GeneralizedClass
from auratopo.laws import CORE, EXTENDED, LawContext, get_law
from auratopo.sequences import aura_limits, converges_to, transitive_criterion
from auratopo import kernel, laws

# Descriptors of the discrete spaces that head every witness list below.
DISCRETE_1 = "points a | opens {},{a} | scopes a:{a}"
DISCRETE_2 = "points a,b | opens {},{a},{b},{a,b} | scopes a:{a} b:{b}"
DISCRETE_2X2 = (
    "points a|a,a|b,b|a,b|b | opens {},{a|a},{a|b},{b|a},{b|b},{a|a,a|b},{a|a,b|a},"
    "{a|a,b|b},{a|b,b|a},{a|b,b|b},{b|a,b|b},{a|a,a|b,b|a},{a|a,a|b,b|b},{a|a,b|a,b|b},"
    "{a|b,b|a,b|b},{a|a,a|b,b|a,b|b} | scopes a|a:{a|a} a|b:{a|b} b|a:{b|a} b|b:{b|b}"
)

# Checks per law on sizes 0..2. A refactor of the fact tables or the
# message plumbing must not change how many checks a law makes.
CHECKS_AT_SIZE_2 = {
    "cech-closure-axioms": 284,
    "closure-interior-duality": 39,
    "derived-closure-decomposition": 39,
    "derived-set-laws": 284,
    "scope-topology-subfamily": 90,
    "transitive-scope-base-idempotent": 50,
    "subspace-closure-trace": 74,
    "subspace-topology-inclusion": 56,
    "product-closure-box": 1296,
    "product-topology-chain": 162,
    "product-transitive-equality": 81,
    "connected-characterizations": 22,
    "continuous-image-connected": 8,
    "connected-union-common-point": 16,
    "component-properties": 71,
    "locally-connected-open-components": 11,
    "transitive-local-connectivity": 11,
    "symmetric-transitive-local-connectivity": 7,
    "transitive-convergence-criterion": 3546,
    "fip-compactness-equivalence": 151,
    "separation-axiom-chain": 55,
    "t2-closed-subsets": 7,
    "generalized-open-hierarchy": 33,
    "compact-chain-flags": 33,
    "compact-implies-limit-finite": 11,
    "continuous-image-compact": 68,
    "projection-continuity": 388,
    "product-connected-factors": 81,
}


def test_registry_names_are_unique_and_tiered():
    assert len(LAW_NAMES) == len(set(LAW_NAMES))
    assert len(LAW_NAMES) == 28
    tiers = {get_law(name).tier for name in LAW_NAMES}
    assert tiers == {CORE, EXTENDED}
    for name in LAW_NAMES:
        assert get_law(name).description


def test_unknown_law_and_tier_are_rejected():
    with pytest.raises(ValueError, match="unknown law 'closure-is-cool'"):
        run_laws(names=["closure-is-cool"])
    with pytest.raises(ValueError, match="unknown law tier"):
        run_laws(tier="experimental", max_n=1)


def test_all_laws_hold_on_the_small_grid():
    report = run_laws(max_n=2)
    assert report.ok
    assert {o.name for o in report.outcomes} == set(LAW_NAMES)
    for o in report.outcomes:
        assert o.failed == 0
        assert o.failures == ()
        assert o.checks > 0 or o.tier == EXTENDED
    assert report.text().splitlines()[-1] == "laws: all laws hold on sizes 0..2"


def test_selection_and_tier_filter():
    report = run_laws(names=["closure-interior-duality"], max_n=1)
    assert [o.name for o in report.outcomes] == ["closure-interior-duality"]
    core = run_laws(tier=CORE, max_n=1)
    assert all(o.tier == CORE for o in core.outcomes)
    ext = run_laws(tier=EXTENDED, max_n=2)
    assert {o.name for o in ext.outcomes} == set(LAW_NAMES) - {
        o.name for o in core.outcomes
    }


def test_shared_context_is_reused():
    ctx = LawContext(2)
    first = run_laws(names=["derived-set-laws"], max_n=2, ctx=ctx)
    second = run_laws(names=["derived-closure-decomposition"], max_n=2, ctx=ctx)
    assert first.ok and second.ok


def _break_closure_kernel(monkeypatch):
    # Drop the lowest bit of every nonempty closure.
    real = kernel.aura_closure_mask

    def broken(n, scopes, a):
        out = real(n, scopes, a)
        return out & (out - 1)

    monkeypatch.setattr(kernel, "aura_closure_mask", broken)


def test_broken_closure_kernel_is_caught_and_named(monkeypatch):
    _break_closure_kernel(monkeypatch)
    report = run_laws(
        names=["derived-closure-decomposition", "cech-closure-axioms"], max_n=2
    )
    assert not report.ok
    by_name = {o.name: o for o in report.outcomes}
    decomposition = by_name["derived-closure-decomposition"]
    assert decomposition.failed > 0
    assert all("derived-closure" in m for m in decomposition.failures)
    assert any("space:" in m for m in decomposition.failures)
    # Witness lists are capped, totals are not.
    assert len(decomposition.failures) <= 5 <= decomposition.failed
    text = report.text()
    assert "FAIL" in text
    assert text.rstrip().endswith("law failures present on sizes 0..2")
    data = report.to_json()
    assert data["ok"] is False
    broken_rows = [row for row in data["laws"] if row["failed"]]
    assert broken_rows and all(row["failures"] for row in broken_rows)


def test_fault_injected_failures_are_pinned(monkeypatch):
    _break_closure_kernel(monkeypatch)
    names = ["cech-closure-axioms", "derived-closure-decomposition", "product-closure-box"]
    report = run_laws(names=names, max_n=2)
    got = {o.name: (o.checks, o.failed, o.failures) for o in report.outcomes}
    assert got == {
        "cech-closure-axioms": (284, 24, (
            f"cech-closure-axioms: set 0x1 escapes its own closure | space: {DISCRETE_1}",
            f"cech-closure-axioms: set 0x1 escapes its own closure | space: {DISCRETE_2}",
            f"cech-closure-axioms: set 0x2 escapes its own closure | space: {DISCRETE_2}",
            f"cech-closure-axioms: set 0x3 escapes its own closure | space: {DISCRETE_2}",
            f"cech-closure-axioms: closure not additive on 0x1, 0x2 | space: {DISCRETE_2}",
        )),
        "derived-closure-decomposition": (39, 28, tuple(
            "derived-closure-decomposition: closure of "
            f"{a} is not the union with its derived set | space: {where}"
            for a, where in [
                ("0x1", DISCRETE_1),
                ("0x1", DISCRETE_2),
                ("0x2", DISCRETE_2),
                ("0x3", DISCRETE_2),
                ("0x1", "points a,b | opens {},{a},{b},{a,b} | scopes a:{a} b:{a,b}"),
            ]
        )),
        "product-closure-box": (1296, 693, tuple(
            f"product-closure-box: box closure mismatch on {a} x {b} | space: {DISCRETE_2X2}"
            for a, b in [("0x1", "0x3"), ("0x2", "0x3"), ("0x3", "0x1"),
                         ("0x3", "0x2"), ("0x3", "0x3")]
        )),
    }


def test_convergence_law_is_live(monkeypatch):
    # A criterion that always holds must be caught on the discrete pair,
    # where nothing but a constant tail converges.
    monkeypatch.setattr(laws, "transitive_criterion", lambda s, q, x: True)
    (outcome,) = run_laws(names=["transitive-convergence-criterion"], max_n=2).outcomes
    assert (outcome.checks, outcome.failed) == (3546, 924)
    law = "transitive-convergence-criterion"
    assert outcome.failures == (
        f"{law}: criterion holds at b for ;a without convergence | space: {DISCRETE_2}",
        f"{law}: criterion and convergence split at b for ;a on a transitive space | space: {DISCRETE_2}",
        f"{law}: criterion holds at a for ;b without convergence | space: {DISCRETE_2}",
        f"{law}: criterion and convergence split at a for ;b on a transitive space | space: {DISCRETE_2}",
        f"{law}: criterion holds at b for ;a,a without convergence | space: {DISCRETE_2}",
    )


def test_image_laws_test_continuity_through_the_public_operator(monkeypatch):
    # With every map continuous, connected spaces map onto disconnected ones.
    monkeypatch.setattr(laws, "is_aura_continuous", lambda f, src, dst: True)
    (outcome,) = run_laws(names=["continuous-image-connected"], max_n=2).outcomes
    assert (outcome.checks, outcome.failed) == (8, 8)


def test_per_law_check_counts_are_pinned():
    report = run_laws(max_n=2)
    assert {o.name: o.checks for o in report.outcomes} == CHECKS_AT_SIZE_2


def test_clean_rerun_after_fault_injection():
    report = run_laws(names=["derived-closure-decomposition"], max_n=2)
    assert report.ok


def test_size_gate():
    from auratopo import SizeOutOfRange

    with pytest.raises(SizeOutOfRange):
        run_laws(max_n=4)


# Faults whose effect depends only on the inputs a law's replay key reads,
# so each breaks some keys and leaves the others passing.

def _break_box_family(monkeypatch):
    # Add the singleton {a|a} to the box family when the first point of the
    # left factor has the whole carrier as its scope.
    real = laws.product_topology_of_factors

    def broken(sx, sy):
        family = real(sx, sy)
        if sx.scope_masks[0] != sx.universe.full_mask:
            return family
        return SimpleNamespace(mask_set=family.mask_set | {1})

    monkeypatch.setattr(laws, "product_topology_of_factors", broken)


def _break_continuity(monkeypatch):
    # No map is continuous into a space whose last point has a full scope.
    real = laws.is_aura_continuous

    def broken(f, src, dst):
        return dst.scope_masks[-1] != dst.universe.full_mask and real(f, src, dst)

    monkeypatch.setattr(laws, "is_aura_continuous", broken)


def _break_product_connectedness(monkeypatch):
    # Flip the verdict on 4-point spaces whose first point has a full scope.
    real = laws.is_aura_connected

    def broken(s, a=None):
        flip = s.n == 4 and a is None and s.scope_masks[0] == s.universe.full_mask
        return real(s, a) != flip

    monkeypatch.setattr(laws, "is_aura_connected", broken)


def _break_lindelof(monkeypatch):
    # The Lindelof scan fails wherever the scope topology is trivial.
    monkeypatch.setattr(
        laws, "is_aura_lindelof", lambda s, oracle=False: len(s.aura_topology_masks) > 2
    )


REPLAY_FAULTS = {
    "product-topology-chain": _break_box_family,
    "product-transitive-equality": _break_box_family,
    "projection-continuity": _break_continuity,
    "product-connected-factors": _break_product_connectedness,
    "compact-chain-flags": _break_lindelof,
}


def _space_2x2(opens: str, scopes: str) -> str:
    return f"points a|a,a|b,b|a,b|b | opens {opens} | scopes {scopes}"


OPENS_2X2 = DISCRETE_2X2[len("points a|a,a|b,b|a,b|b | opens "):DISCRETE_2X2.index(" | scopes")]
OPENS_2X2_A = "{},{a|a},{b|a},{a|a,a|b},{a|a,b|a},{b|a,b|b},{a|a,a|b,b|a},{a|a,b|a,b|b},{a|a,a|b,b|a,b|b}"
OPENS_2X2_B = "{},{a|b},{b|b},{a|a,a|b},{a|b,b|b},{b|a,b|b},{a|a,a|b,b|b},{a|b,b|a,b|b},{a|a,a|b,b|a,b|b}"


def _pinned(law: str, checks: int, failed: int, detail: str, spaces: list) -> tuple:
    return checks, failed, tuple(f"{law}: {detail} | space: {where}" for where in spaces)


def test_replayed_fault_outcomes_are_pinned(monkeypatch):
    # Pinned from a run that checked every factor pair and space in full:
    # replaying passed keys must not move a count or a witness.
    box_witnesses = [
        _space_2x2(OPENS_2X2, "a|a:{a|a,b|a} a|b:{a|b,b|b} b|a:{b|a} b|b:{b|b}"),
        _space_2x2(OPENS_2X2, "a|a:{a|a,b|a} a|b:{a|a,a|b,b|a,b|b} b|a:{b|a} b|b:{b|a,b|b}"),
        _space_2x2(OPENS_2X2, "a|a:{a|a,a|b,b|a,b|b} a|b:{a|b,b|b} b|a:{b|a,b|b} b|b:{b|b}"),
        _space_2x2(OPENS_2X2, "a|a:{a|a,a|b,b|a,b|b} a|b:{a|a,a|b,b|a,b|b} b|a:{b|a,b|b} b|b:{b|a,b|b}"),
        _space_2x2(OPENS_2X2_A, "a|a:{a|a,b|a} a|b:{a|a,a|b,b|a,b|b} b|a:{b|a} b|b:{b|a,b|b}"),
    ]
    got = {}
    for name, fault in REPLAY_FAULTS.items():
        with monkeypatch.context() as m:
            fault(m)
            (o,) = run_laws(names=[name], max_n=2).outcomes
        got[name] = (o.checks, o.failed, o.failures)
    assert got == {
        "product-topology-chain": _pinned(
            "product-topology-chain", 162, 54,
            "box-generated family escapes the product scope topology", box_witnesses,
        ),
        "product-transitive-equality": _pinned(
            "product-transitive-equality", 81, 54,
            "transitive factors produced a strictly larger product scope topology", box_witnesses,
        ),
        "projection-continuity": _pinned(
            "projection-continuity", 388, 108, "right projection is not continuous", [
                _space_2x2(OPENS_2X2, "a|a:{a|a} a|b:{a|a,a|b} b|a:{b|a} b|b:{b|a,b|b}"),
                _space_2x2(OPENS_2X2, "a|a:{a|a,a|b} a|b:{a|a,a|b} b|a:{b|a,b|b} b|b:{b|a,b|b}"),
                _space_2x2(OPENS_2X2_A, "a|a:{a|a} a|b:{a|a,a|b} b|a:{b|a} b|b:{b|a,b|b}"),
                _space_2x2(OPENS_2X2_A, "a|a:{a|a,a|b} a|b:{a|a,a|b} b|a:{b|a,b|b} b|b:{b|a,b|b}"),
                _space_2x2(OPENS_2X2_B, "a|a:{a|a,a|b} a|b:{a|a,a|b} b|a:{b|a,b|b} b|b:{b|a,b|b}"),
            ],
        ),
        "product-connected-factors": _pinned(
            "product-connected-factors", 81, 36, "product connectedness disagrees with the factors", [
                _space_2x2(OPENS_2X2, "a|a:{a|a,a|b,b|a,b|b} a|b:{a|b,b|b} b|a:{b|a,b|b} b|b:{b|b}"),
                _space_2x2(OPENS_2X2, "a|a:{a|a,a|b,b|a,b|b} a|b:{a|a,a|b,b|a,b|b} b|a:{b|a,b|b} b|b:{b|a,b|b}"),
                _space_2x2(OPENS_2X2_A, "a|a:{a|a,a|b,b|a,b|b} a|b:{a|a,a|b,b|a,b|b} b|a:{b|a,b|b} b|b:{b|a,b|b}"),
                _space_2x2(OPENS_2X2_B, "a|a:{a|a,a|b,b|a,b|b} a|b:{a|b,b|b} b|a:{b|a,b|b} b|b:{b|b}"),
                _space_2x2(OPENS_2X2_B, "a|a:{a|a,a|b,b|a,b|b} a|b:{a|a,a|b,b|a,b|b} b|a:{b|a,b|b} b|b:{b|a,b|b}"),
            ],
        ),
        "compact-chain-flags": _pinned(
            "compact-chain-flags", 33, 6, "compact without Lindelof", [
                "points  | opens {} | scopes ",
                "points a | opens {},{a} | scopes a:{a}",
                "points a,b | opens {},{a},{b},{a,b} | scopes a:{a,b} b:{a,b}",
                "points a,b | opens {},{a},{a,b} | scopes a:{a,b} b:{a,b}",
                "points a,b | opens {},{b},{a,b} | scopes a:{a,b} b:{a,b}",
            ],
        ),
    }


# Faults that read only a space's scope data, each breaking only the spaces
# whose first point has the whole carrier as its scope.

def _full_first_scope(s) -> bool:
    return s.n > 0 and s.scope_masks[0] == s.universe.full_mask


def _break_first_full_closure(monkeypatch):
    # Drop the lowest bit of every nonempty closure.
    real = kernel.aura_closure_mask

    def broken(n, scopes, a):
        out = real(n, scopes, a)
        return out & (out - 1) if n and scopes[0] == (1 << n) - 1 else out

    monkeypatch.setattr(kernel, "aura_closure_mask", broken)


def _break_derived_set(monkeypatch):
    # Drop the lowest point of every nonempty derived set.
    real = laws.derived_set

    def broken(s, a):
        d = real(s, a)
        return PointSet(s.universe, d.mask & (d.mask - 1)) if _full_first_scope(s) else d

    monkeypatch.setattr(laws, "derived_set", broken)


def _break_closedness(monkeypatch):
    # The empty set is not closed.
    real = laws.is_aura_closed
    monkeypatch.setattr(
        laws, "is_aura_closed", lambda s, a: not (a == 0 and _full_first_scope(s)) and real(s, a)
    )


def _break_carrier_connectedness(monkeypatch):
    # Every three-point carrier is disconnected; the whole space is not.
    real = laws.is_aura_connected

    def broken(s, a=None):
        if a is not None and _full_first_scope(s) and bin(a).count("1") == 3:
            return False
        return real(s, a)

    monkeypatch.setattr(laws, "is_aura_connected", broken)


def _break_generalized_family(monkeypatch):
    # The whole carrier is not alpha-open.
    real = laws.generalized_family

    def broken(s, cls):
        family = real(s, cls)
        if cls is not GeneralizedClass.ALPHA or not _full_first_scope(s):
            return family
        return tuple(p for p in family if p.mask != s.universe.full_mask)

    monkeypatch.setattr(laws, "generalized_family", broken)


def _break_scope_compactness(monkeypatch):
    # The space is flagged non-compact.
    real = laws.is_aura_compact
    monkeypatch.setattr(
        laws, "is_aura_compact",
        lambda s, a=None, oracle=False: not _full_first_scope(s) and real(s, a, oracle),
    )


def _break_criterion(monkeypatch):
    # The convergence criterion holds everywhere.
    real = laws.transitive_criterion
    monkeypatch.setattr(
        laws, "transitive_criterion", lambda s, q, x: _full_first_scope(s) or real(s, q, x)
    )


def _break_source_continuity(monkeypatch):
    # Every map out of the space is continuous.
    real = laws.is_aura_continuous
    monkeypatch.setattr(
        laws, "is_aura_continuous", lambda f, src, dst: _full_first_scope(src) or real(f, src, dst)
    )


def _break_subspace_scope(monkeypatch):
    # Each two-point subspace has the scope of its first point cut to that
    # point, open or not.
    real = laws.subspace

    def broken(s, carrier):
        sub = real(s, carrier)
        if sub.n != 2 or not _full_first_scope(s):
            return sub
        cut = AuraSpace.__new__(AuraSpace)
        cut.topology, cut.scope_masks = sub.topology, (1, sub.scope_masks[1])
        return cut

    monkeypatch.setattr(laws, "subspace", broken)


SCOPE_REPLAY_FAULTS = {
    "cech-closure-axioms": _break_first_full_closure,
    "derived-closure-decomposition": _break_derived_set,
    "derived-set-laws": _break_closedness,
    "connected-union-common-point": _break_carrier_connectedness,
    "component-properties": _break_carrier_connectedness,
    "generalized-open-hierarchy": _break_generalized_family,
    "fip-compactness-equivalence": _break_scope_compactness,
    "transitive-convergence-criterion": _break_criterion,
    "connected-characterizations": _break_source_continuity,
    "subspace-closure-trace": _break_subspace_scope,
    "subspace-topology-inclusion": _break_subspace_scope,
}

DISCRETE_2_SCOPES = DISCRETE_2[:DISCRETE_2.index("scopes ") + len("scopes ")]
DISCRETE_3_SCOPES = "points a,b,c | opens {},{a},{b},{c},{a,b},{a,c},{b,c},{a,b,c} | scopes "
SIERPINSKI_A = "points a,b | opens {},{a},{a,b} | scopes "
SIERPINSKI_B = "points a,b | opens {},{b},{a,b} | scopes "


def _witnessed(law: str, checks: int, failed: int, witnesses: list) -> tuple:
    return checks, failed, tuple(f"{law}: {detail} | space: {where}" for detail, where in witnesses)


def test_scope_replayed_fault_outcomes_are_pinned(monkeypatch):
    # Pinned from a run that checked every space in full: replaying the
    # spaces of a passed scope tuple must not move a count or a witness.
    first_full = DISCRETE_2_SCOPES + "a:{a,b} b:{b}"
    both_full = DISCRETE_2_SCOPES + "a:{a,b} b:{a,b}"
    not_closed = "closed flag disagrees with derived containment on 0x0"
    not_alpha = "a scope-open set is not alpha-open"
    not_compact = "finite space flagged non-compact"
    not_decomposed = "closure of {} is not the union with its derived set"
    union = "union 0x7 of overlapping connected sets is disconnected"
    union3 = "union 0x7 of three connected sets through a common point is disconnected"
    no_convergence = "criterion holds at b for {} without convergence"
    split = "criterion and convergence split at b for {} on a transitive space"
    first_full_spaces = [
        DISCRETE_1,
        first_full,
        both_full,
        SIERPINSKI_A + "a:{a,b} b:{a,b}",
        SIERPINSKI_B + "a:{a,b} b:{b}",
    ]
    two_point_first_full = first_full_spaces[1:] + [SIERPINSKI_B + "a:{a,b} b:{a,b}"]
    got = {}
    for name, fault in SCOPE_REPLAY_FAULTS.items():
        with monkeypatch.context() as m:
            fault(m)
            (o,) = run_laws(names=[name], max_n=3).outcomes
        got[name] = (o.checks, o.failed, o.failures)
    assert got == {
        "cech-closure-axioms": _witnessed("cech-closure-axioms", 36485, 617, [
            ("set 0x1 escapes its own closure", DISCRETE_1),
            ("set 0x1 escapes its own closure", first_full),
            ("set 0x3 escapes its own closure", first_full),
            ("set 0x1 escapes its own closure", both_full),
            ("set 0x3 escapes its own closure", both_full),
        ]),
        "derived-closure-decomposition": _witnessed("derived-closure-decomposition", 2935, 584, [
            (not_decomposed.format("0x2"), first_full),
            (not_decomposed.format("0x1"), both_full),
            (not_decomposed.format("0x2"), both_full),
            (not_decomposed.format("0x1"), SIERPINSKI_A + "a:{a,b} b:{a,b}"),
            (not_decomposed.format("0x2"), SIERPINSKI_A + "a:{a,b} b:{a,b}"),
        ]),
        "derived-set-laws": _pinned("derived-set-laws", 36484, 158, not_closed, first_full_spaces),
        "connected-union-common-point": _witnessed("connected-union-common-point", 5922, 842, [
            (union, DISCRETE_3_SCOPES + "a:{a,b,c} b:{b} c:{c}"),
            (union3, DISCRETE_3_SCOPES + "a:{a,b,c} b:{b} c:{c}"),
            (union, DISCRETE_3_SCOPES + "a:{a,b,c} b:{b} c:{a,c}"),
            (union3, DISCRETE_3_SCOPES + "a:{a,b,c} b:{b} c:{a,c}"),
            (union, DISCRETE_3_SCOPES + "a:{a,b,c} b:{b} c:{b,c}"),
        ]),
        "component-properties": _pinned(
            "component-properties", 3808, 151, "component 0x7 is disconnected", [
                DISCRETE_3_SCOPES + "a:{a,b,c} b:{b} c:{c}",
                DISCRETE_3_SCOPES + "a:{a,b,c} b:{b} c:{a,c}",
                DISCRETE_3_SCOPES + "a:{a,b,c} b:{b} c:{b,c}",
                DISCRETE_3_SCOPES + "a:{a,b,c} b:{b} c:{a,b,c}",
                DISCRETE_3_SCOPES + "a:{a,b,c} b:{a,b} c:{c}",
            ],
        ),
        "generalized-open-hierarchy": _pinned(
            "generalized-open-hierarchy", 1119, 158, not_alpha, first_full_spaces
        ),
        "fip-compactness-equivalence": _pinned(
            "fip-compactness-equivalence", 8839, 158, not_compact, first_full_spaces
        ),
        "transitive-convergence-criterion": _witnessed("transitive-convergence-criterion", 846180, 71808, [
            (no_convergence.format(";a"), first_full),
            (split.format(";a"), first_full),
            (no_convergence.format(";a,a"), first_full),
            (split.format(";a,a"), first_full),
            (no_convergence.format(";a,b"), first_full),
        ]),
        "connected-characterizations": _pinned(
            "connected-characterizations", 746, 157,
            "two-point discrete maps disagree with the separation verdict", two_point_first_full,
        ),
        "subspace-closure-trace": _pinned(
            "subspace-closure-trace", 9486, 408,
            "subspace closure of 0x2 in carrier 0x3 is not the trace", two_point_first_full,
        ),
        "subspace-topology-inclusion": _pinned(
            "subspace-topology-inclusion", 3934, 232,
            "transitive space has a strict trace on carrier 0x3", two_point_first_full,
        ),
    }


def test_scope_topology_subfamily_runs_on_every_space(monkeypatch):
    # Drop the singleton open from both two-point topologies with three
    # opens. The fault reads the ambient topology, so no scope class holds
    # it: the discrete space that heads each scope tuple stays intact.
    # Pinned from a run that checked every space in full.
    ctx = LawContext(3)
    for s in ctx.spaces(2):
        opens = s.topology.mask_set
        if len(opens) == 3:
            kept = opens - {min(opens - {0})}
            monkeypatch.setattr(s, "topology", TopologyFamily(s.universe, kept, validate=False))
    (o,) = run_laws(names=["scope-topology-subfamily"], ctx=ctx).outcomes
    assert (o.checks, o.failed, o.failures) == _witnessed("scope-topology-subfamily", 5017, 2, [
        ("scope-open 0x1 is not open", "points a,b | opens {},{a,b} | scopes a:{a} b:{a,b}"),
        ("scope-open 0x2 is not open", "points a,b | opens {},{a,b} | scopes a:{a,b} b:{b}"),
    ])


# Faults on the inputs of the two class memos: the product topology, keyed
# on the factor topologies, and compactness, read on every instance.

def _break_product_topology(monkeypatch):
    # Drop the singleton {a|a} from the product topology when the left
    # factor is the discrete two-point space.
    real = laws.product

    def broken(sx, sy):
        p = real(sx, sy)
        if sx.topology.mask_set == frozenset(range(4)):
            opens = p.topology.mask_set - {1}
            p.topology = TopologyFamily(p.universe, opens, validate=False)
        return p

    monkeypatch.setattr(laws, "product", broken)


def _break_compactness(monkeypatch):
    # Two-point spaces whose topology has three opens are flagged non-compact:
    # this reads the ambient topology, which no source class key holds.
    monkeypatch.setattr(
        laws, "is_aura_compact",
        lambda s, a=None, oracle=False: not (s.n == 2 and len(s.topology.mask_set) == 3),
    )


CLASS_MEMO_FAULTS = {
    "product-topology-chain": _break_product_topology,
    "continuous-image-compact": _break_compactness,
}


def test_class_memo_fault_outcomes_are_pinned(monkeypatch):
    # Pinned from a run that built every pair's product and listed every
    # source's targets.
    opens_no_aa = OPENS_2X2.replace("{a|a},", "", 1)
    opens_a_no_aa = OPENS_2X2_A.replace("{a|a},", "", 1)
    sierpinski_a = "points a,b | opens {},{a},{a,b} | scopes "
    sierpinski_b = "points a,b | opens {},{b},{a,b} | scopes "
    got = {}
    for name, fault in CLASS_MEMO_FAULTS.items():
        with monkeypatch.context() as m:
            fault(m)
            (o,) = run_laws(names=[name], max_n=3).outcomes
        got[name] = (o.checks, o.failed, o.failures)
    assert got == {
        "product-topology-chain": _pinned(
            "product-topology-chain", 13194, 132,
            "product scope topology escapes the product topology", [
                _space_2x2(opens_no_aa, "a|a:{a|a} a|b:{a|b} b|a:{b|a} b|b:{b|b}"),
                _space_2x2(opens_no_aa, "a|a:{a|a} a|b:{a|a,a|b} b|a:{b|a} b|b:{b|a,b|b}"),
                _space_2x2(opens_a_no_aa, "a|a:{a|a} a|b:{a|a,a|b} b|a:{b|a} b|b:{b|a,b|b}"),
                _space_2x2(opens_no_aa, "a|a:{a|a} a|b:{a|b} b|a:{a|a,b|a} b|b:{a|b,b|b}"),
                _space_2x2(opens_no_aa, "a|a:{a|a} a|b:{a|a,a|b} b|a:{a|a,b|a} b|b:{a|a,a|b,b|a,b|b}"),
            ],
        ),
        "continuous-image-compact": _pinned(
            "continuous-image-compact", 78616, 1186,
            "continuous onto image of a compact space flagged non-compact", [
                sierpinski_a + "a:{a} b:{a,b}",
                sierpinski_a + "a:{a,b} b:{a,b}",
                sierpinski_b + "a:{a,b} b:{b}",
                sierpinski_b + "a:{a,b} b:{a,b}",
                sierpinski_a + "a:{a} b:{a,b}",
            ],
        ),
    }


def test_product_class_keys_hold_the_families_the_chain_reads():
    # product-topology-chain takes the product topology from the first pair
    # with the same factor topologies, and τ_{a×b} from the first pair with
    # the same pair key. All pairs of two-point factors, and a seeded sample
    # of the (2,3) and (3,2) pairs.
    ctx = LawContext(3)
    pairs = [(sx, sy) for sx in ctx.spaces(2) for sy in ctx.spaces(2)]
    rng = random.Random(13)
    for nx, ny in ((2, 3), (3, 2)):
        pairs += [(rng.choice(ctx.spaces(nx)), rng.choice(ctx.spaces(ny))) for _ in range(250)]
    first_topology, first_tau_a = {}, {}
    for sx, sy in pairs:
        p = product(sx, sy)
        topology = p.topology.mask_set
        tau_a = frozenset(p.aura_topology_masks)
        assert first_topology.setdefault(laws._product_topology_key(sx, sy), topology) == topology
        assert first_tau_a.setdefault(laws._pair_key(sx, sy), tau_a) == tau_a
    assert len(pairs) == 581
    assert len(first_topology) < len(pairs) and len(first_tau_a) < len(pairs)


def test_law_suite_builds_one_product_per_class(monkeypatch):
    # One product per pair key (528) and per pair of factor topologies
    # (248), 773 distinct pairs in all; checking every pair built 6,597.
    built = []
    real = laws.product

    def counted(sx, sy):
        built.append((sx, sy))
        return real(sx, sy)

    monkeypatch.setattr(laws, "product", counted)
    report = run_laws(max_n=3)
    assert report.ok
    assert sum(o.checks for o in report.outcomes) == 1324421
    assert len(built) <= 773


def test_law_suite_builds_each_subspace_once(monkeypatch):
    # The two subspace laws replay per scope tuple and share one subspace per
    # first space of a scope tuple and nonempty carrier: 0 + 1 + 4·3 + 64·7
    # = 461 of them, where building one per space took 2,562.
    built = []
    real = laws.subspace

    def counted(s, carrier):
        built.append((s, carrier))
        return real(s, carrier)

    monkeypatch.setattr(laws, "subspace", counted)
    report = run_laws(max_n=3)
    assert report.ok
    assert sum(o.checks for o in report.outcomes) == 1324421
    assert len(built) == 461


def _walk_every_instance(t, table, run):
    # A walk that runs every instance, in grid order.
    for pos in range(len(table)):
        run(pos)


def test_walk_replays_failing_classes_in_grid_order():
    # Classes a, b, c interleaved. Class a fails at 0 and 2 and passes at 5,
    # so 7 only adds the count of 5; class b fails everywhere; class c
    # passes at its first instance, so 8 never runs.
    keys = ["a", "b", "a", "c", "b", "a", "b", "a", "c"]
    failing = {0, 1, 2, 4, 6}
    table = laws._Classes(keys)
    assert list(table.index) == [0, 1, 0, 2, 1, 0, 1, 0, 2]
    assert (table.first, table.size) == ([0, 1, 3], [4, 3, 2])
    assert list(table.later(0)) == [2, 5, 7]

    def walked(walk) -> tuple:
        t = laws._Tally("synthetic")
        ran = []

        def run(pos):
            ran.append(pos)
            t.verify(True, "never")
            t.verify(pos not in failing, f"{keys[pos]} fails at {pos}")

        walk(t, table, run)
        return ran, (t.checks, t.failed, tuple(t.messages))

    ran, outcome = walked(laws._walk)
    assert ran == [0, 1, 2, 3, 4, 5, 6]
    assert outcome == (18, 5, tuple(
        f"synthetic: {keys[pos]} fails at {pos}" for pos in sorted(failing)
    ))
    assert walked(_walk_every_instance) == (list(range(9)), outcome)


# Faults that feed a context memo under a key that does not fix what they
# read, or that edit what it holds: the subspace fault's cut spaces go into
# ``subspace_of`` and, by space equality, the facts memo, and the class memo
# faults feed the product and surjection memos. Every other fault has no
# state and changes only values that no memo keeps, or that one keeps under
# a key fixing every input the fault reads, so a second walk reads from a
# shared context exactly what it would compute in a fresh one.
FRESH_CONTEXT_FAULTS = (_break_subspace_scope, *CLASS_MEMO_FAULTS.values())


def test_walk_matches_a_walk_of_every_instance_under_faults(monkeypatch):
    # Every fault that breaks some replay classes or class memos, at sizes
    # up to 3: the walk must report what a walk that runs every instance
    # reports.
    faults = [*SCOPE_REPLAY_FAULTS.items(), *REPLAY_FAULTS.items(), *CLASS_MEMO_FAULTS.items()]
    for name, fault in faults:
        outcomes = []
        ctx = None if fault in FRESH_CONTEXT_FAULTS else LawContext(3)
        for walk in (laws._walk, _walk_every_instance):
            with monkeypatch.context() as m:
                fault(m)
                m.setattr(laws, "_walk", walk)
                (o,) = run_laws(names=[name], max_n=3, ctx=ctx).outcomes
            outcomes.append((o.checks, o.failed, o.failures))
        assert outcomes[0] == outcomes[1], name
        assert outcomes[0][1] > 0, name


def test_decided_instances_are_pinned():
    # A passing run decides one instance per class: 70 scope tuples, 528
    # pair classes, 461 cycle-mask classes inside the convergence law's 70
    # spaces, and 23 and 35 (size, τ_a) source classes for the connected
    # and compact image laws. scope-topology-subfamily runs on every space.
    ctx = LawContext(3)
    decided = {}
    for law in laws.LAWS:
        t = laws._Tally(law.name)
        law.run(ctx, t)
        assert t.failed == 0
        decided[law.name] = t.decided
    pair_laws = {"product-closure-box", "product-topology-chain", "product-transitive-equality",
                 "projection-continuity", "product-connected-factors"}
    others = {"scope-topology-subfamily", "transitive-convergence-criterion",
              "continuous-image-connected", "continuous-image-compact"}
    assert {name: decided[name] for name in pair_laws} == dict.fromkeys(pair_laws, 528)
    space_laws = set(LAW_NAMES) - pair_laws - others
    assert {name: decided[name] for name in space_laws} == dict.fromkeys(space_laws, 70)
    assert decided["scope-topology-subfamily"] == 373
    assert decided["transitive-convergence-criterion"] == 70 + 461
    assert decided["continuous-image-connected"] == 23
    assert decided["continuous-image-compact"] == 35


def test_laws_bench_runs_and_reports_the_pinned_counts():
    # benchmarks/laws_bench.py reaches into the module's internals; one of its
    # runs must see the counts that the tests above pin.
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "laws_bench.py"
    spec = importlib.util.spec_from_file_location("laws_bench", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    run = bench._one_run()
    assert sum(checks for _, checks, _ in run["laws"].values()) == 1324421
    decided = {name: row[2] for name, row in run["laws"].items()}
    pair_laws = {"product-closure-box", "product-topology-chain", "product-transitive-equality",
                 "projection-continuity", "product-connected-factors"}
    expected = {name: 528 if name in pair_laws else 70 for name in LAW_NAMES}
    expected.update({"scope-topology-subfamily": 373, "transitive-convergence-criterion": 70 + 461,
                     "continuous-image-connected": 23, "continuous-image-compact": 35})
    assert decided == expected
    assert run["products"] == 773
    assert run["subspaces"] == 461


def test_a_second_run_on_one_context_builds_nothing(monkeypatch):
    # The context keeps every product, subspace, fact table and map that the
    # laws read, so a second run of every law on it builds none of them and
    # reports what the first run reported.
    built = []

    def counting(name, real):
        def call(*args):
            built.append(name)
            return real(*args)
        return call

    for name in ("product", "subspace", "FiniteMap"):
        monkeypatch.setattr(laws, name, counting(name, getattr(laws, name)))
    monkeypatch.setattr(laws.SpaceFacts, "__init__",
                        counting("SpaceFacts", laws.SpaceFacts.__init__))
    ctx = LawContext(3)
    first = run_laws(ctx=ctx)
    assert first.ok and {"product", "subspace", "FiniteMap", "SpaceFacts"} <= set(built)
    built.clear()
    assert run_laws(ctx=ctx) == first
    assert built == []
    # Surjection verdicts are kept when false too, so the image laws test
    # no map for continuity on a context that has run them.
    monkeypatch.setattr(laws, "is_aura_continuous",
                        counting("is_aura_continuous", laws.is_aura_continuous))
    run_laws(names=["continuous-image-connected", "continuous-image-compact"], ctx=ctx)
    assert built == []


def test_product_closure_box_closes_only_the_boxes(monkeypatch):
    # 16 boxes on each of the 16 two-by-two pair classes and 32 on each of
    # the 512 others: 16,640 product closures, where closing every subset
    # of each product took 33,024.
    calls = []
    real = kernel.aura_closure_mask

    def counted(n, scopes, a):
        calls.append(n)
        return real(n, scopes, a)

    monkeypatch.setattr(kernel, "aura_closure_mask", counted)
    (o,) = run_laws(names=["product-closure-box"], max_n=3).outcomes
    assert o.ok and o.checks == 209808
    assert sum(1 for n in calls if n >= 4) == 16 * 16 + 512 * 32 == 16640


def test_convergence_operators_run_once_per_cycle_mask(monkeypatch):
    # The first space of each scope tuple runs the operators on one sequence
    # per nonempty cycle mask and point: 1·1 on the one-point tuple, 2·3 on
    # each of the four two-point tuples.
    calls = []
    real = laws.converges_to

    def counted(s, q, x):
        calls.append(1)
        return real(s, q, x)

    monkeypatch.setattr(laws, "converges_to", counted)
    ctx = LawContext(2)
    report = run_laws(names=["transitive-convergence-criterion"], ctx=ctx)
    assert report.ok
    sizes = {laws._scope_key(s): s.n for s in ctx.grid}
    assert len(calls) == sum(n * ((1 << n) - 1) for n in sizes.values()) == 25


def test_convergence_reruns_a_failing_cycle_mask_in_place(monkeypatch):
    # The criterion flips on two-point spaces for sequences that recur on b
    # alone, so within each two-point space the masks {a} and {a,b} pass and
    # are replayed while every sequence with mask {b} (";b", ";b,b", ...)
    # runs. The outcome must be that of a run that checks every sequence.
    real = laws.transitive_criterion
    monkeypatch.setattr(
        laws, "transitive_criterion",
        lambda s, q, x: real(s, q, x) != (s.n == 2 and q.cycle_mask() == 0b10),
    )
    outcomes = []
    for replayed in (True, False):
        with monkeypatch.context() as m:
            if not replayed:
                m.setattr(laws, "_walk", _walk_every_instance)
            (o,) = run_laws(names=["transitive-convergence-criterion"], max_n=2).outcomes
        outcomes.append((o.checks, o.failed, o.failures))
    law = "transitive-convergence-criterion"
    no_convergence = "criterion holds at {} for {} without convergence"
    split = "criterion and convergence split at {} for {} on a transitive space"
    assert outcomes[0] == outcomes[1] == _witnessed(law, 3546, 441, [
        (no_convergence.format("a", ";b"), DISCRETE_2),
        (split.format("a", ";b"), DISCRETE_2),
        (split.format("b", ";b"), DISCRETE_2),
        (no_convergence.format("a", ";b,b"), DISCRETE_2),
        (split.format("a", ";b,b"), DISCRETE_2),
    ])


def _counted_compactness(monkeypatch) -> list:
    # Record the oracle flag of every laws.is_aura_compact call.
    calls = []
    real = laws.is_aura_compact

    def counted(s, a=None, oracle=False):
        calls.append(oracle)
        return real(s, a, oracle)

    monkeypatch.setattr(laws, "is_aura_compact", counted)
    return calls


def test_image_compact_checks_the_targets_once_per_source_class(monkeypatch):
    # One test per grid space picks the compact sources (373), and only the
    # first source of each (size, τ_a) class tests its targets (8,804 in
    # all); testing every source's targets made 79,017 calls.
    calls = _counted_compactness(monkeypatch)
    (o,) = run_laws(names=["continuous-image-compact"], max_n=3).outcomes
    assert o.ok
    assert len(calls) == 9177


def test_compact_chain_runs_one_cover_scan_per_scope_tuple(monkeypatch):
    # compact-chain-flags is a space law: the first space of each of the 70
    # scope tuples up to three points runs the cover scan, where one scan
    # per (size, τ_a) class ran 35.
    calls = _counted_compactness(monkeypatch)
    ctx = LawContext(3)
    (o,) = run_laws(names=["compact-chain-flags"], ctx=ctx).outcomes
    assert o.ok
    assert calls == [True] * len({laws._scope_key(s) for s in ctx.grid})
    assert len(calls) == 70


def test_convergence_verdicts_read_only_the_cycle_mask():
    # The convergence law runs the operators on the first sequence of each
    # cycle mask and counts the rest; every other sequence must agree with it.
    # All spaces up to two points, and a seeded third of the three-point ones.
    ctx = LawContext(3)
    spaces = [s for n in (1, 2) for s in ctx.spaces(n)]
    spaces += random.Random(9).sample(ctx.spaces(3), 120)
    mismatches = []
    for s in spaces:
        labels = s.universe.labels
        verdicts = {}
        seqs, classes = ctx.sequences(s.universe)
        for pos, q in enumerate(seqs):
            got = (
                aura_limits(s, q),
                tuple(converges_to(s, q, x) for x in labels),
                tuple(transitive_criterion(s, q, x) for x in labels),
            )
            want = verdicts.setdefault(classes.index[pos], got)
            if got != want:
                mismatches.append((repr(s), q.text()))
    assert mismatches == []
