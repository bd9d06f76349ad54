"""Frozen fixture values plus the law suite, behind one verify entry point.

Each check pins an exact value for one bundled fixture: the scope
topology as a label family, a component partition, a subspace or
product family, limit sets, or a flag pair. Expected values are string
literals so a regression prints as expected-versus-actual text instead
of a bare assertion error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from .aura import AuraSpace, classify
from .connectivity import aura_components, is_aura_connected, is_aura_path_connected
from .constructions import product, subspace
from .finite import PointSet, family_text, is_tau_connected, mask_indices
from .fixtures import PRODUCT_PAIRS, load_fixture
from .sequences import aura_limits, parse_sequence

if TYPE_CHECKING:
    from .laws import LawReport


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    expected: str
    actual: str

    def line(self) -> str:
        if self.ok:
            return f"ok {self.name}"
        return f"FAIL {self.name}: expected {self.expected} actual {self.actual}"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "expected": self.expected,
            "actual": self.actual,
        }


def _check(name: str, expected: str, actual: str) -> CheckResult:
    return CheckResult(name=name, ok=expected == actual, expected=expected, actual=actual)


def _scope_topology_check(name: str, s: AuraSpace, expected: str) -> CheckResult:
    return _check(name, expected, family_text(s.universe, s.aura_topology_masks))


def fixture_checks(fixtures_dir: Optional[str] = None) -> List[CheckResult]:
    """All pinned fixture assertions, in a fixed order."""
    def get(name: str) -> AuraSpace:
        return load_fixture(name, fixtures_dir)

    out: List[CheckResult] = []

    ladder = get("ladder4")
    out.append(_scope_topology_check(
        "ladder4-scope-topology", ladder, "{} {a} {a,b} {a,b,c} {a,b,c,d}"
    ))

    clusters = get("clusters5")
    out.append(_scope_topology_check(
        "clusters5-scope-topology",
        clusters,
        "{} {5} {1,2} {3,4} {1,2,5} {3,4,5} {1,2,3,4} {1,2,3,4,5}",
    ))
    blocks = aura_components(clusters).blocks
    out.append(_check(
        "clusters5-components",
        "{1,2} {3,4} {5}",
        " ".join(b.text() for b in blocks),
    ))

    rotor = get("rotor3")
    out.append(_scope_topology_check("rotor3-scope-topology", rotor, "{} {a,b,c}"))
    out.append(_check(
        "rotor3-not-transitive",
        "transitive=false",
        f"transitive={'true' if classify(rotor).transitive else 'false'}",
    ))
    sub = subspace(rotor, rotor.universe.subset(["a", "b"]))
    out.append(_check(
        "rotor3-subspace-scopes",
        "a:{a,b} b:{b}",
        " ".join(
            f"{lab}:{PointSet(sub.universe, m).text()}"
            for lab, m in zip(sub.universe.labels, sub.scope_masks)
        ),
    ))
    out.append(_scope_topology_check("rotor3-subspace-scope-topology", sub, "{} {b} {a,b}"))
    trace = {u & rotor.universe.subset(["a", "b"]).mask for u in rotor.aura_topology_masks}
    carrier = rotor.universe.subset(["a", "b"]).mask
    trace_in_sub = {
        sum(1 << k for k, p in enumerate(mask_indices(carrier)) if (m >> p) & 1)
        for m in trace
    }
    strict = trace_in_sub < set(sub.aura_topology_masks)
    out.append(_check(
        "rotor3-subspace-strict-inclusion",
        "strict=true",
        f"strict={'true' if strict else 'false'}",
    ))

    left = get(PRODUCT_PAIRS["chain-strict"][0])
    right = get(PRODUCT_PAIRS["chain-strict"][1])
    prod = product(left, right)
    out.append(_scope_topology_check(
        "product-chain-strict-scope-topology",
        prod,
        "{} {a|1,b|1,c|1} {a|2,b|2,c|2} {a|1,a|2,b|1,b|2,c|1,c|2}",
    ))

    left = get(PRODUCT_PAIRS["indiscrete"][0])
    right = get(PRODUCT_PAIRS["indiscrete"][1])
    prod = product(left, right)
    out.append(_scope_topology_check(
        "product-indiscrete-scope-topology",
        prod,
        "{} {a|1,a|2,b|1,b|2}",
    ))

    chain = get("chain3")
    for text, expected in ((";2", "{0,1,2}"), (";1,2", "{0,1}"), (";0", "{0}")):
        seq = parse_sequence(chain.universe, text)
        out.append(_check(
            f"chain3-limits-cycle-{text[1:].replace(',', '-')}",
            expected,
            aura_limits(chain, seq).text(),
        ))

    split = get("split3")
    out.append(_check(
        "split3-connected-flags",
        "scope-connected=true plain-connected=false",
        "scope-connected={} plain-connected={}".format(
            "true" if is_aura_connected(split) else "false",
            "true" if is_tau_connected(split.topology) else "false",
        ),
    ))

    sierp = get("sierpinski2")
    out.append(_scope_topology_check("sierpinski2-scope-topology", sierp, "{} {a} {a,b}"))
    out.append(_check(
        "sierpinski2-connectivity",
        "connected=true path-connected=true",
        "connected={} path-connected={}".format(
            "true" if is_aura_connected(sierp) else "false",
            "true" if is_aura_path_connected(sierp) else "false",
        ),
    ))
    return out


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    laws: Optional[LawReport]

    @property
    def ok(self) -> bool:
        if any(not c.ok for c in self.checks):
            return False
        return self.laws is None or self.laws.ok

    def lines(self) -> list:
        out = [c.line() for c in self.checks]
        if self.laws is not None:
            out.extend(self.laws.lines())
        out.append("verification: " + ("pass" if self.ok else "FAIL"))
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def to_json(self) -> dict:
        doc = {
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }
        if self.laws is not None:
            doc["laws"] = self.laws.to_json()
        return doc


def run_verification(
    fixtures_dir: Optional[str] = None,
    include_laws: bool = True,
    law_max_n: int = 3,
) -> VerificationReport:
    checks = tuple(fixture_checks(fixtures_dir))
    laws = None
    if include_laws:
        from .laws import run_laws

        laws = run_laws(max_n=law_max_n)
    return VerificationReport(checks=checks, laws=laws)
