"""Brute-force facts about small scoped spaces, independent of auratopo.

Spaces here are plain Python: a list of labels, a list of open sets and a
dict from label to scope, all as sets of labels. Every fact is computed
from its definition (reachability along scopes, or a scan of all subsets),
never through the package's hulls, masks or kernels.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, FrozenSet, List, Sequence, Tuple

Scopes = Dict[str, FrozenSet[str]]

_SET = re.compile(r"\{([^{}]*)\}")


def parse_set(text: str) -> FrozenSet[str]:
    inner = text.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise ValueError(f"not a set: {text!r}")
    return frozenset(x for x in inner[1:-1].split(",") if x)


def parse_descriptor(text: str) -> Tuple[List[str], List[FrozenSet[str]], Scopes]:
    """Read ``points a,b | opens {},{a} | scopes a:{a} b:{a,b}``."""
    parts = [p.strip() for p in text.split("|")]
    if len(parts) != 3 or not parts[0].startswith("points ") \
            or not parts[1].startswith("opens ") or not parts[2].startswith("scopes "):
        raise ValueError(f"not a space descriptor: {text!r}")
    labels = parts[0][len("points "):].split(",")
    opens = [frozenset(x for x in m.group(1).split(",") if x)
             for m in _SET.finditer(parts[1][len("opens "):])]
    scopes = {}
    for entry in parts[2][len("scopes "):].split(" "):
        label, _, body = entry.partition(":")
        scopes[label] = parse_set(body)
    return labels, opens, scopes


def set_text(labels) -> str:
    return "{" + ",".join(sorted(labels)) + "}"


def family_order(labels: Sequence[str], sets) -> list:
    """Canonical family order: by size, then by the ascending point positions."""
    pos = {lab: i for i, lab in enumerate(labels)}
    return sorted(sets, key=lambda s: (len(s), sorted(pos[x] for x in s)))


def all_subsets(labels: Sequence[str]):
    for r in range(len(labels) + 1):
        for combo in itertools.combinations(labels, r):
            yield frozenset(combo)


def hulls(labels: Sequence[str], scopes: Scopes) -> Scopes:
    """Points reachable from each point by stepping into scopes."""
    out = {}
    for x in labels:
        seen = {x}
        todo = [x]
        while todo:
            for y in scopes[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        out[x] = frozenset(seen)
    return out


def _classes(points: Sequence[str], linked) -> List[FrozenSet[str]]:
    """Classes of the undirected graph ``linked(x, y)`` on ``points``."""
    left = list(points)
    out = []
    while left:
        seed = left.pop(0)
        block = {seed}
        todo = [seed]
        while todo:
            x = todo.pop()
            for y in list(left):
                if linked(x, y):
                    left.remove(y)
                    block.add(y)
                    todo.append(y)
        out.append(frozenset(block))
    return out


def components(labels: Sequence[str], scopes: Scopes, within=None) -> List[FrozenSet[str]]:
    """Classes of "one lies in the other's scope", ordered by first point."""
    points = [x for x in labels if within is None or x in within]
    return _classes(points, lambda x, y: y in scopes[x] or x in scopes[y])


def is_transitive(labels, scopes: Scopes) -> bool:
    return all(scopes[y] <= scopes[x] for x in labels for y in scopes[x])


def is_symmetric(labels, scopes: Scopes) -> bool:
    return all(x in scopes[y] for x in labels for y in scopes[x])


def scope_open_sets(labels, scopes: Scopes) -> List[FrozenSet[str]]:
    """Every subset that contains the scope of each of its points."""
    return [u for u in all_subsets(labels) if all(scopes[x] <= u for x in u)]


def scope_connected(labels, scopes: Scopes) -> bool:
    """No split of the points into two nonempty scope-open halves."""
    return len(components(labels, scopes)) <= 1


def tau_connected(labels, opens) -> bool:
    """No proper nonempty open set whose complement is open too."""
    full = frozenset(labels)
    present = set(opens)
    return not any(u and u != full and (full - u) in present for u in present)


def separation(labels, scopes: Scopes) -> Tuple[bool, bool, bool]:
    """t0/t1/t2 through the least scope-open set around each point."""
    h = hulls(labels, scopes)
    t0 = t1 = t2 = True
    for x, y in itertools.combinations(labels, 2):
        x_in_y, y_in_x = x in h[y], y in h[x]
        if x_in_y and y_in_x:
            t0 = False
        if x_in_y or y_in_x:
            t1 = False
        if h[x] & h[y]:
            t2 = False
    t1 = t1 and t0
    return t0, t1, t2 and t1


def analyze_lines(name: str, labels, opens, scopes: Scopes) -> List[str]:
    """The expected ``analyze`` report for a space with more than six points."""
    def flag(v: bool) -> str:
        return "true" if v else "false"

    full = frozenset(labels)
    trivial = all(scopes[x] == full for x in labels)
    discrete = all(scopes[x] == {x} for x in labels)
    connected = scope_connected(labels, scopes)
    h = hulls(labels, scopes)
    locally = all(len(components(labels, scopes, within=h[x])) <= 1 for x in labels)
    t0, t1, t2 = separation(labels, scopes)
    return [
        f"space: {name}",
        f"points: {len(labels)}",
        f"classification: transitive={flag(is_transitive(labels, scopes))} "
        f"symmetric={flag(is_symmetric(labels, scopes))} "
        f"trivial={flag(trivial)} discrete={flag(discrete)}",
        f"scope topology: {len(scope_open_sets(labels, scopes))} sets",
        "components: " + " ".join(set_text(b) for b in components(labels, scopes)),
        f"scope-connected: {flag(connected)}",
        f"tau-connected: {flag(tau_connected(labels, opens))}",
        f"scope-path-connected: {flag(connected)}",
        f"locally-connected: {flag(locally)}",
        f"separation: t0={flag(t0)} t1={flag(t1)} t2={flag(t2)}",
    ]
