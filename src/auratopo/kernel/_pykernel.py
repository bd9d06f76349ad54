"""The kernel: bitmask primitives behind every hot loop.

All functions speak plain ints. A subset of an n-point universe is the
mask with bit i set for the i-th point; a scope assignment is a list of
n masks, one per point, with bit i set in entry i.
"""

from __future__ import annotations

BACKEND = "python"


def hull_masks(n, auras):
    """Smallest scope-open superset of each singleton.

    hull(x) is the least fixed point of S -> S plus the scopes of S's
    members, started from the scope of x. It is the minimal scope-open
    set containing x.
    """
    out = []
    for x in range(n):
        m = auras[x]
        while True:
            grown = m
            probe = m
            while probe:
                low = probe & -probe
                grown |= auras[low.bit_length() - 1]
                probe ^= low
            if grown == m:
                break
            m = grown
        out.append(m)
    return out


def union_closure(masks):
    """All unions of sub-collections of ``masks``, the empty union included.

    Returns ascending ints. Output-sensitive: never scans 2**n subsets
    of the universe, only grows the closure itself.
    """
    seen = {0}
    for m in masks:
        seen |= {m | r for r in seen}
    return sorted(seen)


def tau_a_masks(n, auras):
    """Every scope-open set, as ascending masks: all unions of hulls."""
    return union_closure(hull_masks(n, auras))


def is_transitive(n, auras):
    for x in range(n):
        ax = auras[x]
        probe = ax
        while probe:
            low = probe & -probe
            if auras[low.bit_length() - 1] & ~ax:
                return False
            probe ^= low
    return True


def is_symmetric(n, auras):
    for x in range(n):
        probe = auras[x]
        while probe:
            low = probe & -probe
            if not (auras[low.bit_length() - 1] >> x) & 1:
                return False
            probe ^= low
    return True


def aura_closure_mask(n, auras, a):
    """Points whose scope meets ``a``."""
    out = 0
    bit = 1
    for x in range(n):
        if auras[x] & a:
            out |= bit
        bit <<= 1
    return out


def enumerate_preorders(n):
    """All reflexive transitive relations on n points, as row-mask tuples.

    Row x is the set {y : x R y}, i.e. the minimal open of x in the
    topology the preorder generates. Rows are assigned depth first in
    ascending mask order, so the output is lexicographically sorted.
    """
    if n == 0:
        return [()]
    full = (1 << n) - 1
    rows = [0] * n
    out = []

    def place(i):
        if i == n:
            out.append(tuple(rows))
            return
        bit = 1 << i
        for m in range(full + 1):
            if not m & bit:
                continue
            ok = True
            for j in range(i):
                rj = rows[j]
                if rj & bit and m & ~rj:
                    ok = False
                    break
                if m & (1 << j) and rj & ~m:
                    ok = False
                    break
            if ok:
                rows[i] = m
                place(i + 1)
        rows[i] = 0

    place(0)
    return out


def comparability_rows(hulls):
    """Row x is the mask of the points comparable with x: the members of
    hull(x) and the points whose hull contains x."""
    rows = list(hulls)
    for y, h in enumerate(hulls):
        bit = 1 << y
        while h:
            low = h & -h
            rows[low.bit_length() - 1] |= bit
            h ^= low
    return rows


def flood(rows, seed, carrier):
    """Points reachable from the ``seed`` bit by steps along ``rows`` that
    stay inside the carrier."""
    reached = frontier = seed
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        grown = rows[low.bit_length() - 1] & carrier & ~reached
        reached |= grown
        frontier |= grown
    return reached


def flood_blocks(rows, carrier):
    """Classes of the carrier, each the flood from the least point not yet
    placed, so they come out ordered by their smallest index."""
    blocks = []
    rest = carrier
    while rest:
        block = flood(rows, rest & -rest, carrier)
        blocks.append(block)
        rest &= ~block
    return blocks


def component_count(n, hulls):
    """Connected pieces of the comparability graph of the hulls.

    x and y are adjacent when one lies in the other's hull; classes of
    the induced reachability are exactly the components of the finite
    space whose minimal opens are the hulls. Each class is one bitmask
    flood of the comparability rows from the least point not yet placed,
    so the count is the number of floods it takes to place all n points.
    """
    return len(flood_blocks(comparability_rows(hulls), (1 << n) - 1))
