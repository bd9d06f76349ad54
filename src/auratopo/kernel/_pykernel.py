"""The kernel: bitmask primitives behind every hot loop.

All functions speak plain ints. A subset of an n-point universe is the
mask with bit i set for the i-th point; a scope assignment is a list of
n masks, one per point, with bit i set in entry i.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ..errors import UniverseTooLarge

BACKEND = "python"

# The most sets a union closure may hold: the 2**20 subsets of a 20-point
# universe, the scale of ``genopen.FAMILY_SCAN_LIMIT``. Every family the
# package builds by closure (topologies, box families, τ_a listings) stays
# far below it; past it the closure raises instead of exhausting memory.
MAX_FAMILY = 1 << 20


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


def packed_hulls(n, rows, lsb):
    """``hull_masks`` of many n-point reflexive relations at once.

    The relations sit side by side in lanes of n bits: lane j of
    ``rows[i]`` (bits j*n .. j*n + n - 1) is the scope of point i in
    relation j, and ``lsb`` has bit j*n set for every lane j. Returns the
    rows with lane j of row i the hull of point i in relation j.

    This is Warshall's closure with one relation per lane. Pivot k does
    ``rows[i] |= rows[k] & sel`` for every i, where
    ``sel = ((rows[i] >> k) & lsb) * (2**n - 1)``.

    The OR stays inside its lanes. Since k < n, bit j*n of
    ``(rows[i] >> k) & lsb`` is bit j*n + k of row i, the flag "point k
    is in row i of lane j", and every other bit is 0. Multiplying by
    2**n - 1 turns each set flag into n ones at bits j*n .. j*n + n - 1.
    Those ranges are disjoint, so nothing carries and ``sel`` is all ones
    on exactly the lanes where row i holds k. Then ``rows[k] & sel`` is
    row k of those lanes and zero elsewhere, and the OR adds to lane j
    of row i only lane j of row k.

    The result is each lane's hull. Say, per lane, that a path from i to y
    is a sequence of steps each from a point to a member of its scope,
    and that its intermediates are the points strictly between its ends.
    Invariant: after pivot k, row i holds exactly the y that i reaches by
    a path whose intermediates are all <= k. Before pivot 0 that is the
    scope of i (paths of one step). Pivot k leaves row k as it is, since
    ``rows[k] & sel`` lies inside row k, so every row i is joined with row
    k as it stood after pivot k - 1. A shortest path whose intermediates
    are <= k passes k at most once; if it does, its parts before and
    after k have intermediates < k, so k was in row i and y in row k, and
    pivot k adds y to row i. Conversely, each y it adds joins a path from
    i to k and one from k to y, both with intermediates < k, into a path
    with intermediates <= k. After pivot n - 1 every path is allowed, so
    row i is the set reached from i in one or more steps: the least set
    that holds scope(i) and the scope of each of its members, which is
    how ``hull_masks`` defines hull(i).
    """
    rows = list(rows)
    spread = (1 << n) - 1
    for k in range(n):
        pivot = rows[k]
        for i in range(n):
            rows[i] |= pivot & (((rows[i] >> k) & lsb) * spread)
    return rows


def union_closure(masks):
    """All unions of sub-collections of ``masks``, the empty union included.

    Returns ascending ints. Output-sensitive: never scans 2**n subsets
    of the universe, only grows the closure itself. Raises
    ``UniverseTooLarge`` once the closure holds more than ``MAX_FAMILY``
    sets; one mask at most doubles it, so it never holds more than twice
    that.
    """
    seen = {0}
    for m in masks:
        seen |= {m | r for r in seen}
        if len(seen) > MAX_FAMILY:
            raise UniverseTooLarge(f"a union closure exceeds the {MAX_FAMILY} set budget")
    return sorted(seen)


def tau_a_masks(hulls):
    """Every scope-open set, as ascending masks: all unions of the hulls.

    A union of scope-open sets is scope-open, so each union of hulls is.
    Conversely a scope-open U holds hull(x) for each of its points x, since
    hull(x) is the least scope-open set around x, so U is the union of those
    hulls. The hulls come from ``hull_masks``.
    """
    return union_closure(hulls)


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


@lru_cache(maxsize=None)
def relabelings(n):
    """Every permutation σ of the n labels, as ``(source, table)`` pairs.

    ``source[y]`` is the label that σ sends to y, and ``table[m]`` is the
    image σ(m) of each mask m < 2**n. A scope tuple ``a`` relabelled by σ,
    the tuple whose entry σ(x) is σ(a[x]), is therefore
    ``tuple(table[a[x]] for x in source)``. The identity comes first. The
    n! pairs are computed once per size.
    """
    out = []
    for sigma in itertools.permutations(range(n)):
        source = [0] * n
        for x, y in enumerate(sigma):
            source[y] = x
        table = [0]
        for i in range(n):
            image = 1 << sigma[i]
            table += [m | image for m in table]
        out.append((tuple(source), tuple(table)))
    return tuple(out)


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


def component_count(rows):
    """Connected pieces of the comparability graph whose rows are given.

    The rows come from ``comparability_rows(hulls)``: x and y are adjacent
    when one lies in the other's hull, and the classes of the induced
    reachability are exactly the components of the finite space whose
    minimal opens are the hulls. Each class is one bitmask flood from the
    least point not yet placed, so the count is the number of floods it
    takes to place all ``len(rows)`` points.
    """
    return len(flood_blocks(rows, (1 << len(rows)) - 1))
