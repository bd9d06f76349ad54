"""Comparability rows of a hull table and the bitmask floods over them.

x and y are comparable when one lies in the other's hull. Floods of
these rows inside a carrier give its components, which the pure Python
``component_count`` and every connectivity verdict count or list.
"""

from __future__ import annotations


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
