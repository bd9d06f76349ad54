"""Shared generators for the randomized suites."""

import random

from auratopo import (
    AuraSpace,
    PointUniverse,
    enumerate_auras,
    enumerate_topologies,
    generate_topology,
)

LABELS = "abcdefgh"


def rand_space(rng: random.Random, n: int) -> AuraSpace:
    """Random space: a generated topology plus a random scope choice."""
    universe = PointUniverse(list(LABELS[:n]))
    count = rng.randrange(0, n + 2)
    subbasis = [rng.randrange(0, 1 << n) for _ in range(count)]
    topology = generate_topology(universe, subbasis)
    opens = sorted(topology.mask_set)
    scopes = []
    for i in range(n):
        fiber = [m for m in opens if (m >> i) & 1]
        scopes.append(rng.choice(fiber))
    return AuraSpace(topology, scopes)


def all_small_spaces(max_n: int):
    for n in range(max_n + 1):
        for top in enumerate_topologies(n):
            yield from enumerate_auras(top)


def grid_and_random_spaces(seed: int, count: int):
    """Every space on up to three points, then ``count`` seeded random ones
    on one to six points."""
    yield from all_small_spaces(3)
    rng = random.Random(seed)
    for _ in range(count):
        yield rand_space(rng, rng.randrange(1, 7))
