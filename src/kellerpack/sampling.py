"""Randomized generators for property sweeps.

Everything is driven by a caller-supplied random.Random so sweeps are
reproducible from a seed.  The family sampler draws and Keller-checks
plain factor tuples and builds Box objects only for the boxes it keeps.
"""

from __future__ import annotations

import random

from .boxes import BlockRef, Box, BoxFamily, Factor, keller_factors
from .partitions import (
    Partition,
    PartitionSystem,
    independent,
    make_partition,
    trivial_partition,
)

# Per axis: the indices of its nontrivial partitions and every partition's
# block count.
_DrawTable = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def random_partition(size: int, rng: random.Random) -> Partition:
    """Uniform-ish random nontrivial partition of 0..size-1."""
    randint, randrange = rng.randint, rng.randrange
    while True:
        n_blocks = randint(2, size)
        labels = [randrange(n_blocks) for _ in range(size)]
        used = set(labels)
        if len(used) < 2:
            continue
        blocks = [[e for e, l in enumerate(labels) if l == u] for u in used]
        return make_partition(size, blocks)


def random_system(rng: random.Random) -> PartitionSystem:
    """Random system of 1-3 axes of 2-6 elements, with up to 3 pairwise
    independent partitions per axis built by rejection: candidate partitions
    are kept only if independent of all earlier ones on the axis."""
    d = rng.randint(1, 3)
    sizes = [rng.randint(2, 6) for _ in range(d)]
    families = []
    for size in sizes:
        family: list[Partition] = []
        target = rng.randint(1, 3)
        attempts = 0
        while len(family) < target and attempts < 50:
            attempts += 1
            p = random_partition(size, rng)
            if p not in family and all(independent(p, other) for other in family):
                family.append(p)
        family.append(trivial_partition(size))
        families.append(tuple(family))
    return PartitionSystem(tuple(sizes), tuple(families))


def _draw_table(system: PartitionSystem) -> _DrawTable:
    return tuple(
        (system.nontrivial_indices(axis), tuple(p.n_blocks for p in family))
        for axis, family in enumerate(system.families)
    )


def _draw_factors(axes: _DrawTable, rng: random.Random) -> tuple[Factor, ...]:
    """One random box as normalized factors: per axis the full axis, with
    probability 0.15 or when the axis has no nontrivial partition, else a
    uniform block of a uniform nontrivial partition."""
    factors: list[Factor] = []
    for nontrivial, n_blocks in axes:
        if not nontrivial or rng.random() < 0.15:
            factors.append(None)
        else:
            p = rng.choice(nontrivial)
            factors.append(BlockRef(p, rng.randrange(n_blocks[p])))
    return tuple(factors)


def random_box(system: PartitionSystem, rng: random.Random) -> Box:
    return Box(system, _draw_factors(_draw_table(system), rng))


def random_keller_family(system: PartitionSystem, rng: random.Random) -> BoxFamily:
    """Greedy sampler: over 60 draws, keep each box that forms a Keller
    pair with everything kept so far, stopping at 6 boxes.  The first draw
    is always kept, so the family is never empty.

    A repeat of a kept box fails Keller's condition against it, so the
    check also drops duplicates.
    """
    axes = _draw_table(system)
    kept: list[tuple[Factor, ...]] = []
    for _ in range(60):
        if len(kept) >= 6:
            break
        factors = _draw_factors(axes, rng)
        if all(keller_factors(factors, other) for other in kept):
            kept.append(factors)
    return BoxFamily(system, tuple(Box(system, factors) for factors in kept))
