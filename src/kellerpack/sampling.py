"""Randomized generators for property sweeps, reproducible from a seeded
random.Random.  Draws call only rng.random and rng.randrange: CPython's
randint(a, b) and choice(s) make the same _randbelow calls as
a + randrange(b - a + 1) and s[randrange(len(s))], so the stream is theirs.
A box is drawn from a table of the system's block bits (block_bits), and
Keller pairs are tested on them as boxes.py tests them."""

import random

from .boxes import Box, BoxFamily
from .partitions import Partition, PartitionSystem, independent, trivial_partition


def random_partition(size: int, rng: random.Random) -> Partition:
    """Uniform-ish random nontrivial partition of 0..size-1."""
    randrange = rng.randrange
    while True:
        n_blocks = 2 + randrange(size - 1)
        masks = {}
        for e in range(size):
            label = randrange(n_blocks)
            masks[label] = masks.get(label, 0) | 1 << e
        # Labels are met in element order, so these disjoint covering masks
        # come sorted by lowest element: make_partition's result.
        if len(masks) > 1:
            return Partition(size, tuple(masks.values()))


def random_system(rng: random.Random) -> PartitionSystem:
    """Random system of 1-3 axes of 2-6 elements, each with up to 3
    pairwise independent partitions, by rejection in 50 tries."""
    randrange = rng.randrange
    sizes = [2 + randrange(5) for _ in range(1 + randrange(3))]
    families = []
    for size in sizes:
        family: list[Partition] = []
        target = 1 + randrange(3)
        attempts = 0
        while len(family) < target and attempts < 50:
            attempts += 1
            p = random_partition(size, rng)
            if p not in family and all(independent(p, other) for other in family):
                family.append(p)
        family.append(trivial_partition(size))
        families.append(tuple(family))
    return PartitionSystem(tuple(sizes), tuple(families))


def _draw_table(system: PartitionSystem) -> tuple:
    """Per axis, per nontrivial partition, per block: (factor, bit, clash),
    the system's block numbering without its trivial partitions."""
    return tuple(tuple(filter(None, parts)) for parts in system.block_bits)


def _draw_factors(table: tuple, rng: random.Random) -> tuple:
    """A random box's factors, sel and clash: per axis the full axis (p=0.15,
    or if none is nontrivial), else a uniform block of a uniform partition."""
    random, randrange = rng.random, rng.randrange
    factors, sel, clash = [], 0, 0
    for parts in table:
        f = None
        if parts and random() >= 0.15:
            blocks = parts[randrange(len(parts))]
            f, bit, others = blocks[randrange(len(blocks))]
            sel |= bit
            clash |= others
        factors.append(f)
    return tuple(factors), sel, clash


def random_keller_family(system: PartitionSystem, rng: random.Random) -> BoxFamily:
    """Greedy sampler: over 60 draws, keep each box that forms a Keller
    pair with all kept so far, up to 6.  A draw ORs its blocks' bits into
    sel and their partitions' other blocks' bits into clash, and pairs with
    a kept box iff its clash meets that box's sel; a repeat never does."""
    table, boxes, sels = _draw_table(system), [], []
    for _ in range(60):
        if len(sels) >= 6:
            break
        factors, sel, clash = _draw_factors(table, rng)
        if all(clash & other for other in sels):
            boxes.append(Box(system, factors))
            sels.append(sel)
    return BoxFamily(system, tuple(boxes))
