"""Randomized generators for property sweeps, reproducible from a seeded
random.Random.  Draws are rng.random() and rng.getrandbits in the step
CPython's randrange(n) runs (_below), so the stream is still that of
randint, choice and randrange; random_system's few sizes and counts call
randrange.  A box is drawn from a table of the system's block bits
(block_bits), and Keller pairs are tested on them as boxes.py tests them."""

import random

from .boxes import Box, BoxFamily
from .partitions import Partition, PartitionSystem, independent, trivial_partition


def _below(getrandbits, n: int, k: int) -> int:
    """randrange(n) for n >= 1: k = n.bit_length() bits, redrawn until below
    n, as CPython 3.10-3.13 run it; n = 1 still draws until a 0 bit."""
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_partition(size: int, rng: random.Random) -> Partition:
    """Uniform-ish random nontrivial partition of 0..size-1."""
    getrandbits, k = rng.getrandbits, (size - 1).bit_length()
    while True:
        n_blocks = 2 + _below(getrandbits, size - 1, k)
        masks, kb = {}, n_blocks.bit_length()
        for e in range(size):
            label = _below(getrandbits, n_blocks, kb)
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
    """Per axis (n, k, parts) over its nontrivial partitions, and per
    partition (n, k, blocks) over its (factor, bit, clash) entries: the
    system's block numbering, each length n beside its bit_length k."""
    def sized(items: tuple) -> tuple:
        return len(items), len(items).bit_length(), items

    return tuple(
        sized(tuple(sized(blocks) for blocks in parts if blocks))
        for parts in system.block_bits
    )


def _draw_factors(table: tuple, random, getrandbits) -> tuple:
    """A random box's picked factors (a list), sel and clash: per axis the
    full axis (p=0.15, or if none is nontrivial), else a uniform block of
    a uniform partition."""
    picks, sel, clash = [], 0, 0
    for n, k, parts in table:
        f = None
        if n and random() >= 0.15:
            n, k, blocks = parts[_below(getrandbits, n, k)]
            f, bit, others = blocks[_below(getrandbits, n, k)]
            sel |= bit
            clash |= others
        picks.append(f)
    return picks, sel, clash


def random_keller_family(system: PartitionSystem, rng: random.Random) -> BoxFamily:
    """Greedy sampler: over 60 draws, keep each box that forms a Keller
    pair with all kept so far, up to 6.  A draw ORs its blocks' bits into
    sel and their partitions' other blocks' bits into clash, and pairs with
    a kept box iff its clash meets that box's sel; a repeat never does.
    Only a kept draw becomes a Box.  The draws are rng.random() and
    getrandbits in randrange's step, so the stream is randrange's."""
    table, boxes, sels = _draw_table(system), [], []
    random, getrandbits = rng.random, rng.getrandbits
    for _ in range(60):
        if len(sels) >= 6:
            break
        picks, sel, clash = _draw_factors(table, random, getrandbits)
        for other in sels:
            if not clash & other:
                break
        else:
            boxes.append(Box(system, tuple(picks)))
            sels.append(sel)
    return BoxFamily(system, tuple(boxes))
