"""Exhaustive box and Keller-family generators shared by the tests."""

from itertools import product

from kellerpack import BlockRef, Box, BoxFamily, keller_pair


def all_boxes(system):
    choices = [
        [None]
        + [
            BlockRef(p, b)
            for p in system.nontrivial_indices(axis)
            for b in range(system.partition(axis, p).n_blocks)
        ]
        for axis in range(system.dimension)
    ]
    return [Box(system, factors) for factors in product(*choices)]


def keller_families(system):
    """Every Keller family of `system`, each once: the nonempty cliques of
    the Keller-pair graph on all of its boxes."""
    boxes = all_boxes(system)
    adj = [
        sum(1 << j for j, L in enumerate(boxes) if keller_pair(K, L)) for K in boxes
    ]

    def grow(clique, cand):
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            yield clique + (boxes[v],)
            yield from grow(clique + (boxes[v],), cand & adj[v])

    return [BoxFamily(system, clique) for clique in grow((), (1 << len(boxes)) - 1)]
