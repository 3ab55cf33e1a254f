"""Symbolic hat embedding of boxes.

Each box maps to a product over the nontrivial partitions of the system:
the coordinate of the partition containing a proper factor is pinned to
that block, every other coordinate is free.  Disjointness of hats mirrors
Keller's condition and suit equality becomes plain union equality, which
makes counting arguments available.  The ambient product Y is never
materialized: measures and union sizes are computed combinatorially.
verify_box_count reads the implied family size from the block counts of
each axis's nontrivial partitions in the system's block list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Optional, Sequence

from .boxes import (
    Box,
    BoxFamily,
    is_keller_family,
    partition_defect,
    require_keller,
)
from .errors import (
    NotPartitionError,
    PreconditionError,
    SystemMismatchError,
)


def hat_measure(K: Box) -> Fraction:
    """|hat(K)| / |Y| exactly: one factor 1/|rho| per pinned partition."""
    m = Fraction(1)
    for axis, f in enumerate(K.factors):
        if f is not None:
            m /= K.system.partition(axis, f.partition).n_blocks
    return m


def _pinned_coordinates(boxes: Iterable[Box]) -> list[tuple[int, int]]:
    coords = set()
    for K in boxes:
        for axis, f in enumerate(K.factors):
            if f is not None:
                coords.add((axis, f.partition))
    return sorted(coords)


def _hat_over(
    K: Box, coords: Sequence[tuple[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """The hat of K restricted to the given (axis, partition) coordinates,
    as per-coordinate allowed block tuples."""
    out = []
    for axis, p in coords:
        f = K.factors[axis]
        if f is not None and f.partition == p:
            out.append((f.block,))
        else:
            out.append(tuple(range(K.system.partition(axis, p).n_blocks)))
    return tuple(out)


def _meet_size(a, b) -> int:
    """Size of the intersection of two restricted hats: the product over
    the coordinates of the sizes of their allowed-block intersections."""
    v = 1
    for ca, cb in zip(a, b):
        v *= len(set(ca) & set(cb))
        if v == 0:
            break
    return v


def hats_disjoint(K: Box, L: Box) -> bool:
    """Whether the hats of two boxes are disjoint, counted in the product
    over the coordinates either box pins.

    This is computed independently of keller_pair, which it must match."""
    if K.system != L.system:
        raise SystemMismatchError("boxes from different systems")
    coords = _pinned_coordinates((K, L))
    return _meet_size(_hat_over(K, coords), _hat_over(L, coords)) == 0


def _union_size_counting(
    G1: BoxFamily, G2: BoxFamily, coords: Sequence[tuple[int, int]]
) -> tuple[int, int, int]:
    """(|U1|, |U2|, |U1 union U2|) over the restricted product.

    Within a Keller family hats are pairwise disjoint, so each union size
    is a plain sum and the cross term is a sum of pairwise box-hat
    intersection sizes."""
    h1 = [_hat_over(K, coords) for K in G1.boxes]
    h2 = [_hat_over(K, coords) for K in G2.boxes]
    u1 = sum(prod(map(len, h)) for h in h1)
    u2 = sum(prod(map(len, h)) for h in h2)
    cross = sum(_meet_size(a, b) for a in h1 for b in h2)
    return u1, u2, u1 + u2 - cross


def suits_equivalent(G1: BoxFamily, G2: BoxFamily) -> bool:
    """Whether the hat images of two Keller families have equal unions.

    Unreferenced coordinates are free in every hat involved, so the
    comparison over the pinned coordinates alone is lossless.  The unions
    are equal iff |U1| = |U2| = |U1 union U2|.  Hats within a Keller family
    are disjoint, so each size is an exact sum of hat and pairwise meet
    sizes and no point is materialized; _union_materialized in
    tests/oracles.py is the oracle.
    """
    if G1.system != G2.system:
        raise SystemMismatchError("families from different systems")
    require_keller(G1)
    require_keller(G2)
    coords = _pinned_coordinates(G1.boxes + G2.boxes)
    u1, u2, u = _union_size_counting(G1, G2, coords)
    return u1 == u2 == u


@dataclass(frozen=True)
class BoxCountReport:
    measure_sum: Fraction
    implied_size: Optional[int]
    holds: bool


def verify_box_count(G: BoxFamily) -> BoxCountReport:
    """Counting identity for Keller partitions of X into proper boxes.

    The hat measures of a partition sum to exactly 1.  When every axis has
    a uniform nontrivial-partition cardinality n_i, every proper box has
    measure 1/(n_1...n_d), so the family size is forced to n_1...n_d;
    with mixed cardinalities only the measure sum is asserted.
    """
    require_keller(G)
    if not all(K.is_proper for K in G.boxes):
        raise NotPartitionError("all boxes must be proper")
    if partition_defect(G) is not None:
        raise NotPartitionError("family is not a partition of X")
    measure_sum = sum((hat_measure(K) for K in G.boxes), Fraction(0))
    # per axis, the block counts of its nontrivial partitions
    counts = [{len(bs) for bs in parts if bs} for parts in G.system.block_bits]
    implied = prod(n for (n,) in counts) if all(len(c) == 1 for c in counts) else None
    holds = measure_sum == 1 and (implied is None or len(G) == implied)
    return BoxCountReport(measure_sum, implied, holds)


def suit_swap_check(
    Gs: Sequence[BoxFamily], Hs: Sequence[BoxFamily]
) -> bool:
    """Swap each suit in a union for an equivalent one and confirm the
    union stays a suit for the same polybox.  Must always return True when
    the preconditions hold; PreconditionError otherwise."""
    if len(Gs) != len(Hs) or not Gs:
        raise PreconditionError("need matching nonempty sequences of families")
    system = Gs[0].system
    for G, H in zip(Gs, Hs):
        if G.system != system or H.system != system:
            raise PreconditionError("all families must share one system")
        if not suits_equivalent(G, H):
            raise PreconditionError("paired families are not equivalent suits")
    union_g = _union_family(Gs)
    union_h = _union_family(Hs)
    if not is_keller_family(union_g):
        raise PreconditionError("the union of the first sequence is not Keller")
    return is_keller_family(union_h) and suits_equivalent(union_g, union_h)


def _union_family(families: Sequence[BoxFamily]) -> BoxFamily:
    boxes: list[Box] = []
    for G in families:
        boxes.extend(G.boxes)
    if len(set(boxes)) != len(boxes):
        raise PreconditionError("families in a union must be pairwise disjoint")
    return BoxFamily(families[0].system, tuple(boxes))
