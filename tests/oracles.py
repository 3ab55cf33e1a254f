"""The tests' slow oracles, and test data that several test modules share.

Each oracle is a paper definition as written, point by point or object
by object, which the tests compare kellerpack's fast path against: the
point-scan cylinder test against BoxFamily's partition-status table,
Keller's condition on factor tuples against the block-bit AND, the
object-level symmetry action against census's index tables, and the
materialized hat union against suits_equivalent's counts.  No command
runs them, so they live here rather than in the package.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

import pytest

from kellerpack import (
    BoxFamily,
    PointSet,
    TorusSpec,
    TorusTiling,
    arc_system,
    to_box_family,
)
from kellerpack.boxes import Factor, row_major_strides
from kellerpack.hats import _hat_over


# --- point sets (boxes) -------------------------------------------------

def contains(P: PointSet, point: Sequence[int]) -> bool:
    idx = sum(x * s for x, s in zip(point, row_major_strides(P.sizes)))
    return bool(P.bits >> idx & 1)


def points(P: PointSet) -> Iterable[tuple[int, ...]]:
    for point in product(*(range(s) for s in P.sizes)):
        if contains(P, point):
            yield point


def is_cylinder(P: PointSet, axis: int) -> bool:
    """Point-scan test: every covered point's full axis line is covered.

    This is the slow oracle; classify_partition uses a shadow comparison as
    the fast path and the two are cross-checked in the test suite.
    """
    strides = row_major_strides(P.sizes)
    line = sum(1 << v * strides[axis] for v in range(P.sizes[axis]))
    # each axis line is `line` shifted by the index of its point with
    # coordinate 0 on `axis`
    offsets = product(*(
        range(0, 1 if i == axis else s * st, st)
        for i, (s, st) in enumerate(zip(P.sizes, strides))
    ))
    return all((P.bits >> sum(o) & line) in (0, line) for o in offsets)


# --- Keller's condition (boxes) -----------------------------------------

def keller_factors(a: Sequence[Factor], b: Sequence[Factor]) -> bool:
    """Keller's condition as written, on two normalized factor tuples of
    one system: the tests' oracle for keller_pair's block-bit AND."""
    for f, g in zip(a, b):
        if (
            f is not None
            and g is not None
            and f.partition == g.partition
            and f.block != g.block
        ):
            return True
    return False


# --- symmetry action (census) -------------------------------------------
# translate, permute_axes and reflect build one TorusTiling per group
# element; they are the reference census's _group tables are tested against.

def translate(t: TorusTiling, v: Iterable[int]) -> TorusTiling:
    sizes = t.spec.cell_sizes
    v = tuple(v)
    starts = tuple(
        tuple((x + dx) % size for x, dx, size in zip(s, v, sizes))
        for s in t.starts
    )
    return TorusTiling(t.spec, starts)


def permute_axes(t: TorusTiling, sigma: tuple[int, ...]) -> TorusTiling:
    # coordinate i of the image is coordinate sigma[i] of the source;
    # only valid when (m, q) agree on every swapped pair
    starts = tuple(tuple(s[sigma[i]] for i in range(len(sigma))) for s in t.starts)
    return TorusTiling(t.spec, starts)


def reflect(t: TorusTiling, axes: Iterable[int]) -> TorusTiling:
    """Reflect the offset circle on the given axes: a cube over cells
    [s, s+q) maps to one over [-s-q, -s)."""
    axes = set(axes)
    sizes = t.spec.cell_sizes
    qs = t.spec.q
    starts = tuple(
        tuple(
            (-x - qs[i]) % sizes[i] if i in axes else x
            for i, x in enumerate(s)
        )
        for s in t.starts
    )
    return TorusTiling(t.spec, starts)


# --- hat unions (hats) --------------------------------------------------

def _union_materialized(
    G: BoxFamily, coords: Sequence[tuple[int, int]]
) -> set[tuple[int, ...]]:
    """The union of G's hats over `coords`, point by point: the tests'
    oracle for the counts of suits_equivalent."""
    out: set[tuple[int, ...]] = set()
    for K in G.boxes:
        out.update(product(*_hat_over(K, coords)))
    return out


# --- shared test data ---------------------------------------------------

@pytest.fixture(scope="module")
def sys222():
    return arc_system(2, 2, 2)


def laminated_family():
    spec = TorusSpec((2, 2), (2, 2))
    t = TorusTiling(spec, ((0, 0), (0, 2), (2, 1), (2, 3)))
    return to_box_family(t)


def grid_family():
    spec = TorusSpec((2, 2), (2, 2))
    t = TorusTiling(spec, ((0, 0), (0, 2), (2, 0), (2, 2)))
    return to_box_family(t)
