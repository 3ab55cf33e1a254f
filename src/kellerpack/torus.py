"""Exact-rational unit-cube tilings of discrete tori.

A torus with sides m_1..m_d is discretized at per-axis offset resolution
q_i: axis-i coordinates are integers in 0..m_i*q_i-1 standing for the
rational j/q_i, so a unit cube occupies q_i consecutive cells per axis,
cyclically.  All arithmetic is integer; no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from operator import mul
from typing import Optional, Sequence

from .boxes import BlockRef, Box, BoxFamily, CStats, extend_mask, row_major_strides
from .errors import (
    InvalidTilingError,
    NonUniformTorusError,
    RecipeError,
    TheoremViolationError,
)
from .multipiles import SharedMemo, extremal_p_value, require_theorem_b
from .partitions import PartitionSystem, arc_system_mixed, lazy


@dataclass(frozen=True)
class TorusSpec:
    m: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.m) != len(self.q):
            raise ValueError("m and q must have the same dimension")
        if not self.m:
            raise ValueError("need at least one axis")
        if any(v < 2 for v in self.m) or any(v < 1 for v in self.q):
            raise ValueError("need sides m_i >= 2 and resolutions q_i >= 1")

    @property
    def dimension(self) -> int:
        return len(self.m)

    @lazy
    def cell_sizes(self) -> tuple[int, ...]:
        return tuple(m * q for m, q in zip(self.m, self.q))

    @property
    def n_cells(self) -> int:
        return prod(self.cell_sizes)

    @property
    def n_cubes(self) -> int:
        return prod(self.m)

    def is_uniform(self) -> bool:
        return len(set(self.m)) == 1


@dataclass(frozen=True, slots=True)
class TorusTiling:
    spec: TorusSpec
    starts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted(map(tuple, self.starts)))
        if canon != self.starts:
            object.__setattr__(self, "starts", canon)
        sizes = self.spec.cell_sizes
        for s in canon:
            if len(s) != len(sizes):
                raise InvalidTilingError("start has wrong dimension")
            if any(not 0 <= v < size for v, size in zip(s, sizes)):
                raise InvalidTilingError(f"start {s} outside the torus grid")


def cube_cells(spec: TorusSpec, start: Sequence[int]):
    """Cells covered by the unit cube at `start`, as coordinate tuples."""
    ranges = [
        [(s + r) % size for r in range(q)]
        for s, q, size in zip(start, spec.q, spec.cell_sizes)
    ]
    return product(*ranges)


def find_defect(t: TorusTiling) -> Optional[tuple[int, ...]]:
    """A cell covered != once, or None for a valid tiling."""
    counts: dict[tuple[int, ...], int] = {}
    for s in t.starts:
        for cell in cube_cells(t.spec, s):
            counts[cell] = counts.get(cell, 0) + 1
            if counts[cell] > 1:
                return cell
    for cell in product(*(range(s) for s in t.spec.cell_sizes)):
        if cell not in counts:
            return cell
    return None


def cube_mask(spec: TorusSpec, start: Sequence[int]) -> int:
    """Bit mask, row-major over the cells, of the unit cube at `start`: the
    product of its cyclic arcs; cube_cells is the cell-by-cell oracle."""
    mask = 1
    for x, n, q in zip(start, spec.cell_sizes, spec.q):
        arc = ((1 << q) - 1) << x
        mask = extend_mask(mask, (arc | arc >> n) & ((1 << n) - 1), n)
    return mask


def validate_tiling(t: TorusTiling) -> bool:
    """One start per cube, and cube masks that cover every cell without
    overlap.  find_defect is the cell-by-cell oracle that names a defect."""
    spec = t.spec
    if len(t.starts) != spec.n_cubes:
        return False
    cover = 0
    for s in t.starts:
        bits = cube_mask(spec, s)
        if cover & bits:
            return False
        cover |= bits
    return cover == (1 << spec.n_cells) - 1


def require_valid(t: TorusTiling) -> None:
    if not validate_tiling(t):
        raise InvalidTilingError(f"not a tiling; defect at {find_defect(t)}")


@dataclass(frozen=True)
class PParams:
    per_axis: tuple[frozenset[int], ...]
    total: int


def p_params(t: TorusTiling) -> PParams:
    """Per-axis sets of fractional offset classes (start mod q_i)."""
    require_valid(t)
    return _p_params(t)


def _p_params(t: TorusTiling) -> PParams:
    """p_params of a tiling already validated."""
    per_axis = tuple(
        frozenset(s[i] % t.spec.q[i] for s in t.starts)
        for i in range(t.spec.dimension)
    )
    return PParams(per_axis, sum(len(v) for v in per_axis))


@lru_cache(maxsize=16)
def tiling_system(spec: TorusSpec) -> PartitionSystem:
    """The discretized unit-segment system bridging tilings to box
    families, built once per spec.  Building one drops the cached start
    Boxes: a spec this cache evicted and now builds again would otherwise
    get a new system beside Boxes of its old one."""
    _start_box.cache_clear()
    return arc_system_mixed(spec.m, spec.q)


def to_box_family(t: TorusTiling) -> BoxFamily:
    """Map each cube to the box of arcs containing it.

    The cube at start s occupies, on axis i, the arc of partition
    pi_{s_i mod q_i} that starts at cell s_i.  Every family of one spec
    shares the system tiling_system(t.spec), and each start's Box.  A
    valid tiling always maps to a Keller family.
    """
    require_valid(t)
    return _box_family(t)


def _box_family(t: TorusTiling) -> BoxFamily:
    """to_box_family of a tiling already validated."""
    spec = t.spec
    return BoxFamily(tiling_system(spec), tuple(_start_box(spec, s) for s in t.starts))


@lru_cache(maxsize=16_384)
def _start_box(spec: TorusSpec, start: tuple[int, ...]) -> Box:
    """The Box of the cube at `start`: on each axis, the block of partition
    v mod q that holds the start's coordinate v.  The cache holds 16 specs
    of 1,024 cells, so that the tilings of a spec share their starts'
    Boxes, and with them the Boxes' shadow rows."""
    system = tiling_system(spec)
    return Box(system, tuple(
        BlockRef(v % q, system.partition(axis, v % q).block_containing(v))
        for axis, (v, q) in enumerate(zip(start, spec.q))
    ))


def require_bound(
    t: TorusTiling, name, trees: Optional[dict] = None
) -> tuple[PParams, CStats, bool]:
    """p(T), the c statistics of T's box family G and G's multipile
    verdict, after checking the bound that Theorem B gives T, on any sides.

    require_theorem_b checks c(G) <= |G| - 1, with equality iff G is a
    multipile.  Every partition G uses is hidden, so the bridge
    c_i(G) = (m_i - 1)|p_i(T)| holds on each axis i; it is checked too.
    With |G| = m_1...m_d, Theorem B then reads
    sum_i (m_i - 1)|p_i(T)| <= m_1...m_d - 1 with the same equality case,
    and for equal sides n this is Theorem C, p(T) <= (n^d - 1)/(n - 1).
    A violation raises TheoremViolationError naming `name`.  T is
    validated once, as p_params would validate it.

    `trees` is a census's recognizer memo over the tilings of T's spec:
    it maps a set of starts, as the OR of 1 << i over their row-major
    indices i, to the witness tree of their boxes, or to None.  G's boxes
    follow T's sorted starts, so a SharedMemo over it is sound.
    """
    require_valid(t)
    params = _p_params(t)
    memo = None
    if trees is not None:
        strides = row_major_strides(t.spec.cell_sizes)
        memo = SharedMemo(trees, [1 << sum(map(mul, s, strides)) for s in t.starts])
    stats, multipile = require_theorem_b(_box_family(t), name, memo)
    weighted = tuple((m - 1) * len(v) for m, v in zip(t.spec.m, params.per_axis))
    if stats.c_per_axis != weighted:
        raise TheoremViolationError(
            f"c_i(G) = {stats.c_per_axis} differs from (m_i - 1)|p_i(T)| = "
            f"{weighted} on {name}"
        )
    return params, stats, multipile


@dataclass(frozen=True)
class TheoremCReport:
    p_total: int
    bound: int
    holds: bool
    equality: bool
    is_multipile: bool


def theorem_c_report(t: TorusTiling) -> TheoremCReport:
    """p(T) against (n^d - 1)/(n - 1) for a uniform torus, with the
    equality case cross-checked against the multipile recognizer.  With
    equal sides the bound is the lamination value 1 + n + ... + n^(d-1).
    The check is require_bound's: a tiling above the bound, or one whose
    equality case the recognizer refuses, raises TheoremViolationError,
    so a returned report always holds."""
    if not t.spec.is_uniform():
        raise NonUniformTorusError(
            "the bound is proved for uniform side lengths only; "
            "use the census's conjectural reporting for mixed sides"
        )
    bound = extremal_p_value(t.spec.m, range(t.spec.dimension))
    params, _, multipile = require_bound(t, t.starts)
    return TheoremCReport(
        p_total=params.total,
        bound=bound,
        holds=params.total <= bound,
        equality=params.total == bound,
        is_multipile=multipile,
    )


Recipe = Sequence[tuple[int, Sequence[int]]]


def laminated_construction(spec: TorusSpec, recipe: Recipe) -> TorusTiling:
    """Build an extremal laminated tiling from a per-level recipe.

    recipe[k] = (axis, offsets): level 0 splits the torus into unit slabs
    along its axis at a single fractional offset; level k assigns one
    offset to each of the m_{i_1}*...*m_{i_k} slabs produced so far, in
    lexicographic slab order.  Offsets are integers in 0..q_axis-1.
    Extremality needs all offsets of a level to be pairwise distinct;
    a collision raises RecipeError.
    """
    d = spec.dimension
    if sorted(axis for axis, _ in recipe) != list(range(d)):
        raise RecipeError("recipe must use each axis exactly once")
    expected = 1
    for axis, offsets in recipe:
        if len(offsets) != expected:
            raise RecipeError(
                f"level for axis {axis} needs {expected} offsets, "
                f"got {len(offsets)}"
            )
        if any(not 0 <= o < spec.q[axis] for o in offsets):
            raise RecipeError("offset outside 0..q-1")
        if len(set(offsets)) != len(offsets):
            raise RecipeError("sibling slabs reuse an offset")
        expected *= spec.m[axis]

    # Walk the slab tree: each path of per-level slab indices is one cube.
    starts = []
    for path in product(*(range(spec.m[axis]) for axis, _ in recipe)):
        start = [0] * d
        slab_index = 0
        for level, (axis, offsets) in enumerate(recipe):
            offset = offsets[slab_index]
            start[axis] = (offset + path[level] * spec.q[axis]) % (
                spec.m[axis] * spec.q[axis]
            )
            slab_index = slab_index * spec.m[axis] + path[level]
        starts.append(tuple(start))
    t = TorusTiling(spec, tuple(starts))
    require_valid(t)
    return t


def extremal_recipe(spec: TorusSpec, ordering: Sequence[int]) -> Recipe:
    """A canonical extremal recipe for the given axis ordering: level k
    uses offsets 0,1,...  Requires q on the level-k axis to admit enough
    distinct offsets."""
    recipe = []
    width = 1
    for axis in ordering:
        if spec.q[axis] < width:
            raise RecipeError(
                f"resolution q={spec.q[axis]} on axis {axis} cannot host "
                f"{width} distinct offsets"
            )
        recipe.append((axis, list(range(width))))
        width *= spec.m[axis]
    return recipe
