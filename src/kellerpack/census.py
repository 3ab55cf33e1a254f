"""Exhaustive, symmetry-reduced enumeration of cube tilings and censuses.

The search is an exact-cover backtracker over the cell grid: always place
a cube covering the lexicographically least uncovered cell.  Cover state
is one big int; placements are precomputed masks under their lowest cell, so
the inner loop is a bit test.  The search runs over start indices, the
row-major numbers of the starts, and forces the last cube: with one cube
left the uncovered cells must be its cells, so it is one dict lookup by
mask rather than a branch.  The lower half of the search is memoized on
the cover mask, in a dict that lives for one call.  The mask is a sound
key: the completions of a cover, and the order the walk finds them in,
depend only on which cells it covers.  The memo is read at half the
cubes placed, which balances the upper walk, shared by nothing, against
the stored suffixes, which grow as the split moves up.  The search
yields the same tuples in the same order as without it.

Symmetry reduction (translations, axis permutations among equal axes,
per-axis reflections) marks orbits: with
translations enabled the search is restricted to tilings containing the
cube at the origin, which meets every translation orbit, and the first
raw tiling found of an orbit marks every image of it the search can
reach and keeps their least as the orbit's representative; later raw
tilings of a marked orbit are skipped without acting on them.  _tiling
builds every result tiling from its index tuple, with no check.

The symmetry group acts on start indices, not on tiling objects.  Starts
are numbered in row-major order, which is their lexicographic order, so
the least sorted index tuple over an orbit names the least sorted start
tuple.  Per (spec, enabled symmetries) one cached table set holds each
(axis permutation, reflection) element as an image table over the start
indices, recentred to fix the origin when translations are enabled, and
translation by -o as per-axis rows
shift[a][o_a][x_a] = ((x_a - o_a) mod n_a) * stride_a summed over the
axes; a full start-by-start translation table would grow with the square
of the cell count.  A tiling is translated once to each of its own
starts, and every image the orbit walk needs is a table lookup
(_origin_images).  The tests check the tables against the object-level
translate, permute_axes and reflect of tests/oracles.py.

A census folds one pass over the canonical tilings, the same for uniform
and mixed sides: each tiling is checked against the bound Theorem B
gives it on any sides, sum_i (m_i - 1)|p_i(T)| <= m_1...m_d - 1 with
equality iff T is a multipile, and p(T) and the multipile verdict are
counted against the lamination value of the descending side ordering,
which for equal sides is the proved bound (n^d - 1)/(n - 1).  The
tilings of a spec share their starts' boxes, and so their sub-families:
one recognizer memo per census, keyed by a sub-family's start indices,
decides each sub-family once for every tiling that holds it, while
every tiling still goes through the whole check.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .boxes import row_major_strides
from .errors import BudgetExceededError
from .multipiles import MultipileTree, extremal_p_value
from .torus import (
    TorusSpec,
    TorusTiling,
    cube_mask,
    require_bound,
    require_valid,
)

ALL_SYMMETRIES = frozenset({"translate", "permute", "reflect"})
DEFAULT_CELL_BUDGET = 1024

_new_object = object.__new__
_set_spec = TorusTiling.spec.__set__
_set_starts = TorusTiling.starts.__set__


def default_cell_budget() -> int:
    """The CLI's default budget: KELLERPACK_CELL_BUDGET if set."""
    env = os.environ.get("KELLERPACK_CELL_BUDGET")
    budget = int(env) if env else DEFAULT_CELL_BUDGET
    if budget < 1:
        raise ValueError(f"KELLERPACK_CELL_BUDGET must be at least 1, got {budget}")
    return budget


# --- symmetry action ----------------------------------------------------
# the tables below act on start indices; tests/oracles.py holds the
# object-level translate, permute_axes and reflect they are tested against.

def _axis_permutations(spec: TorusSpec) -> list[tuple[int, ...]]:
    keys = list(zip(spec.m, spec.q))
    return [
        sigma
        for sigma in permutations(range(spec.dimension))
        if all(keys[sigma[i]] == keys[i] for i in range(spec.dimension))
    ]


@lru_cache(maxsize=16)
def _group(spec: TorusSpec, permute: bool, reflections: bool, translate: bool):
    """Index tables for the symmetry group of `spec`.

    Returns (tables, shifts):
    - tables holds one table per (axis permutation, reflection) element
      g, tables[g][i] being the index of g(x) for the start x with index
      i; with translations enabled, of g(x) - g(0), the image recentred
      so that the origin is fixed;
    - shifts[a][o][x] = ((x - o) mod n_a) * stride_a, so a start x
      translated by -o has index sum_a shifts[a][o_a][x_a].

    Each table is the row-major sum of d rows, one per source axis
    sigma[a]: row[x] = (f(x) - f(0)) mod n_a * stride_a for f the plain
    or reflected coordinate, with f(0) taken as 0 without translations.
    """
    d = spec.dimension
    sizes = spec.cell_sizes
    strides = row_major_strides(sizes)
    perms = _axis_permutations(spec) if permute else [tuple(range(d))]
    flips = list(product((False, True), repeat=d)) if reflections else [(False,) * d]
    tables = []
    for sigma in perms:
        for flip in flips:
            rows = [()] * d
            for a in range(d):
                n, q, st = sizes[a], spec.q[a], strides[a]
                xs = [(-x - q) % n for x in range(n)] if flip[a] else range(n)
                x0 = xs[0] if translate else 0
                rows[sigma[a]] = [(x - x0) % n * st for x in xs]
            table = [0]
            for row in rows:
                table = [t + r for t in table for r in row]
            tables.append(tuple(table))
    shifts = tuple(
        tuple(tuple(((x - o) % n) * st for x in range(n)) for o in range(n))
        for n, st in zip(sizes, strides)
    )
    return tables, shifts


def _translated(cols, shifts, origin) -> tuple[int, ...]:
    """Indices of the starts given as per-axis coordinate columns `cols`,
    translated by -origin."""
    getters = [shift[o].__getitem__ for shift, o in zip(shifts, origin)]
    return tuple(map(sum, zip(*map(map, getters, cols))))


def _translates(spec: TorusSpec, starts, symmetry: frozenset[str], origins):
    """The group tables under `symmetry` and the indices of `starts`
    translated by -o for each o in `origins` (the zero vector alone
    without translations)."""
    translate = "translate" in symmetry
    tables, shifts = _group(
        spec, "permute" in symmetry, "reflect" in symmetry, translate
    )
    cols = list(zip(*starts))
    origins = origins if translate else [(0,) * spec.dimension]
    return tables, [_translated(cols, shifts, o) for o in origins]


def _tiling(spec: TorusSpec, cells, indices: Iterable[int]) -> TorusTiling:
    """The tiling of `spec` whose starts are cells[i] for the ascending
    row-major indices i in `indices`, cells being _tables(spec)[0].
    Ascending indices name sorted starts, each a cell of the grid, so the
    sort and range check of TorusTiling.__post_init__ are skipped: the two
    slots are filled through their descriptors.  itemgetter returns a bare
    item for one index, but every spec has n_cubes = prod(m) >= 2, so
    `indices` always holds at least two and the starts are a tuple."""
    t = _new_object(TorusTiling)
    _set_spec(t, spec)
    _set_starts(t, itemgetter(*indices)(cells))
    return t


def _origin_images(
    spec: TorusSpec, starts, symmetry: frozenset[str]
) -> set[tuple[int, ...]]:
    """Sorted index tuples of the images of the tiling T with `starts`:
    each (axis permutation, reflection) element g, followed, with
    translations enabled, by every translation that brings one of the
    image's cubes to the origin.  These are the orbit elements that
    contain the cube at the origin, so they hold the orbit's least
    element: its sorted start list begins with the all-zero start.

    g is affine, so g(T) translated by -g(s) is the recentred table's
    image of T - s: T is translated once to each of its own starts, and
    every image is a table lookup.  An element whose image of T - s, for
    the first start s, is already marked is skipped: that image is J - t
    for a marked image J and a start t of J, so g(T) is a translate of J
    and has J's origin translates.
    """
    tables, (first, *rest) = _translates(spec, starts, symmetry, starts)
    images: set[tuple[int, ...]] = set()
    for table in tables:
        get = table.__getitem__
        image = tuple(sorted(map(get, first)))
        if image not in images:
            images.add(image)
            images.update(tuple(sorted(map(get, idx))) for idx in rest)
    return images


def canonical_form(
    t: TorusTiling, symmetry: frozenset[str] = ALL_SYMMETRIES
) -> TorusTiling:
    """Lexicographically least orbit element under the enabled symmetries.

    The minimum is taken over sorted tuples of row-major start indices.
    Row-major numbering is the lexicographic order of the starts, so the
    least index tuple names the least start tuple.  The group acts through
    the tables of _group, over _origin_images; the only TorusTiling built
    is the result.
    """
    require_valid(t)
    images = _origin_images(t.spec, t.starts, symmetry)
    return _tiling(t.spec, _tables(t.spec)[0], min(images))


def orbit(
    t: TorusTiling, symmetry: frozenset[str] = ALL_SYMMETRIES
) -> set[TorusTiling]:
    """All distinct images of t under the enabled symmetry group, through
    the same tables as canonical_form: every (axis permutation,
    reflection) element followed by every translation of the grid.  With
    translations the recentred table's images of the translates T - v,
    over every cell v, are the translates g(T) - g(v) of g(T)."""
    require_valid(t)
    cells = _tables(t.spec)[0]
    tables, translates = _translates(t.spec, t.starts, symmetry, cells)
    images = {
        tuple(sorted(map(table.__getitem__, idx)))
        for table in tables
        for idx in translates
    }
    return {_tiling(t.spec, cells, c) for c in images}


# --- exact-cover search -------------------------------------------------

@lru_cache(maxsize=16)
def _tables(spec: TorusSpec):
    """Per-spec placement tables over the starts numbered in row-major
    order: the starts, their cube masks, per cell the (index, mask)
    placements whose lowest cell it is, and each mask's index.  The search
    branches on the lowest uncovered cell, so a cube reaching below it
    would overlap the cover."""
    cells = tuple(product(*(range(n) for n in spec.cell_sizes)))
    masks = tuple(cube_mask(spec, s) for s in cells)
    cands: list[list[tuple[int, int]]] = [[] for _ in cells]
    for i, bits in enumerate(masks):
        cands[(bits & -bits).bit_length() - 1].append((i, bits))
    return cells, masks, cands, {bits: i for i, bits in enumerate(masks)}


def _search(
    spec: TorusSpec, covered: int, placed: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Every completion of the cover `covered` by the cubes at the start
    indices `placed`, as index tuples in placement order; the last cube is
    looked up by the mask of the uncovered cells.

    Nodes at half the cubes placed read a memo, local to the call, that
    maps a cover mask to the suffixes the walk finds below it.  The mask
    is a sound key: each step branches on the lowest uncovered cell and
    tests candidates against the mask alone.  A depth-first walk yields a
    subtree's leaves together and in that subtree's order, so the
    sequence is the plain walk's.  The memo pays where masks at the split
    repeat, as on the 3-D and mixed grids, and half was the fastest split
    there.  On 2-D grids they rarely repeat: (3,3)/(9,9) visits its split
    9,801 times at 9,153 distinct masks, and the memo took its search
    from 0.055 to 0.062 s and its traced peak from 1.88 to 3.31 MB
    (2 cores, Python 3.11.7)."""
    _, _, cands, last = _tables(spec)
    n = spec.n_cubes
    full = (1 << spec.n_cells) - 1
    return _walk(cands, last, full, {}, covered, placed, n - 1, n - n // 2)


def _walk(cands, last, full, memo, covered, placed, final, split):
    """_search's walk from (covered, placed): the last cube at depth
    `final`, the memo read at depth `split`.  A module function, not a
    closure, so that no reference cycle keeps the memo alive once the
    walk is done."""
    stack = [(covered, placed)]
    pop, push = stack.pop, stack.append
    while stack:
        covered, placed = pop()
        depth = len(placed)
        # first: with 2 or 3 cubes the split is the final depth
        if depth == final:
            i = last.get(full ^ covered)
            if i is not None:
                yield placed + (i,)
            continue
        if depth == split:
            suffixes = memo.get(covered)
            if suffixes is None:
                # -1: the walk below the split reads no memo
                suffixes = memo[covered] = tuple(_walk(
                    cands, last, full, memo, covered, (), final - split, -1
                ))
            for t in suffixes:
                yield placed + t
            continue
        # the lowest zero bit of covered
        for i, bits in cands[(covered ^ (covered + 1)).bit_length() - 1]:
            if not bits & covered:
                push((covered | bits, placed + (i,)))


def enumerate_all_tilings(spec: TorusSpec, budget: Optional[int] = None) -> list[TorusTiling]:
    """Brute-force enumeration of every tiling, no symmetry reduction:
    the path of `enumerate` and `census` with `--symmetry none`.  It
    shares _search and _tiling with enumerate_tilings, so criterion 9
    checks only the symmetry layer against it.  It sorts each raw tiling's
    start indices, then the list of index tuples, which orders the tilings
    by their starts, and swaps each entry in place for its tiling, built
    by _tiling with no per-tiling check.
    """
    check_budget(spec, budget)
    cells = _tables(spec)[0]
    found = [tuple(sorted(placed)) for placed in _search(spec, 0, ())]
    found.sort()
    for k, indices in enumerate(found):
        found[k] = _tiling(spec, cells, indices)
    return found


def check_cells(n_cells: int, budget: int) -> None:
    """Refuse more cells than the budget."""
    if n_cells > budget:
        raise BudgetExceededError(f"{n_cells} cells exceed the budget of {budget}")


def check_budget(
    spec: TorusSpec,
    budget: Optional[int],
    symmetry: frozenset[str] = frozenset(),
) -> None:
    """Refuse more cells than the budget or, under `symmetry`, more than
    budget^2 group table entries; the group order is counted before
    _group lists any permutation.  A budget of None is
    DEFAULT_CELL_BUDGET: only the CLI reads KELLERPACK_CELL_BUDGET."""
    limit = budget if budget is not None else DEFAULT_CELL_BUDGET
    check_cells(spec.n_cells, limit)
    order = _group_order(spec, symmetry)
    if order * spec.n_cells > limit * limit:
        raise BudgetExceededError(
            f"{order} symmetries x {spec.n_cells} cells = "
            f"{order * spec.n_cells} table entries exceed the budget squared, "
            f"{limit}^2 = {limit * limit}"
        )


def _group_order(spec: TorusSpec, symmetry: frozenset[str]) -> int:
    """k! per k axes sharing an (m, q) key, times 2^d reflections."""
    order = 2 ** spec.dimension if "reflect" in symmetry else 1
    if "permute" in symmetry:
        for k in Counter(zip(spec.m, spec.q)).values():
            order *= factorial(k)
    return order


def enumerate_tilings(
    spec: TorusSpec,
    symmetry: frozenset[str] = ALL_SYMMETRIES,
    jobs: int = 1,
    budget: Optional[int] = None,
) -> list[TorusTiling]:
    """One canonical representative per orbit, in sorted order.

    With translations enabled the search fixes the cube at the origin,
    which every translation orbit contains; otherwise it runs in full.
    The first raw tiling found of an orbit marks all of the orbit's
    tilings the search can reach, its _origin_images, and contributes
    their least, which is the canonical_form of each of them; a raw
    tiling already marked is skipped, so the group acts once per orbit.
    With no symmetry every raw tiling is its own orbit, so the result is
    enumerate_all_tilings(spec, budget).
    `jobs` is accepted and ignored: the search runs in one process.
    """
    if not symmetry:
        return enumerate_all_tilings(spec, budget)
    check_budget(spec, budget, symmetry)
    cells, masks, _, _ = _tables(spec)
    root = (masks[0], (0,)) if "translate" in symmetry else (0, ())
    seen: set[tuple[int, ...]] = set()
    representatives = []
    for placed in _search(spec, *root):
        if tuple(sorted(placed)) not in seen:
            images = _origin_images(spec, [cells[i] for i in placed], symmetry)
            seen |= images
            representatives.append(min(images))
    return [_tiling(spec, cells, indices) for indices in sorted(representatives)]


# --- census -------------------------------------------------------------

@dataclass(frozen=True)
class CensusRow:
    m: tuple[int, ...]
    q: tuple[int, ...]
    symmetry: tuple[str, ...]
    tilings_total: int
    p_histogram: dict[int, int]
    max_p: int
    bound: int
    equality_count: int
    multipile_count: int
    conjectural: bool
    attaining_multipile: tuple[bool, ...]


def census(
    spec: TorusSpec,
    symmetry: frozenset[str] = ALL_SYMMETRIES,
    budget: Optional[int] = None,
) -> CensusRow:
    """Enumerate the canonical tilings of `spec` and fold them with
    census_from_tilings.

    The package exports this function under the name of its module, so
    `import kellerpack.census as m` binds the function; the module is
    `importlib.import_module("kellerpack.census")`.
    """
    tilings = enumerate_tilings(spec, symmetry, budget=budget)
    return census_from_tilings(spec, symmetry, tilings)


def census_from_tilings(
    spec: TorusSpec,
    symmetry: frozenset[str],
    tilings: list[TorusTiling],
) -> CensusRow:
    """Fold p(T) and the multipile verdict over a list of canonical
    tilings of `spec`, one per orbit under `symmetry`.

    Every tiling is checked by torus.require_bound, on any sides: Theorem B
    on its box family G and the bridge c_i(G) = (m_i - 1)|p_i(T)|, which
    together give the weighted bound sum_i (m_i - 1)|p_i(T)| <= m_1...m_d - 1,
    with equality iff T is a multipile; a violation raises
    TheoremViolationError naming the tiling's starts.
    The row's bound is the lamination value for the descending side
    ordering, which for equal sides n is the proved (n^d - 1)/(n - 1) and
    for mixed sides only conjectural: the observed maximum is reported
    against it, with the multipile verdict of every attaining tiling.

    The multipile recognizer's memo lives for the call and is shared by
    every tiling: it maps a set of starts, as the OR of 1 << i over their
    row-major indices i, to the witness tree of their boxes, or to None.
    Start indices name starts of `spec` alone, so a tiling of another
    spec raises ValueError.
    """
    bound = extremal_p_value(
        spec.m, sorted(range(spec.dimension), key=lambda i: -spec.m[i])
    )
    hist: dict[int, int] = {}
    equality_count = 0
    multipile_count = 0
    attaining: list[bool] = []
    trees: dict[int, Optional[MultipileTree]] = {}
    for t in tilings:
        if t.spec != spec:
            raise ValueError(f"tiling {t.starts} is of {t.spec}, not of {spec}")
        params, _, mp = require_bound(t, t.starts, trees)
        p_total = params.total
        hist[p_total] = hist.get(p_total, 0) + 1
        if p_total == bound:
            equality_count += 1
            attaining.append(mp)
        multipile_count += mp
    return CensusRow(
        m=spec.m,
        q=spec.q,
        symmetry=tuple(sorted(symmetry)),
        tilings_total=len(tilings),
        p_histogram=dict(sorted(hist.items())),
        max_p=max(hist, default=0),
        bound=bound,
        equality_count=equality_count,
        multipile_count=multipile_count,
        conjectural=not spec.is_uniform(),
        attaining_multipile=tuple(attaining),
    )
