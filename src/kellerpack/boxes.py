"""Boxes, Keller families, restriction/pile machinery, and the c-statistic.

A box is a product of per-axis factors; each factor is either the full
axis (stored as None) or a block of one of the system's partitions
(stored as a BlockRef).  Point sets are materialized as bit vectors over
the dense cell enumeration of X, which is fine at desk scale, and so are
shadows: a box's projection onto the axes other than one is a row-major
bit mask over their cells, the Kronecker product of its factors' block
masks.  Each box computes its shadows once, as its row: per axis, its
factor and shadow there.  Each BoxFamily computes its Keller verdict
once and transposes its boxes' rows.  BoxFamily._status(mask) is the
one partition-status table, of the family (the full mask) or of any
subfamily (a bit mask over its boxes): per axis, the frozenset of
partitions the boxes hide, i.e. whose blocks all cast one and the same
shadow.  It is built from the rows once per mask and kept on the family.
c_stats and classify_partition read the full mask's table, and
BoxFamily._pile, the one pile test, "laminated and hidden", of is_pile
and of the multipile recognizer and constructor, reads the pile's own.
all_boxes lists every box of a system, and keller_families every Keller
family, by a clique walk.

Keller pairs are one AND on the system's block bits (block_bits): a
box's keller_bits are (sel, clash), the bits of its blocks and those of
the other blocks of their partitions, and K, L are a Keller pair iff
K's clash & L's sel != 0.  keller_pair, the Keller verdict and
keller_families take that AND; keller_factors, the rule as written, is
the tests' oracle for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import prod
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    CompletenessError,
    DuplicateBoxError,
    EmptyFamilyError,
    NotHiddenError,
    NotKellerError,
    NotPartitionError,
    NotPileError,
    SystemMismatchError,
    TrivialPartitionError,
)
from .partitions import BlockRef, Partition, PartitionSystem, elems_of, lazy

Factor = Optional[BlockRef]  # None means the full axis X_i


@dataclass(frozen=True)
class Box:
    """One box of a system: a per-axis choice of Full or a partition block.

    Factors referring to the single block of a trivial partition are
    normalized to Full at construction, so 'proper' and Keller-pair logic
    never need to special-case them.
    """

    system: PartitionSystem
    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        if len(self.factors) != self.system.dimension:
            raise SystemMismatchError("one factor per axis required")
        normalized = []
        # rebuild only a factors argument that is not a tuple or that has
        # a factor re-wrapped as a BlockRef or normalized to Full
        changed = type(self.factors) is not tuple
        for axis, f in enumerate(self.factors):
            if f is not None:
                if type(f) is not BlockRef:
                    f = BlockRef(*f)
                    changed = True
                p = self.system.partition(axis, f.partition)
                if not 0 <= f.block < p.n_blocks:
                    raise IndexError(f"block index {f.block} out of range")
                if p.is_trivial:
                    f = None
                    changed = True
            normalized.append(f)
        if changed:
            object.__setattr__(self, "factors", tuple(normalized))

    @property
    def is_proper(self) -> bool:
        return all(f is not None for f in self.factors)

    def factor_elems(self, axis: int) -> tuple[int, ...]:
        f = self.factors[axis]
        if f is None:
            return tuple(range(self.system.axis_sizes[axis]))
        return self.system.partition(axis, f.partition).block_elems(f.block)

    def with_factor(self, axis: int, factor: Factor) -> "Box":
        factors = list(self.factors)
        factors[axis] = factor
        return Box(self.system, tuple(factors))

    def volume(self) -> int:
        return prod(len(self.factor_elems(a)) for a in range(self.system.dimension))

    # cached outside the dataclass fields, so eq, hash and repr ignore them
    @lazy
    def row(self) -> tuple[Optional[tuple[BlockRef, int]], ...]:
        """Per axis, the factor and the shadow there; None if full."""
        return tuple(
            None if f is None else (f, _shadow_mask(self, axis))
            for axis, f in enumerate(self.factors)
        )

    @lazy
    def keller_bits(self) -> tuple[int, int]:
        """(sel, clash) on the system's block bits: the bits of the box's
        blocks, and those of the other blocks of their partitions."""
        sel = clash = 0
        for bits, f in zip(self.system.block_bits, self.factors):
            if f is not None:
                _, b, c = bits[f.partition][f.block]
                sel |= b
                clash |= c
        return sel, clash


def row_major_strides(sizes: Sequence[int]) -> tuple[int, ...]:
    """Row-major strides: point (x_1..x_d) has index sum x_a * stride_a,
    axis 0 being the most significant coordinate."""
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    return tuple(strides)


@dataclass(frozen=True)
class PointSet:
    """Subset of X = X_1 x ... x X_d as a bit vector, row-major (axis 0 is
    the most significant coordinate)."""

    sizes: tuple[int, ...]
    bits: int

    @property
    def strides(self) -> tuple[int, ...]:
        return row_major_strides(self.sizes)

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def is_full(self) -> bool:
        return self.bits == (1 << prod(self.sizes)) - 1

    def contains(self, point: Sequence[int]) -> bool:
        idx = sum(x * s for x, s in zip(point, self.strides))
        return bool(self.bits >> idx & 1)

    def points(self) -> Iterable[tuple[int, ...]]:
        for point in product(*(range(s) for s in self.sizes)):
            if self.contains(point):
                yield point


def line_mask(sizes: Sequence[int], point: Sequence[int], axis: int) -> int:
    """Bit mask of the full axis line through `point`."""
    strides = row_major_strides(sizes)
    base = sum(
        (0 if i == axis else x) * s for i, (x, s) in enumerate(zip(point, strides))
    )
    mask = 0
    for v in range(sizes[axis]):
        mask |= 1 << (base + v * strides[axis])
    return mask


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


@dataclass(frozen=True)
class BoxFamily:
    """A duplicate-free finite family of boxes of one system.

    Empty families are legal values (restrictions produce them naturally)
    but are rejected by every operation that needs a suit.
    """

    system: PartitionSystem
    boxes: tuple[Box, ...]

    def __post_init__(self) -> None:
        for box in self.boxes:
            if box.system is not self.system and box.system != self.system:
                raise SystemMismatchError("box from a different system")
        if len(set(self.boxes)) != len(self.boxes):
            raise DuplicateBoxError("duplicate box in family")

    def __len__(self) -> int:
        return len(self.boxes)

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    def require_nonempty(self) -> None:
        if not self.boxes:
            raise EmptyFamilyError("operation requires a nonempty family")

    # Cached in the instance __dict__, outside the dataclass fields, so eq,
    # hash and repr ignore them.
    @lazy
    def _is_keller(self) -> bool:
        # every box is of self.system, as __post_init__ checked, so all
        # share one block numbering
        sels: list[int] = []
        for K in self.boxes:
            sel, clash = K.keller_bits
            if not all(map(clash.__and__, sels)):
                return False
            sels.append(sel)
        return True

    @lazy
    def _rows(self) -> tuple[tuple[Optional[tuple[BlockRef, int]], ...], ...]:
        """Per axis, each box's row there (the boxes' rows transposed)."""
        return tuple(zip(*(K.row for K in self.boxes))) or (
            ((),) * self.system.dimension
        )

    @lazy
    def _tables(self) -> dict[int, tuple[frozenset[int], ...]]:
        """The partition-status tables built so far, by mask."""
        return {}

    def _status(self, mask: int) -> tuple[frozenset[int], ...]:
        """The partition-status table of the boxes at bit mask `mask`, built
        once per mask: per axis, the partitions they hide, those all of
        whose blocks cast one and the same shadow (a block's shadow is the
        OR of its boxes' there, 0 if none of them uses it)."""
        table = self._tables.get(mask)
        if table is not None:
            return table
        members = elems_of(mask)
        hidden = []
        for parts, rows in zip(self.system.families, self._rows):
            shadows: dict[int, list[int]] = {}
            for i in members:
                if rows[i] is not None:
                    f, shadow = rows[i]
                    masks = shadows.get(f.partition)
                    if masks is None:
                        masks = shadows[f.partition] = [0] * parts[f.partition].n_blocks
                    masks[f.block] |= shadow
            same = (p for p, m in shadows.items() if m.count(m[0]) == len(m))
            hidden.append(frozenset(same))
        table = self._tables[mask] = tuple(hidden)
        return table

    def _pile(self, mask: int, axis: int, p: int) -> Optional[list[int]]:
        """The one pile test: the masks of the boxes at `mask` over each
        block of p if each carries a block of p on `axis` and they hide p
        there, else None.  No block of a pile is empty."""
        subs = [0] * self.system.families[axis][p].n_blocks
        for i, row in enumerate(self._rows[axis]):
            if mask >> i & 1:
                if row is None or row[0].partition != p:
                    return None
                subs[row[0].block] |= 1 << i
        return subs if p in self._status(mask)[axis] else None

    @lazy
    def _c_stats(self) -> "CStats":
        hidden = self._status((1 << len(self.boxes)) - 1)
        c_per_axis = tuple(
            sum(self.system.partition(axis, p).n_blocks - 1 for p in hid)
            for axis, hid in enumerate(hidden)
        )
        return CStats(hidden, c_per_axis, sum(c_per_axis))


def keller_pair(K: Box, L: Box) -> bool:
    """Keller's condition for one pair: some axis carries two different
    blocks of one and the same partition."""
    if K.system != L.system:
        raise SystemMismatchError("boxes from different systems")
    return bool(K.keller_bits[1] & L.keller_bits[0])


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


def all_boxes(system: PartitionSystem) -> list[Box]:
    """Every box of `system`, in row-major order over the axes: on each
    axis the full axis (None) first, then each block of each nontrivial
    partition."""
    per_axis = [
        [None]
        + [
            BlockRef(p, b)
            for p in system.nontrivial_indices(axis)
            for b in range(system.partition(axis, p).n_blocks)
        ]
        for axis in range(system.dimension)
    ]
    return [Box(system, factors) for factors in product(*per_axis)]


def keller_families(system: PartitionSystem) -> Iterator[BoxFamily]:
    """Every Keller family of `system`, each once: the nonempty cliques of
    the Keller-pair graph on all_boxes(system), as ascending index tuples
    in lexicographic order.

    A depth-first walk over bit masks of the candidates that extend the
    current clique (Bron-Kerbosch without pivoting, CACM 16, 1973)."""
    boxes = all_boxes(system)
    bits = [K.keller_bits for K in boxes]
    adj = [
        sum(1 << j for j, (sel, _) in enumerate(bits) if clash & sel)
        for _, clash in bits
    ]
    stack = [((), (1 << len(boxes)) - 1)]
    while stack:
        clique, cand = stack.pop()
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        grown = clique + (boxes[v],)
        yield BoxFamily(system, grown)
        # the clique's next sibling, then, popped first, its first child
        if cand:
            stack.append((clique, cand))
        if cand & adj[v]:
            stack.append((grown, cand & adj[v]))


def is_keller_family(G: BoxFamily) -> bool:
    G.require_nonempty()
    return G._is_keller


def require_keller(G: BoxFamily) -> None:
    if not is_keller_family(G):
        raise NotKellerError("family violates Keller's condition")


def realize_box(K: Box) -> PointSet:
    return PointSet(K.system.axis_sizes, _shadow_mask(K, None))


def realize(G: BoxFamily) -> PointSet:
    """Union of the family's boxes as a point set."""
    sizes = G.system.axis_sizes
    bits = reduce(lambda acc, K: acc | realize_box(K).bits, G.boxes, 0)
    return PointSet(sizes, bits)


def restrict(G: BoxFamily, axis: int, V: Iterable[BlockRef]) -> BoxFamily:
    """Subfamily of boxes whose factor on `axis` lies in V; may be empty."""
    wanted = {BlockRef(*v) for v in V}
    kept = tuple(K for K in G.boxes if K.factors[axis] in wanted)
    return BoxFamily(G.system, kept)


def restrict_to_partition(G: BoxFamily, axis: int, p: int) -> BoxFamily:
    n = G.system.partition(axis, p).n_blocks
    return restrict(G, axis, [BlockRef(p, b) for b in range(n)])


class PartitionStatus(enum.Enum):
    ABSENT = "absent"
    HIDDEN = "hidden"
    EXPOSED = "exposed"


def extend_mask(mask: int, block: int, size: int) -> int:
    """The row-major product of the cells in `mask` with one more axis of
    `size` cells, restricted there to the bit mask `block`: a copy of
    `block` is shifted into place for every cell of `mask`."""
    grown = 0
    while mask:
        low = mask & -mask
        grown |= block << ((low.bit_length() - 1) * size)
        mask ^= low
    return grown


def _shadow_mask(K: Box, axis: Optional[int]) -> int:
    """K's projection onto the axes other than `axis`, as a row-major bit
    mask over their cells; with axis None, K itself as a mask over X."""
    system = K.system
    mask = 1
    for a, f in enumerate(K.factors):
        if a == axis:
            continue
        size = system.axis_sizes[a]
        if f is None:
            block = (1 << size) - 1
        else:
            block = system.families[a][f.partition].blocks[f.block]
        mask = extend_mask(mask, block, size)
    return mask


def classify_partition(G: BoxFamily, axis: int, p: int) -> PartitionStatus:
    """Absent / Hidden / Exposed status of a nontrivial partition.

    Hidden means the restriction to the partition is a suit for an
    axis-cylinder: every block of the partition casts one and the same
    shadow mask on the remaining axes.  Hidden is read from the family's
    partition-status table; otherwise the partition is exposed if some
    box uses it and absent if none does.  The point-scan oracle, which
    the tests check this against, is is_cylinder on the realized
    restriction.
    """
    part = G.system.partition(axis, p)
    if part.is_trivial:
        raise TrivialPartitionError("classification is for nontrivial partitions")
    G.require_nonempty()
    if p in G._status((1 << len(G)) - 1)[axis]:
        return PartitionStatus.HIDDEN
    if any(row is not None and row[0].partition == p for row in G._rows[axis]):
        return PartitionStatus.EXPOSED
    return PartitionStatus.ABSENT


@dataclass(frozen=True)
class CStats:
    """Hidden partition indices per axis and the derived c totals."""

    hidden: tuple[frozenset[int], ...]
    c_per_axis: tuple[int, ...]
    c_total: int


def c_stats(G: BoxFamily) -> CStats:
    """Hidden partitions and c totals of a Keller family.

    The hidden sets are the family's partition-status table, the one
    classify_partition reads, and the result is cached on
    the family, as is its Keller verdict.  The tests check the hidden sets
    against the is_cylinder point scan.
    """
    require_keller(G)
    return G._c_stats


def is_pile(C: BoxFamily, axis: int, p: int) -> bool:
    """Laminated with respect to p and a suit for an axis-cylinder."""
    C.system.partition(axis, p)  # IndexError for an axis or partition it lacks
    full = (1 << len(C)) - 1
    return not C.is_empty and is_keller_family(C) and C._pile(full, axis, p) is not None


def elementary_aggregate(C: BoxFamily, axis: int, p: int, A: int) -> BoxFamily:
    """Replace the axis factor of every box over block A with the full axis.

    The result is another suit for the pile's cylinder.
    """
    part = C.system.partition(axis, p)
    if part.is_trivial:
        raise TrivialPartitionError("piles are laminated by nontrivial partitions")
    if not 0 <= A < part.n_blocks:
        raise IndexError(f"block index {A} out of range")
    if not is_pile(C, axis, p):
        raise NotPileError("family is not a pile for this axis and partition")
    CA = restrict(C, axis, [BlockRef(p, A)])
    return BoxFamily(C.system, tuple(K.with_factor(axis, None) for K in CA.boxes))


def pile_rewrite(G: BoxFamily, axis: int, p: int, A: int) -> BoxFamily:
    """The suit rewrite used in the complexity bound's induction:
    (G minus G|p) united with the elementary aggregate of G|p over A.

    Preserves the realized point set and the Keller property."""
    if classify_partition(G, axis, p) is not PartitionStatus.HIDDEN:
        raise NotHiddenError("partition is not hidden in the family")
    C = restrict_to_partition(G, axis, p)
    pile = set(C.boxes)
    remaining = tuple(K for K in G.boxes if K not in pile)
    return BoxFamily(G.system, remaining + elementary_aggregate(C, axis, p, A).boxes)


@dataclass(frozen=True)
class TheoremBReport:
    c: int
    size: int
    inequality_holds: bool
    equality: bool


def theorem_b_report(G: BoxFamily) -> TheoremBReport:
    """c(G) against |G| - 1, as a report that never raises.  inequality_holds
    must always be true; a False here means a library bug, never a quiet
    data point.  The library itself checks the theorem, equality case
    included, through multipiles.require_theorem_b, which raises."""
    stats = c_stats(G)
    size = len(G)
    return TheoremBReport(
        c=stats.c_total,
        size=size,
        inequality_holds=stats.c_total <= size - 1,
        equality=stats.c_total == size - 1,
    )


def partition_defect(G: BoxFamily) -> Optional[str]:
    """Why G's boxes do not partition X, or None when they do."""
    P = realize(G)
    if not P.is_full():
        return "does not cover X"
    if sum(K.volume() for K in G.boxes) != P.cardinality():
        return "boxes overlap"
    return None


def line_partition_check(
    G: BoxFamily, point: Sequence[int], axis: int
) -> Partition:
    """Identify the family partition induced on an axis line of a partition
    of X; raising if the induced partition is missing from the family.

    This is the operational completeness check: the abstract completeness
    quantifier over all partitions of the ground set is infeasible, but the
    proofs only ever consume line-induced partitions.
    """
    defect = partition_defect(G)
    if defect is not None:
        raise NotPartitionError(f"family {defect}")
    lm = line_mask(G.system.axis_sizes, point, axis)
    induced: list[int] = []
    for K in G.boxes:
        if realize_box(K).bits & lm:
            induced.append(sum(1 << e for e in K.factor_elems(axis)))
    induced_sets = sorted(set(induced), key=lambda m: (m & -m).bit_length())
    for cand in G.system.families[axis]:
        if list(cand.blocks) == induced_sets:
            return cand
    raise CompletenessError(
        "line-induced partition uses family blocks but is not a family member"
    )
