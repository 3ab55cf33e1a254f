"""Finite ground sets, partitions, independence, and partition systems.

Elements of a ground set are dense indices 0..size-1 and every block is a
bit mask over them; ground sets at desk scale stay below a few hundred
cells, so Python ints are the natural fixed-width bit vector.  A system
gives each block of its nontrivial partitions a bit, for boxes.py's
Keller test and the sampler's draws.

`lazy` is the package's one cached attribute.  As cached_property does,
it stores the value in the instance __dict__, which a frozen dataclass's
eq, hash and repr ignore; but it takes no lock, as on Python 3.12, where
3.10 and 3.11 take a class-wide RLock on every first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    AxisMismatchError,
    CoverageError,
    DuplicateError,
    EmptyBlockError,
    IndependenceError,
    NotProperSubfamilyError,
    OverlapError,
)


class lazy:
    """A non-data descriptor: the first access computes the value into the
    instance __dict__, where later accesses find it."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class BlockRef(NamedTuple):
    """A block of a partition on one axis: (partition index, block index)."""

    partition: int
    block: int


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def elems_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class Partition:
    """A partition of {0,...,axis_size-1} into nonempty blocks.

    Blocks are bit masks stored in canonical order (sorted by minimum
    element).  Construct through make_partition, which validates.
    """

    axis_size: int
    blocks: tuple[int, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def is_trivial(self) -> bool:
        return len(self.blocks) == 1

    def block_elems(self, b: int) -> tuple[int, ...]:
        return elems_of(self.blocks[b])

    def block_containing(self, elem: int) -> int:
        bit = 1 << elem
        for b, mask in enumerate(self.blocks):
            if mask & bit:
                return b
        raise ValueError(f"element {elem} outside ground set")

    def block_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(elems_of(m)) for m in self.blocks)


def make_partition(axis_size: int, blocks: Sequence[Iterable[int]]) -> Partition:
    """Validate and canonicalize a partition given as element sets."""
    if axis_size < 2:
        raise ValueError("ground sets must have at least two elements")
    masks = []
    seen = 0
    for block in blocks:
        m = mask_of(block)
        if m == 0:
            raise EmptyBlockError("empty block in partition")
        if m & seen:
            raise OverlapError(f"blocks overlap on elements {elems_of(m & seen)}")
        seen |= m
        masks.append(m)
    full = (1 << axis_size) - 1
    if seen != full:
        raise CoverageError(f"blocks miss elements {elems_of(full & ~seen)}")
    masks.sort(key=lambda m: (m & -m).bit_length())
    return Partition(axis_size, tuple(masks))


def trivial_partition(axis_size: int) -> Partition:
    return make_partition(axis_size, [range(axis_size)])


def join(p1: Partition, p2: Partition) -> Partition:
    """Finest common coarsening: connected components of the block-overlap
    graph between the two partitions."""
    if p1.axis_size != p2.axis_size:
        raise AxisMismatchError("partitions on different ground sets")
    # each block absorbs every component it meets; the components stay
    # pairwise disjoint, so the sum of those it meets is their union
    comps: list[int] = []
    for block in p1.blocks + p2.blocks:
        met = [c for c in comps if c & block]
        comps = [c for c in comps if not c & block] + [block | sum(met)]
    return make_partition(p1.axis_size, [elems_of(m) for m in comps])


def independent(p1: Partition, p2: Partition) -> bool:
    """True iff the only partition coarser than both is the trivial one.

    Grows the mask of element 0's block of the join over both partitions'
    blocks until no block straddles it; the partitions are independent iff
    that closure is the whole ground set.  join(p1, p2).is_trivial is the
    oracle.
    """
    if p1.axis_size != p2.axis_size:
        raise AxisMismatchError("partitions on different ground sets")
    blocks = p1.blocks + p2.blocks
    comp, prev = 1, 0
    while comp != prev:
        prev = comp
        for b in blocks:
            if b & comp:
                comp |= b
    return comp == (1 << p1.axis_size) - 1


def check_c_forte(
    p1: Partition, p2: Partition, sub1: Iterable[int], sub2: Iterable[int]
) -> bool:
    """Whether the unions of two proper block subfamilies coincide.

    For independent partitions this must come out False for every choice of
    proper nonempty subfamilies; the function exists as a property probe of
    `independent`, not as something expected to return True.
    """
    if p1.axis_size != p2.axis_size:
        raise AxisMismatchError("partitions on different ground sets")
    s1, s2 = set(sub1), set(sub2)
    for sub, p in ((s1, p1), (s2, p2)):
        if not sub or len(sub) >= p.n_blocks:
            raise NotProperSubfamilyError("subfamily must be nonempty and proper")
    u1 = 0
    for b in s1:
        u1 |= p1.blocks[b]
    u2 = 0
    for b in s2:
        u2 |= p2.blocks[b]
    return u1 == u2


@dataclass(frozen=True)
class PartitionSystem:
    """Per-axis ground sets with families of pairwise independent partitions."""

    axis_sizes: tuple[int, ...]
    families: tuple[tuple[Partition, ...], ...]

    def __post_init__(self) -> None:
        if len(self.axis_sizes) != len(self.families):
            raise AxisMismatchError("one partition family required per axis")
        if not self.axis_sizes:
            raise ValueError("need at least one axis")
        for size, family in zip(self.axis_sizes, self.families):
            if size < 2:
                raise ValueError("ground sets must have at least two elements")
            for p in family:
                if p.axis_size != size:
                    raise AxisMismatchError("partition does not match its axis")
            for a, b in combinations(family, 2):
                if a == b:
                    raise DuplicateError("duplicate partition in family")
                if not independent(a, b):
                    raise IndependenceError(
                        f"partitions {a.block_sets()} and {b.block_sets()} "
                        "are not independent"
                    )
        # Every hash(Box) hashes its system, so the nested partition tuples
        # are hashed once, into the instance __dict__, outside the fields.
        object.__setattr__(
            self, "_hash", hash((self.axis_sizes, self.families))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def dimension(self) -> int:
        return len(self.axis_sizes)

    @property
    def is_unital(self) -> bool:
        return all(
            any(p.is_trivial for p in family) for family in self.families
        )

    def partition(self, axis: int, p: int) -> Partition:
        # checked, because a negative index would pick another partition
        if 0 <= axis < len(self.families) and 0 <= p < len(self.families[axis]):
            return self.families[axis][p]
        raise IndexError(f"no partition {p} on axis {axis}")

    @lazy
    def _nontrivial(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(i for i, p in enumerate(family) if not p.is_trivial)
            for family in self.families
        )

    def nontrivial_indices(self, axis: int) -> tuple[int, ...]:
        return self._nontrivial[axis]

    @lazy
    def block_bits(
        self,
    ) -> tuple[tuple[tuple[tuple[BlockRef, int, int], ...], ...], ...]:
        """Per axis, per partition, per block: (ref, bit, clash), the
        block's BlockRef, a bit of its own and the bits of the other blocks
        of its partition.  A trivial partition has no entries: no box
        factor refers to it."""
        axes, bit = [], 1
        for family in self.families:
            parts = []
            for p, part in enumerate(family):
                n = 0 if part.is_trivial else part.n_blocks
                whole = ((1 << n) - 1) * bit
                parts.append(tuple([
                    (BlockRef(p, b), bit << b, whole ^ bit << b) for b in range(n)
                ]))
                bit <<= n
            axes.append(tuple(parts))
        return tuple(axes)


def arc_partition(n: int, q: int, offset: int) -> Partition:
    """Partition of the cyclic ground set of size n*q into n arcs of length q
    whose start cells are congruent to `offset` mod q."""
    size = n * q
    blocks = []
    for k in range(n):
        start = offset + k * q
        blocks.append([(start + r) % size for r in range(q)])
    return make_partition(size, blocks)


def arc_system_mixed(ns: Sequence[int], qs: Sequence[int]) -> PartitionSystem:
    """Discretized unit-segment tilings of a product of circles: axis i has
    ground set of size ns[i]*qs[i] and one arc partition per offset class,
    plus the trivial partition."""
    if len(ns) != len(qs):
        raise AxisMismatchError("per-axis arc counts and resolutions differ")
    families = []
    for n, q in zip(ns, qs):
        if n < 2 or q < 1:
            raise ValueError("need n >= 2 arcs and resolution q >= 1")
        family = [arc_partition(n, q, j) for j in range(q)]
        family.append(trivial_partition(n * q))
        families.append(tuple(family))
    return PartitionSystem(tuple(n * q for n, q in zip(ns, qs)), tuple(families))


def arc_system(n: int, q: int, d: int) -> PartitionSystem:
    """arc_system_mixed with d identical axes."""
    return arc_system_mixed([n] * d, [q] * d)


def binary_system(
    axis_sizes: Sequence[int], chosen_splits: Sequence[Sequence[Iterable[int]]]
) -> PartitionSystem:
    """Two-block partitions {A, U \\ A} for explicitly chosen subsets A.

    The full family of all two-block splits is exponential, so the caller
    names the splits.  make_partition rejects an empty or full A, and
    PartitionSystem rejects A and its complement, which yield the same
    partition, as a duplicate.
    """
    if len(axis_sizes) != len(chosen_splits):
        raise AxisMismatchError("one split list required per axis")
    families = []
    for size, splits in zip(axis_sizes, chosen_splits):
        full = (1 << size) - 1
        family = [
            make_partition(size, [elems_of(a), elems_of(full & ~a)])
            for a in map(mask_of, splits)
        ]
        family.append(trivial_partition(size))
        families.append(tuple(family))
    return PartitionSystem(tuple(axis_sizes), tuple(families))
