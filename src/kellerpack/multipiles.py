"""Recursive recognizer and constructor for multipiles.

A multipile is either a singleton box family, or a pile laminated with
respect to some nontrivial partition whose per-block restrictions are
multipiles hiding pairwise disjoint partition sets on every other axis.
Multipiles are exactly the families attaining c(G) = |G| - 1.  Each pile
test here, in the recognizer and the constructor, is BoxFamily._pile,
the one test of "laminated and hidden", and every set of hidden
partitions is BoxFamily._status(mask), the table of the boxes at a bit
mask, which a family builds once per mask.  The recognizer's memo maps
each mask to its witness tree, or to None, and is_multipile wraps the
root's in its one MultipileResult.  The recognizer has no separate
refusal: its root step, the pile tests on the full mask, is it.

is_multipile and require_theorem_b each give the recognizer a dict that
lives for one call.  A census checks each of its tilings as a mask over
one family of all their boxes, through require_theorem_b's own check,
_theorem_b, over one memo for the census.  The memo and the status
tables are both keyed by mask, so a sub-family that several tilings
hold is decided, and its table built, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Collection, Optional, Sequence, Union

from .boxes import (
    BlockRef,
    Box,
    BoxFamily,
    CStats,
    require_keller,
)
from .errors import (
    DisjointnessError,
    IllFormedTreeError,
    NotKellerError,
    TheoremViolationError,
)
from .partitions import PartitionSystem


@dataclass(frozen=True)
class Leaf:
    box: Box


@dataclass(frozen=True)
class Node:
    axis: int
    partition: int
    children: tuple["MultipileTree", ...]  # one child per block, in block order


MultipileTree = Union[Leaf, Node]


@dataclass(frozen=True)
class MultipileResult:
    verdict: bool
    tree: Optional[MultipileTree] = None


def is_multipile(G: BoxFamily) -> MultipileResult:
    """Decide whether G is a multipile; on success return a witness tree.

    Candidates are tried axis-ascending.  A lamination partition holds
    every box's factor on its axis, so on each axis only the first box's
    partition can laminate, and the returned witness is deterministic.
    The recursion's root step is the refusal: a family that is a pile for
    none of them is refused by G._pile on the full mask, before any
    subfamily's table is built.
    """
    require_keller(G)
    tree = _multipile(G, {}, (1 << len(G)) - 1)
    return MultipileResult(tree is not None, tree)


def require_theorem_b(G: BoxFamily, name) -> tuple[CStats, bool]:
    """c_stats(G) and G's multipile verdict, after checking Theorem B on
    G: c(G) <= |G| - 1, with equality iff G is a multipile.  A violation
    raises TheoremViolationError naming `name`.  This is the library's one
    check of the theorem; theorem_b_report is the non-raising report.  A
    family that is not Keller raises NotKellerError, an empty one
    EmptyFamilyError."""
    G.require_nonempty()
    return _theorem_b(G, (1 << len(G)) - 1, {}, name)


def _theorem_b(G: BoxFamily, mask: int, memo: dict, name) -> tuple[CStats, bool]:
    """require_theorem_b on the nonempty subfamily of G at bit mask `mask`,
    whose recognizer reads and fills `memo`."""
    if not G._keller(mask):
        raise NotKellerError("family violates Keller's condition")
    stats = G._stats(mask)
    multipile = _multipile(G, memo, mask) is not None
    bound = mask.bit_count() - 1
    if stats.c_total > bound:
        raise TheoremViolationError(
            f"c(G) = {stats.c_total} exceeds |G| - 1 = {bound} on {name}"
        )
    if (stats.c_total == bound) != multipile:
        raise TheoremViolationError(f"equality/multipile mismatch on {name}")
    return stats, multipile


def _multipile(G: BoxFamily, memo: dict, mask: int) -> Optional[MultipileTree]:
    """The witness tree of the subfamily of G at bit mask `mask` over its
    boxes, or None if it is no multipile, memoized per mask in `memo`.  A
    subfamily of a Keller family is Keller, so none is checked again."""
    if mask not in memo:
        first = G.boxes[(mask & -mask).bit_length() - 1]
        # a singleton is a leaf; else the first node found, axis-ascending
        found = Leaf(first) if mask & (mask - 1) == 0 else None
        for axis, f in enumerate(first.factors):
            if found is None and f is not None:
                found = _node(G, memo, mask, axis, f.partition)
        memo[mask] = found
    return memo[mask]


def _node(G: BoxFamily, memo: dict, mask: int, axis: int, p: int) -> Optional[Node]:
    """The node laminating `mask` by partition p on `axis`, or None.  It is
    decided by G._pile, the one pile test, and its children's hidden sets
    are compared; both read G._status, the partition-status table of a
    mask, which G builds once per mask."""
    subs = G._pile(mask, axis, p)
    if subs is None:
        return None
    children = []
    for sub in subs:
        child = _multipile(G, memo, sub)
        if child is None:
            return None
        children.append(child)
    if _hidden_clash([G._status(sub) for sub in subs], axis) is not None:
        return None
    return Node(axis, p, tuple(children))


def _hidden_clash(
    child_hidden: Sequence[Sequence[Collection[int]]], axis: int
) -> Optional[int]:
    """The first axis other than `axis` on which two children, given by
    their hidden sets per axis, hide one partition; None if there is none."""
    for k in range(len(child_hidden[0])):
        sets = [hidden[k] for hidden in child_hidden]
        if k != axis and sum(map(len, sets)) != len(set().union(*sets)):
            return k
    return None


def _build(system: PartitionSystem, tree: MultipileTree) -> BoxFamily:
    if isinstance(tree, Leaf):
        if tree.box.system != system:
            raise IllFormedTreeError("leaf box belongs to a different system")
        return BoxFamily(system, (tree.box,))
    if not isinstance(tree, Node):
        raise IllFormedTreeError(f"not a multipile tree: {tree!r}")
    try:
        part = system.partition(tree.axis, tree.partition)
    except IndexError as exc:
        raise IllFormedTreeError(str(exc)) from exc
    if part.is_trivial:
        raise IllFormedTreeError("lamination partition must be nontrivial")
    if len(tree.children) != part.n_blocks:
        raise IllFormedTreeError(
            f"node needs exactly {part.n_blocks} children, got {len(tree.children)}"
        )
    boxes: tuple[Box, ...] = ()
    for b, child in enumerate(tree.children):
        sub = _build(system, child).boxes
        over = tuple(K.with_factor(tree.axis, BlockRef(tree.partition, b)) for K in sub)
        # a child's duplicates raise here, before a later sibling is walked
        boxes += BoxFamily(system, over).boxes
    # boxes under different blocks differ on tree.axis: no duplicates here,
    # and they are Keller pairs, so G is Keller iff every child is
    G = BoxFamily(system, boxes)
    # every box is laminated by construction, so None means exposed
    subs = G._pile((1 << len(G)) - 1, tree.axis, tree.partition)
    if subs is None:
        raise IllFormedTreeError(
            "sibling subtrees realize different shadows; the node is not a pile"
        )
    require_keller(G)
    clash = _hidden_clash([G._status(mask) for mask in subs], tree.axis)
    if clash is not None:
        raise DisjointnessError(
            f"sibling subtrees both hide a partition on axis {clash}"
        )
    return G


def build_multipile(system: PartitionSystem, tree: MultipileTree) -> BoxFamily:
    """Construct the family encoded by a tree.

    At each node the axis factor of every box below a block is overridden
    to that block, so leaves only need to fix the axes no ancestor splits.
    Every node of the tree passed _build's checks, so G is a multipile by
    definition, and a recognizer that refuses it is a library bug.
    """
    G = _build(system, tree)
    if not is_multipile(G).verdict:
        raise TheoremViolationError("constructed family is not a multipile")
    return G


def extremal_p_value(m: Sequence[int], ordering: Sequence[int]) -> int:
    """1 + m_{i1} + m_{i1} m_{i2} + ... for the given axis ordering."""
    if sorted(ordering) != list(range(len(m))):
        raise ValueError("ordering must be a permutation of the axes")
    if any(v < 2 for v in m):
        raise ValueError("all sides must be at least 2")
    return sum(prod(m[i] for i in ordering[:k]) for k in range(len(m)))
