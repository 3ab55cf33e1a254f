"""Recursive recognizer and constructor for multipiles.

A multipile is either a singleton box family, or a pile laminated with
respect to some nontrivial partition whose per-block restrictions are
multipiles hiding pairwise disjoint partition sets on every other axis.
Multipiles are exactly the families attaining c(G) = |G| - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Optional, Sequence, Union

from .boxes import (
    BlockRef,
    Box,
    BoxFamily,
    CStats,
    PartitionStatus,
    c_stats,
    classify_partition,
    is_laminated,
    require_keller,
)
from .errors import DisjointnessError, IllFormedTreeError, TheoremViolationError
from .partitions import PartitionSystem, elems_of


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
    A family with no hidden lamination is refused before the recursion's
    tables are built.
    """
    require_keller(G)
    if len(G) > 1 and not any(
        is_laminated(G, axis, f.partition) and G._hidden[axis][f.partition]
        for axis, f in enumerate(G.boxes[0].factors)
        if f is not None
    ):
        return MultipileResult(False)
    return _recognize(G)


def require_theorem_b(G: BoxFamily, name) -> tuple[CStats, bool]:
    """c_stats(G) and G's multipile verdict, after checking Theorem B on
    G: c(G) <= |G| - 1, with equality iff G is a multipile.  A violation
    raises TheoremViolationError naming `name`.  This is the library's one
    check of the theorem; theorem_b_report is the non-raising report.
    c_stats raises NotKellerError for a family that is not Keller."""
    stats = c_stats(G)
    multipile = is_multipile(G).verdict
    bound = len(G) - 1
    if stats.c_total > bound:
        raise TheoremViolationError(
            f"c(G) = {stats.c_total} exceeds |G| - 1 = {bound} on {name}"
        )
    if (stats.c_total == bound) != multipile:
        raise TheoremViolationError(f"equality/multipile mismatch on {name}")
    return stats, multipile


def _recognize(G: BoxFamily) -> MultipileResult:
    """The recursion over subfamilies of G, as bit masks over its boxes,
    memoized per mask.  A subfamily of a Keller family is Keller, so none
    is checked again.  It reads G._rows, each box's factor and shadow per
    axis, which each box computes once, and each mask's partition-status
    table, G._status of its boxes, built from those rows; the full mask's
    is G._hidden."""
    rows = G._rows
    families = G.system.families
    full = (1 << len(G)) - 1
    tables = {full: G._hidden}
    memo: dict[int, MultipileResult] = {}

    def table(mask: int) -> tuple[dict[int, bool], ...]:
        if mask not in tables:
            tables[mask] = G._status(elems_of(mask))
        return tables[mask]

    def node(mask: int, axis: int, p: int) -> Optional[Node]:
        # one pass over the mask's rows: laminated by p, and the boxes
        # over each block of p
        subs = [0] * families[axis][p].n_blocks
        for i in elems_of(mask):
            row = rows[axis][i]
            if row is None or row[0].partition != p:
                return None
            subs[row[0].block] |= 1 << i
        # laminated and hidden: a pile, so no block is empty
        if not table(mask)[axis][p]:
            return None
        children = []
        for sub in subs:
            child = result(sub)
            if not child.verdict:
                return None
            children.append(child.tree)
        hidden = [[{q for q, h in t.items() if h} for t in table(sub)] for sub in subs]
        if _hidden_clash(hidden, axis) is not None:
            return None
        return Node(axis, p, tuple(children))

    def result(mask: int) -> MultipileResult:
        if mask not in memo:
            first = G.boxes[(mask & -mask).bit_length() - 1]
            if mask & (mask - 1) == 0:
                memo[mask] = MultipileResult(True, Leaf(first))
            else:
                nodes = (
                    node(mask, axis, f.partition)
                    for axis, f in enumerate(first.factors)
                    if f is not None
                )
                found = next(filter(None, nodes), None)
                memo[mask] = MultipileResult(found is not None, found)
        return memo[mask]

    return result(full)


def _hidden_clash(
    child_hidden: Sequence[Sequence[Collection[int]]], axis: int
) -> Optional[int]:
    """The first axis other than `axis` on which two children hide the same
    partition, or None when their hidden sets, given per child and axis,
    are pairwise disjoint."""
    for k in range(len(child_hidden[0])):
        if k == axis:
            continue
        seen: set[int] = set()
        for hidden in child_hidden:
            if seen & hidden[k]:
                return k
            seen |= hidden[k]
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
    child_families = []
    for b, child in enumerate(tree.children):
        sub = _build(system, child)
        boxes = tuple(
            K.with_factor(tree.axis, BlockRef(tree.partition, b)) for K in sub.boxes
        )
        child_families.append(BoxFamily(system, boxes))
    # boxes under different blocks differ on tree.axis: no duplicates here
    G = BoxFamily(system, tuple(K for fam in child_families for K in fam.boxes))
    if classify_partition(G, tree.axis, tree.partition) is PartitionStatus.EXPOSED:
        raise IllFormedTreeError(
            "sibling subtrees realize different shadows; the node is not a pile"
        )
    clash = _hidden_clash(
        [c_stats(fam).hidden for fam in child_families], tree.axis
    )
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
    total = 1
    prod = 1
    for idx in ordering[:-1]:
        prod *= m[idx]
        total += prod
    return total
