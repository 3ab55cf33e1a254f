"""Recursive recognizer and constructor for multipiles.

A multipile is either a singleton box family, or a pile laminated with
respect to some nontrivial partition whose per-block restrictions are
multipiles hiding pairwise disjoint partition sets on every other axis.
Multipiles are exactly the families attaining c(G) = |G| - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

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
    restrict_to_block,
)
from .errors import DisjointnessError, IllFormedTreeError
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


def _candidate_laminations(G: BoxFamily) -> list[tuple[int, int]]:
    """(axis, partition) pairs that laminate G, axis-ascending.  A
    lamination partition holds every box's factor on its axis, so on each
    axis only the first box's partition need be tried."""
    out = []
    for axis in range(G.system.dimension):
        f = G.boxes[0].factors[axis]
        if f is not None and is_laminated(G, axis, f.partition):
            out.append((axis, f.partition))
    return out


def _recognize(
    G: BoxFamily, memo: dict[frozenset[Box], MultipileResult]
) -> MultipileResult:
    key = frozenset(G.boxes)
    if key in memo:
        return memo[key]
    if len(G) == 1:
        result = MultipileResult(True, Leaf(G.boxes[0]))
        memo[key] = result
        return result
    result = MultipileResult(False)
    # G is Keller and laminated, so it is a pile exactly where p is hidden
    for axis, p in _candidate_laminations(G):
        if classify_partition(G, axis, p) is not PartitionStatus.HIDDEN:
            continue
        part = G.system.partition(axis, p)
        children = []
        child_stats = []
        ok = True
        for b in range(part.n_blocks):
            sub = restrict_to_block(G, axis, p, b)
            if sub.is_empty:
                ok = False
                break
            sub_result = _recognize(sub, memo)
            if not sub_result.verdict:
                ok = False
                break
            children.append(sub_result.tree)
            child_stats.append(c_stats(sub))
        if not ok:
            continue
        if _hidden_clash(child_stats, axis) is None:
            result = MultipileResult(True, Node(axis, p, tuple(children)))
            break
    memo[key] = result
    return result


def _hidden_clash(child_stats: Sequence[CStats], axis: int) -> Optional[int]:
    """The first axis other than `axis` on which two children hide the same
    partition, or None when their hidden sets are pairwise disjoint."""
    for k in range(len(child_stats[0].hidden)):
        if k == axis:
            continue
        seen: set[int] = set()
        for st in child_stats:
            if seen & st.hidden[k]:
                return k
            seen |= st.hidden[k]
    return None


def is_multipile(G: BoxFamily) -> MultipileResult:
    """Decide whether G is a multipile; on success return a witness tree.

    Candidates are tried axis-ascending then partition-ascending, so the
    returned witness is deterministic.
    """
    require_keller(G)
    return _recognize(G, {})


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
    clash = _hidden_clash([c_stats(fam) for fam in child_families], tree.axis)
    if clash is not None:
        raise DisjointnessError(
            f"sibling subtrees both hide a partition on axis {clash}"
        )
    return G


def build_multipile(system: PartitionSystem, tree: MultipileTree) -> BoxFamily:
    """Construct the family encoded by a tree.

    At each node the axis factor of every box below a block is overridden
    to that block, so leaves only need to fix the axes no ancestor splits.
    """
    G = _build(system, tree)
    result = is_multipile(G)
    if not result.verdict:
        raise IllFormedTreeError("constructed family is not a multipile")
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
