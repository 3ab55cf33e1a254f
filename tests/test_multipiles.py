import gc
import hashlib
import json
import random
from itertools import chain, islice, product

import pytest

from kellerpack import (
    BlockRef,
    Box,
    BoxFamily,
    Leaf,
    Node,
    PartitionStatus,
    arc_system,
    build_multipile,
    c_stats,
    classify_partition,
    extremal_p_value,
    is_multipile,
    is_pile,
    realize,
)
from kellerpack.acceptance import _census_families
from kellerpack.boxes import keller_families
from kellerpack.errors import (
    DisjointnessError,
    DuplicateBoxError,
    IllFormedTreeError,
    NotKellerError,
)
from kellerpack.serialization import tree_from_obj, tree_to_obj
from oracles import grid_family, laminated_family, points, sys222


class TestIsMultipile:
    def test_singleton(self, sys222):
        G = BoxFamily(sys222, (Box(sys222, (BlockRef(0, 0), BlockRef(1, 1))),))
        res = is_multipile(G)
        assert res.verdict and isinstance(res.tree, Leaf)

    def test_laminated_tiling_is_multipile(self):
        res = is_multipile(laminated_family())
        assert res.verdict
        assert isinstance(res.tree, Node)
        assert (res.tree.axis, res.tree.partition) == (0, 0)
        # the two column piles laminate axis 1 by different partitions
        child_partitions = {child.partition for child in res.tree.children}
        assert child_partitions == {0, 1}

    def test_grid_tiling_is_not(self, sys222):
        G = grid_family()
        # both columns hide the same axis-1 partition
        cols = [c_stats(BoxFamily(sys222, G.boxes[:2])),
                c_stats(BoxFamily(sys222, G.boxes[2:]))]
        assert cols[0].hidden[1] == cols[1].hidden[1] != frozenset()
        assert not is_multipile(G).verdict

    def test_requires_keller(self, sys222):
        K = Box(sys222, (BlockRef(0, 0), BlockRef(0, 0)))
        L = Box(sys222, (BlockRef(1, 0), BlockRef(1, 0)))
        with pytest.raises(NotKellerError):
            is_multipile(BoxFamily(sys222, (K, L)))

    def test_frees_its_memo_without_the_collector(self):
        # a reference cycle per call would keep each memo until a full
        # collection; the families are built before the collector stops
        families = [
            laminated_family(),
            *islice(keller_families(arc_system(3, 2, 2)), 500),
        ]
        gc.collect()
        gc.disable()
        try:
            verdicts = [is_multipile(G).verdict for G in families]
            assert verdicts[0] and not all(verdicts)
            assert gc.collect() == 0
        finally:
            gc.enable()


# sha256 of the JSON list of [verdict, tree_to_obj(tree) or None] over the
# 72 census families and every Keller family of arc_system(2,2,2), (2,1,3)
# and (3,2,2), as the recognizer over BoxFamily restrictions returned them
RECOGNIZER_DIGEST = "65dca59ed2dea47c6296a7db4e03fda790d787ff4f1ac7550ee21201140c4f3f"


def test_recognizer_verdicts_and_trees_are_pinned():
    families = list(chain(
        _census_families(),
        (
            G
            for n, q, d in [(2, 2, 2), (2, 1, 3), (3, 2, 2)]
            for G in keller_families(arc_system(n, q, d))
        ),
    ))
    results = [is_multipile(G) for G in families]
    pairs = [
        [r.verdict, None if r.tree is None else tree_to_obj(r.tree)] for r in results
    ]
    digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
    assert (len(families), sum(r.verdict for r in results)) == (16_690, 331)
    assert digest == RECOGNIZER_DIGEST
    for G, r in zip(families, results):
        if r.verdict:
            assert set(build_multipile(G.system, r.tree).boxes) == set(G.boxes)


def _count_status_builds(monkeypatch):
    """Record (family, mask) of every BoxFamily._status call, and of each
    call that builds a table: one whose mask the family has not cached."""
    calls, builds = [], []
    status = BoxFamily._status

    def counting(G, mask):
        calls.append((G, mask))
        if mask not in G.__dict__.get("_tables", {}):
            builds.append((G, mask))
        return status(G, mask)

    monkeypatch.setattr(BoxFamily, "_status", counting)
    return calls, builds


class TestStatusTables:
    def test_a_second_pass_builds_no_table(self, monkeypatch):
        G = laminated_family()
        _, builds = _count_status_builds(monkeypatch)
        assert is_multipile(G).verdict
        masks = [mask for _, mask in builds]
        # the family's own table and its subfamilies', each built once
        assert len(masks) > 1 and len(masks) == len(set(masks))
        assert is_multipile(G).verdict
        assert c_stats(G).c_total == len(G) - 1
        assert classify_partition(G, 0, 0) is PartitionStatus.HIDDEN
        assert is_pile(G, 0, 0)
        assert [mask for _, mask in builds] == masks

    def test_the_constructor_and_recognizer_share_tables(self, sys222, monkeypatch):
        leaf = Leaf(Box(sys222, (None, None)))
        tree = Node(0, 0, (Node(1, 0, (leaf, leaf)), Node(1, 1, (leaf, leaf))))
        calls, builds = _count_status_builds(monkeypatch)
        G = build_multipile(sys222, tree)
        built = [mask for H, mask in builds if H is G]
        assert len(built) == len(set(built))
        # _build compares the hidden sets of the root's two children, and
        # the recognizer then reads the same two tables again
        halves = G._pile((1 << len(G)) - 1, 0, 0)
        assert len(halves) == 2
        for half in halves:
            assert built.count(half) == 1
            assert sum(H is G and mask == half for H, mask in calls) >= 2


class TestBuildMultipile:
    def test_leaf_full_box(self, sys222):
        G = build_multipile(sys222, Leaf(Box(sys222, (None, None))))
        assert len(G) == 1
        assert realize(G).is_full()

    def test_extremal_tree(self, sys222):
        leaf = Leaf(Box(sys222, (None, None)))
        tree = Node(
            0,
            0,
            (
                Node(1, 0, (leaf, leaf)),
                Node(1, 1, (leaf, leaf)),
            ),
        )
        G = build_multipile(sys222, tree)
        assert BoxFamily(sys222, tuple(sorted(G.boxes, key=str))).boxes == tuple(
            sorted(laminated_family().boxes, key=str)
        )

    def test_sibling_partition_reuse_rejected(self, sys222):
        leaf = Leaf(Box(sys222, (None, None)))
        tree = Node(
            0,
            0,
            (
                Node(1, 0, (leaf, leaf)),
                Node(1, 0, (leaf, leaf)),
            ),
        )
        with pytest.raises(DisjointnessError):
            build_multipile(sys222, tree)

    def test_sibling_shadow_mismatch_rejected(self, sys222):
        tree = Node(
            0,
            0,
            (
                Leaf(Box(sys222, (None, BlockRef(0, 0)))),
                Leaf(Box(sys222, (None, BlockRef(0, 1)))),
            ),
        )
        with pytest.raises(
            IllFormedTreeError,
            match="sibling subtrees realize different shadows; the node is not a pile",
        ):
            build_multipile(sys222, tree)

    def test_wrong_child_count_rejected(self, sys222):
        leaf = Leaf(Box(sys222, (None, None)))
        with pytest.raises(IllFormedTreeError):
            build_multipile(sys222, Node(0, 0, (leaf,)))

    def test_leaf_from_another_system_rejected(self, sys222):
        leaf = Leaf(Box(sys222, (None, None)))
        other = Leaf(Box(arc_system(2, 1, 2), (None, None)))
        with pytest.raises(
            IllFormedTreeError, match="^leaf box belongs to a different system$"
        ):
            build_multipile(sys222, Node(0, 0, (leaf, other)))

    @pytest.mark.parametrize("tree", ["tree", None, (0, 0, ())])
    def test_non_tree_rejected(self, sys222, tree):
        leaf = Leaf(Box(sys222, (None, None)))
        for t in (tree, Node(0, 0, (leaf, tree))):
            with pytest.raises(
                IllFormedTreeError, match=r"^not a multipile tree: "
            ) as exc:
                build_multipile(sys222, t)
            assert str(exc.value) == f"not a multipile tree: {tree!r}"

    def test_child_duplicates_raise_before_a_later_sibling(self, sys222):
        # child 0 is a multipile on its own, a pile on axis 0 by partition
        # 1; the root's override to block 0 of partition 0 makes its two
        # boxes one.  child 1 has the wrong number of children.
        leaf = Leaf(Box(sys222, (None, None)))
        tree = Node(0, 0, (Node(0, 1, (leaf, leaf)), Node(1, 0, (leaf,))))
        with pytest.raises(DuplicateBoxError, match="^duplicate box in family$"):
            build_multipile(sys222, tree)
        with pytest.raises(IllFormedTreeError):
            build_multipile(sys222, Node(0, 0, (leaf, Node(1, 0, (leaf,)))))

    def test_child_that_stops_being_keller(self, sys222):
        # the extremal tree laminated on axis 0 by partition 1, under a root
        # that overrides axis 0 to partition 0: its boxes stay distinct,
        # but boxes over different axis-1 partitions are no Keller pair
        leaf = Leaf(Box(sys222, (None, None)))
        child = Node(0, 1, (Node(1, 0, (leaf, leaf)), Node(1, 1, (leaf, leaf))))
        assert len(build_multipile(sys222, child)) == 4
        message = "^family violates Keller's condition$"
        with pytest.raises(NotKellerError, match=message):
            build_multipile(sys222, Node(0, 0, (child, child)))
        # the same node one level down raises before its parent's own
        # fault, a sibling with a different shadow, is reached
        sys3 = arc_system(2, 2, 3)
        leaf = Leaf(Box(sys3, (None,) * 3))
        child = Node(0, 1, (Node(1, 0, (leaf, leaf)), Node(1, 1, (leaf, leaf))))
        half = Leaf(Box(sys3, (BlockRef(0, 0), None, None)))
        with pytest.raises(IllFormedTreeError, match="^sibling subtrees realize"):
            build_multipile(sys3, Node(2, 0, (child, half)))
        with pytest.raises(NotKellerError, match=message):
            build_multipile(sys3, Node(2, 0, (Node(0, 0, (child, child)), half)))

    def test_round_trip_randomized(self):
        rng = random.Random(23)
        for _ in range(40):
            d = rng.randint(1, 3)
            sys_ = arc_system(2, 2, d)
            tree = _random_tree(sys_, rng, axes=list(range(d)), depth=0)
            G = build_multipile(sys_, tree)
            res = is_multipile(G)
            assert res.verdict
            assert c_stats(G).c_total == len(G) - 1

    def test_realization_is_a_box(self):
        # every multipile is a suit for a box: the realized set equals the
        # product of its per-axis projections
        rng = random.Random(29)
        for _ in range(20):
            d = rng.randint(1, 2)
            sys_ = arc_system(2, 2, d)
            tree = _random_tree(sys_, rng, axes=list(range(d)), depth=0)
            G = build_multipile(sys_, tree)
            P = realize(G)
            projections = []
            for axis in range(d):
                proj = sorted({pt[axis] for pt in points(P)})
                projections.append(proj)
            expected = {pt for pt in product(*projections)}
            assert set(points(P)) == expected


def _random_tree(sys_, rng, axes, depth):
    """Random well-formed multipile tree; sibling nodes take distinct
    partitions on their shared axis so the disjointness condition holds."""
    if not axes or depth >= 3 or rng.random() < 0.3:
        return Leaf(Box(sys_, tuple(None for _ in range(sys_.dimension))))
    axis = rng.choice(axes)
    remaining = [a for a in axes if a != axis]
    p = rng.choice(sys_.nontrivial_indices(axis))
    n = sys_.partition(axis, p).n_blocks
    children = []
    used: dict[int, set[int]] = {}
    for _ in range(n):
        child = _random_subtree(sys_, rng, remaining, depth + 1, used)
        children.append(child)
    return Node(axis, p, tuple(children))


def _random_subtree(sys_, rng, axes, depth, used):
    if not axes:
        return Leaf(Box(sys_, tuple(None for _ in range(sys_.dimension))))
    axis = axes[0]
    options = [
        p
        for p in sys_.nontrivial_indices(axis)
        if p not in used.get(axis, set())
    ]
    if not options:
        return Leaf(Box(sys_, tuple(None for _ in range(sys_.dimension))))
    p = rng.choice(options)
    used.setdefault(axis, set()).add(p)
    leaf = Leaf(Box(sys_, tuple(None for _ in range(sys_.dimension))))
    n = sys_.partition(axis, p).n_blocks
    return Node(axis, p, tuple(leaf for _ in range(n)))


class TestEqualityLaw:
    def test_equality_iff_multipile_small_exhaustive(self):
        # all Keller families of up to 3 proper boxes in a 2x2 system
        sys_ = arc_system(2, 1, 2)
        boxes = [
            Box(sys_, (BlockRef(0, a), BlockRef(0, b)))
            for a in range(2)
            for b in range(2)
        ]
        from itertools import combinations

        from kellerpack import is_keller_family, theorem_b_report

        for r in (1, 2, 3, 4):
            for combo in combinations(boxes, r):
                G = BoxFamily(sys_, combo)
                if not is_keller_family(G):
                    continue
                rep = theorem_b_report(G)
                assert rep.inequality_holds
                assert rep.equality == is_multipile(G).verdict


class TestExtremalPValue:
    def test_uniform(self):
        assert extremal_p_value((2, 2), (0, 1)) == 3
        assert extremal_p_value((3, 3), (0, 1)) == 4
        assert extremal_p_value((2, 2, 2), (0, 1, 2)) == 7

    def test_uniform_equals_geometric_sum(self):
        for n in (2, 3, 4):
            for d in (1, 2, 3):
                assert extremal_p_value((n,) * d, tuple(range(d))) == (
                    n**d - 1
                ) // (n - 1)

    def test_mixed_ordering(self):
        assert extremal_p_value((2, 3), (1, 0)) == 4
        assert extremal_p_value((2, 3), (0, 1)) == 3

    def test_bad_ordering(self):
        with pytest.raises(ValueError):
            extremal_p_value((2, 2), (0, 0))

    def test_side_below_two(self):
        with pytest.raises(ValueError, match="^all sides must be at least 2$"):
            extremal_p_value((2, 1), (0, 1))


def test_tree_json_round_trip(sys222):
    leaf = Leaf(Box(sys222, (None, None)))
    tree = Node(0, 0, (Node(1, 0, (leaf, leaf)), Node(1, 1, (leaf, leaf))))
    obj = tree_to_obj(tree)
    assert tree_from_obj(obj, sys222) == tree
