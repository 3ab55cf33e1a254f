import dataclasses
import random
from collections import Counter
from itertools import combinations, product
from math import prod

import pytest

import kellerpack.boxes
import kellerpack.multipiles

from kellerpack import (
    BlockRef,
    Box,
    BoxFamily,
    PartitionStatus,
    PartitionSystem,
    PointSet,
    TorusSpec,
    TorusTiling,
    arc_system,
    arc_system_mixed,
    binary_system,
    c_stats,
    classify_partition,
    elementary_aggregate,
    is_cylinder,
    is_keller_family,
    is_pile,
    keller_pair,
    line_partition_check,
    make_partition,
    pile_rewrite,
    realize,
    realize_box,
    restrict,
    restrict_to_partition,
    theorem_b_report,
    to_box_family,
    trivial_partition,
)
from kellerpack.boxes import all_boxes, keller_factors, keller_families
from kellerpack.errors import (
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
from kellerpack.hats import hats_disjoint
from kellerpack.multipiles import is_multipile
from kellerpack.sampling import random_keller_family, random_system


def grid_tiling():
    spec = TorusSpec((2, 2), (1, 1))
    return TorusTiling(spec, ((0, 0), (0, 1), (1, 0), (1, 1)))


def laminated_tiling():
    spec = TorusSpec((2, 2), (2, 2))
    return TorusTiling(spec, ((0, 0), (0, 2), (2, 1), (2, 3)))


def scan_status(G, axis, p):
    """classify_partition by the point-scan oracle: ABSENT for an empty
    restriction, else HIDDEN iff the realized restriction is a cylinder."""
    Gp = restrict_to_partition(G, axis, p)
    if Gp.is_empty:
        return PartitionStatus.ABSENT
    if is_cylinder(realize(Gp), axis):
        return PartitionStatus.HIDDEN
    return PartitionStatus.EXPOSED


@pytest.fixture(scope="module")
def grid_family():
    return to_box_family(grid_tiling())


@pytest.fixture(scope="module")
def laminated_family():
    return to_box_family(laminated_tiling())


class TestKellerPair:
    def test_differ_in_one_partition(self):
        sys_ = arc_system(2, 1, 2)
        K = Box(sys_, (BlockRef(0, 0), BlockRef(0, 0)))
        L = Box(sys_, (BlockRef(0, 1), BlockRef(0, 0)))
        assert keller_pair(K, L)

    def test_full_box_never_matches(self):
        sys_ = arc_system(2, 1, 2)
        full = Box(sys_, (None, None))
        proper = Box(sys_, (BlockRef(0, 0), BlockRef(0, 1)))
        assert not keller_pair(full, proper)

    def test_blocks_of_different_partitions_do_not_count(self):
        sys_ = arc_system(2, 2, 2)
        K = Box(sys_, (BlockRef(0, 0), BlockRef(0, 0)))
        L = Box(sys_, (BlockRef(1, 0), BlockRef(0, 0)))
        assert not keller_pair(K, L)

    def test_system_mismatch(self):
        a = Box(arc_system(2, 1, 1), (BlockRef(0, 0),))
        b = Box(arc_system(3, 1, 1), (BlockRef(0, 0),))
        with pytest.raises(SystemMismatchError):
            keller_pair(a, b)

    def test_trivial_block_normalizes_to_full(self):
        sys_ = arc_system(2, 1, 1)
        triv_index = 1
        assert Box(sys_, (BlockRef(triv_index, 0),)).factors == (None,)

    def test_plain_tuple_factor_is_stored_as_blockref(self):
        sys_ = arc_system(2, 1, 2)
        K = Box(sys_, ((0, 1), None))
        assert type(K.factors[0]) is BlockRef
        assert K == Box(sys_, (BlockRef(0, 1), None))
        assert hash(K) == hash(Box(sys_, (BlockRef(0, 1), None)))
        assert Box(sys_, ([0, 1], None)) == K

    def test_factors_are_always_a_tuple(self):
        sys_ = arc_system(2, 1, 2)
        b = Box(sys_, [None, None])
        assert type(b.factors) is tuple
        assert b == Box(sys_, (None, None))
        assert hash(b) == hash(Box(sys_, (None, None)))

    def test_tuple_of_nontrivial_blockrefs_is_kept(self):
        sys_ = arc_system(2, 1, 2)
        factors = (BlockRef(0, 1), BlockRef(0, 0))
        assert Box(sys_, factors).factors is factors


def numbering_systems():
    """Arc systems, one axis, a trivial-only axis and ten random draws."""
    rng = random.Random(29)
    return [
        arc_system(2, 2, 2),
        arc_system_mixed((2, 3), (1, 2)),
        arc_system(3, 2, 1),
        PartitionSystem(
            (3, 2),
            (
                (make_partition(3, [[0], [1, 2]]), trivial_partition(3)),
                (trivial_partition(2),),
            ),
        ),
    ] + [random_system(rng) for _ in range(10)]


@pytest.mark.parametrize("system", numbering_systems())
class TestBlockNumbering:
    def test_one_keller_rule(self, system):
        boxes = all_boxes(system)
        for K, L in product(boxes, repeat=2):
            verdict = keller_pair(K, L)
            (k_sel, k_clash), (l_sel, l_clash) = K.keller_bits, L.keller_bits
            assert keller_factors(K.factors, L.factors) == verdict
            assert bool(k_clash & l_sel) == bool(l_clash & k_sel) == verdict
        for K, L in combinations(boxes, 2):
            assert hats_disjoint(K, L) == keller_pair(K, L)

    def test_is_keller_matches_all_pairs(self, system):
        boxes = all_boxes(system)
        rng = random.Random(len(boxes))
        verdicts = Counter()
        for _ in range(200):
            sub = rng.sample(boxes, min(len(boxes), 1 + rng.randrange(4)))
            G = BoxFamily(system, tuple(sub))
            oracle = all(
                keller_factors(K.factors, L.factors) for K, L in combinations(sub, 2)
            )
            assert G._is_keller == oracle
            verdicts[oracle] += 1
        assert verdicts[True] and verdicts[False]

    def test_each_block_has_a_bit_and_clashes_with_its_partition(self, system):
        seen = 0
        for axis, parts in enumerate(system.block_bits):
            for p, blocks in enumerate(parts):
                part = system.partition(axis, p)
                assert len(blocks) == (0 if part.is_trivial else part.n_blocks)
                whole = sum(bit for _, bit, _ in blocks)
                for b, (ref, bit, clash) in enumerate(blocks):
                    assert type(ref) is BlockRef and ref == (p, b)
                    assert bit.bit_count() == 1 and not bit & seen
                    seen |= bit
                    assert clash == whole ^ bit
        boxes = all_boxes(system)
        assert len({K.keller_bits[0] for K in boxes}) == len(boxes)


class TestIsKellerFamily:
    def test_singleton(self):
        sys_ = arc_system(2, 1, 1)
        G = BoxFamily(sys_, (Box(sys_, (BlockRef(0, 0),)),))
        assert is_keller_family(G)

    def test_grid_tiling_is_keller(self, grid_family):
        assert is_keller_family(grid_family)

    def test_sharing_a_point_fails(self):
        sys_ = arc_system(2, 2, 2)
        K = Box(sys_, (BlockRef(0, 0), BlockRef(0, 0)))
        L = Box(sys_, (BlockRef(1, 0), BlockRef(1, 0)))
        assert realize_box(K).bits & realize_box(L).bits
        assert not is_keller_family(BoxFamily(sys_, (K, L)))

    def test_empty_family_rejected(self):
        sys_ = arc_system(2, 1, 1)
        with pytest.raises(EmptyFamilyError):
            is_keller_family(BoxFamily(sys_, ()))

    def test_duplicates_rejected(self):
        sys_ = arc_system(2, 1, 1)
        K = Box(sys_, (BlockRef(0, 0),))
        with pytest.raises(DuplicateBoxError):
            BoxFamily(sys_, (K, K))

    def test_box_of_another_system_rejected(self):
        K = Box(arc_system(2, 1, 1), (BlockRef(0, 0),))
        with pytest.raises(SystemMismatchError):
            BoxFamily(arc_system(3, 1, 1), (K,))

    def test_keller_implies_pairwise_disjoint(self):
        rng = random.Random(11)
        for _ in range(50):
            G = random_keller_family(random_system(rng), rng)
            for K, L in combinations(G.boxes, 2):
                assert not realize_box(K).bits & realize_box(L).bits


class TestAllBoxes:
    def test_order(self):
        # row-major over the axes; per axis the full axis, then the blocks
        sys_ = arc_system(2, 1, 2)
        F, A, B = None, BlockRef(0, 0), BlockRef(0, 1)
        assert [K.factors for K in all_boxes(sys_)] == [
            (F, F), (F, A), (F, B),
            (A, F), (A, A), (A, B),
            (B, F), (B, A), (B, B),
        ]

    def test_blocks_of_every_nontrivial_partition(self):
        sys_ = binary_system([2, 3], [[{0}], [{0}, {1}]])
        assert [K.factors[1] for K in all_boxes(sys_)[:5]] == [
            None, BlockRef(0, 0), BlockRef(0, 1), BlockRef(1, 0), BlockRef(1, 1),
        ]
        assert len(all_boxes(sys_)) == 3 * 5


class TestKellerFamilies:
    @pytest.mark.parametrize(
        "system",
        [arc_system(2, 1, 2), arc_system(2, 2, 1), binary_system([2, 2], [[{0}], [{0}]])],
        ids=["arc-2-1-2", "arc-2-2-1", "binary-2x2"],
    )
    def test_matches_brute_force(self, system):
        # every nonempty subset of the boxes whose pairs are all Keller pairs
        boxes = all_boxes(system)
        assert len(boxes) <= 9
        expected = {
            frozenset(subset)
            for r in range(1, len(boxes) + 1)
            for subset in combinations(boxes, r)
            if all(keller_pair(K, L) for K, L in combinations(subset, 2))
        }
        found = [frozenset(G.boxes) for G in keller_families(system)]
        assert len(found) == len(set(found))
        assert set(found) == expected

    def test_lexicographic_on_box_indices(self):
        system = arc_system(2, 2, 2)
        index = {K: i for i, K in enumerate(all_boxes(system))}
        keys = [
            tuple(index[K] for K in G.boxes) for G in keller_families(system)
        ]
        assert all(list(k) == sorted(k) for k in keys)
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "arc, count",
        [((2, 2, 2), 193), ((2, 1, 3), 2_088), ((3, 2, 2), 14_337)],
        ids=["2-2-2", "2-1-3", "3-2-2"],
    )
    def test_counts(self, arc, count):
        # as counted by the clique walk in perfbench/families.py, which
        # uses no package code
        assert sum(1 for _ in keller_families(arc_system(*arc))) == count


class TestRealize:
    def test_full_box_covers_x(self):
        sys_ = arc_system(2, 1, 2)
        G = BoxFamily(sys_, (Box(sys_, (None, None)),))
        assert realize(G).is_full()

    def test_tiling_covers_x(self, grid_family):
        assert realize(grid_family).is_full()

    def test_cardinality_is_volume_sum(self):
        sys_ = arc_system(2, 2, 2)
        K = Box(sys_, (BlockRef(0, 0), BlockRef(0, 0)))
        L = Box(sys_, (BlockRef(0, 1), BlockRef(1, 0)))
        G = BoxFamily(sys_, (K, L))
        assert is_keller_family(G)
        assert realize(G).cardinality() == K.volume() + L.volume() == 8

    def test_box_mask_matches_point_product(self):
        # the oracle sets one bit per point of the product of K's factors,
        # at its row-major index
        systems = [
            arc_system(2, 2, 2),
            arc_system(3, 2, 2),
            arc_system(2, 1, 3),
            binary_system([2, 3], [[{0}], [{0}, {1}]]),
        ]
        boxes = [K for sys_ in systems for K in all_boxes(sys_)]
        assert len(boxes) == 116
        for K in boxes:
            sizes = K.system.axis_sizes
            expected = 0
            for point in product(*(K.factor_elems(a) for a in range(len(sizes)))):
                index = 0
                for x, size in zip(point, sizes):
                    index = index * size + x
                expected |= 1 << index
            assert realize_box(K).sizes == sizes
            assert realize_box(K).bits == expected, K


class TestRestrict:
    def test_identity(self, grid_family):
        sys_ = grid_family.system
        every = [
            BlockRef(p, b)
            for p in range(len(sys_.families[0]))
            for b in range(sys_.partition(0, p).n_blocks)
        ]
        assert restrict(grid_family, 0, every).boxes == grid_family.boxes

    def test_whole_tiling_uses_one_partition(self, grid_family):
        assert restrict_to_partition(grid_family, 1, 0).boxes == grid_family.boxes

    def test_unused_block_gives_empty(self, laminated_family):
        sub = restrict(laminated_family, 0, [BlockRef(1, 0)])
        assert sub.is_empty


class TestIsCylinder:
    def test_matches_every_point_line(self):
        # the point scan against its definition, point by point: every
        # point on the axis line of a covered point is covered
        rng = random.Random(7)
        verdicts = Counter()
        for _ in range(300):
            sizes = tuple(2 + rng.randrange(2) for _ in range(1 + rng.randrange(3)))
            P = PointSet(sizes, rng.getrandbits(prod(sizes)))
            for axis in range(len(sizes)):
                scan = all(
                    P.contains(point[:axis] + (v,) + point[axis + 1:])
                    for point in P.points()
                    for v in range(sizes[axis])
                )
                assert is_cylinder(P, axis) == scan
                verdicts[scan] += 1
        assert verdicts[True] and verdicts[False]

    def test_full_space(self, grid_family):
        P = realize(grid_family)
        assert is_cylinder(P, 0) and is_cylinder(P, 1)

    def test_single_proper_box_is_not(self):
        sys_ = arc_system(2, 2, 2)
        P = realize_box(Box(sys_, (BlockRef(0, 0), BlockRef(0, 0))))
        assert not is_cylinder(P, 0)
        assert not is_cylinder(P, 1)

    def test_restriction_of_tiling_fills_lines(self, laminated_family):
        # every line through the restriction to a present partition is full
        P = realize(restrict_to_partition(laminated_family, 0, 0))
        assert is_cylinder(P, 0)


class TestClassifyPartition:
    def test_absent(self, laminated_family):
        # axis 0 never uses partition 1 in the laminated tiling
        status = classify_partition(laminated_family, 0, 1)
        assert status is PartitionStatus.ABSENT

    def test_grid_hidden(self, grid_family):
        assert classify_partition(grid_family, 0, 0) is PartitionStatus.HIDDEN
        assert classify_partition(grid_family, 1, 0) is PartitionStatus.HIDDEN

    def test_single_box_exposed(self):
        sys_ = arc_system(2, 1, 1)
        G = BoxFamily(sys_, (Box(sys_, (BlockRef(0, 0),)),))
        assert classify_partition(G, 0, 0) is PartitionStatus.EXPOSED

    def test_trivial_rejected(self, grid_family):
        triv = len(grid_family.system.families[0]) - 1
        with pytest.raises(TrivialPartitionError):
            classify_partition(grid_family, 0, triv)

    def test_fast_path_agrees_with_scan_oracle(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(80):
            G = random_keller_family(random_system(rng), rng)
            for axis in range(G.system.dimension):
                for p in G.system.nontrivial_indices(axis):
                    assert classify_partition(G, axis, p) is scan_status(G, axis, p)
                    checked += 1
        assert checked > 100


@pytest.mark.parametrize(
    "arc, count", [((2, 2, 2), 193), ((2, 1, 3), 2088)], ids=["2-2-2", "2-1-3"]
)
def test_fast_l3_matches_scan_on_every_keller_family(arc, count):
    families = list(keller_families(arc_system(*arc)))
    assert len(families) == count
    for G in families:
        system = G.system
        hidden = []
        for axis in range(system.dimension):
            scan = {p: scan_status(G, axis, p) for p in system.nontrivial_indices(axis)}
            for p, status in scan.items():
                assert classify_partition(G, axis, p) is status
            hidden.append(
                frozenset(p for p, s in scan.items() if s is PartitionStatus.HIDDEN)
            )
        stats = c_stats(G)
        assert stats.hidden == tuple(hidden)
        assert stats.c_per_axis == tuple(
            sum(system.partition(axis, p).n_blocks - 1 for p in hid)
            for axis, hid in enumerate(hidden)
        )
        assert stats.c_total == sum(stats.c_per_axis)


class TestCStats:
    def test_singleton_hides_nothing(self):
        sys_ = arc_system(2, 2, 2)
        G = BoxFamily(sys_, (Box(sys_, (BlockRef(0, 0), BlockRef(0, 0))),))
        assert c_stats(G).c_total == 0

    def test_grid(self, grid_family):
        stats = c_stats(grid_family)
        assert stats.hidden == (frozenset({0}), frozenset({0}))
        assert stats.c_per_axis == (1, 1)
        assert stats.c_total == 2

    def test_laminated(self, laminated_family):
        stats = c_stats(laminated_family)
        assert stats.hidden == (frozenset({0}), frozenset({0, 1}))
        assert stats.c_total == 3


class TestFamilyCache:
    def test_one_keller_scan_per_family(self, laminated_family, monkeypatch):
        # counts the scans of the boxes' block-bit AND that give the verdict
        scan = BoxFamily._is_keller
        real = scan.func
        calls = []

        def counting(G):
            calls.append(G)
            return real(G)

        monkeypatch.setattr(scan, "func", counting)
        G = BoxFamily(laminated_family.system, laminated_family.boxes)
        before = (hash(G), repr(G))
        assert is_keller_family(G)
        stats = c_stats(G)
        assert theorem_b_report(G).c == stats.c_total
        assert c_stats(G) is stats
        assert len(calls) == 1
        assert G == BoxFamily(G.system, G.boxes)
        assert (hash(G), repr(G)) == before
        assert [f.name for f in dataclasses.fields(BoxFamily)] == ["system", "boxes"]

    def test_one_shadow_table_per_family(self, laminated_family, monkeypatch):
        # fresh boxes, none shadowed yet; the recognizer below reaches its
        # recursion: G is a multipile
        real = kellerpack.boxes._shadow_mask
        system = laminated_family.system
        boxes = tuple(Box(system, K.factors) for K in laminated_family.boxes)
        before = [(hash(K), repr(K)) for K in boxes]
        calls = []

        def counting(K, axis):
            calls.append((K, axis))
            return real(K, axis)

        monkeypatch.setattr(kellerpack.boxes, "_shadow_mask", counting)
        monkeypatch.setattr(
            kellerpack.multipiles, "_shadow_mask", counting, raising=False
        )
        G = BoxFamily(system, boxes)
        c_stats(G)
        for axis in range(G.system.dimension):
            for p in G.system.nontrivial_indices(axis):
                classify_partition(G, axis, p)
                is_pile(G, axis, p)
        assert len(G) > 1 and is_multipile(G).verdict
        expected = [
            (K, axis)
            for K in boxes
            for axis, f in enumerate(K.factors)
            if f is not None
        ]
        assert Counter(calls) == Counter(expected)
        # one shadow per box and axis per process: families over the same
        # boxes, reordered or a subfamily, compute none again
        for H in (BoxFamily(system, boxes[::-1]), BoxFamily(system, boxes[:2])):
            c_stats(H)
            is_multipile(H)
        assert len(calls) == len(expected)
        # the cached row is outside the fields: eq, hash and repr ignore it
        assert all("row" in vars(K) for K in boxes)
        assert boxes == tuple(Box(system, K.factors) for K in boxes)
        assert [(hash(K), repr(K)) for K in boxes] == before
        assert [f.name for f in dataclasses.fields(Box)] == ["system", "factors"]

    def test_non_keller_raises_on_every_call(self):
        sys_ = arc_system(2, 2, 2)
        K = Box(sys_, (BlockRef(0, 0), BlockRef(0, 0)))
        L = Box(sys_, (BlockRef(1, 0), BlockRef(1, 0)))
        G = BoxFamily(sys_, (K, L))
        for _ in range(2):
            assert not is_keller_family(G)
            with pytest.raises(NotKellerError):
                c_stats(G)
            with pytest.raises(NotKellerError):
                theorem_b_report(G)


def test_is_pile_matches_cylinder_oracle_on_every_keller_family():
    system = arc_system(2, 2, 2)
    checked = piles = 0
    for G in keller_families(system):
        for axis in range(system.dimension):
            for p in system.nontrivial_indices(axis):
                for C in (G, restrict_to_partition(G, axis, p)):
                    if C.is_empty:
                        continue
                    laminated = all(
                        K.factors[axis] is not None
                        and K.factors[axis].partition == p
                        for K in C.boxes
                    )
                    expected = laminated and is_cylinder(realize(C), axis)
                    assert is_pile(C, axis, p) is expected
                    checked += 1
                    piles += expected
    assert (checked, piles) == (1216, 168)


def test_is_pile_bad_index_and_trivial_partition(grid_family):
    C = restrict_to_partition(grid_family, 0, 0)
    assert is_pile(C, 0, 0)
    triv = len(C.system.families[0]) - 1
    assert C.system.partition(0, triv).is_trivial
    assert is_pile(C, 0, triv) is False
    for axis, p in [(2, 0), (-1, 0), (0, triv + 1), (0, -1)]:
        for family in (C, BoxFamily(C.system, ())):
            with pytest.raises(IndexError, match=f"^no partition {p} on axis {axis}$"):
                is_pile(family, axis, p)


def _assert_status_table_matches_scan(G, members):
    """G's partition-status table of the boxes at `members` holds, on each
    axis, exactly the partitions they use whose point-scan verdict on
    their subfamily is hidden."""
    sub = BoxFamily(G.system, tuple(G.boxes[i] for i in members))
    table = G._status(sum(1 << i for i in members))
    for axis in range(G.system.dimension):
        used = {
            K.factors[axis].partition
            for K in sub.boxes
            if K.factors[axis] is not None
        }
        assert table[axis] == {
            p for p in used if scan_status(sub, axis, p) is PartitionStatus.HIDDEN
        }


def test_subfamily_status_tables_match_the_point_scan():
    # every nonempty subset of every Keller family of arc_system(2,2,2)
    system = arc_system(2, 2, 2)
    checked = 0
    for G in keller_families(system):
        for r in range(1, len(G) + 1):
            for members in combinations(range(len(G)), r):
                _assert_status_table_matches_scan(G, members)
                checked += 1
    assert checked == 929
    # larger families of random systems, on a seeded sample of subsets
    rng = random.Random(19)
    sampled = 0
    while sampled < 40:
        G = random_keller_family(random_system(rng), rng)
        if G is None or len(G) < 5:
            continue
        for _ in range(10):
            k = rng.randint(1, len(G))
            _assert_status_table_matches_scan(G, sorted(rng.sample(range(len(G)), k)))
        sampled += 1


class TestElementaryAggregate:
    def test_grid_pile_aggregate(self, grid_family):
        C = restrict_to_partition(grid_family, 0, 0)
        agg = elementary_aggregate(C, 0, 0, 0)
        assert len(agg) == 2
        assert all(K.factors[0] is None for K in agg.boxes)
        assert realize(agg).bits == realize(C).bits

    def test_single_line_box(self):
        sys_ = arc_system(2, 1, 2)
        line = Box(sys_, (BlockRef(0, 0), None))
        C = BoxFamily(sys_, (line,))
        with pytest.raises(NotPileError):
            # a single column is laminated but not a 1-cylinder
            elementary_aggregate(C, 1, 0, 0)
        row = BoxFamily(sys_, (Box(sys_, (None, BlockRef(0, 0))),))
        # laminated wrt axis-1 partition and realizes a 0-cylinder? no:
        # its axis-1 extent is one block, so it is a pile for axis 1 only
        # when every block's shadow matches; here partition 0 block 1 is
        # absent, so it is not a pile either
        with pytest.raises(NotPileError):
            elementary_aggregate(row, 1, 0, 0)

    def test_not_a_cylinder(self):
        sys_ = arc_system(2, 2, 2)
        C = BoxFamily(sys_, (Box(sys_, (BlockRef(0, 0), BlockRef(0, 0))),))
        with pytest.raises(NotPileError):
            elementary_aggregate(C, 0, 0, 0)

    def test_trivial_partition_and_bad_block(self, grid_family):
        C = restrict_to_partition(grid_family, 0, 0)
        triv = next(
            p
            for p, part in enumerate(C.system.families[0])
            if part.is_trivial
        )
        with pytest.raises(TrivialPartitionError):
            elementary_aggregate(C, 0, triv, 0)
        for A in (-1, 2):
            with pytest.raises(IndexError, match=f"block index {A} out of range"):
                elementary_aggregate(C, 0, 0, A)


class TestPileRewrite:
    def test_grid_rewrite_to_rows(self, grid_family):
        G2 = pile_rewrite(grid_family, 0, 0, 0)
        assert len(G2) == 2
        assert realize(G2).bits == realize(grid_family).bits
        assert is_keller_family(G2)
        assert all(K.factors[0] is None for K in G2.boxes)

    def test_rewrite_whole_laminated_family(self, laminated_family):
        G2 = pile_rewrite(laminated_family, 0, 0, 0)
        assert len(G2) == 2
        assert realize(G2).bits == realize(laminated_family).bits
        assert is_keller_family(G2)

    def test_not_hidden_rejected(self):
        sys_ = arc_system(2, 2, 2)
        G = BoxFamily(sys_, (Box(sys_, (None, None)),))
        with pytest.raises(NotHiddenError):
            pile_rewrite(G, 0, 0, 0)

    def test_hidden_set_splits_off_rewritten_partition(self, laminated_family):
        # after a rewrite on (axis, p), the axis's hidden set loses exactly p
        before = c_stats(laminated_family)
        G3 = pile_rewrite(laminated_family, 0, 0, 1)
        after = c_stats(G3)
        assert before.hidden[0] == after.hidden[0] | {0}
        assert 0 not in after.hidden[0]


class TestTheoremB:
    def test_singleton(self):
        sys_ = arc_system(2, 2, 2)
        G = BoxFamily(sys_, (Box(sys_, (BlockRef(0, 0), BlockRef(0, 0))),))
        rep = theorem_b_report(G)
        assert (rep.c, rep.size, rep.inequality_holds, rep.equality) == (
            0,
            1,
            True,
            True,
        )

    def test_grid(self, grid_family):
        rep = theorem_b_report(grid_family)
        assert (rep.c, rep.size, rep.equality) == (2, 4, False)
        assert rep.inequality_holds

    def test_laminated_extremal(self, laminated_family):
        rep = theorem_b_report(laminated_family)
        assert (rep.c, rep.size, rep.equality) == (3, 4, True)

    def test_random_sweep(self):
        rng = random.Random(17)
        for _ in range(200):
            G = random_keller_family(random_system(rng), rng)
            assert theorem_b_report(G).inequality_holds

    def test_every_keller_family_of_arc_system_3_3_2(self):
        checked = equality = 0
        for G in keller_families(arc_system(3, 3, 2)):
            rep = theorem_b_report(G)
            assert rep.inequality_holds, G
            assert rep.equality == is_multipile(G).verdict, G
            checked += 1
            equality += rep.equality
        assert (checked, equality) == (68_398, 358)


class TestLinePartitionCheck:
    def test_grid_line(self, grid_family):
        p = line_partition_check(grid_family, (0, 0), 0)
        assert p == grid_family.system.partition(0, 0)

    def test_laminated_right_column(self, laminated_family):
        # a vertical line in the right column meets the cubes at offset 1/2
        p = line_partition_check(laminated_family, (2, 0), 1)
        assert p == laminated_family.system.partition(1, 1)

    def test_not_covering_rejected(self, grid_family):
        partial = BoxFamily(grid_family.system, grid_family.boxes[:2])
        with pytest.raises(NotPartitionError):
            line_partition_check(partial, (0, 0), 0)

    def test_overlap_rejected(self):
        # the full box covers X, and the unit box lies inside it
        sys_ = arc_system(2, 1, 2)
        G = BoxFamily(
            sys_, (Box(sys_, (None, None)), Box(sys_, (BlockRef(0, 0), BlockRef(0, 0))))
        )
        with pytest.raises(NotPartitionError, match="^family boxes overlap$"):
            line_partition_check(G, (0, 0), 0)

    def test_completeness_violation_detected(self):
        # splits {0}, {0,1}, {2}, {3}: the assembled partition
        # {{0,1},{2},{3}} uses only family blocks but is not a member
        sys_ = binary_system([4], [[{0, 1}, {2}, {3}]])
        boxes = (
            Box(sys_, (BlockRef(0, 0),)),  # {0,1}
            Box(sys_, (BlockRef(1, 1),)),  # {2}
            Box(sys_, (BlockRef(2, 1),)),  # {3}
        )
        G = BoxFamily(sys_, boxes)
        with pytest.raises(CompletenessError):
            line_partition_check(G, (0,), 0)
