import random
from fractions import Fraction
from itertools import combinations

import pytest

from kellerpack import (
    BlockRef,
    Box,
    BoxFamily,
    PartitionSystem,
    TorusSpec,
    arc_system,
    elementary_aggregate,
    enumerate_tilings,
    hat_measure,
    hats_disjoint,
    keller_pair,
    make_partition,
    realize,
    suit_swap_check,
    suits_equivalent,
    to_box_family,
    trivial_partition,
    verify_box_count,
)
from kellerpack.errors import (
    NotPartitionError,
    PreconditionError,
    SystemMismatchError,
)
from kellerpack.hats import _pinned_coordinates, _union_size_counting
from kellerpack.boxes import all_boxes, keller_families
from kellerpack.sampling import random_keller_family, random_system
from oracles import _union_materialized, grid_family, laminated_family, sys222


class TestHatsDisjoint:
    def test_same_partition_different_blocks(self, sys222):
        K = Box(sys222, (BlockRef(0, 0), None))
        L = Box(sys222, (BlockRef(0, 1), None))
        assert hats_disjoint(K, L)

    def test_different_partitions_not_disjoint(self, sys222):
        K = Box(sys222, (BlockRef(0, 0), None))
        L = Box(sys222, (BlockRef(1, 0), None))
        assert not hats_disjoint(K, L)

    def test_system_mismatch(self, sys222):
        other = arc_system(2, 2, 1)
        with pytest.raises(SystemMismatchError):
            hats_disjoint(Box(sys222, (None, None)), Box(other, (None,)))

    def test_mirrors_keller_exhaustive(self, sys222):
        boxes = all_boxes(sys222)
        for K, L in combinations(boxes, 2):
            assert hats_disjoint(K, L) == keller_pair(K, L)

    def test_mirrors_keller_randomized(self):
        rng = random.Random(11)
        for _ in range(200):
            system = random_system(rng)
            G = random_keller_family(system, rng)
            if len(G) < 2:
                continue
            for K, L in combinations(G.boxes, 2):
                assert hats_disjoint(K, L)


class TestHatMeasure:
    def test_full_box(self, sys222):
        assert hat_measure(Box(sys222, (None, None))) == 1

    def test_proper_box_two_pins(self, sys222):
        K = Box(sys222, (BlockRef(0, 0), BlockRef(1, 1)))
        assert hat_measure(K) == Fraction(1, 4)

    def test_mixed_cardinality_sixth(self):
        # one axis split into two blocks, the other into three
        p2 = make_partition(2, [{0}, {1}])
        p3 = make_partition(3, [{0}, {1}, {2}])
        sys_ = PartitionSystem(
            (2, 3),
            (
                (p2, trivial_partition(2)),
                (p3, trivial_partition(3)),
            ),
        )
        K = Box(sys_, (BlockRef(0, 1), BlockRef(0, 2)))
        assert hat_measure(K) == Fraction(1, 6)

    def test_tiling_measures_sum_to_one(self):
        G = laminated_family()
        assert sum(hat_measure(K) for K in G.boxes) == 1


class TestSuitsEquivalent:
    def test_pile_and_its_aggregate(self, sys222):
        G = laminated_family()
        C = BoxFamily(sys222, tuple(K for K in G.boxes if K.factors[0] == BlockRef(0, 0)))
        assert len(C) == 2
        H = elementary_aggregate(C, 1, 0, 0)
        assert realize(C).bits == realize(H).bits
        assert suits_equivalent(C, H)

    def test_grid_and_laminated_tilings(self):
        # both are suits for the full polybox
        assert suits_equivalent(grid_family(), laminated_family())

    def test_inequivalent(self, sys222):
        G = laminated_family()
        C = BoxFamily(sys222, G.boxes[:2])
        D = BoxFamily(sys222, G.boxes[2:])
        assert not suits_equivalent(C, D)

    def test_counting_path_matches_materialized(self, sys222):
        # every ordered pair of equal-size Keller families, against the
        # union of their hats built point by point
        by_size = {}
        for G in keller_families(sys222):
            by_size.setdefault(len(G), []).append(G)
        pairs = equivalent = 0
        for families in by_size.values():
            for G1 in families:
                for G2 in families:
                    coords = _pinned_coordinates(G1.boxes + G2.boxes)
                    expected = _union_materialized(G1, coords) == _union_materialized(
                        G2, coords
                    )
                    assert suits_equivalent(G1, G2) == expected, (G1, G2)
                    pairs += 1
                    equivalent += expected
        assert (pairs, equivalent) == (13_329, 721)

    def test_counting_sizes_match_materialized(self):
        G1 = grid_family()
        G2 = laminated_family()
        coords = _pinned_coordinates(G1.boxes + G2.boxes)
        u1 = _union_materialized(G1, coords)
        u2 = _union_materialized(G2, coords)
        assert _union_size_counting(G1, G2, coords) == (
            len(u1),
            len(u2),
            len(u1 | u2),
        )


class TestVerifyBoxCount:
    def test_laminated_tiling(self):
        rep = verify_box_count(laminated_family())
        assert rep.measure_sum == 1
        assert rep.implied_size == 4
        assert rep.holds

    @pytest.mark.parametrize(
        "m, q, tilings, size",
        [((2, 3), (6, 6), 10, 6), ((2, 2, 3), (1, 2, 6), 122, 12)],
    )
    def test_implied_size_on_mixed_sides(self, m, q, tilings, size):
        # each axis's nontrivial partitions share one block count m_i
        families = [to_box_family(t) for t in enumerate_tilings(TorusSpec(m, q))]
        assert len(families) == tilings
        for G in families:
            rep = verify_box_count(G)
            assert (rep.implied_size, rep.holds) == (size, True)

    def test_improper_box_rejected(self, sys222):
        G = BoxFamily(sys222, (Box(sys222, (None, None)),))
        with pytest.raises(NotPartitionError):
            verify_box_count(G)

    def test_incomplete_family_rejected(self, sys222):
        G = BoxFamily(sys222, laminated_family().boxes[:2])
        with pytest.raises(NotPartitionError):
            verify_box_count(G)

    def test_mixed_cardinality_gives_no_implied_size(self):
        # a size-6 axis carrying independent 2-block and 3-block
        # partitions: the measure identity still holds, the product
        # formula does not
        p2 = make_partition(6, [{0, 1, 2}, {3, 4, 5}])
        p3 = make_partition(6, [{0, 3}, {1, 4}, {2, 5}])
        sys_ = PartitionSystem((6,), ((p2, p3, trivial_partition(6)),))
        G = BoxFamily(
            sys_,
            tuple(Box(sys_, (BlockRef(1, b),)) for b in range(3)),
        )
        rep = verify_box_count(G)
        assert rep.measure_sum == 1
        assert rep.implied_size is None
        assert rep.holds


class TestSuitSwap:
    def test_swap_pile_for_aggregate(self, sys222):
        G = laminated_family()
        C = BoxFamily(sys222, G.boxes[:2])
        D = BoxFamily(sys222, G.boxes[2:])
        agg = elementary_aggregate(C, 1, 0, 0)
        assert suit_swap_check([C, D], [agg, D])

    def test_identity_swap(self, sys222):
        G = laminated_family()
        C = BoxFamily(sys222, G.boxes[:2])
        D = BoxFamily(sys222, G.boxes[2:])
        assert suit_swap_check([C, D], [C, D])

    def test_length_mismatch(self, sys222):
        G = laminated_family()
        C = BoxFamily(sys222, G.boxes[:2])
        with pytest.raises(PreconditionError):
            suit_swap_check([C], [])

    def test_inequivalent_pair_rejected(self, sys222):
        G = laminated_family()
        C = BoxFamily(sys222, G.boxes[:2])
        D = BoxFamily(sys222, G.boxes[2:])
        with pytest.raises(PreconditionError):
            suit_swap_check([C], [D])

    def test_families_share_one_system(self, sys222):
        C = BoxFamily(sys222, laminated_family().boxes[:2])
        other = arc_system(2, 1, 2)
        E = BoxFamily(other, (Box(other, (None, None)),))
        with pytest.raises(
            PreconditionError, match="^all families must share one system$"
        ):
            suit_swap_check([C], [E])

    def test_first_union_must_be_keller(self, sys222):
        # two singleton suits whose boxes are not a Keller pair
        K = Box(sys222, (BlockRef(0, 0), BlockRef(0, 0)))
        L = Box(sys222, (BlockRef(1, 0), BlockRef(1, 0)))
        C, D = BoxFamily(sys222, (K,)), BoxFamily(sys222, (L,))
        with pytest.raises(
            PreconditionError, match="^the union of the first sequence is not Keller$"
        ):
            suit_swap_check([C, D], [C, D])

    def test_union_families_must_be_disjoint(self, sys222):
        C = BoxFamily(sys222, laminated_family().boxes[:2])
        with pytest.raises(
            PreconditionError, match="^families in a union must be pairwise disjoint$"
        ):
            suit_swap_check([C, C], [C, C])


def test_suits_equivalent_needs_one_system(sys222):
    other = arc_system(2, 1, 2)
    C = BoxFamily(sys222, (Box(sys222, (None, None)),))
    D = BoxFamily(other, (Box(other, (None, None)),))
    with pytest.raises(SystemMismatchError, match="^families from different systems$"):
        suits_equivalent(C, D)
