import dataclasses
import pickle
import random
from itertools import combinations

import pytest

from kellerpack import (
    PartitionSystem,
    arc_system,
    arc_system_mixed,
    binary_system,
    check_c_forte,
    independent,
    join,
    make_partition,
    trivial_partition,
)
from kellerpack.partitions import lazy
from kellerpack.errors import (
    AxisMismatchError,
    CoverageError,
    DuplicateError,
    EmptyBlockError,
    NotProperSubfamilyError,
    OverlapError,
)
from kellerpack.serialization import system_from_obj, system_to_obj


def sets(p):
    return [set(s) for s in p.block_sets()]


def all_partitions(n):
    """Every partition of an n-element set, from its restricted growth
    strings: each label at most 1 + the largest before it."""
    labelings = [()]
    for _ in range(n):
        labelings = [
            lab + (label,)
            for lab in labelings
            for label in range(max(lab, default=-1) + 2)
        ]
    return [
        make_partition(n, [[e for e in range(n) if lab[e] == b]
                           for b in range(max(lab) + 1)])
        for lab in labelings
    ]


class TestMakePartition:
    def test_two_block_split(self):
        p = make_partition(4, [{0, 1}, {2, 3}])
        assert p.n_blocks == 2
        assert sets(p) == [{0, 1}, {2, 3}]

    def test_trivial(self):
        p = make_partition(3, [{0, 1, 2}])
        assert p.is_trivial

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            make_partition(4, [{0, 1}, {1, 2, 3}])

    def test_coverage_required(self):
        with pytest.raises(CoverageError):
            make_partition(4, [{0, 1}, {2}])

    def test_empty_block_rejected(self):
        with pytest.raises(EmptyBlockError):
            make_partition(4, [{0, 1, 2, 3}, set()])

    def test_ground_set_below_two_rejected(self):
        with pytest.raises(
            ValueError, match="^ground sets must have at least two elements$"
        ):
            make_partition(1, [{0}])

    def test_block_containing(self):
        p = make_partition(4, [{0, 3}, {1, 2}])
        assert [p.block_containing(e) for e in range(4)] == [0, 1, 1, 0]
        with pytest.raises(ValueError, match="^element 4 outside ground set$"):
            p.block_containing(4)

    def test_canonical_block_order(self):
        p = make_partition(4, [{2, 3}, {0, 1}])
        assert sets(p) == [{0, 1}, {2, 3}]


class TestJoin:
    def test_crossing_splits_join_trivial(self):
        p1 = make_partition(4, [{0, 1}, {2, 3}])
        p2 = make_partition(4, [{0, 2}, {1, 3}])
        assert join(p1, p2).is_trivial

    def test_idempotent(self):
        p = make_partition(4, [{0, 1}, {2, 3}])
        assert join(p, p) == p

    def test_overlap_components(self):
        p1 = make_partition(4, [{0}, {1}, {2, 3}])
        p2 = make_partition(4, [{0, 1}, {2}, {3}])
        assert sets(join(p1, p2)) == [{0, 1}, {2, 3}]

    def test_axis_mismatch(self):
        with pytest.raises(AxisMismatchError):
            join(make_partition(2, [{0}, {1}]), make_partition(3, [{0}, {1, 2}]))

    def test_algebraic_laws_randomized(self):
        # commutative, associative, idempotent; trivial partition absorbs
        rng = random.Random(7)
        for _ in range(50):
            size = rng.randint(2, 6)
            ps = []
            for _ in range(3):
                labels = [rng.randrange(size) for _ in range(size)]
                blocks = {}
                for e, l in enumerate(labels):
                    blocks.setdefault(l, []).append(e)
                ps.append(make_partition(size, list(blocks.values())))
            a, b, c = ps
            assert join(a, b) == join(b, a)
            assert join(join(a, b), c) == join(a, join(b, c))
            assert join(a, a) == a
            assert join(a, trivial_partition(size)).is_trivial

    def test_finest_common_coarsening_of_every_pair_of_five_element_partitions(self):
        # brute force: among the partitions coarser than both, the join is
        # the one with the most blocks
        def coarser(c, p):
            return all(any(b & ~cb == 0 for cb in c.blocks) for b in p.blocks)

        parts = all_partitions(5)
        above = {p: {c for c in parts if coarser(c, p)} for p in parts}
        for a in parts:
            for b in parts:
                common = above[a] & above[b]
                most = max(c.n_blocks for c in common)
                finest = [c for c in common if c.n_blocks == most]
                assert len(finest) == 1
                assert join(a, b) == finest[0]


class TestIndependent:
    def test_crossing_splits(self):
        p1 = make_partition(4, [{0, 1}, {2, 3}])
        p2 = make_partition(4, [{0, 2}, {1, 3}])
        assert independent(p1, p2)

    def test_self_not_independent(self):
        p = make_partition(4, [{0, 1}, {2, 3}])
        assert not independent(p, p)

    def test_size_six_pair(self):
        p1 = make_partition(6, [{0, 1, 2}, {3, 4, 5}])
        p2 = make_partition(6, [{0, 1}, {2, 3}, {4, 5}])
        # oracle: the block-overlap graph is connected
        assert join(p1, p2).is_trivial
        assert independent(p1, p2)

    def test_matches_join_on_every_pair_of_five_element_partitions(self):
        parts = all_partitions(5)
        assert len(set(parts)) == 52  # the Bell number B_5
        for a in parts:
            for b in parts:
                assert independent(a, b) == join(a, b).is_trivial

    def test_axis_mismatch(self):
        with pytest.raises(AxisMismatchError):
            independent(make_partition(4, [{0, 1}, {2, 3}]), trivial_partition(5))


class TestCForte:
    def test_single_blocks_differ(self):
        p1 = make_partition(4, [{0, 1}, {2, 3}])
        p2 = make_partition(4, [{0, 2}, {1, 3}])
        assert check_c_forte(p1, p2, {0}, {0}) is False

    def test_full_subfamily_rejected(self):
        p1 = make_partition(4, [{0, 1}, {2, 3}])
        p2 = make_partition(4, [{0, 2}, {1, 3}])
        with pytest.raises(NotProperSubfamilyError):
            check_c_forte(p1, p2, {0, 1}, {0})
        with pytest.raises(NotProperSubfamilyError):
            check_c_forte(p1, p2, set(), {0})

    def test_axis_mismatch(self):
        p1 = make_partition(4, [{0, 1}, {2, 3}])
        p2 = make_partition(6, [{0, 1, 2}, {3, 4, 5}])
        with pytest.raises(
            AxisMismatchError, match="^partitions on different ground sets$"
        ):
            check_c_forte(p1, p2, {0}, {0})

    @pytest.mark.parametrize("size", [4, 6, 8])
    def test_exhaustive_over_independent_pairs(self, size):
        # brute force over all proper subfamily pairs of a few independent
        # partition pairs: the unions must never coincide
        pairs = []
        if size == 4:
            pairs.append((make_partition(4, [{0, 1}, {2, 3}]),
                          make_partition(4, [{0, 2}, {1, 3}])))
        sys_ = arc_system(2, size // 2, 1)
        nontrivial = [p for p in sys_.families[0] if not p.is_trivial]
        for a, b in combinations(nontrivial, 2):
            pairs.append((a, b))
        for p1, p2 in pairs:
            assert independent(p1, p2)
            idx1 = range(p1.n_blocks)
            idx2 = range(p2.n_blocks)
            for r1 in range(1, p1.n_blocks):
                for s1 in combinations(idx1, r1):
                    for r2 in range(1, p2.n_blocks):
                        for s2 in combinations(idx2, r2):
                            assert not check_c_forte(p1, p2, s1, s2)


class TestArcSystem:
    def test_q1_grid(self):
        sys_ = arc_system(2, 1, 1)
        fam = sys_.families[0]
        assert sys_.axis_sizes == (2,)
        assert [set(s) for p in fam for s in p.block_sets()] == [
            {0},
            {1},
            {0, 1},
        ]

    def test_q2_partitions(self):
        sys_ = arc_system(2, 2, 1)
        p0, p1, triv = sys_.families[0]
        assert sets(p0) == [{0, 1}, {2, 3}]
        assert sets(p1) == [{0, 3}, {1, 2}]  # wrap arc {3,0} sorts first
        assert triv.is_trivial
        assert independent(p0, p1)

    def test_shape_and_independence(self):
        sys_ = arc_system(3, 2, 2)
        assert sys_.dimension == 2
        for fam in sys_.families:
            nontrivial = [p for p in fam if not p.is_trivial]
            assert len(nontrivial) == 2
            for p in nontrivial:
                assert p.n_blocks == 3
                assert all(len(p.block_elems(b)) == 2 for b in range(3))
            for a, b in combinations(nontrivial, 2):
                assert independent(a, b)

    def test_mixed(self):
        sys_ = arc_system_mixed([2, 3], [6, 6])
        assert sys_.axis_sizes == (12, 18)
        assert len(sys_.families[0]) == 7  # 6 arc partitions plus trivial

    def test_per_axis_lengths_differ(self):
        with pytest.raises(
            AxisMismatchError, match="^per-axis arc counts and resolutions differ$"
        ):
            arc_system_mixed([2, 3], [6])

    @pytest.mark.parametrize("n,q", [(1, 2), (2, 0)])
    def test_too_few_arcs_or_no_resolution(self, n, q):
        with pytest.raises(
            ValueError, match="^need n >= 2 arcs and resolution q >= 1$"
        ):
            arc_system_mixed([2, n], [2, q])

    def test_equal_systems_hash_equal(self):
        sys_ = arc_system(3, 2, 2)
        copies = [
            arc_system(3, 2, 2),
            pickle.loads(pickle.dumps(sys_)),
            dataclasses.replace(sys_),
            dataclasses.replace(sys_, axis_sizes=tuple(sys_.axis_sizes)),
        ]
        for other in copies:
            assert other == sys_
            assert hash(other) == hash(sys_)
            assert repr(other) == repr(sys_)
        assert hash(sys_) == hash((sys_.axis_sizes, sys_.families))
        assert [f.name for f in dataclasses.fields(sys_)] == [
            "axis_sizes",
            "families",
        ]
        assert hash(arc_system(3, 1, 2)) != hash(sys_)


class TestBinarySystem:
    def test_minimal_2x2(self):
        sys_ = binary_system([2, 2], [[{0}], [{0}]])
        assert sys_.axis_sizes == (2, 2)
        for fam in sys_.families:
            assert len(fam) == 2  # the split plus trivial

    def test_crossing_splits_independent(self):
        sys_ = binary_system([4], [[{0, 1}, {0, 2}]])
        nontrivial = [p for p in sys_.families[0] if not p.is_trivial]
        assert len(nontrivial) == 2
        assert independent(*nontrivial)

    def test_complement_is_duplicate(self):
        with pytest.raises(DuplicateError):
            binary_system([4], [[{0, 1}, {2, 3}]])

    def test_one_split_list_per_axis(self):
        with pytest.raises(
            AxisMismatchError, match="^one split list required per axis$"
        ):
            binary_system([2, 2], [[{0}]])

    def test_distinct_two_block_splits_always_independent(self):
        # any two distinct {A, complement} partitions are independent: the
        # overlap graph can only disconnect when the splits coincide
        rng = random.Random(3)
        for _ in range(100):
            size = rng.randint(2, 8)
            a = {e for e in range(size) if rng.random() < 0.5}
            b = {e for e in range(size) if rng.random() < 0.5}
            if not a or len(a) == size or not b or len(b) == size:
                continue
            if b in (a, set(range(size)) - a):
                continue
            pa = make_partition(size, [a, set(range(size)) - a])
            pb = make_partition(size, [b, set(range(size)) - b])
            assert independent(pa, pb)


class TestPartitionSystemChecks:
    def test_one_family_per_axis(self):
        with pytest.raises(
            AxisMismatchError, match="^one partition family required per axis$"
        ):
            PartitionSystem((2, 2), ((trivial_partition(2),),))

    def test_ground_set_below_two(self):
        with pytest.raises(
            ValueError, match="^ground sets must have at least two elements$"
        ):
            PartitionSystem((2, 1), ((trivial_partition(2),), ()))

    def test_partition_matches_its_axis(self):
        with pytest.raises(
            AxisMismatchError, match="^partition does not match its axis$"
        ):
            PartitionSystem((2, 3), ((trivial_partition(2),), (trivial_partition(2),)))


def test_system_json_round_trip():
    sys_ = arc_system(3, 2, 2)
    obj = system_to_obj(sys_)
    assert obj["unital"] is True
    assert system_from_obj(obj) == sys_


def test_system_json_tolerates_unordered_blocks():
    obj = {
        "axes": [{"size": 4, "partitions": [[[2, 3], [0, 1]]]}],
        "unital": True,
    }
    sys_ = system_from_obj(obj)
    assert sets(sys_.families[0][0]) == [{0, 1}, {2, 3}]
    assert sys_.is_unital  # trivial partition adjoined on read


class TestLazy:
    @dataclasses.dataclass(frozen=True)
    class Point:
        x: int
        y: int
        computed = []

        @lazy
        def norm(self) -> int:
            """The L1 norm."""
            type(self).computed.append(self)
            return abs(self.x) + abs(self.y)

    def test_computed_once_and_stored_in_the_instance_dict(self):
        P = self.Point
        a = P(1, -2)
        P.computed.clear()
        assert "norm" not in a.__dict__
        assert a.norm == 3 and a.norm == 3
        assert a.__dict__["norm"] == 3
        assert P.computed == [a]
        b = P(1, -2)
        assert b.norm == 3
        assert P.computed == [a, b]

    def test_class_access_returns_the_descriptor(self):
        d = self.Point.norm
        assert isinstance(d, lazy)
        assert d.name == "norm" and d.__doc__ == "The L1 norm."

    def test_frozen_dataclass_eq_hash_and_repr_ignore_the_value(self):
        P = self.Point
        a, b = P(3, 4), P(3, 4)
        before = (hash(a), repr(a))
        assert a.norm == 7
        assert a == b and hash(a) == hash(b) == before[0]
        assert repr(a) == repr(b) == before[1] == "TestLazy.Point(x=3, y=4)"
        assert [f.name for f in dataclasses.fields(P)] == ["x", "y"]

    def test_package_tables_are_lazy(self):
        system = arc_system(2, 2, 2)
        assert "block_bits" not in system.__dict__
        bits = system.block_bits
        assert system.__dict__["block_bits"] is bits
        assert system == arc_system(2, 2, 2)
        assert hash(system) == hash(arc_system(2, 2, 2))
