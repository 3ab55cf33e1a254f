import dataclasses
import pickle
import tracemalloc
from itertools import product

import pytest

import kellerpack.boxes
from kellerpack import (
    TorusSpec,
    TorusTiling,
    c_stats,
    census,
    enumerate_all_tilings,
    enumerate_tilings,
    extremal_p_value,
    extremal_recipe,
    find_defect,
    is_multipile,
    laminated_construction,
    p_params,
    theorem_c_report,
    tiling_system,
    to_box_family,
    validate_tiling,
)
from kellerpack.errors import (
    InvalidTilingError,
    NonUniformTorusError,
    RecipeError,
)
from kellerpack.serialization import tiling_from_obj, tiling_to_obj
from kellerpack.torus import _start_box, require_valid


GRID = TorusTiling(TorusSpec((2, 2), (2, 2)), ((0, 0), (0, 2), (2, 0), (2, 2)))
LAMINATED = TorusTiling(
    TorusSpec((2, 2), (2, 2)), ((0, 0), (0, 2), (2, 1), (2, 3))
)


class TestSpec:
    def test_basic_sizes(self):
        spec = TorusSpec((2, 3), (6, 6))
        assert spec.cell_sizes == (12, 18)
        assert spec.n_cells == 216
        assert spec.n_cubes == 6
        assert not spec.is_uniform()

    def test_side_one_rejected(self):
        with pytest.raises(ValueError):
            TorusSpec((1, 2), (1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            TorusSpec((2, 2), (2,))

    def test_cached_cell_sizes_keep_equality_hash_and_pickle(self):
        spec = TorusSpec((2, 3), (6, 1))
        assert spec.cell_sizes == (12, 3)
        TorusTiling(spec, ((0, 0), (6, 1)))
        fresh = TorusSpec((2, 3), (6, 1))
        assert spec == fresh and hash(spec) == hash(fresh)
        assert repr(spec) == repr(fresh) == "TorusSpec(m=(2, 3), q=(6, 1))"
        assert [f.name for f in dataclasses.fields(spec)] == ["m", "q"]
        assert {fresh: 1}[spec] == 1
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == fresh and hash(copy) == hash(fresh)
        assert copy.cell_sizes == (12, 3)
        with pytest.raises(InvalidTilingError) as info:
            TorusTiling(copy, ((0, 0), (6, 3)))
        assert str(info.value) == "start (6, 3) outside the torus grid"


class TestValidate:
    def test_grid_and_laminated_are_tilings(self):
        assert validate_tiling(GRID)
        assert validate_tiling(LAMINATED)

    def test_overlap_detected(self):
        t = TorusTiling(GRID.spec, ((0, 0), (0, 1), (2, 0), (2, 2)))
        assert not validate_tiling(t)
        assert find_defect(t) is not None

    def test_wrong_cube_count(self):
        t = TorusTiling(GRID.spec, ((0, 0), (0, 2), (2, 0)))
        assert not validate_tiling(t)

    def test_start_out_of_range(self):
        with pytest.raises(InvalidTilingError):
            TorusTiling(GRID.spec, ((0, 0), (0, 2), (2, 0), (4, 2)))

    @pytest.mark.parametrize(
        "bad,message",
        [
            ((0,), "start has wrong dimension"),
            ((0, 0, 0), "start has wrong dimension"),
            ((0, -1), "start (0, -1) outside the torus grid"),
            ((4, 0), "start (4, 0) outside the torus grid"),
        ],
    )
    def test_bad_start_message(self, bad, message):
        # the grid is 4 cells a side
        with pytest.raises(InvalidTilingError) as info:
            TorusTiling(GRID.spec, ((0, 2), bad, (2, 2)))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "starts,message",
        [
            (((3, 0), (-1, 0)), "start (-1, 0) outside the torus grid"),
            (((0, 9), (1,)), "start (0, 9) outside the torus grid"),
            (((5, 0), (0,)), "start has wrong dimension"),
        ],
    )
    def test_first_bad_start_in_sorted_order_is_named(self, starts, message):
        with pytest.raises(InvalidTilingError) as info:
            TorusTiling(GRID.spec, starts)
        assert str(info.value) == message

    def test_starts_become_sorted_tuples(self):
        t = TorusTiling(GRID.spec, [[2, 2], [0, 2], [2, 0], [0, 0]])
        assert t.starts == ((0, 0), (0, 2), (2, 0), (2, 2))
        assert t == GRID
        assert TorusTiling(GRID.spec, []).starts == ()

    def test_wraparound_cube(self):
        # a cube starting at the last cell wraps; the shifted grid tiles
        t = TorusTiling(TorusSpec((2,), (2,)), ((1,), (3,)))
        assert validate_tiling(t)


def oracle_valid(t):
    return len(t.starts) == t.spec.n_cubes and find_defect(t) is None


def variants(t, k):
    """t with its k-th start moved by +1 on each axis in turn, dropped and
    duplicated."""
    sizes = t.spec.cell_sizes
    s = t.starts[k]
    rest = t.starts[:k] + t.starts[k + 1:]
    for axis, n in enumerate(sizes):
        moved = s[:axis] + ((s[axis] + 1) % n,) + s[axis + 1:]
        yield TorusTiling(t.spec, rest + (moved,))
    yield TorusTiling(t.spec, rest)
    yield TorusTiling(t.spec, t.starts + (s,))


class TestMaskValidation:
    """validate_tiling ORs cube masks; find_defect walks the cells."""

    @pytest.mark.parametrize(
        "m,q", [((2, 2), (4, 4)), ((3, 3), (3, 3)), ((2, 2, 2), (2, 2, 2))]
    )
    def test_matches_find_defect_on_tilings_and_their_variants(self, m, q):
        tilings = enumerate_all_tilings(TorusSpec(m, q))
        assert tilings
        for i, t in enumerate(tilings):
            assert validate_tiling(t) and oracle_valid(t)
            for bad in variants(t, i % len(t.starts)):
                assert (validate_tiling(bad), oracle_valid(bad)) == (False, False), (
                    bad.starts
                )

    @pytest.mark.parametrize(
        "starts,cell",
        [
            (((0, 0), (0, 1), (2, 1), (2, 3)), (0, 1)),  # overlap
            (((0, 0), (0, 2), (2, 1)), (2, 0)),  # one cube short
            (((0, 0), (0, 2), (2, 1), (2, 1)), (2, 1)),  # duplicate
            (((0, 0), (0, 2), (2, 1), (2, 3), (1, 1)), (1, 1)),  # one too many
            (((0, 0), (0, 2), (2, 1), (3, 3)), (0, 3)),
        ],
    )
    def test_require_valid_names_the_defect(self, starts, cell):
        t = TorusTiling(LAMINATED.spec, starts)
        assert not validate_tiling(t)
        assert find_defect(t) == cell
        with pytest.raises(InvalidTilingError) as info:
            require_valid(t)
        assert str(info.value) == f"not a tiling; defect at {cell}"

    def test_large_grid_validates_in_little_memory(self):
        # 160,000 cells: one mask per start would hold O(n_cells^2) bits
        spec = TorusSpec((2, 2), (200, 200))
        t = TorusTiling(spec, ((0, 0), (0, 200), (200, 7), (200, 207)))
        tracemalloc.start()
        try:
            assert validate_tiling(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert not validate_tiling(TorusTiling(spec, t.starts[:3] + ((201, 207),)))


class TestStartMemo:
    """A bad start is named the same way on a fresh spec and on one that
    valid tilings have already used."""

    @staticmethod
    def filled_spec():
        spec = TorusSpec((2, 2), (2, 2))
        for t in (GRID, LAMINATED):
            TorusTiling(spec, t.starts)
        return spec

    @pytest.mark.parametrize(
        "starts,message",
        [
            (((1, 1), (4, 1), (3, 3)), "start (4, 1) outside the torus grid"),
            (((1, 1), (1, -1), (3, 3)), "start (1, -1) outside the torus grid"),
            (((1, 1), (3, 3, 0), (3, 3)), "start has wrong dimension"),
            (((0, 0), (5, 0), (-1, 3), (1, 1)), "start (-1, 3) outside the torus grid"),
            (((0, 2), (2, 2), (0, 9), (1,)), "start (0, 9) outside the torus grid"),
        ],
    )
    def test_bad_start_after_valid_tilings(self, starts, message):
        spec = self.filled_spec()
        with pytest.raises(InvalidTilingError) as info:
            TorusTiling(spec, starts)
        assert str(info.value) == message
        # the same tiling on a fresh spec fails the same way
        with pytest.raises(InvalidTilingError) as info:
            TorusTiling(TorusSpec((2, 2), (2, 2)), starts)
        assert str(info.value) == message


class TestPParams:
    def test_grid(self):
        params = p_params(GRID)
        assert params.per_axis == (frozenset({0}), frozenset({0}))
        assert params.total == 2

    def test_laminated(self):
        params = p_params(LAMINATED)
        assert params.per_axis == (frozenset({0}), frozenset({0, 1}))
        assert params.total == 3

    def test_invalid_tiling_rejected(self):
        t = TorusTiling(GRID.spec, ((0, 0), (0, 1), (2, 0), (2, 2)))
        with pytest.raises(InvalidTilingError):
            p_params(t)


class TestTheoremC:
    def test_grid_strict(self):
        rep = theorem_c_report(GRID)
        assert rep.p_total == 2
        assert rep.bound == 3
        assert rep.holds and not rep.equality and not rep.is_multipile

    def test_laminated_equality(self):
        rep = theorem_c_report(LAMINATED)
        assert rep.p_total == 3
        assert rep.equality and rep.is_multipile

    def test_d3_extremal_witness(self):
        spec = TorusSpec((2, 2, 2), (4, 4, 4))
        t = laminated_construction(spec, extremal_recipe(spec, (0, 1, 2)))
        rep = theorem_c_report(t)
        assert rep.p_total == rep.bound == 7
        assert rep.equality and rep.is_multipile

    def test_mixed_sides_rejected(self):
        spec = TorusSpec((2, 3), (6, 6))
        t = laminated_construction(spec, extremal_recipe(spec, (0, 1)))
        with pytest.raises(NonUniformTorusError):
            theorem_c_report(t)


class TestBridge:
    @pytest.mark.parametrize("m,q", [((2, 2), (2, 2)), ((2, 3), (6, 4)), ((3, 2, 2), (1, 2, 3))])
    def test_start_factors_hold_each_coordinate(self, m, q):
        # the factors of every start's Box, one per axis
        spec = TorusSpec(m, q)
        system = tiling_system(spec)
        for start in product(*map(range, spec.cell_sizes)):
            K = _start_box(spec, start)
            assert K.system is system
            assert len(K.factors) == spec.dimension
            for axis, (v, (p, block)) in enumerate(zip(start, K.factors)):
                assert p == v % spec.q[axis]
                assert system.partition(axis, p).blocks[block] >> v & 1

    def test_tilings_sharing_a_start_share_its_box(self):
        G, H = to_box_family(GRID), to_box_family(LAMINATED)
        assert GRID.starts[:2] == LAMINATED.starts[:2] == ((0, 0), (0, 2))
        assert G.boxes[0] is H.boxes[0] and G.boxes[1] is H.boxes[1]

    def test_a_rebuilt_system_gets_boxes_of_its_own(self):
        # as when the 16-spec cache evicts a spec and builds it again
        G = to_box_family(GRID)
        tiling_system.cache_clear()
        H = to_box_family(GRID)
        assert H.system is not G.system and H.system == G.system
        assert all(K.system is H.system for K in H.boxes)

    def test_census_shadows_each_start_box_once(self, monkeypatch):
        # 744 raw tilings of 8 boxes on 3 axes, but only 64 starts
        spec = TorusSpec((2, 2, 2), (2, 2, 2))
        real = kellerpack.boxes._shadow_mask
        calls = []

        def counting(K, axis):
            calls.append((K, axis))
            return real(K, axis)

        monkeypatch.setattr(kellerpack.boxes, "_shadow_mask", counting)
        _start_box.cache_clear()
        fresh = census(spec, frozenset())
        assert fresh.tilings_total == 744
        assert _start_box.cache_info().currsize <= spec.n_cells
        assert 0 < len(calls) <= spec.n_cells * spec.dimension
        shadowed = len(calls)
        assert census(spec, frozenset()) == fresh
        assert len(calls) == shadowed

    def test_grid_c_stats(self):
        G = to_box_family(GRID)
        assert c_stats(G).c_total == 2

    def test_c_equals_p_weighted(self):
        # on each axis the family uses one arc partition per offset class,
        # with m_i blocks, and hides every one of them: c_i(G) is
        # (m_i - 1)|p_i(T)|; on every orbit of the CI grids and every raw
        # tiling of four small grids
        orbits = [((2, 2, 2), (4, 4, 4)), ((2, 3), (6, 6)), ((3, 3), (9, 9)),
                  ((2, 2, 3), (1, 2, 6))]
        raw = [((2, 2), (2, 2)), ((2, 2), (4, 4)), ((3, 3), (3, 3)), ((2, 3), (2, 3))]
        tilings = [t for m, q in orbits for t in enumerate_tilings(TorusSpec(m, q))]
        tilings += [t for m, q in raw for t in enumerate_all_tilings(TorusSpec(m, q))]
        assert GRID in tilings and LAMINATED in tilings
        for t in tilings:
            G = to_box_family(t)
            stats = c_stats(G)
            params = p_params(t)
            used = tuple(
                frozenset(K.factors[i].partition for K in G.boxes)
                for i in range(t.spec.dimension)
            )
            assert stats.hidden == used == params.per_axis
            assert stats.c_per_axis == tuple(
                (m - 1) * len(offsets) for m, offsets in zip(t.spec.m, params.per_axis)
            )

    def test_bridge_on_constructed_tilings(self):
        spec = TorusSpec((3, 3), (3, 3))
        t = laminated_construction(spec, extremal_recipe(spec, (1, 0)))
        G = to_box_family(t)
        stats = c_stats(G)
        params = p_params(t)
        for i in range(2):
            assert stats.c_per_axis[i] == 2 * len(params.per_axis[i])
        assert is_multipile(G).verdict

    def test_shared_system(self):
        G1 = to_box_family(GRID)
        G2 = to_box_family(LAMINATED)
        assert G1.system is G2.system is tiling_system(GRID.spec)


class TestLaminatedConstruction:
    def test_reproduces_laminated_example(self):
        spec = TorusSpec((2, 2), (2, 2))
        t = laminated_construction(spec, [(0, [0]), (1, [0, 1])])
        assert t.starts == LAMINATED.starts

    def test_p_matches_prediction(self):
        for m, ordering in [
            ((2, 2), (0, 1)),
            ((3, 3), (0, 1)),
            ((2, 3), (1, 0)),
            ((2, 3), (0, 1)),
            ((2, 2, 2), (2, 0, 1)),
        ]:
            total = 1
            for v in m:
                total *= v
            spec = TorusSpec(m, tuple(total for _ in m))
            t = laminated_construction(spec, extremal_recipe(spec, ordering))
            assert p_params(t).total == extremal_p_value(spec.m, ordering)

    def test_offset_collision_rejected(self):
        spec = TorusSpec((2, 2), (2, 2))
        with pytest.raises(RecipeError):
            laminated_construction(spec, [(0, [0]), (1, [1, 1])])

    def test_offset_outside_resolution_rejected(self):
        spec = TorusSpec((2, 2), (2, 2))
        with pytest.raises(RecipeError, match="offset outside 0..q-1"):
            laminated_construction(spec, [(0, [2]), (1, [0, 1])])

    def test_axis_reuse_rejected(self):
        spec = TorusSpec((2, 2), (2, 2))
        with pytest.raises(RecipeError):
            laminated_construction(spec, [(0, [0]), (0, [0, 1])])

    def test_wrong_level_width_rejected(self):
        spec = TorusSpec((2, 2), (2, 2))
        with pytest.raises(RecipeError):
            laminated_construction(spec, [(0, [0]), (1, [0])])

    def test_extremal_recipe_needs_resolution(self):
        with pytest.raises(RecipeError):
            extremal_recipe(TorusSpec((3, 3), (2, 2)), (0, 1))


def test_tiling_has_slots_and_round_trips():
    # no instance dict: every raw tiling of an enumeration is one object
    assert not hasattr(LAMINATED, "__dict__")
    assert TorusTiling.__slots__ == ("spec", "starts")
    for t in (GRID, LAMINATED, TorusTiling(TorusSpec((2, 3), (1, 2)), ())):
        copy = pickle.loads(pickle.dumps(t))
        assert copy is not t
        assert copy == t and hash(copy) == hash(t) and copy.starts == t.starts
    assert GRID != LAMINATED
    assert len({GRID, LAMINATED, pickle.loads(pickle.dumps(GRID))}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        GRID.starts = ()


def test_tiling_json_round_trip():
    obj = tiling_to_obj(LAMINATED)
    assert obj["m"] == [2, 2] and obj["q"] == [2, 2]
    assert tiling_from_obj(obj) == LAMINATED
