import gc
import importlib
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from kellerpack import (
    ALL_SYMMETRIES,
    TorusSpec,
    TorusTiling,
    canonical_form,
    census,
    enumerate_all_tilings,
    enumerate_tilings,
    is_multipile,
    orbit,
    p_params,
    validate_tiling,
)
from kellerpack.boxes import BoxFamily, row_major_strides
from kellerpack.census import (
    _axis_permutations,
    _group,
    _group_order,
    _origin_images,
    _search,
    _tables,
    _tiling,
    _translated,
    check_budget,
    census_from_tilings,
)
from kellerpack.cli import main
from kellerpack.errors import BudgetExceededError, InvalidTilingError
from kellerpack.partitions import elems_of
from kellerpack.serialization import tree_to_obj
from kellerpack.torus import require_bound, to_box_family
from oracles import permute_axes, reflect, translate

# the package exports the census function under its module's name
CENSUS_MODULE = importlib.import_module("kellerpack.census")
MULTIPILES_MODULE = importlib.import_module("kellerpack.multipiles")


class TestEnumerate:
    def test_single_axis_q1(self):
        tilings = enumerate_tilings(TorusSpec((2,), (1,)))
        assert len(tilings) == 1
        assert tilings[0].starts == ((0,), (1,))

    def test_grid_only_at_q1(self):
        tilings = enumerate_tilings(TorusSpec((2, 2), (1, 1)))
        assert len(tilings) == 1

    def test_2x2_at_q2(self):
        spec = TorusSpec((2, 2), (2, 2))
        assert len(enumerate_all_tilings(spec)) == 12
        assert len(enumerate_tilings(spec)) == 2

    def test_all_results_are_valid_canonical_tilings(self):
        spec = TorusSpec((2, 3), (2, 3))
        for t in enumerate_tilings(spec):
            assert validate_tiling(t)
            assert canonical_form(t) == t

    def test_symmetry_subset_gives_more_representatives(self):
        spec = TorusSpec((2, 2), (2, 2))
        full = enumerate_tilings(spec, ALL_SYMMETRIES)
        translations_only = enumerate_tilings(spec, frozenset({"translate"}))
        none = enumerate_tilings(spec, frozenset())
        assert len(full) <= len(translations_only) <= len(none)
        assert len(none) == 12

    def test_jobs_do_not_change_results(self):
        spec = TorusSpec((2, 2), (2, 2))
        assert enumerate_tilings(spec, jobs=1) == enumerate_tilings(spec, jobs=2)

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            enumerate_tilings(TorusSpec((2, 2, 2), (4, 4, 4)), budget=100)
        with pytest.raises(BudgetExceededError):
            enumerate_all_tilings(TorusSpec((4, 4), (8, 8)), budget=100)


class TestCanonicalForm:
    def test_idempotent(self):
        t = TorusTiling(TorusSpec((2, 2), (2, 2)), ((0, 0), (0, 2), (2, 1), (2, 3)))
        c = canonical_form(t)
        assert canonical_form(c) == c

    def test_orbit_constant(self):
        t = TorusTiling(TorusSpec((2, 2), (2, 2)), ((0, 0), (0, 2), (2, 1), (2, 3)))
        c = canonical_form(t)
        for x in orbit(t):
            assert canonical_form(x) == c

    def test_starts_at_origin_with_translations(self):
        t = TorusTiling(TorusSpec((2, 2), (2, 2)), ((1, 1), (1, 3), (3, 0), (3, 2)))
        c = canonical_form(t)
        assert c.starts[0] == (0, 0)

    def test_invalid_rejected(self):
        t = TorusTiling(TorusSpec((2, 2), (2, 2)), ((0, 0), (0, 1), (2, 0), (2, 2)))
        with pytest.raises(InvalidTilingError):
            canonical_form(t)
        with pytest.raises(InvalidTilingError):
            orbit(t)

    def test_transforms_preserve_validity(self):
        t = TorusTiling(TorusSpec((2, 2), (2, 2)), ((0, 0), (0, 2), (2, 1), (2, 3)))
        assert validate_tiling(translate(t, (1, 3)))
        assert validate_tiling(permute_axes(t, (1, 0)))
        assert validate_tiling(reflect(t, (0, 1)))

    def test_reflection_is_an_involution(self):
        t = TorusTiling(TorusSpec((2, 2), (2, 2)), ((0, 0), (0, 2), (2, 1), (2, 3)))
        assert reflect(reflect(t, (0,)), (0,)) == t

    def test_permute_requires_matching_axes(self):
        # (2,3) axes have different keys, so only the identity survives
        assert _axis_permutations(TorusSpec((2, 3), (2, 2))) == [(0, 1)]
        assert len(_axis_permutations(TorusSpec((2, 2), (2, 2)))) == 2


def reference_elements(spec, symmetry):
    """(axis permutation, reflected axes) of each element enabled by
    `symmetry`, in the order of _group's tables."""
    d = spec.dimension
    keys = list(zip(spec.m, spec.q))
    perms = [
        sigma
        for sigma in permutations(range(d))
        if "permute" in symmetry or sigma == tuple(range(d))
        if all(keys[sigma[i]] == keys[i] for i in range(d))
    ]
    flips = [(False,) * d]
    if "reflect" in symmetry:
        flips = list(product((False, True), repeat=d))
    return [
        (sigma, [a for a in range(d) if flip[a]]) for sigma in perms for flip in flips
    ]


def act(t, element):
    """The image of t under one element, through the object-level
    permute_axes and reflect."""
    sigma, axes = element
    return reflect(permute_axes(t, sigma), axes)


def reference_origin_images(t, symmetry):
    """Start tuples of every element's image of t translated, with
    translate, to each of its cubes (left in place without translations),
    one object-level element at a time."""
    d = t.spec.dimension
    for element in reference_elements(t.spec, symmetry):
        image = act(t, element)
        if "translate" in symmetry:
            shifts = [tuple(-x for x in s) for s in image.starts]
        else:
            shifts = [(0,) * d]
        for v in shifts:
            yield translate(image, v).starts


def reference_canonical_form(t, symmetry):
    """Least start tuple over the group, applied one element at a time
    through the object-level translate/permute_axes/reflect."""
    return TorusTiling(t.spec, min(reference_origin_images(t, symmetry)))


SYMMETRY_SUBSETS = [
    frozenset(c) for k in range(4) for c in combinations(sorted(ALL_SYMMETRIES), k)
]


class TestCanonicalFormOracle:
    """The index-table action against the object-level reference, on
    every raw tiling of small grids."""

    @pytest.mark.parametrize(
        "m,q,subsets",
        [
            ((2, 2), (4, 4), SYMMETRY_SUBSETS),
            ((3, 3), (3, 3), SYMMETRY_SUBSETS),
            ((2, 2, 2), (1, 2, 2), SYMMETRY_SUBSETS),
            ((2, 3), (6, 6), [ALL_SYMMETRIES]),
        ],
    )
    def test_matches_reference(self, m, q, subsets):
        tilings = enumerate_all_tilings(TorusSpec(m, q))
        for symmetry in subsets:
            for t in tilings:
                assert canonical_form(t, symmetry) == reference_canonical_form(
                    t, symmetry
                ), (sorted(symmetry), t.starts)


def per_coordinate_images(spec, permute, reflections):
    """The (axis permutation, reflection) tables of _group, one image
    index per coordinate tuple of the grid."""
    d = spec.dimension
    sizes = spec.cell_sizes
    strides = row_major_strides(sizes)
    perms = _axis_permutations(spec) if permute else [tuple(range(d))]
    flips = list(product((False, True), repeat=d)) if reflections else [(False,) * d]
    return [
        tuple(
            sum(
                ((-c[sigma[a]] - spec.q[a]) % sizes[a] if flip[a] else c[sigma[a]])
                * strides[a]
                for a in range(d)
            )
            for c in product(*(range(n) for n in sizes))
        )
        for sigma in perms
        for flip in flips
    ]


ORBIT_GRIDS = [
    ((2, 2), (4, 4)),
    ((3, 3), (3, 3)),
    ((2, 2, 2), (1, 2, 2)),
    ((2, 2, 2), (2, 2, 2)),
    ((2, 3), (6, 6)),
]


class TestGroupTables:
    """The per-axis-row tables and the pruned orbit walk against the
    per-coordinate formula and the object-level action."""

    @pytest.mark.parametrize("m,q", ORBIT_GRIDS)
    def test_origin_images_match_unpruned(self, m, q):
        # every element translated to every cube of its image, object by
        # object, against the pruned walk over the recentred tables
        spec = TorusSpec(m, q)
        strides = row_major_strides(spec.cell_sizes)
        origin = (0,) * spec.dimension
        tilings = [t for t in enumerate_all_tilings(spec) if t.starts[0] == origin]
        assert tilings
        for symmetry in SYMMETRY_SUBSETS:
            for t in tilings:
                assert _origin_images(spec, t.starts, symmetry) == {
                    tuple(sum(x * st for x, st in zip(s, strides)) for s in starts)
                    for starts in reference_origin_images(t, symmetry)
                }, (sorted(symmetry), t.starts)

    @pytest.mark.parametrize("m,q", ORBIT_GRIDS + [((2, 2, 2, 2), (1, 2, 1, 2))])
    @pytest.mark.parametrize("translate_on", [False, True])
    def test_tables_match_object_action(self, m, q, translate_on):
        # entry i of an element's table is the index of its image of the
        # start with index i, translated back by its image of the origin
        # when translations are on
        spec = TorusSpec(m, q)
        strides = row_major_strides(spec.cell_sizes)
        origin = (0,) * spec.dimension

        def image(element, start, back):
            (s,) = translate(act(TorusTiling(spec, (start,)), element), back).starts
            return sum(x * st for x, st in zip(s, strides))

        cells = list(product(*(range(n) for n in spec.cell_sizes)))
        for permute, reflections in product((False, True), repeat=2):
            symmetry = {
                name for name, on in (("permute", permute), ("reflect", reflections))
                if on
            }
            tables = _group(spec, permute, reflections, translate_on)[0]
            elements = reference_elements(spec, symmetry)
            assert len(tables) == len(elements)
            for table, element in zip(tables, elements):
                (g0,) = act(TorusTiling(spec, (origin,)), element).starts
                back = tuple(-x for x in g0) if translate_on else origin
                assert table == tuple(image(element, c, back) for c in cells)

    @pytest.mark.parametrize("m,q", ORBIT_GRIDS + [((2, 2, 2, 2), (1, 2, 1, 2))])
    @pytest.mark.parametrize(
        "permute,reflections", list(product((False, True), repeat=2))
    )
    def test_images_match_per_coordinate_formula(self, m, q, permute, reflections):
        spec = TorusSpec(m, q)
        images = _group(spec, permute, reflections, False)[0]
        assert images == per_coordinate_images(spec, permute, reflections)
        symmetry = frozenset(
            name for name, on in (("permute", permute), ("reflect", reflections)) if on
        )
        assert len(images) == _group_order(spec, symmetry)

    @pytest.mark.parametrize("q,orbits", [((2, 2, 2), 9), ((4, 4, 4), 55)])
    def test_translated_once_per_class_and_cube(self, monkeypatch, q, orbits):
        # one call per orbit and start of its first raw tiling: the
        # recentred tables take each translate to all 48 elements' images,
        # against 48 x 8 = 384 calls per orbit when every element is
        # translated to every cube
        counted = []

        def counting(*args):
            counted.append(1)
            return _translated(*args)

        monkeypatch.setattr(CENSUS_MODULE, "_translated", counting)
        assert census(TorusSpec((2, 2, 2), q)).tilings_total == orbits
        assert len(counted) == orbits * 8


class TestGroupBudget:
    def test_order_counts_permutations_from_key_multiplicities(self):
        spec = TorusSpec((2, 2, 3, 2), (2, 2, 3, 1))
        assert _group_order(spec, ALL_SYMMETRIES) == 2 * 16
        assert _group_order(spec, frozenset({"permute"})) == 2
        assert _group_order(spec, frozenset({"translate"})) == 1
        assert _group_order(TorusSpec((2,) * 7, (1,) * 7), ALL_SYMMETRIES) == 645_120

    def test_six_axes_need_a_larger_budget(self):
        spec = TorusSpec((2,) * 6, (1,) * 6)
        with pytest.raises(BudgetExceededError):
            check_budget(spec, 1024, ALL_SYMMETRIES)
        check_budget(spec, 2048, ALL_SYMMETRIES)
        check_budget(spec, 1024, frozenset({"translate", "reflect"}))
        check_budget(spec, 1024)

    def test_budget_below_group_order_refuses_a_grid_within_the_cell_cap(
        self, capsys
    ):
        # 4 cells fit a budget of 4, but 8 symmetries x 4 cells do not fit 4^2
        argv = ["census", "--m", "2,2", "--q", "1,1", "--budget"]
        assert main(argv + ["4"]) == 3
        assert capsys.readouterr().err == (
            "error: 8 symmetries x 4 cells = 32 table entries "
            "exceed the budget squared, 4^2 = 16\n"
        )
        assert main(argv + ["4", "--symmetry", "none"]) == 0
        assert main(argv + ["6"]) == 0

    def test_seven_axes_exit_3_before_any_table(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("group tables built over the budget")

        monkeypatch.setattr(CENSUS_MODULE, "_group", refuse)
        monkeypatch.setattr(CENSUS_MODULE, "_axis_permutations", refuse)
        code = main(["census", "--m", ",".join("2" * 7), "--q", ",".join("1" * 7)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: 645120 symmetries x 128 cells = 82575360 table entries "
            "exceed the budget squared, 1024^2 = 1048576\n"
        )


class TestEnumerateOracle:
    """The orbit-marking enumeration against canonical_form applied to
    every raw tiling."""

    @pytest.mark.parametrize(
        "symmetry", SYMMETRY_SUBSETS, ids=lambda s: "+".join(sorted(s)) or "none"
    )
    @pytest.mark.parametrize(
        "m,q",
        [((2, 2), (4, 4)), ((3, 3), (3, 3)), ((2, 2, 2), (1, 2, 2)), ((2, 3), (6, 6))],
    )
    def test_matches_canonicalized_brute_force(self, m, q, symmetry):
        spec = TorusSpec(m, q)
        expected = sorted(
            {canonical_form(t, symmetry) for t in enumerate_all_tilings(spec)},
            key=lambda t: t.starts,
        )
        assert enumerate_tilings(spec, symmetry) == expected

    def test_2x2x2_q4_full_symmetry(self):
        tilings = enumerate_tilings(TorusSpec((2, 2, 2), (4, 4, 4)))
        assert len(set(tilings)) == 55
        assert all(canonical_form(t) == t for t in tilings)
        assert Counter(p_params(t).total for t in tilings) == {
            3: 1, 4: 6, 5: 20, 6: 20, 7: 8
        }


class TestSlowPathEquivalence:
    @pytest.mark.parametrize(
        "m,q",
        [((2,), (2,)), ((3,), (3,)), ((2, 2), (2, 2)), ((2, 3), (2, 1))],
    )
    def test_orbits_expand_to_brute_force(self, m, q):
        spec = TorusSpec(m, q)
        brute = Counter(t.starts for t in enumerate_all_tilings(spec))
        expanded: Counter = Counter()
        for t in enumerate_tilings(spec):
            for x in orbit(t):
                expanded[x.starts] += 1
        assert brute == expanded

    def test_translation_only_reduction(self):
        spec = TorusSpec((2, 2), (2, 2))
        sym = frozenset({"translate"})
        brute = {t.starts for t in enumerate_all_tilings(spec)}
        expanded = set()
        for t in enumerate_tilings(spec, sym):
            expanded.update(x.starts for x in orbit(t, sym))
        assert brute == expanded


# full census rows under the whole symmetry group: (m, q, total,
# p histogram, max_p, bound, equality count, multipile count, attaining)
GOLDEN_ROWS = [
    ((2, 3), (6, 6), 10, {2: 1, 3: 6, 4: 3}, 4, 4, 3, 6, (True, True, True)),
    ((3, 3), (3, 3), 3, {2: 1, 3: 1, 4: 1}, 4, 4, 1, 1, (True,)),
    ((2, 2), (4, 4), 3, {2: 1, 3: 2}, 3, 3, 2, 2, (True, True)),
    ((2, 2, 2), (2, 2, 2), 9, {3: 1, 4: 3, 5: 4, 6: 1}, 6, 7, 0, 0, ()),
]


class TestCensus:
    @pytest.mark.parametrize(
        "m,q,total,hist,max_p,bound,equality,multipiles,attaining", GOLDEN_ROWS
    )
    def test_golden_row(
        self, m, q, total, hist, max_p, bound, equality, multipiles, attaining
    ):
        row = census(TorusSpec(m, q))
        assert (
            row.tilings_total, row.p_histogram, row.max_p, row.bound,
            row.equality_count, row.multipile_count, row.attaining_multipile,
        ) == (total, hist, max_p, bound, equality, multipiles, attaining)
        assert row.conjectural == (len(set(m)) > 1)

    def test_2x2(self):
        row = census(TorusSpec((2, 2), (2, 2)))
        assert row.tilings_total == 2
        assert row.p_histogram == {2: 1, 3: 1}
        assert row.max_p == row.bound == 3
        assert row.equality_count == row.multipile_count == 1
        assert not row.conjectural
        assert row.attaining_multipile == (True,)

    def test_3x3_pilot(self):
        row = census(TorusSpec((3, 3), (3, 3)))
        assert row.max_p == 4 and row.bound == 4
        assert row.equality_count == row.multipile_count
        assert all(row.attaining_multipile)

    def test_mixed_sides_conjectural(self):
        row = census(TorusSpec((2, 3), (6, 6)))
        assert row.conjectural
        assert row.bound == 4  # lamination value, larger side innermost
        assert row.max_p <= row.bound
        assert len(row.attaining_multipile) == row.equality_count

    # (m, q, tilings at the weighted bound sum_i (m_i - 1)|p_i(T)| = |G| - 1)
    @pytest.mark.parametrize(
        "m,q,at_bound",
        [
            ((2, 3), (6, 6), 6),
            ((2, 3), (3, 6), 4),
            ((2, 3), (6, 3), 4),
            ((2, 3), (2, 3), 1),
            ((2, 2, 3), (1, 2, 6), 8),
            ((2, 2, 3), (2, 2, 3), 0),
        ],
    )
    def test_mixed_sides_multipiles_attain_the_weighted_bound(self, m, q, at_bound):
        spec = TorusSpec(m, q)
        weighted = [
            sum((side - 1) * len(v) for side, v in zip(m, p_params(t).per_axis))
            for t in enumerate_tilings(spec)
        ]
        assert max(weighted) <= spec.n_cubes - 1
        assert weighted.count(spec.n_cubes - 1) == at_bound
        # census asserts the weighted bound and its equality case per tiling
        assert census(spec).multipile_count == at_bound

    def test_histogram_accounts_for_every_tiling(self):
        spec = TorusSpec((2, 2), (4, 4))
        row = census(spec)
        assert sum(row.p_histogram.values()) == row.tilings_total
        assert row.tilings_total == len(enumerate_tilings(spec))


def test_every_search_result_covers_each_cell_once():
    spec = TorusSpec((2, 3), (2, 3))
    from kellerpack import cube_cells

    for t in enumerate_all_tilings(spec):
        seen = Counter()
        for s in t.starts:
            seen.update(cube_cells(spec, s))
        assert set(seen) == set(product(*(range(v) for v in spec.cell_sizes)))
        assert set(seen.values()) == {1}


def every_cell_search(spec):
    """Reference DFS: the same branching as census._search, but over
    candidate lists holding each placement under every cell it covers,
    branching on the last cube too."""
    _, masks, _, _ = _tables(spec)
    n_cells = spec.n_cells
    cands = [[] for _ in range(n_cells)]
    for i, bits in enumerate(masks):
        for cell in range(n_cells):
            if bits >> cell & 1:
                cands[cell].append((i, bits))
    full = (1 << n_cells) - 1
    stack = [(0, ())]
    while stack:
        covered, placed = stack.pop()
        if covered == full:
            yield placed
            continue
        cell = (covered ^ (covered + 1)).bit_length() - 1  # lowest zero bit
        for i, bits in cands[cell]:
            if not bits & covered:
                stack.append((covered | bits, placed + (i,)))


def plain_search(spec, covered, placed):
    """census._search without its memo: the stack-based walk from
    (covered, placed) to every leaf, the last cube looked up by the mask
    of the uncovered cells."""
    _, _, cands, last = _tables(spec)
    full = (1 << spec.n_cells) - 1
    final = spec.n_cubes - 1
    stack = [(covered, placed)]
    while stack:
        covered, placed = stack.pop()
        if len(placed) == final:
            i = last.get(full ^ covered)
            if i is not None:
                yield placed + (i,)
            continue
        for i, bits in cands[(covered ^ (covered + 1)).bit_length() - 1]:
            if not bits & covered:
                stack.append((covered | bits, placed + (i,)))


# grids for the search order: (m, q, raw tiling count)
ORDER_GRIDS = [
    ((2, 3), (6, 6), 1_476),
    ((3, 3), (9, 9), 13_041),
    ((2, 2, 2), (2, 4, 4), 35_872),
    ((2, 2, 2, 2), (1, 1, 1, 2), 256),
    # the root or a shallow node already holds all but one cube
    ((2,), (3,), 3),
    ((3,), (2,), 2),
    ((2, 2), (1, 3), 9),
    # 12 cubes on a mixed grid: all 108 prefixes reach one mask at the split
    ((2, 2, 3), (1, 2, 6), 11_664),
]


class TestSearchTables:
    @pytest.mark.parametrize(
        "m,q",
        [((2, 3), (6, 6)), ((2, 2, 2), (2, 4, 4)), ((2, 2, 2, 2), (1, 1, 1, 2))],
    )
    def test_each_start_listed_once_under_its_lowest_cell(self, m, q):
        spec = TorusSpec(m, q)
        cells, masks, cands, last = _tables(spec)
        listed = [
            (cell, i, bits) for cell in range(spec.n_cells) for i, bits in cands[cell]
        ]
        assert sorted(i for _, i, _ in listed) == list(range(len(cells)))
        for cell, i, bits in listed:
            assert bits == masks[i]
            assert cell == (bits & -bits).bit_length() - 1
        # distinct starts have distinct masks, so the last cube is unique
        assert last == {bits: i for i, bits in enumerate(masks)}
        assert len(last) == len(cells)

    @pytest.mark.parametrize("m,q,raw", ORDER_GRIDS)
    def test_search_matches_every_cell_candidates_in_order(self, m, q, raw):
        spec = TorusSpec(m, q)
        found = list(_search(spec, 0, ()))
        assert len(found) == raw
        assert found == list(every_cell_search(spec))

    @pytest.mark.parametrize("m,q,raw", ORDER_GRIDS)
    def test_search_matches_the_plain_walk_from_every_root(self, m, q, raw):
        # roots: the empty cover, the origin cube, and the prefixes at
        # every depth up to the last cube of about ten tilings in the
        # order the walk finds them; each prefix is a node of the walk,
        # and depths above and below the split are both covered
        spec = TorusSpec(m, q)
        masks = _tables(spec)[1]
        found = list(plain_search(spec, 0, ()))
        assert len(found) == raw
        roots = [(0, ()), (masks[0], (0,))]
        for placed in found[:: len(found) // 10 + 1]:
            covered = 0
            for depth, i in enumerate(placed[:-1], 1):
                covered |= masks[i]
                roots.append((covered, placed[:depth]))
        depths = {len(placed) for _, placed in roots}
        assert depths == set(range(spec.n_cubes))
        for root in roots:
            assert list(_search(spec, *root)) == list(plain_search(spec, *root))

    def test_search_frees_its_memo_without_the_collector(self):
        # a reference cycle would keep the memo until a full collection
        spec = TorusSpec((2, 2, 2), (2, 4, 4))
        gc.collect()
        gc.disable()
        try:
            assert sum(1 for _ in _search(spec, 0, ())) == 35_872
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("m,q,raw", ORDER_GRIDS)
    def test_origin_rooted_search_finds_the_origin_tilings(self, m, q, raw):
        # translating each raw tiling by -s for each of its n_cubes starts
        # s gives each origin-fixed tiling once per cell of the grid
        spec = TorusSpec(m, q)
        cells, masks, _, _ = _tables(spec)
        fixed = sorted(tuple(sorted(p)) for p in _search(spec, masks[0], (0,)))
        index = {s: i for i, s in enumerate(cells)}
        tilings = enumerate_all_tilings(spec)
        assert fixed == [
            tuple(index[s] for s in t.starts)
            for t in tilings
            if t.starts[0] == cells[0]
        ]
        assert len(fixed) * spec.n_cells == raw * spec.n_cubes

    @pytest.mark.parametrize("m,q,raw", ORDER_GRIDS)
    def test_no_symmetry_enumerates_every_tiling(self, m, q, raw):
        # with the identity alone every raw tiling is its own orbit
        spec = TorusSpec(m, q)
        tilings = enumerate_tilings(spec, frozenset())
        assert len(tilings) == raw
        assert tilings == enumerate_all_tilings(spec)

    @pytest.mark.parametrize(
        "m,q",
        [
            ((2, 2), (2, 2)),
            ((2, 3), (6, 6)),
            ((3, 3), (9, 9)),
            ((2, 2, 2), (1, 2, 2)),
            ((2, 2, 2), (4, 4, 4)),
        ],
    )
    def test_masks_match_cube_cells(self, m, q):
        from kellerpack import cube_cells

        spec = TorusSpec(m, q)
        strides = row_major_strides(spec.cell_sizes)
        cells, masks, _, _ = _tables(spec)
        assert list(cells) == list(product(*(range(n) for n in spec.cell_sizes)))
        for s, bits in zip(cells, masks, strict=True):
            expected = 0
            for cell in cube_cells(spec, s):
                expected |= 1 << sum(x * st for x, st in zip(cell, strides))
            assert bits == expected


class TestUncheckedBuilder:
    """Tilings built from index tuples, skipping TorusTiling.__post_init__,
    equal those the checked constructor builds from their starts: every
    raw and canonical tiling, and canonical_form and orbit on at most
    about 200 raw tilings and 10 representatives per grid."""

    @pytest.mark.parametrize(
        "m,q",
        [
            ((2, 3), (6, 6)),
            ((3, 3), (9, 9)),
            ((2, 2, 2), (2, 4, 4)),
            ((2, 2, 2, 2), (1, 1, 1, 2)),
            ((2,), (3,)),
            ((3,), (2,)),
            ((2, 2), (1, 3)),
            ((2, 2, 2), (4, 4, 4)),
        ],
    )
    def test_matches_checked_constructor(self, m, q):
        spec = TorusSpec(m, q)
        raw = enumerate_all_tilings(spec)
        reps = enumerate_tilings(spec)
        built = [raw, reps, [canonical_form(t) for t in raw[:: len(raw) // 200 + 1]]]
        built += [orbit(t) for t in reps[:: len(reps) // 10 + 1]]
        for tilings in built:
            for t in tilings:
                checked = TorusTiling(t.spec, t.starts)
                assert type(t.starts) is tuple
                assert len(t.starts) == spec.n_cubes
                assert all(type(s) is tuple for s in t.starts)
                assert t == checked and hash(t) == hash(checked)

    @pytest.mark.parametrize("m,q", [((2,), (1,)), ((2,), (3,))])
    def test_two_cubes_give_a_tuple_of_two_starts(self, m, q):
        # the fewest cubes any spec has: _tiling never takes one index
        spec = TorusSpec(m, q)
        cells = _tables(spec)[0]
        for indices in map(sorted, _search(spec, 0, ())):
            t = _tiling(spec, cells, indices)
            assert type(t.starts) is tuple and len(t.starts) == 2
            assert all(type(s) is tuple and len(s) == 1 for s in t.starts)
            assert t == TorusTiling(spec, [cells[i] for i in indices])


# the tilings census_from_tilings folds: every raw tiling of the search
# grids, and the canonical or raw tilings of the CI census steps
MEMO_GRIDS = [(m, q, frozenset()) for m, q, _ in ORDER_GRIDS] + [
    ((2, 2, 2), (4, 4, 4), ALL_SYMMETRIES),
    ((2, 2, 2), (2, 2, 4), frozenset()),
    ((2, 3), (6, 6), ALL_SYMMETRIES),
    ((2, 2, 3), (1, 2, 6), ALL_SYMMETRIES),
    ((3, 3), (9, 9), ALL_SYMMETRIES),
]


class TestCensusMemo:
    """census_from_tilings decides each sub-family once per call: its
    tilings are masks over one family of their starts' Boxes, and one
    recognizer memo and one set of status tables, keyed by those masks,
    serve every tiling it folds."""

    @pytest.mark.parametrize("m,q,symmetry", MEMO_GRIDS)
    def test_trees_match_a_fresh_recognizer(self, m, q, symmetry, monkeypatch):
        # each tiling's tree as the census decides it over the memo it
        # shares, then a fresh recognizer on a family of its own
        spec = TorusSpec(m, q)
        tilings = enumerate_tilings(spec, symmetry)
        trees = {}
        multipile = MULTIPILES_MODULE._multipile

        def spying(G, memo, mask):
            tree = multipile(G, memo, mask)
            if mask.bit_count() == spec.n_cubes:
                trees[tuple(G.boxes[i] for i in elems_of(mask))] = tree
            return tree

        monkeypatch.setattr(MULTIPILES_MODULE, "_multipile", spying)
        row = census_from_tilings(spec, symmetry, tilings)
        monkeypatch.undo()
        assert len(trees) == len(tilings)
        verdicts = 0
        for t in tilings:
            G = to_box_family(t)
            tree, fresh = trees[G.boxes], is_multipile(G)
            assert fresh.verdict == (tree is not None)
            if tree is not None:
                assert tree_to_obj(tree) == tree_to_obj(fresh.tree)
            verdicts += fresh.verdict
        assert row.multipile_count == verdicts

    def test_the_shared_memo_and_tables_hold_no_whole_tiling(self, monkeypatch):
        # one family and one memo serve the whole census; they keep every
        # proper sub-family decided and drop each tiling once it is checked
        spec = TorusSpec((2, 2, 3), (1, 2, 6))
        shared = {}
        multipile = MULTIPILES_MODULE._multipile

        def spying(G, memo, mask):
            shared[id(G), id(memo)] = G, memo
            return multipile(G, memo, mask)

        monkeypatch.setattr(MULTIPILES_MODULE, "_multipile", spying)
        assert census(spec).tilings_total == 122
        [(family, memo)] = shared.values()
        sizes = {mask.bit_count() for mask in memo}
        assert sizes and max(sizes) < spec.n_cubes
        assert set(family._tables) <= set(memo)

    def test_each_start_set_gets_its_table_built_once(self, monkeypatch):
        # the box sets whose partition-status table is built rather than read
        spec = TorusSpec((2, 2, 2), (2, 2, 2))
        tilings = enumerate_tilings(spec)
        built = []
        status = BoxFamily._status

        def spying(G, mask):
            if mask not in G._tables:
                built.append(frozenset(G.boxes[i] for i in elems_of(mask)))
            return status(G, mask)

        monkeypatch.setattr(BoxFamily, "_status", spying)
        row = census_from_tilings(spec, ALL_SYMMETRIES, tilings)
        assert row.tilings_total == len(tilings) == 9
        assert built and len(built) == len(set(built))

    def test_each_start_set_is_decided_once(self, monkeypatch):
        # the box sets whose tree the recognizer builds rather than reads
        spec = TorusSpec((2, 2, 2), (2, 2, 2))
        tilings = enumerate_tilings(spec)
        decided = []
        multipile = MULTIPILES_MODULE._multipile

        def spying(G, memo, mask):
            if mask not in memo:
                decided.append(frozenset(G.boxes[i] for i in elems_of(mask)))
            return multipile(G, memo, mask)

        monkeypatch.setattr(MULTIPILES_MODULE, "_multipile", spying)
        for t in tilings:
            require_bound(t, t.starts)
        plain = decided[:]
        decided.clear()
        row = census_from_tilings(spec, ALL_SYMMETRIES, tilings)
        assert row.tilings_total == len(tilings) == 9
        assert (len(plain), len(set(plain))) == (122, 55)
        assert len(decided) == 55 and set(decided) == set(plain)

    @pytest.mark.parametrize(
        "other", [TorusSpec((3, 3), (3, 3)), TorusSpec((2, 2), (4, 4))]
    )
    def test_a_tiling_of_another_spec_is_refused(self, other):
        # its start indices would name other starts in the shared memo
        spec = TorusSpec((2, 2), (2, 2))
        tilings = enumerate_tilings(spec) + enumerate_tilings(other)
        with pytest.raises(ValueError, match="not of"):
            census_from_tilings(spec, ALL_SYMMETRIES, tilings)
        with pytest.raises(ValueError, match="not of"):
            census_from_tilings(spec, ALL_SYMMETRIES, enumerate_tilings(other))

    def test_census_frees_its_memo_without_the_collector(self):
        # a reference cycle would keep the memo until a full collection
        spec = TorusSpec((2, 2, 2), (2, 2, 4))
        tilings = enumerate_all_tilings(spec)
        gc.collect()
        gc.disable()
        try:
            row = census_from_tilings(spec, frozenset(), tilings)
            assert (row.tilings_total, row.multipile_count) == (6096, 192)
            assert gc.collect() == 0
        finally:
            gc.enable()
