"""End-to-end acceptance run.

Executes the full verification suite once and reports each criterion as
its own test case; the suite itself prints one pass/fail line per
criterion (run with -s to see them live).
"""

import random
import re
from fractions import Fraction
from itertools import cycle, islice

import pytest

import kellerpack.multipiles
from kellerpack import (
    MultipileResult,
    TorusSpec,
    TorusTiling,
    acceptance,
    to_box_family,
)
from kellerpack.acceptance import CRITERIA, CriterionResult, run_all
from kellerpack.boxes import (
    PartitionStatus,
    c_stats,
    keller_families,
    keller_pair,
    pile_rewrite,
)
from kellerpack.cli import main
from kellerpack.errors import TheoremViolationError
from kellerpack.hats import BoxCountReport
from kellerpack.partitions import arc_system
from kellerpack.sampling import random_keller_family, random_system

DETAILS = [
    r"max_p=3 bound=3 equality=1 multipiles=1 in \d+\.\d\ds",
    r"max_p=7 bound=7 equality=8 multipiles=8 in \d+\.\ds",
    re.escape("pilot max_p=4 bound=4; q=(9,9) max_p=4; lamination witness p_total=4"),
    re.escape("17690 families, 0 violations, 0 equality/multipile mismatches"),
    re.escape("71 partitions checked, 0 failures"),
    re.escape("1476 box pairs, 0 mismatches"),
    re.escape("1000 suit pairs, 0 exposed violations, 0 hidden violations"),
    re.escape(
        "observed max_p=4, lamination value=4, attaining tilings all multipile: True"
    ),
    re.escape("6 grids compared, 0 mismatches"),
]


@pytest.fixture(scope="module")
def results():
    return run_all()


@pytest.mark.parametrize("index", range(len(CRITERIA)))
def test_criterion(results, index):
    res = results[index]
    assert res.passed, f"criterion {index + 1} ({res.name}): {res.detail}"
    assert re.fullmatch(DETAILS[index], res.detail), res.detail


def test_criteria_keep_the_names_and_results_the_benchmark_reads(results):
    # perfbench/passes.py picks criteria by their name prefix and reads
    # the seconds of the CriterionResult each returns
    assert len(results) == len(CRITERIA) == 9
    for i, (crit, res) in enumerate(zip(CRITERIA, results), 1):
        assert crit.__name__.startswith(f"criterion_{i}_")
        assert isinstance(res, CriterionResult)
        assert type(res.seconds) is float and res.seconds >= 0
    assert CRITERIA[3].__doc__.startswith("Theorem B on every family")


def cycling_statuses():
    """A classify_partition that answers EXPOSED, ABSENT, HIDDEN, EXPOSED
    in turn: every rewrite pair then loses an exposed or a hidden status."""
    statuses = cycle([PartitionStatus.EXPOSED, PartitionStatus.ABSENT,
                      PartitionStatus.HIDDEN, PartitionStatus.EXPOSED])
    return lambda G, axis, p: next(statuses)


FAILURES = [
    # every family fails the identity, the four-box family included
    ("verify_box_count", lambda: lambda G: BoxCountReport(Fraction(1), None, False),
     "criterion_5_box_count", re.escape("71 partitions checked, 71 failures")),
    # |G| = 4 holds only for the 2 tilings of (2,2)/(2,2) and the four boxes
    ("verify_box_count", lambda: lambda G: BoxCountReport(Fraction(1), 4, True),
     "criterion_5_box_count", re.escape("71 partitions checked, 68 failures")),
    ("hats_disjoint", lambda: lambda K, L: not keller_pair(K, L),
     "criterion_6_hat_disjointness", re.escape("1476 box pairs, 1476 mismatches")),
    ("classify_partition", cycling_statuses, "criterion_7_rewrite_preservation",
     r"1000 suit pairs, [1-9]\d* exposed violations, [1-9]\d* hidden violations"),
    ("orbit", lambda: lambda t: set(), "criterion_9_slow_path_equivalence",
     re.escape("6 grids compared, 6 mismatches")),
]


@pytest.mark.parametrize("collaborator, make_fake, criterion, detail", FAILURES)
def test_criterion_fails_on_a_broken_collaborator(
    monkeypatch, collaborator, make_fake, criterion, detail
):
    monkeypatch.setattr(acceptance, collaborator, make_fake())
    result = getattr(acceptance, criterion)()
    assert not result.passed
    assert re.fullmatch(detail, result.detail), result.detail


def test_verify_exits_1_when_a_criterion_fails(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "orbit", lambda t: set())
    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert lines[-1] == (
        "[FAIL] criterion 9: symmetry-reduced stream expands to the "
        "brute-force multiset -- 6 grids compared, 6 mismatches"
    )
    assert all(line.startswith("[PASS]") for line in lines[:-1])


def old_theorem_b_families(seed, n_random=10_000):
    """Criterion 4's family stream as its loop drew it before the stream
    had a helper of its own: the reference for _theorem_b_families."""
    rng = random.Random(seed)
    checked = 0
    for G in acceptance._census_families():
        checked += 1
        yield G
    while checked < n_random:
        system = random_system(rng)
        G = random_keller_family(system, rng)
        if G is None:
            continue
        checked += 1
        yield G


@pytest.fixture(scope="module")
def theorem_b_families():
    return list(acceptance._theorem_b_families())


ARC_SYSTEMS = [((2, 2, 2), 193), ((2, 1, 3), 2_088), ((3, 2, 2), 14_337)]


@pytest.mark.parametrize("part", range(3))
def test_theorem_b_families_match_the_old_loop(theorem_b_families, part):
    # the stream has three parts: the old loop's 72 census families, every
    # Keller family of three arc systems in place of the old loop's further
    # random draws, then the first 1,000 random families of the old loop
    new = theorem_b_families
    assert len(new) == 72 + 16_618 + 1_000
    old = list(islice(old_theorem_b_families(0), 72 + 1_000))
    if part == 0:
        assert new[:72] == old[:72] == list(acceptance._census_families())
    elif part == 1:
        exhaustive = []
        for (n, q, d), count in ARC_SYSTEMS:
            families = list(keller_families(arc_system(n, q, d)))
            assert len(families) == count
            exhaustive += families
        assert new[72:-1_000] == exhaustive
    else:
        assert new[-1_000:] == old[72:]


def test_criterion_4_raises_naming_the_family(monkeypatch):
    # the second family, laminated, attains its bound, so a recognizer that
    # refuses it contradicts the equality case; the grid does not
    spec = TorusSpec((2, 2), (2, 2))
    families = [
        to_box_family(TorusTiling(spec, starts))
        for starts in (((0, 0), (0, 2), (2, 0), (2, 2)),
                       ((0, 0), (0, 2), (2, 1), (2, 3)))
    ]
    monkeypatch.setattr(acceptance, "_theorem_b_families", lambda: iter(families))
    monkeypatch.setattr(
        kellerpack.multipiles, "is_multipile", lambda G: MultipileResult(False)
    )
    with pytest.raises(TheoremViolationError) as exc:
        acceptance.criterion_4_complexity_bound()
    assert str(exc.value) == (
        "equality/multipile mismatch on family 2 of criterion 4's stream"
    )


def old_rewrite_pairs(min_pairs=1000):
    """Criterion 7's rewrite walk as its break ladder ran it before
    _rewrites: the reference for the pairs and their order."""
    pairs = []
    families = list(acceptance._census_families())
    depth = 0
    while len(pairs) < min_pairs and depth < 6:
        next_families = []
        for G in families:
            stats = c_stats(G)
            for axis in range(G.system.dimension):
                for p in stats.hidden[axis]:
                    n_blocks = G.system.partition(axis, p).n_blocks
                    for A in range(n_blocks):
                        G2 = pile_rewrite(G, axis, p, A)
                        pairs.append((G, G2))
                        next_families.append(G2)
                        if len(pairs) >= min_pairs:
                            break
                    if len(pairs) >= min_pairs:
                        break
                if len(pairs) >= min_pairs:
                    break
            if len(pairs) >= min_pairs:
                break
        families = next_families
        depth += 1
    return pairs


def test_rewrites_match_the_old_ladder():
    new = list(islice(acceptance._rewrites(acceptance._census_families()), 1000))
    assert new == old_rewrite_pairs()


def test_cell_budget_environment_skips_no_grid(monkeypatch):
    # the library does not read the environment; clear the caches so that
    # the grids are enumerated again under the small environment budget
    monkeypatch.setenv("KELLERPACK_CELL_BUDGET", "100")
    caches = (acceptance._tilings, acceptance._census)
    for cache in caches:
        cache.cache_clear()
    try:
        result = acceptance.criterion_3_tight_bound_3x3()
        assert result.passed
        assert "q=(9,9) max_p=4" in result.detail
        assert sum(1 for _ in acceptance._census_families()) == 72
    finally:
        for cache in caches:
            cache.cache_clear()


def test_small_cell_budget_environment_keeps_criterion_9(monkeypatch):
    # its largest grid has 16 cells
    monkeypatch.setenv("KELLERPACK_CELL_BUDGET", "10")
    result = acceptance.criterion_9_slow_path_equivalence()
    assert result.passed, result.detail
    assert result.detail == "6 grids compared, 0 mismatches"
