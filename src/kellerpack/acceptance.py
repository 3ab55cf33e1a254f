"""End-to-end verification suite.

Each criterion takes no argument and returns a CriterionResult, built
by _criterion from the check's (passed, detail) and its time; run_all
calls them in order and is what both `kellerpack verify` and the
acceptance tests drive.  The suite is deterministic: criterion 4 checks
Theorem B on every Keller family of three small arc systems, next to the
census families and a fixed random sample.  A criterion that fails
returns passed=False; a proved bound that fails, in criterion 4 or in a
census, raises TheoremViolationError instead, as a library bug.  The
enumerations are cached per process, and the censuses fold the cached
enumerations, so the suite enumerates each grid once.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import chain, combinations, islice
from math import prod

from .boxes import (
    BoxFamily,
    PartitionStatus,
    all_boxes,
    c_stats,
    classify_partition,
    keller_families,
    keller_pair,
    pile_rewrite,
)
from .census import (
    ALL_SYMMETRIES,
    census_from_tilings,
    enumerate_all_tilings,
    enumerate_tilings,
    orbit,
)
from .hats import hats_disjoint, verify_box_count
from .multipiles import extremal_p_value, require_theorem_b
from .partitions import arc_system, binary_system
from .sampling import random_keller_family, random_system
from .torus import (
    TorusSpec,
    extremal_recipe,
    laminated_construction,
    p_params,
    to_box_family,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


CRITERIA = []


def _criterion(name: str):
    """Turn a check returning (passed, detail) into a criterion that
    returns the CriterionResult named `name`, timed over the whole check,
    and append it to CRITERIA, which thus lists the criteria in the order
    of their definitions."""

    def decorate(check):
        @wraps(check)
        def criterion() -> CriterionResult:
            t0 = time.time()
            passed, detail = check()
            return CriterionResult(name, passed, detail, time.time() - t0)

        CRITERIA.append(criterion)
        return criterion

    return decorate


@lru_cache(maxsize=None)
def _tilings(m: tuple[int, ...], q: tuple[int, ...]):
    # the largest grid of the suite, (3,3)/(9,9), has 729 cells
    return enumerate_tilings(TorusSpec(m, q))


@lru_cache(maxsize=None)
def _census(m: tuple[int, ...], q: tuple[int, ...]):
    # folds the cached enumeration, so that no grid is enumerated twice
    return census_from_tilings(TorusSpec(m, q), ALL_SYMMETRIES, _tilings(m, q))


def _tight_bound(m, q, bound, time_limit, digits) -> tuple[bool, str]:
    """The census of one uniform grid attains `bound` exactly on its
    multipiles, within `time_limit` seconds of the census alone."""
    t0 = time.time()
    row = _census(m, q)
    elapsed = time.time() - t0
    ok = (
        row.max_p == bound
        and row.bound == bound
        and row.equality_count == row.multipile_count
        and all(row.attaining_multipile)
        and elapsed < time_limit
    )
    return ok, (
        f"max_p={row.max_p} bound={bound} equality={row.equality_count} "
        f"multipiles={row.multipile_count} in {elapsed:.{digits}f}s"
    )


@_criterion("tight bound, n=2 d=2")
def criterion_1_tight_bound_2x2():
    return _tight_bound((2, 2), (2, 2), 3, 1.0, 2)


@_criterion("tight bound, n=2 d=3")
def criterion_2_tight_bound_2x2x2():
    return _tight_bound((2, 2, 2), (4, 4, 4), 7, 600.0, 1)


@_criterion("tight bound, n=3 d=2")
def criterion_3_tight_bound_3x3():
    row_pilot = _census((3, 3), (3, 3))
    row_full = _census((3, 3), (9, 9))
    spec = TorusSpec((3, 3), (3, 3))
    witness = laminated_construction(spec, extremal_recipe(spec, (0, 1)))
    wp = p_params(witness).total
    ok = row_pilot.max_p == 4 and row_full.max_p == 4 and wp == 4
    return ok, (
        f"pilot max_p={row_pilot.max_p} bound=4; q=(9,9) max_p={row_full.max_p}; "
        f"lamination witness p_total={wp}"
    )


def _census_families():
    for m, q in [((2, 2), (2, 2)), ((2, 2, 2), (4, 4, 4)), ((3, 3), (3, 3)),
                 ((3, 3), (9, 9))]:
        for t in _tilings(m, q):
            yield to_box_family(t)


def _theorem_b_families():
    """17,690 families: the 72 census families; every Keller family of
    three arc systems, 16,618 in all; and 1,000 random Keller families,
    for system shapes that are not arc systems (irregular blocks, mixed
    sizes, one axis)."""
    exhaustive = (
        G
        for n, q, d in [(2, 2, 2), (2, 1, 3), (3, 2, 2)]
        for G in keller_families(arc_system(n, q, d))
    )
    rng = random.Random(0)
    sampled = (random_keller_family(random_system(rng), rng) for _ in range(1_000))
    return chain(_census_families(), exhaustive, sampled)


@_criterion("complexity bound c(G) <= |G|-1, equality iff multipile")
def criterion_4_complexity_bound():
    """Theorem B on every family of _theorem_b_families; a violation
    raises TheoremViolationError naming the family's position, counted
    from 1, in that stream, so the criterion passes whenever it returns."""
    checked = 0
    for checked, G in enumerate(_theorem_b_families(), 1):
        require_theorem_b(G, f"family {checked} of criterion 4's stream")
    return True, f"{checked} families, 0 violations, 0 equality/multipile mismatches"


@_criterion("box-count identity |G| = n1...nd via hat measures")
def criterion_5_box_count():
    binary = binary_system([2, 2], [[{0}], [{0}]])
    four = BoxFamily(
        binary, tuple(K for K in all_boxes(binary) if None not in K.factors)
    )
    grids = [((2, 2), (2, 2)), ((2, 2, 2), (4, 4, 4)), ((3, 3), (3, 3)),
             ((2, 3), (6, 6))]
    cases = chain(
        ((to_box_family(t), prod(m)) for m, q in grids for t in _tilings(m, q)),
        [(four, 4)],
    )
    failures = 0
    for checked, (G, expected) in enumerate(cases, 1):
        report = verify_box_count(G)
        if (
            report.measure_sum != 1
            or report.implied_size != expected
            or not report.holds
        ):
            failures += 1
    return failures == 0, f"{checked} partitions checked, {failures} failures"


@_criterion("hat disjointness mirrors Keller pairs")
def criterion_6_hat_disjointness():
    mismatches = 0
    pairs = 0
    for system in (arc_system(2, 2, 2), arc_system(3, 2, 2)):
        for K, L in combinations(all_boxes(system), 2):
            pairs += 1
            if hats_disjoint(K, L) != keller_pair(K, L):
                mismatches += 1
    return mismatches == 0, f"{pairs} box pairs, {mismatches} mismatches"


def _rewrites(families):
    """(G, pile_rewrite(G, axis, p, A)) for every hidden partition p of
    every family G and each of its blocks A, breadth first: the given
    families, then their rewrites, for at most 6 generations."""
    for _ in range(6):
        next_families = []
        for G in families:
            stats = c_stats(G)
            for axis in range(G.system.dimension):
                for p in stats.hidden[axis]:
                    for A in range(G.system.partition(axis, p).n_blocks):
                        G2 = pile_rewrite(G, axis, p, A)
                        next_families.append(G2)
                        yield G, G2
        families = next_families


@_criterion("rewrite chains preserve exposed and hidden status")
def criterion_7_rewrite_preservation():
    pairs = 0
    exposed_violations = 0
    hidden_violations = 0
    for G, G2 in islice(_rewrites(_census_families()), 1000):
        pairs += 1
        e, h = _check_preservation(G, G2)
        exposed_violations += e
        hidden_violations += h
    ok = pairs == 1000 and exposed_violations == 0 and hidden_violations == 0
    return ok, (
        f"{pairs} suit pairs, {exposed_violations} exposed violations, "
        f"{hidden_violations} hidden violations"
    )


def _check_preservation(G, G2) -> tuple[int, int]:
    exposed_bad = 0
    hidden_bad = 0
    for axis in range(G.system.dimension):
        for p in G.system.nontrivial_indices(axis):
            before = classify_partition(G, axis, p)
            after = classify_partition(G2, axis, p)
            if before is PartitionStatus.EXPOSED and after is not PartitionStatus.EXPOSED:
                exposed_bad += 1
            if (
                before is PartitionStatus.HIDDEN
                and after is not PartitionStatus.ABSENT
                and after is not PartitionStatus.HIDDEN
            ):
                hidden_bad += 1
    return exposed_bad, hidden_bad


@_criterion("mixed-sides evidence run (conjectural)")
def criterion_8_mixed_sides():
    row = _census((2, 3), (6, 6))
    reference = extremal_p_value((2, 3), (1, 0))
    ok = (
        row.conjectural
        and row.tilings_total > 0
        and row.max_p <= reference
        and len(row.attaining_multipile) == row.equality_count
    )
    return ok, (
        f"observed max_p={row.max_p}, lamination value={reference}, "
        f"attaining tilings all multipile: {all(row.attaining_multipile)}"
    )


@_criterion("symmetry-reduced stream expands to the brute-force multiset")
def criterion_9_slow_path_equivalence():
    failures = 0
    specs = [
        TorusSpec((2,), (1,)),
        TorusSpec((4,), (4,)),
        TorusSpec((2, 2), (1, 1)),
        TorusSpec((2, 2), (2, 2)),
        TorusSpec((2, 3), (2, 1)),
        TorusSpec((2, 2, 2), (1, 1, 1)),
    ]
    for spec in specs:
        assert spec.n_cells <= 64
        brute = Counter(t.starts for t in enumerate_all_tilings(spec))
        expanded: Counter = Counter()
        for t in enumerate_tilings(spec):
            for x in orbit(t):
                expanded[x.starts] += 1
        if brute != expanded:
            failures += 1
    return failures == 0, f"{len(specs)} grids compared, {failures} mismatches"


def run_all() -> list[CriterionResult]:
    results = []
    for i, crit in enumerate(CRITERIA, 1):
        res = crit()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {i}: {res.name} -- {res.detail}")
    return results
