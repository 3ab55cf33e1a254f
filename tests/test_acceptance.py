"""End-to-end acceptance run.

Executes the full verification suite once and reports each criterion as
its own test case; the suite itself prints one pass/fail line per
criterion (run with -s to see them live).
"""

import pytest

from kellerpack import acceptance
from kellerpack.acceptance import CRITERIA, run_all


@pytest.fixture(scope="module")
def results():
    return run_all(seed=0)


@pytest.mark.parametrize("index", range(len(CRITERIA)))
def test_criterion(results, index):
    res = results[index]
    assert res.passed, f"criterion {index + 1} ({res.name}): {res.detail}"


def test_cell_budget_environment_skips_no_grid(monkeypatch):
    # the suite enumerates with an explicit budget; clear the caches so
    # that the grids are enumerated under the small environment budget
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
