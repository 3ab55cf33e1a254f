"""Rebuild perfbench/reference.json and perfbench/analyze_reports.bin from
the kellerpack sources under ./src.

Usage, from the root of a checkout:  python3 perfbench/make_reference.py

References are outputs of the code they are taken from: rebuild them only
from a commit whose outputs are known to be right.  analyze_reports.bin
holds, for every family of families.population() in order, the first
byte of the SHA-256 of its analyze report; it takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def one(workload: str, stdin: str = "") -> list[dict]:
    p = run.run_pass(workload, Path.cwd() / "src", 0, False, stdin, timeout=3600)
    if "error" in p:
        sys.exit(f"{workload}: {p['error']}")
    return p["results"]


def main() -> None:
    census = one("census-2x2x2-q2")[0]
    assert census["exit_code"] == 0
    keep = ("total", "p_histogram", "max_p", "bound", "equality", "multipiles",
            "conjectural", "attaining_multipile")
    search = one("search-2x2x2")[0]
    assert search["sorted_distinct"]
    lite = one("verify-lite")
    assert all(r["ok"] for r in lite)
    pool = next(r for r in lite if "pool_count" in r)

    pop = run.families.population()
    systems = {key: run.families.system_obj(*key) for key in run.families.SYSTEMS}
    lines = [run.families.family_json(systems[key], fam) for key, fam in pop]
    reports = one("analyze-families", "\n".join(lines) + "\n")
    assert len(reports) == len(pop) and all(r["ok"] for r in reports)

    ref = {
        "census-2x2x2-q2": {k: census["row"][k] for k in keep},
        "search-2x2x2": {"count": search["count"],
                         "starts_sha256": search["starts_sha256"]},
        "verify-lite": {"pool_count": pool["pool_count"],
                        "pool_sha256": pool["pool_sha256"]},
    }
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=2) + "\n")
    (run.BENCH_DIR / "analyze_reports.bin").write_bytes(
        bytes(r["report_byte"] for r in reports))


if __name__ == "__main__":
    main()
