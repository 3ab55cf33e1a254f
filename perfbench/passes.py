"""One timed pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/passes.py WORKLOAD SRC_DIR SEED TRACE < inputs

Imports kellerpack from SRC_DIR, refuses to run if the process is already
warm, times the workload's calls, and prints one JSON line with the
timings, the outputs to check and, when TRACE is 1, the per-layer spans.
The outputs are checked against the references by run.py.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import random
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import families

# process-level caches that make a second in-process pass nearly free,
# although every CLI run pays for them
WARM_CACHES = [
    ("kellerpack.acceptance", "_census"),
    ("kellerpack.acceptance", "_tilings"),
    ("kellerpack.census", "_tables"),
]

CENSUS_ARGV = ["census", "--m", "2,2,2", "--q", "2,2,2", "--jobs", "1"]
SEARCH_GRID = ((2, 2, 2), (2, 4, 4))
POOL_GRID = ((2, 2, 2), (2, 2, 2))
POOL_JOBS = 2
LITE_CRITERIA = [1, 3, 6, 8, 9]
SWEEP_FAMILIES = 400


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def assert_cold() -> None:
    """Refuse to time a process whose kellerpack caches are already filled."""
    for mod_name, attr in WARM_CACHES:
        cache = getattr(sys.modules.get(mod_name), attr, None)
        info = getattr(cache, "cache_info", None)
        if info is not None and info().currsize:
            sys.exit(f"refusing to time a warm process: {mod_name}.{attr} is filled")


def run_census(ctx):
    from kellerpack import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(CENSUS_ARGV)
    yield code, out.getvalue()


def check_census(outputs):
    code, text = outputs[0]
    return [{"exit_code": code, "row": json.loads(text) if code == 0 else None}]


def run_search(ctx):
    from kellerpack.census import enumerate_all_tilings
    from kellerpack.torus import TorusSpec

    yield enumerate_all_tilings(TorusSpec(*SEARCH_GRID))


def check_search(outputs):
    starts = [[list(s) for s in t.starts] for t in outputs[0]]
    return [{
        "count": len(starts),
        "sorted_distinct": all(a < b for a, b in zip(starts, starts[1:])),
        "starts_sha256": digest(starts),
    }]


def run_analyze(ctx):
    from kellerpack.boxes import c_stats, is_keller_family, theorem_b_report
    from kellerpack.multipiles import is_multipile
    from kellerpack.serialization import family_from_obj

    for line in ctx["lines"]:
        G = family_from_obj(json.loads(line))
        if not is_keller_family(G):
            yield None
            continue
        stats = c_stats(G)
        rep = theorem_b_report(G)
        yield json.dumps({
            "c_per_axis": list(stats.c_per_axis),
            "c_total": stats.c_total,
            "size": rep.size,
            "equality": rep.equality,
            "multipile": is_multipile(G).verdict,
            "hidden_partitions": [sorted(h) for h in stats.hidden],
        })


def check_analyze(outputs):
    """Theorem B on every family (c <= |G|-1, equality iff multipile) and
    the first byte of each report's SHA-256, for run.py to compare."""
    results = []
    for text in outputs:
        if text is None:
            results.append({"ok": False, "report_byte": -1})
            continue
        r = json.loads(text)
        results.append({
            "ok": r["c_total"] <= r["size"] - 1
            and (r["c_total"] == r["size"] - 1) == r["equality"] == r["multipile"],
            "report_byte": hashlib.sha256(text.encode()).digest()[0],
        })
    return results


def run_verify_lite(ctx):
    from kellerpack import acceptance
    from kellerpack.boxes import theorem_b_report
    from kellerpack.census import enumerate_tilings
    from kellerpack.hats import verify_box_count
    from kellerpack.multipiles import is_multipile
    from kellerpack.sampling import random_keller_family, random_system
    from kellerpack.torus import TorusSpec, to_box_family

    for i in LITE_CRITERIA:
        yield i, next(f for f in acceptance.CRITERIA
                      if f.__name__.startswith(f"criterion_{i}_"))()
    tilings = enumerate_tilings(TorusSpec(*POOL_GRID), jobs=POOL_JOBS)
    yield "pool", tilings, all(verify_box_count(to_box_family(t)).holds for t in tilings)
    # criterion 4's seeded random sweep, at a 25th of its size
    rng = random.Random(ctx["seed"])
    checked = 0
    while checked < SWEEP_FAMILIES:
        G = random_keller_family(random_system(rng), rng)
        if G is None:
            continue
        rep = theorem_b_report(G)
        checked += 1
        yield rep.inequality_holds and rep.equality == is_multipile(G).verdict


def check_verify_lite(outputs):
    results = []
    for out in outputs:
        if isinstance(out, bool):
            results.append({"ok": out})
        elif out[0] == "pool":
            results.append({
                "pool_count": len(out[1]),
                "pool_sha256": digest([[list(s) for s in t.starts] for t in out[1]]),
                "ok": out[2],
            })
        else:
            results.append({"criterion": out[0], "ok": out[1].passed,
                            "seconds": out[1].seconds})
    return results


# workload -> (timed generator of operation outputs, check run after timing)
WORKLOADS = {
    "census-2x2x2-q2": (run_census, check_census),
    "search-2x2x2": (run_search, check_search),
    "analyze-families": (run_analyze, check_analyze),
    "verify-lite": (run_verify_lite, check_verify_lite),
}


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python job of the benchmark's own
    (every Keller family of arc_system(3,2,2)), run next to the timed
    phase to gauge how fast the host runs Python at that moment.  The
    collector is off so that the heap the workload left does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        families.keller_families(3, 2, 2)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _rusage():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime, s, c


def main() -> None:
    if "kellerpack" in sys.modules:
        sys.exit("refusing to time a warm process: kellerpack already imported")
    workload, src, seed, trace = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    src_dir = Path(src).resolve()
    sys.path.insert(0, str(src_dir))
    ctx = {"seed": seed, "lines": sys.stdin.read().splitlines()}
    # before kellerpack is imported, so that it stays below the peak RSS
    ref0 = reference_s()

    import kellerpack
    from kellerpack import acceptance, cli  # noqa: F401  (loads every layer)

    if src_dir not in Path(kellerpack.__file__).resolve().parents:
        sys.exit(f"kellerpack imported from {kellerpack.__file__}, not {src_dir}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    assert_cold()
    setup_done = time.monotonic()

    run, check = WORKLOADS[workload]
    latencies = []
    outputs = []
    cpu0, _, _ = _rusage()
    t0 = time.perf_counter()
    last = t0
    for res in run(ctx):
        now = time.perf_counter()
        latencies.append(now - last)
        outputs.append(res)
        last = now
    wall = time.perf_counter() - t0
    cpu1, s, c = _rusage()
    ref1 = reference_s()
    results = check(outputs)
    out = {
        "setup_done": setup_done,
        "setup_reference_s": ref0,
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": max(s.ru_maxrss, c.ru_maxrss) / 1024,
        "reference_s": (ref0 + ref1) / 2,
        "latencies": latencies,
        "results": results,
    }
    if tracer is not None:
        out["spans"] = tracer.stats
        out["counters"] = tracer.counters
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
