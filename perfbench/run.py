"""kellerpack benchmark: four workloads that split the census, the search,
the family algebra and the acceptance suite.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of a workload runs in a fresh interpreter (perfbench/passes.py)
that imports kellerpack from ./src with a single client; passes repeat
until S seconds have gone, with at least MIN_PASSES of them.  Every
output is checked against perfbench/reference.json.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}: with
--trace 0 the end-to-end metrics, medians over passes of host-speed
corrected times (see end_to_end); with --trace 1 the per-layer
metrics of traced passes, which alternate with untraced
ones so that trace.overhead_s and the per-operation latencies come from
the same run.  failed/attempted counts operations whose output differs
from the reference, that raised, or whose pass exited non-zero.  The line
before it records the host (nproc, Python, CPU model, load average at
start) and every pass.

Workloads (``census-2x2x2-q2`` and ``search-2x2x2`` are exhaustive and
ignore the seed):

- census-2x2x2-q2: ``kellerpack census --m 2,2,2 --q 2,2,2 --jobs 1``
  through ``cli.main``; almost all of it is symmetry canonicalization.
- search-2x2x2: ``enumerate_all_tilings`` on (2,2,2)/q=(2,4,4), the
  brute-force exact-cover search, with no canonicalization.
- analyze-families: what ``kellerpack analyze`` does to a box family
  JSON string, for ANALYZE_FAMILIES Keller families drawn by the seed
  from every Keller family of three arc systems (perfbench/families.py).
- verify-lite: the acceptance criteria that do not need the 2x2x2 q=4
  census (1, 3, 6, 8, 9), a census enumeration on a 2-process pool with
  the box-count identity on its tilings, and criterion 4's seeded random
  sweep over SWEEP_FAMILIES families.

Run perfbench/make_reference.py to rebuild the references.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import families  # noqa: E402
import passes  # noqa: E402

MIN_PASSES = 5
ANALYZE_FAMILIES = 1_000
RUN_LIMIT_S = 150.0  # stop starting passes here, to end well within 180 s
# nominal seconds of passes.reference_s, the speed corrected times refer to
REFERENCE_S = 0.025


def host_info() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def analyze_sample(seed: int) -> tuple[list[int], str]:
    """Indices into the family population and their JSON lines."""
    pop = families.population()
    systems = {key: families.system_obj(*key) for key in families.SYSTEMS}
    idx = random.Random(seed).sample(range(len(pop)), ANALYZE_FAMILIES)
    lines = [families.family_json(systems[pop[i][0]], pop[i][1]) for i in idx]
    return idx, "\n".join(lines) + "\n"


def run_pass(workload: str, src: Path, seed: int, trace: bool, stdin: str,
             timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "passes.py"), workload, str(src),
           str(seed), "1" if trace else "0"]
    spawn = time.monotonic()
    proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out.pop("setup_done") - spawn - out["setup_reference_s"]
    out["traced"] = trace
    return out


def expected_ops(workload: str, sample: list[int]) -> int:
    if workload == "analyze-families":
        return len(sample)
    if workload == "verify-lite":
        return len(passes.LITE_CRITERIA) + 1 + passes.SWEEP_FAMILIES
    return 1


def failed_ops(workload: str, p: dict, ref: dict, sample: list[int],
               report_bytes: bytes) -> int:
    """Operations of one pass whose output differs from the reference or
    is missing; a pass that exited non-zero fails every operation."""
    expected = expected_ops(workload, sample)
    if "error" in p:
        return expected
    res = p["results"]
    missing = abs(expected - len(res))
    if workload == "census-2x2x2-q2":
        row = res[0]["row"] or {}
        return int(res[0]["exit_code"] != 0 or any(
            row.get(k) != v for k, v in ref[workload].items()))
    if workload == "search-2x2x2":
        r = res[0]
        return int(r["count"] != ref[workload]["count"] or not r["sorted_distinct"]
                   or r["starts_sha256"] != ref[workload]["starts_sha256"])
    if workload == "analyze-families":
        return missing + sum(not r["ok"] or r["report_byte"] != report_bytes[i]
                             for r, i in zip(res, sample))
    pool = {"pool_count", "pool_sha256"}
    return missing + sum(
        not r["ok"] or any(r[k] != ref[workload][k] for k in pool & r.keys())
        for r in res
    )


def end_to_end(untraced: list[dict]) -> dict:
    """Medians over passes.  Times are host-speed corrected: each is
    divided by the pass's reference job (passes.reference_s), timed in the
    same process just before and after, and multiplied by REFERENCE_S.
    Other tenants of a shared host can slow every pass down by up to about
    1.8x for minutes at a time; the ratio cancels most of that.  The raw
    seconds are in the line before."""
    def corrected(key: str) -> float:
        return statistics.median(
            p[key] / p["reference_s"] for p in untraced) * REFERENCE_S

    return {
        "setup_s": {"value": corrected("setup_s"), "unit": "s"},
        "wall_s": {"value": corrected("wall_s"), "unit": "s"},
        "cpu_s": {"value": corrected("cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(
            p["peak_rss_mb"] for p in untraced), "unit": "MB"},
    }


def op_latency(untraced: list[dict]) -> dict:
    """Per-operation latency, in raw milliseconds, over every untraced
    operation.  p99 needs ten operations beyond it, so it reads 0 below
    1,000 operations, as on the census and search workloads, where one
    pass is one operation."""
    lat = sorted(x * 1000 for p in untraced for x in p["latencies"])
    p99 = statistics.quantiles(lat, n=100)[98] if len(lat) >= 1000 else 0
    return {
        "ops.count": {"value": len(lat), "unit": "count"},
        "ops.p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "ops.p99_ms": {"value": p99, "unit": "ms"},
    }


# per-layer metrics read from the spans: (span, field, suffix)
SPAN_METRICS = [
    ("census.census", "calls", "calls"),
    ("census.census", "total_s", "total_s"),
    ("census.census", "self_s", "self_s"),
    ("census.census", "child_cpu_s", "child_cpu_s"),
    ("census.canonical_form", "calls", "calls"),
    ("census.canonical_form", "self_s", "self_s"),
    ("census.orbit", "calls", "calls"),
    ("census.orbit", "self_s", "self_s"),
    ("census.enumerate_all_tilings", "calls", "calls"),
    ("census.enumerate_all_tilings", "self_s", "self_s"),
    ("census.enumerate_tilings", "calls", "calls"),
    ("census.enumerate_tilings", "self_s", "self_s"),
    ("census.enumerate_tilings", "child_cpu_s", "child_cpu_s"),
    ("torus.validate_tiling", "calls", "calls"),
    ("torus.validate_tiling", "self_s", "self_s"),
    ("torus.theorem_c_report", "self_s", "self_s"),
    ("torus.to_box_family", "self_s", "self_s"),
    ("torus.p_params", "self_s", "self_s"),
    ("partitions.arc_system_mixed", "calls", "calls"),
    ("partitions.arc_system_mixed", "self_s", "self_s"),
    ("boxes.classify_partition", "calls", "calls"),
    ("boxes.classify_partition", "self_s", "self_s"),
    ("boxes.c_stats", "calls", "calls"),
    ("boxes.c_stats", "self_s", "self_s"),
    ("boxes.is_keller_family", "calls", "calls"),
    ("boxes.is_keller_family", "self_s", "self_s"),
    ("boxes.is_pile", "calls", "calls"),
    ("boxes.is_pile", "self_s", "self_s"),
    ("boxes.theorem_b_report", "self_s", "self_s"),
    ("boxes.pile_rewrite", "self_s", "self_s"),
    ("multipiles.is_multipile", "calls", "calls"),
    ("multipiles.is_multipile", "self_s", "self_s"),
    ("serialization.family_from_obj", "self_s", "self_s"),
    ("sampling.random_system", "calls", "calls"),
    ("sampling.random_system", "self_s", "self_s"),
    ("sampling.random_keller_family", "calls", "calls"),
    ("sampling.random_keller_family", "self_s", "self_s"),
    ("hats.verify_box_count", "calls", "calls"),
    ("hats.verify_box_count", "self_s", "self_s"),
    ("hats.hats_disjoint", "calls", "calls"),
    ("hats.hats_disjoint", "self_s", "self_s"),
    ("cli.main", "calls", "calls"),
    ("cli.main", "self_s", "self_s"),
]


def layer_values(p: dict) -> dict[str, float]:
    spans = p["spans"]
    get = lambda span, field: spans.get(span, {}).get(field, 0)  # noqa: E731
    out = {f"{span}.{suffix}": get(span, field) for span, field, suffix in SPAN_METRICS}
    out["torus.TorusTiling.constructed"] = p["counters"].get(
        "torus.TorusTiling.constructed", 0)
    canon = get("census.canonical_form", "calls")
    out["census.orbits_per_canonicalized"] = (
        get("census.enumerate_tilings", "items") / canon if canon else 0)
    span = get("census.census", "total_s")
    out["census.canonical_share"] = (
        get("census.canonical_form", "self_s") / span if span else 0)
    seconds = {r["criterion"]: r["seconds"] for r in p["results"] if "criterion" in r}
    for i in range(1, 10):
        out[f"acceptance.criterion_{i}.s"] = seconds.get(i, 0)
    return out


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    rows = [layer_values(p) for p in traced]
    out = {}
    for name in rows[0]:
        unit = "count" if name.endswith((".calls", ".constructed")) else (
            "ratio" if name.endswith(("_per_canonicalized", "_share")) else "s")
        out[name] = {"value": statistics.median(r[name] for r in rows), "unit": unit}
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in untraced))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    out.update(op_latency(untraced))
    return out


def load_reference() -> tuple[dict, bytes]:
    ref = json.loads((BENCH_DIR / "reference.json").read_text())
    return ref, (BENCH_DIR / "analyze_reports.bin").read_bytes()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(passes.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    src = Path.cwd() / "src"
    if not (src / "kellerpack" / "__init__.py").is_file():
        print(f"error: no kellerpack sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    host = host_info()
    ref, report_bytes = load_reference()
    sample, stdin = [], ""
    if args.workload == "analyze-families":
        sample, stdin = analyze_sample(args.seed)

    runs: list[dict] = []
    while True:
        elapsed = time.monotonic() - started
        if elapsed >= RUN_LIMIT_S or (len(runs) >= MIN_PASSES
                                      and elapsed >= args.seconds):
            break
        # a traced run alternates traced and untraced passes
        trace = bool(args.trace) and len(runs) % 2 == 1
        try:
            runs.append(run_pass(args.workload, src, args.seed, trace, stdin,
                                 timeout=170 - elapsed))
        except subprocess.TimeoutExpired:
            runs.append({"error": "pass timed out"})
            break

    attempted = len(runs) * expected_ops(args.workload, sample)
    failed = sum(failed_ops(args.workload, p, ref, sample, report_bytes)
                 for p in runs)
    good = [p for p in runs if "error" not in p]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    summary = [
        {k: p.get(k) for k in ("traced", "setup_s", "wall_s", "cpu_s",
                               "reference_s", "peak_rss_mb", "error")}
        for p in runs
    ]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "host": host, "passes": summary}))
    if not untraced or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
