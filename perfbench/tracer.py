"""Per-layer spans, installed from outside the package.

Each traced function is replaced by a wrapper that records calls, total
time, self time (total minus the time of traced calls it made) and, for
spans that run a process pool, the CPU time of reaped children.  Modules
are reached through ``sys.modules`` because the package attribute
``kellerpack.census`` is the ``census`` function, not the module.  Every
kellerpack module-level name bound to a wrapped function is rebound, so
calls through ``from .x import f`` copies are traced too.  The acceptance
criteria are not wrapped: ``run_all`` tests
``crit is criterion_4_complexity_bound`` by identity against the entries
of ``CRITERIA``, so rebinding that name would silently drop the seed;
criterion timings come from ``CriterionResult.seconds`` instead.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

# (module, function) pairs timed as spans; a name missing from the module
# is skipped and reads as zero calls.
SPANS = [
    ("census", "census"),
    ("census", "enumerate_tilings"),
    ("census", "enumerate_all_tilings"),
    ("census", "canonical_form"),
    ("census", "orbit"),
    ("torus", "validate_tiling"),
    ("torus", "theorem_c_report"),
    ("torus", "to_box_family"),
    ("torus", "p_params"),
    ("partitions", "arc_system_mixed"),
    ("boxes", "classify_partition"),
    ("boxes", "c_stats"),
    ("boxes", "is_keller_family"),
    ("boxes", "is_pile"),
    ("boxes", "theorem_b_report"),
    ("boxes", "pile_rewrite"),
    ("multipiles", "is_multipile"),
    ("serialization", "family_from_obj"),
    ("sampling", "random_system"),
    ("sampling", "random_keller_family"),
    ("hats", "verify_box_count"),
    ("hats", "hats_disjoint"),
    ("cli", "main"),
]
# spans whose work may run in pool workers: record the children's CPU time
POOL_SPANS = {"census.census", "census.enumerate_tilings"}
# spans returning one tiling per orbit: record how many
COUNT_ITEMS = {"census.enumerate_tilings"}


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self.counters: dict[str, int] = {}
        self._child_time = [0.0]  # traced time of direct children, per open span

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                   "child_cpu_s": 0.0, "items": 0}
        )
        stack = self._child_time
        pool = name in POOL_SPANS
        count_items = name in COUNT_ITEMS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            c0 = _children_cpu() if pool else 0.0
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = stack.pop()
                stack[-1] += dt
                st["calls"] += 1
                st["total_s"] += dt
                st["self_s"] += dt - inner
                if pool:
                    st["child_cpu_s"] += _children_cpu() - c0
            if count_items:
                st["items"] += len(result)
            return result

        return span

    def install(self) -> None:
        mods = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "kellerpack" or name.startswith("kellerpack.")
        }
        for mod_name, fn_name in SPANS:
            mod = mods.get("kellerpack." + mod_name)
            fn = getattr(mod, fn_name, None)
            if fn is None:
                continue
            wrapped = self._wrap(f"{mod_name}.{fn_name}", fn)
            for other in mods.values():
                for attr, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, attr, wrapped)
        tiling = getattr(mods.get("kellerpack.torus"), "TorusTiling", None)
        if tiling is not None:
            self._count_constructions("torus.TorusTiling.constructed", tiling)

    def _count_constructions(self, name: str, cls) -> None:
        counters = self.counters
        counters[name] = 0
        post_init = cls.__post_init__

        def counted(obj):
            counters[name] += 1
            post_init(obj)

        cls.__post_init__ = counted
