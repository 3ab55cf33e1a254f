"""Command-line entry point.

Exit codes, all chosen in `main`:

0  success, verified
1  property failure: the input is well formed but a checked property
   fails, or --expect-equality demanded equality and the bound is strict
2  input error: a file, an argument or the environment could not be
   read, parsed or built
3  budget exceeded
4  theorem violation: a proved bound failed, which is a library bug
5  internal error: any other exception; the traceback goes to stderr
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback
from itertools import combinations
from math import prod
from typing import Any

from . import __version__
from .boxes import is_keller_family, keller_pair
from .census import (
    ALL_SYMMETRIES,
    census,
    check_cells,
    default_cell_budget,
    enumerate_tilings,
)
from .errors import (
    BudgetExceededError,
    InvalidTilingError,
    KellerpackError,
    TheoremViolationError,
)
from .hats import hats_disjoint, verify_box_count
from .multipiles import build_multipile, extremal_p_value, require_theorem_b
from .serialization import (
    detect_and_load,
    dump_json,
    family_to_obj,
    fraction_str,
    load_json,
    system_from_obj,
    tiling_to_obj,
    tree_from_obj,
)
from .torus import (
    TorusSpec,
    TorusTiling,
    find_defect,
    require_bound,
    to_box_family,
    validate_tiling,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_THEOREM = 4
EXIT_INTERNAL = 5


class InputError(Exception):
    """The command's input could not be read, parsed or built."""


def _input(read, *args):
    """Call read(*args) and re-raise any exception as an InputError.

    Every step that reads a command's files, arguments or environment, or
    builds library objects from them, runs through here, so that an error
    raised while building an object counts as bad input, not as a failed
    property."""
    try:
        return read(*args)
    except Exception as exc:
        raise InputError(
            f"missing key {exc}" if isinstance(exc, KeyError) else exc
        ) from exc


def _config_dict(args: argparse.Namespace) -> dict[str, Any]:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    cfg["version"] = __version__
    return cfg


def _emit(args, payload: dict[str, Any]) -> None:
    payload = {"config": _config_dict(args), **payload}
    if getattr(args, "format", "json") == "text":
        for k, v in payload.items():
            if k != "config":
                print(f"{k}: {v}")
    else:
        json.dump(payload, sys.stdout, indent=2, default=str)
        print()


def _symmetry(args) -> frozenset[str]:
    # only an absent flag selects all; an empty value fails below, as "," does
    if args.symmetry is None:
        return ALL_SYMMETRIES
    flags = frozenset(args.symmetry.split(","))
    unknown = flags - ALL_SYMMETRIES - {"none"}
    if unknown:
        raise ValueError(f"unknown symmetry flags: {sorted(unknown)}")
    if "none" not in flags:
        return flags
    if flags != {"none"}:
        raise ValueError(
            f"symmetry flag none cannot be combined with {sorted(flags - {'none'})}"
        )
    return frozenset()


def _load(path: str):
    """Read a tiling or box-family file.  Over the cell budget, it raises
    BudgetExceededError before any cell is walked or shadow cast, outside
    _input, as it is no input error."""
    obj = _input(detect_and_load, path)
    tiling = isinstance(obj, TorusTiling)
    cells = obj.spec.n_cells if tiling else prod(obj.system.axis_sizes)
    check_cells(cells, default_cell_budget())
    return obj


def _load_tree(path: str):
    obj = load_json(path)
    system = system_from_obj(obj["system"])
    return system, tree_from_obj(obj["tree"], system)


def cmd_validate(args) -> int:
    obj = _load(args.path)
    if isinstance(obj, TorusTiling):
        if validate_tiling(obj):
            _emit(args, {"valid": True})
            return EXIT_OK
        _emit(args, {"valid": False, "defect_cell": find_defect(obj)})
        return EXIT_PROPERTY
    ok = is_keller_family(obj)
    _emit(args, {"valid": ok})
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_analyze(args) -> int:
    obj = _load(args.path)
    payload: dict[str, Any] = {}
    if isinstance(obj, TorusTiling):
        if not validate_tiling(obj):
            raise InvalidTilingError(f"invalid tiling, defect {find_defect(obj)}")
        params, stats, multipile = require_bound(obj, args.path)
        spec = obj.spec
        size = spec.n_cubes
        # p(T) <= (n^d - 1)/(n - 1) is proved for equal sides n only
        uniform = spec.is_uniform()
        bound = extremal_p_value(spec.m, range(spec.dimension)) if uniform else None
        payload = {
            "p_per_axis": [sorted(v) for v in params.per_axis],
            "p_total": params.total,
            "bound": bound,
        }
    else:
        # Theorem B's bound |G| - 1; require_theorem_b raises
        # NotKellerError for a non-Keller family
        stats, multipile = require_theorem_b(obj, args.path)
        size, bound = len(obj), len(obj) - 1
    payload.update(
        c_per_axis=list(stats.c_per_axis),
        c_total=stats.c_total,
        size=size,
        # Theorem B held: c-equality is the multipile verdict, and
        # c(G) = (n - 1)p(T) for equal sides n, so it is p-equality
        equality=None if bound is None else multipile,
        multipile=multipile,
        hidden_partitions=[sorted(h) for h in stats.hidden],
    )
    _emit(args, payload)
    if args.expect_equality and not payload.get("equality"):
        return EXIT_PROPERTY
    return EXIT_OK


def _parse_spec(args) -> TorusSpec:
    m = tuple(int(v) for v in args.m.split(","))
    if args.q:
        q = tuple(int(v) for v in args.q.split(","))
    else:
        q = (prod(m),) * len(m)
    return TorusSpec(m, q)


def cmd_enumerate(args) -> int:
    spec = _input(_parse_spec, args)
    symmetry = _input(_symmetry, args)
    tilings = enumerate_tilings(spec, symmetry, budget=args.budget)
    if args.dump:
        with _input(open, args.dump, "w") as fh:
            for t in tilings:
                fh.write(json.dumps(tiling_to_obj(t)) + "\n")
    _emit(args, {"count": len(tilings)})
    return EXIT_OK


def cmd_census(args) -> int:
    spec = _input(_parse_spec, args)
    symmetry = _input(_symmetry, args)
    row = census(spec, symmetry, budget=args.budget)
    payload = {
        "m": list(row.m),
        "q": list(row.q),
        "symmetry": list(row.symmetry),
        "total": row.tilings_total,
        "p_histogram": row.p_histogram,
        "max_p": row.max_p,
        "bound": row.bound,
        "equality": row.equality_count,
        "multipiles": row.multipile_count,
        "conjectural": row.conjectural,
        "attaining_multipile": list(row.attaining_multipile),
    }
    if args.format != "csv":
        _emit(args, payload)
        return EXIT_OK
    # the lists m, q and symmetry are joined into one cell each
    joiners = {"m": " ", "q": " ", "symmetry": "+"}
    columns = ["m", "q", "symmetry", "total", "max_p", "bound", "equality",
               "multipiles"]
    writer = csv.writer(sys.stdout)
    writer.writerow(columns)
    writer.writerow(
        joiners[k].join(map(str, payload[k])) if k in joiners else payload[k]
        for k in columns
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from .acceptance import run_all

    results = run_all()
    return EXIT_OK if all(r.passed for r in results) else EXIT_PROPERTY


def cmd_build_multipile(args) -> int:
    system, tree = _input(_load_tree, args.path)
    # refused as _load refuses a family, before _build casts a shadow
    check_cells(prod(system.axis_sizes), default_cell_budget())
    G = build_multipile(system, tree)
    out = family_to_obj(G)
    if args.out:
        _input(dump_json, out, args.out)
        _emit(args, {"size": len(G), "written": args.out})
    else:
        json.dump(out, sys.stdout, indent=2)
        print()
    return EXIT_OK


def cmd_hat_check(args) -> int:
    G = _load(args.path)
    if isinstance(G, TorusTiling):
        if not validate_tiling(G):
            raise InvalidTilingError("invalid tiling")
        G = to_box_family(G)
    violations = [
        [i, j]
        for (i, K), (j, L) in combinations(enumerate(G.boxes), 2)
        if hats_disjoint(K, L) != keller_pair(K, L)
    ]
    report = verify_box_count(G)
    _emit(
        args,
        {
            "gamma1_violations": violations,
            "measure_sum": fraction_str(report.measure_sum),
            "box_count": len(G),
            "implied_size": report.implied_size,
            "holds": report.holds,
        },
    )
    return EXIT_OK if not violations and report.holds else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kellerpack",
        description="Keller packings, cube tilings of tori, and their censuses",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=False):
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted; every command runs in one process")
        p.add_argument("--seed", type=int, default=0,
                       help="accepted and recorded in config; no command reads it")
        if spec:
            p.add_argument("--m", required=True, help="comma-separated sides")
            p.add_argument(
                "--q", help="comma-separated resolutions; default prod(m) per axis"
            )
            p.add_argument("--symmetry",
                           help="comma list of translate,permute,reflect or 'none'")
            p.add_argument("--budget", type=int, default=default_cell_budget(),
                           help="cell budget (env KELLERPACK_CELL_BUDGET)")

    p = sub.add_parser("validate", help="check a tiling or box-family file")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="c-statistic / parameter report")
    p.add_argument("path")
    p.add_argument("--expect-equality", action="store_true")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("enumerate", help="canonical tilings of a torus grid")
    common(p, spec=True)
    p.add_argument("--dump", help="write per-tiling JSONL to this path")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("census", help="census statistics for a torus grid")
    common(p, spec=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run the full verification suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("build-multipile", help="construct a family from a tree")
    p.add_argument("path", help="JSON with 'system' and 'tree' keys")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_build_multipile)

    p = sub.add_parser("hat-check", help="hat disjointness and measure report")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_hat_check)
    return parser


def main(argv=None) -> int:
    """Run one command and map what it raised to its exit code; this is the
    only place exit codes for failures are chosen."""
    try:
        # the --budget default reads KELLERPACK_CELL_BUDGET
        args = _input(build_parser).parse_args(argv)
        if args.jobs < 1:
            raise InputError(f"--jobs must be at least 1, got {args.jobs}")
        # only enumerate and census take --budget
        if getattr(args, "budget", 1) < 1:
            raise InputError(f"--budget must be at least 1, got {args.budget}")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TheoremViolationError as exc:
        print(f"theorem violation (library bug): {exc}", file=sys.stderr)
        return EXIT_THEOREM
    except KellerpackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
