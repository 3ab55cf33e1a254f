import importlib
import json
import random

import pytest

import kellerpack.boxes

from kellerpack import (
    Box,
    CStats,
    Leaf,
    MultipileResult,
    Node,
    PParams,
    TorusSpec,
    TorusTiling,
    census,
    enumerate_all_tilings,
    tiling_system,
    to_box_family,
)
from kellerpack.cli import _load_tree, main
from kellerpack.serialization import (
    family_to_obj,
    system_to_obj,
    tiling_to_obj,
    tree_to_obj,
)

SPEC = TorusSpec((2, 2), (2, 2))
GRID = TorusTiling(SPEC, ((0, 0), (0, 2), (2, 0), (2, 2)))
LAMINATED = TorusTiling(SPEC, ((0, 0), (0, 2), (2, 1), (2, 3)))


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def tiling_obj():
    return tiling_to_obj(LAMINATED)


def family_obj():
    return family_to_obj(to_box_family(LAMINATED))


def tree_obj():
    system = tiling_system(SPEC)
    leaf = Leaf(Box(system, (None, None)))
    tree = Node(0, 0, (Node(1, 0, (leaf, leaf)), Node(1, 1, (leaf, leaf))))
    return {"system": system_to_obj(system), "tree": tree_to_obj(tree)}


def two_block_family_obj(element):
    """A family on one size-2 axis split into {0} and {element}."""
    axis = {"size": 2, "partitions": [[[0], [element]]]}
    return {
        "system": {"axes": [axis], "unital": True},
        "boxes": [[{"p": 0, "b": 0}], [{"p": 0, "b": 1}]],
    }


def edited(obj, edit):
    edit(obj)
    return obj


FILE_COMMANDS = ["validate", "analyze", "hat-check", "build-multipile"]

# each is malformed input for every command that reads a file: a tiling or
# family file is also malformed input for build-multipile
MALFORMED = {
    "not-json": "{not json",
    "starts-not-a-list": {**tiling_obj(), "starts": 5},
    "start-wrong-dimension": {**tiling_obj(), "starts": [[0]]},
    "start-outside-grid": {**tiling_obj(), "starts": [[9, 9], [0, 2], [2, 1], [2, 3]]},
    "partition-out-of-range": edited(
        family_obj(), lambda o: o["boxes"][0].__setitem__(0, {"p": 5, "b": 0})
    ),
    "negative-partition": edited(
        family_obj(), lambda o: o["boxes"][0].__setitem__(0, {"p": -1, "b": 0})
    ),
    "duplicate-box": edited(
        family_obj(), lambda o: o["boxes"].__setitem__(1, o["boxes"][0])
    ),
    "tree-without-system": edited(tree_obj(), lambda o: o.pop("system")),
    "tree-child-missing": edited(
        tree_obj(), lambda o: o["tree"]["children"].pop("0")
    ),
    # numbers must be JSON integers: int() would truncate these to a valid file
    "start-float": {"m": [2, 2], "q": [1, 1], "starts": [[0, 0], [0, 1], [1, 0], [1.9, 1]]},
    "start-true": {"m": [2, 2], "q": [1, 1], "starts": [[0, 0], [0, 1], [1, 0], [1, True]]},
    "m-float": {"m": [2.7, 2], "q": [1, 1], "starts": [[0, 0], [0, 1], [1, 0], [1, 1]]},
    "q-string": {"m": [2, 2], "q": ["1", 1], "starts": [[0, 0], [0, 1], [1, 0], [1, 1]]},
    "factor-float": edited(
        family_obj(), lambda o: o["boxes"][0][0].__setitem__("p", 0.0)
    ),
    "system-size-float": edited(
        family_obj(), lambda o: o["system"]["axes"][0].__setitem__("size", 4.0)
    ),
    "tree-axis-float": edited(tree_obj(), lambda o: o["tree"].__setitem__("axis", 0.0)),
    "block-element-true": two_block_family_obj(True),
    "block-element-float": two_block_family_obj(1.0),
    # the paper's tori and systems have d >= 1 axes
    "tiling-no-axes": {"m": [], "q": [], "starts": [[]]},
    "system-no-axes": {"system": {"axes": []}, "boxes": [[]]},
}


def assert_input_error(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def assert_theorem_violation(code, captured, *names):
    assert code == 4
    assert captured.out == ""
    err = captured.err
    assert err.startswith("theorem violation (library bug): ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert all(name in err for name in names)


class TestValidate:
    def test_valid_tiling(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", tiling_to_obj(LAMINATED))
        code, out = run(capsys, ["validate", path])
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_text_format(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", tiling_to_obj(LAMINATED))
        code, out = run(capsys, ["validate", path, "--format", "text"])
        assert code == 0
        assert out == "valid: True\n"

    def test_invalid_tiling(self, tmp_path, capsys):
        obj = tiling_to_obj(LAMINATED)
        obj["starts"][0] = [0, 1]
        path = write(tmp_path, "t.json", obj)
        code, out = run(capsys, ["validate", path])
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["defect_cell"] is not None

    @pytest.mark.parametrize(
        "starts,cell",
        [
            ([[0, 0], [0, 1], [2, 1], [2, 3]], [0, 1]),
            ([[0, 0], [0, 2], [2, 1]], [2, 0]),
            ([[0, 0], [0, 2], [2, 1], [2, 3], [1, 1]], [1, 1]),
            ([[0, 0], [0, 2], [2, 1], [2, 1]], [2, 1]),
        ],
        ids=["overlap", "gap", "extra", "duplicate"],
    )
    def test_defect_cell_and_analyze_message(self, tmp_path, capsys, starts, cell):
        path = write(tmp_path, "t.json", {"m": [2, 2], "q": [2, 2], "starts": starts})
        code, out = run(capsys, ["validate", path])
        assert code == 1
        assert json.loads(out)["defect_cell"] == cell
        assert main(["analyze", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid tiling, defect {tuple(cell)}\n"

    def test_valid_family(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", family_to_obj(to_box_family(LAMINATED)))
        code, out = run(capsys, ["validate", path])
        assert code == 0 and json.loads(out)["valid"] is True

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input(self, tmp_path, capsys, case, command):
        obj = MALFORMED[case]
        path = tmp_path / "bad.json"
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert_input_error(code, captured.err)
        assert captured.out == ""

    def test_missing_file(self, capsys):
        code, _ = run(capsys, ["validate", "/nonexistent/nope.json"])
        assert code == 2


class TestAnalyze:
    def test_laminated_report(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", tiling_to_obj(LAMINATED))
        code, out = run(capsys, ["analyze", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["p_total"] == 3
        assert payload["bound"] == 3
        assert payload["equality"] is True
        assert payload["multipile"] is True
        assert payload["c_total"] == 3

    def test_grid_fails_expect_equality(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", tiling_to_obj(GRID))
        code, out = run(capsys, ["analyze", path, "--expect-equality"])
        assert code == 1
        payload = json.loads(out)
        assert payload["p_total"] == 2 and payload["equality"] is False

    def test_family_report(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", family_to_obj(to_box_family(GRID)))
        code, out = run(capsys, ["analyze", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["c_total"] == 2 and payload["size"] == 4

    # the laminated fixture attains its bound, so a recognizer that rejects
    # it contradicts the equality case: both reports read the verdict in
    # multipiles._theorem_b, whose recursion here rejects every mask
    @pytest.mark.parametrize(
        "obj", [tiling_obj(), family_obj()], ids=["tiling", "family"]
    )
    def test_failed_bound_exits_4(self, tmp_path, monkeypatch, capsys, obj):
        monkeypatch.setattr(
            importlib.import_module("kellerpack.multipiles"),
            "_multipile",
            lambda G, memo, mask: None,
        )
        path = write(tmp_path, "in.json", obj)
        code = main(["analyze", path])
        assert_theorem_violation(code, capsys.readouterr(), path)

    def test_exceeded_bound_exits_4(self, tmp_path, monkeypatch, capsys):
        # c(G) = |G| is one above Theorem B's bound
        monkeypatch.setattr(
            kellerpack.boxes.BoxFamily,
            "_stats",
            lambda G, mask: CStats(
                (frozenset(), frozenset()), (mask.bit_count(), 0), mask.bit_count()
            ),
        )
        path = write(tmp_path, "g.json", family_obj())
        code = main(["analyze", path])
        assert_theorem_violation(
            code, capsys.readouterr(), f"c(G) = 4 exceeds |G| - 1 = 3 on {path}"
        )


class TestEnumerateCommand:
    def test_count_and_dump(self, tmp_path, capsys):
        dump = tmp_path / "tilings.jsonl"
        code, out = run(
            capsys,
            ["enumerate", "--m", "2,2", "--q", "2,2", "--dump", str(dump)],
        )
        assert code == 0
        assert json.loads(out)["count"] == 2
        lines = dump.read_text().splitlines()
        assert len(lines) == 2
        assert all("starts" in json.loads(line) for line in lines)

    def test_budget_exit_code(self, capsys):
        code, _ = run(
            capsys, ["enumerate", "--m", "2,2,2", "--q", "4,4,4", "--budget", "10"]
        )
        assert code == 3

    def test_unknown_symmetry(self, capsys):
        code, _ = run(capsys, ["enumerate", "--m", "2,2", "--symmetry", "rotate"])
        assert code == 2

    def test_symmetry_none_is_the_trivial_group(self, capsys):
        code, out = run(
            capsys, ["enumerate", "--m", "2,2", "--q", "2,2", "--symmetry", "none"]
        )
        assert code == 0
        assert json.loads(out)["count"] == len(enumerate_all_tilings(SPEC))

    @pytest.mark.parametrize("command", ["census", "enumerate"])
    @pytest.mark.parametrize("flags", ["none,translate", "reflect,none,permute"])
    def test_none_with_other_symmetry_flags(self, capsys, command, flags):
        code = main([command, "--m", "2,2", "--q", "1,1", "--symmetry", flags])
        captured = capsys.readouterr()
        assert_input_error(code, captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["census", "enumerate"])
    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_symmetry_flag_is_input_error(self, capsys, command, value):
        code = main([command, "--m", "2,2", "--q", "2,2", f"--symmetry={value}"])
        captured = capsys.readouterr()
        assert_input_error(code, captured.err)
        assert captured.err == "error: unknown symmetry flags: ['']\n"
        assert captured.out == ""


class TestCensusCommand:
    def test_csv(self, capsys):
        code, out = run(
            capsys, ["census", "--m", "2,2", "--q", "2,2", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,q,symmetry,total,max_p,bound,equality,multipiles"
        assert lines[1] == "2 2,2 2,permute+reflect+translate,2,3,3,1,1"

    def test_json(self, capsys):
        code, out = run(capsys, ["census", "--m", "2,2", "--q", "2,2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["p_histogram"] == {"2": 1, "3": 1}
        assert payload["config"]["m"] == "2,2"

    @pytest.mark.parametrize("flags", ["translate", "translate,reflect"])
    def test_symmetry_subset(self, capsys, flags):
        code, out = run(
            capsys, ["census", "--m", "2,2", "--q", "2,2", "--symmetry", flags]
        )
        assert code == 0
        payload = json.loads(out)
        row = census(SPEC, frozenset(flags.split(",")))
        assert payload["symmetry"] == sorted(flags.split(",")) == list(row.symmetry)
        assert payload["p_histogram"] == {str(p): n for p, n in row.p_histogram.items()}
        assert (
            payload["total"],
            payload["max_p"],
            payload["bound"],
            payload["equality"],
            payload["multipiles"],
            payload["attaining_multipile"],
        ) == (
            row.tilings_total,
            row.max_p,
            row.bound,
            row.equality_count,
            row.multipile_count,
            list(row.attaining_multipile),
        )

    def test_failed_bound_exits_4(self, monkeypatch, capsys):
        # the laminated tiling attains the bound, so a recognizer that
        # rejects it contradicts the equality case; the grid does not.
        # The census decides over its shared memo, so the recursion
        # itself rejects every mask
        monkeypatch.setattr(
            importlib.import_module("kellerpack.multipiles"),
            "_multipile",
            lambda G, memo, mask: None,
        )
        code = main(["census", "--m", "2,2", "--q", "2,2"])
        captured = capsys.readouterr()
        assert_theorem_violation(code, captured, f"on {LAMINATED.starts}")
        assert captured.err == (
            "theorem violation (library bug): equality/multipile mismatch on "
            "((0, 0), (0, 2), (2, 1), (2, 3))\n"
        )

    def test_broken_bridge_exits_4(self, monkeypatch, capsys):
        # one offset class more on axis 0 than c_0(G) counts: the first
        # tiling, the grid, fails c_i(G) = (m_i - 1)|p_i(T)|
        torus = importlib.import_module("kellerpack.torus")
        p_params = torus._p_params

        def shifted(t):
            params = p_params(t)
            per_axis = (params.per_axis[0] | {t.spec.q[0]},) + params.per_axis[1:]
            return PParams(per_axis, params.total + 1)

        monkeypatch.setattr(torus, "_p_params", shifted)
        code = main(["census", "--m", "2,2", "--q", "2,2"])
        assert_theorem_violation(
            code, capsys.readouterr(), "c_i(G) = (1, 1)", f"on {GRID.starts}"
        )


# census stdout in each format, byte for byte, on a mixed 2-D grid, a
# mixed 3-D grid and a grid with no symmetry reduction
CENSUS_GRIDS = {
    "2x3": (
        ["--m", "2,3", "--q", "6,6"],
        {"m": "2,3", "q": "6,6", "symmetry": None},
        {
            "m": [2, 3], "q": [6, 6], "symmetry": ["permute", "reflect", "translate"],
            "total": 10, "p_histogram": {"2": 1, "3": 6, "4": 3}, "max_p": 4,
            "bound": 4, "equality": 3, "multipiles": 6, "conjectural": True,
            "attaining_multipile": [True, True, True],
        },
        "2 3,6 6,permute+reflect+translate,10,4,4,3,6",
        "m: [2, 3]\n"
        "q: [6, 6]\n"
        "symmetry: ['permute', 'reflect', 'translate']\n"
        "total: 10\n"
        "p_histogram: {2: 1, 3: 6, 4: 3}\n"
        "max_p: 4\n"
        "bound: 4\n"
        "equality: 3\n"
        "multipiles: 6\n"
        "conjectural: True\n"
        "attaining_multipile: [True, True, True]\n",
    ),
    "2x2x3": (
        ["--m", "2,2,3", "--q", "1,2,6"],
        {"m": "2,2,3", "q": "1,2,6", "symmetry": None},
        {
            "m": [2, 2, 3], "q": [1, 2, 6],
            "symmetry": ["permute", "reflect", "translate"], "total": 122,
            "p_histogram": {"3": 1, "4": 19, "5": 55, "6": 39, "7": 8},
            "max_p": 7, "bound": 10, "equality": 0, "multipiles": 8,
            "conjectural": True, "attaining_multipile": [],
        },
        "2 2 3,1 2 6,permute+reflect+translate,122,7,10,0,8",
        "m: [2, 2, 3]\n"
        "q: [1, 2, 6]\n"
        "symmetry: ['permute', 'reflect', 'translate']\n"
        "total: 122\n"
        "p_histogram: {3: 1, 4: 19, 5: 55, 6: 39, 7: 8}\n"
        "max_p: 7\n"
        "bound: 10\n"
        "equality: 0\n"
        "multipiles: 8\n"
        "conjectural: True\n"
        "attaining_multipile: []\n",
    ),
    "2x2-none": (
        ["--m", "2,2", "--q", "2,2", "--symmetry", "none"],
        {"m": "2,2", "q": "2,2", "symmetry": "none"},
        {
            "m": [2, 2], "q": [2, 2], "symmetry": [], "total": 12,
            "p_histogram": {"2": 4, "3": 8}, "max_p": 3, "bound": 3,
            "equality": 8, "multipiles": 8, "conjectural": False,
            "attaining_multipile": [True] * 8,
        },
        "2 2,2 2,,12,3,3,8,8",
        "m: [2, 2]\n"
        "q: [2, 2]\n"
        "symmetry: []\n"
        "total: 12\n"
        "p_histogram: {2: 4, 3: 8}\n"
        "max_p: 3\n"
        "bound: 3\n"
        "equality: 8\n"
        "multipiles: 8\n"
        "conjectural: False\n"
        "attaining_multipile: [True, True, True, True, True, True, True, True]\n",
    ),
}


@pytest.mark.parametrize("grid", sorted(CENSUS_GRIDS))
def test_census_stdout_is_pinned_in_every_format(monkeypatch, capsys, grid):
    # the JSON config records the budget, so the default must be in force
    monkeypatch.delenv("KELLERPACK_CELL_BUDGET", raising=False)
    argv, spec_args, payload, csv_row, text = CENSUS_GRIDS[grid]
    config = {
        "budget": 1024, "command": "census", "format": "json", "jobs": 1,
        **spec_args, "seed": 0, "version": "0.1.0",
    }
    config = dict(sorted(config.items()))
    expected = {
        "json": json.dumps({"config": config, **payload}, indent=2) + "\n",
        "csv": "m,q,symmetry,total,max_p,bound,equality,multipiles\r\n"
        + csv_row + "\r\n",
        "text": text,
    }
    for fmt, out in expected.items():
        assert run(capsys, ["census", *argv, "--format", fmt]) == (0, out), fmt


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "passed, expected",
        [((True, True), 0), ((True, False), 1)],
        ids=["all-pass", "one-fails"],
    )
    def test_exit_code_and_one_line_per_criterion(
        self, monkeypatch, capsys, passed, expected
    ):
        acceptance = importlib.import_module("kellerpack.acceptance")
        monkeypatch.setattr(acceptance, "CRITERIA", [
            lambda ok=ok: acceptance.CriterionResult("fake", ok, "detail", 0.0)
            for ok in passed
        ])
        code, out = run(capsys, ["verify"])
        assert code == expected
        assert out == "".join(
            f"[{'PASS' if ok else 'FAIL'}] criterion {i}: fake -- detail\n"
            for i, ok in enumerate(passed, 1)
        )


def test_unexpected_exception_exits_5(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("not a library error")

    monkeypatch.setattr(importlib.import_module("kellerpack.cli"), "census", fail)
    code = main(["census", "--m", "2,2", "--q", "1,1"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert captured.err.endswith("RuntimeError: not a library error\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--m", "2,2", "--q", "2,2"],
        ["enumerate", "--m", "2,2", "--q", "2,2"],
        ["verify"],
    ],
)
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_input_error(capsys, argv, jobs):
    code = main(argv + ["--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("command", ["census", "enumerate"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_input_error(capsys, command, budget):
    code = main([command, "--m", "2,2", "--q", "1,1", "--budget", budget])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --budget must be at least 1, got {budget}\n"


@pytest.mark.parametrize("command", ["validate", "analyze", "hat-check"])
def test_tiling_over_the_cell_budget_exits_before_walking_cells(
    tmp_path, monkeypatch, capsys, command
):
    monkeypatch.delenv("KELLERPACK_CELL_BUDGET", raising=False)
    # 9,000,000 cells: walking them takes seconds and hundreds of MB
    huge = {"m": [2, 2], "q": [1500, 1500], "starts": [[0, 0]]}
    path = write(tmp_path, "huge.json", huge)
    code = main([command, path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: 9000000 cells exceed the budget of 1024\n"


# 2 x 300 x 300 x 300 = 54,000,000 cells, in a 277-byte family file:
# casting the shadows of its two boxes ran for over a minute
HUGE_SYSTEM = {
    "axes": [{"size": 2, "partitions": [[[0], [1]]]}]
    + [{"size": 300, "partitions": []}] * 3,
    "unital": True,
}
HUGE_HALVES = [[{"p": 0, "b": b}, "full", "full", "full"] for b in (0, 1)]


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_family_or_tree_over_the_cell_budget_exits_before_any_shadow(
    tmp_path, monkeypatch, capsys, command
):
    monkeypatch.delenv("KELLERPACK_CELL_BUDGET", raising=False)

    def no_shadow(*args):
        raise AssertionError("a shadow was cast")

    monkeypatch.setattr(kellerpack.boxes, "_shadow_mask", no_shadow)
    if command == "build-multipile":
        children = {str(b): {"leaf": leaf} for b, leaf in enumerate(HUGE_HALVES)}
        tree = {"axis": 0, "partition": 0, "children": children}
        obj = {"system": HUGE_SYSTEM, "tree": tree}
    else:
        obj = {"system": HUGE_SYSTEM, "boxes": HUGE_HALVES}
    path = write(tmp_path, "huge.json", obj)
    code = main([command, path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: 54000000 cells exceed the budget of 1024\n"


def test_unwritable_dump_is_input_error(tmp_path, capsys):
    dump = tmp_path / "missing-dir" / "tilings.jsonl"
    code = main(["enumerate", "--m", "2,2", "--q", "2,2", "--dump", str(dump)])
    assert_input_error(code, capsys.readouterr().err)


def test_bad_budget_environment_is_input_error(monkeypatch, capsys):
    monkeypatch.setenv("KELLERPACK_CELL_BUDGET", "lots")
    code = main(["census", "--m", "2,2", "--q", "2,2"])
    assert_input_error(code, capsys.readouterr().err)


@pytest.mark.parametrize("command", ["census", "enumerate", "validate"])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_budget_environment_below_one_is_input_error(
    tmp_path, monkeypatch, capsys, command, budget
):
    monkeypatch.setenv("KELLERPACK_CELL_BUDGET", budget)
    if command == "validate":
        argv = [command, write(tmp_path, "tiling.json", tiling_obj())]
    else:
        argv = [command, "--m", "2,2", "--q", "1,1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: KELLERPACK_CELL_BUDGET must be at least 1, got {budget}\n"
    )


class TestBuildMultipile:
    def test_build(self, tmp_path, capsys):
        path = write(tmp_path, "tree.json", tree_obj())
        out_path = tmp_path / "family.json"
        code, out = run(capsys, ["build-multipile", path, "--out", str(out_path)])
        assert code == 0
        assert json.loads(out)["size"] == 4
        assert len(json.loads(out_path.read_text())["boxes"]) == 4

    def test_leaves_share_the_decoded_system(self, tmp_path):
        path = write(tmp_path, "tree.json", tree_obj())
        decoded = [_load_tree(path) for _ in range(2)]
        for system, tree in decoded:
            nodes, leaves = [tree], []
            while nodes:
                node = nodes.pop()
                if isinstance(node, Leaf):
                    leaves.append(node)
                else:
                    nodes.extend(node.children)
            assert len(leaves) == 4
            assert all(leaf.box.system is system for leaf in leaves)

    def test_float_leaf_factor_is_input_error_on_every_call(self, tmp_path, capsys):
        # a factor on axis 0 in every leaf is valid, and the root overrides
        # it; 0.0 equals 0, so only a type-exact key keeps the malformed
        # leaves from hitting the valid leaf's cached box
        def with_leaf_p(p):
            obj = tree_obj()
            for child in obj["tree"]["children"].values():
                for leaf in child["children"].values():
                    leaf["leaf"][0] = {"p": p, "b": 0}
            return obj

        good = write(tmp_path, "good.json", with_leaf_p(0))
        bad = write(tmp_path, "bad.json", with_leaf_p(0.0))
        for path, code in [(bad, 2), (good, 0), (bad, 2)]:
            assert main(["build-multipile", path]) == code
            capsys.readouterr()

    def test_bad_tree_is_property_error(self, tmp_path, capsys):
        system = tiling_system(SPEC)
        leaf = Leaf(Box(system, (None, None)))
        tree = Node(0, 0, (Node(1, 0, (leaf, leaf)), Node(1, 0, (leaf, leaf))))
        path = write(
            tmp_path,
            "tree.json",
            {"system": system_to_obj(system), "tree": tree_to_obj(tree)},
        )
        code, _ = run(capsys, ["build-multipile", path])
        assert code == 1

    def test_refused_checked_tree_exits_4(self, tmp_path, monkeypatch, capsys):
        # every node passed the builder's checks, so the family is a
        # multipile and a recognizer that refuses it is a library bug
        monkeypatch.setattr(
            importlib.import_module("kellerpack.multipiles"),
            "is_multipile",
            lambda G: MultipileResult(False),
        )
        path = write(tmp_path, "tree.json", tree_obj())
        code = main(["build-multipile", path])
        assert_theorem_violation(
            code, capsys.readouterr(), "constructed family is not a multipile"
        )


class TestHatCheck:
    def test_tiling(self, tmp_path, capsys):
        path = write(tmp_path, "t.json", tiling_to_obj(LAMINATED))
        code, out = run(capsys, ["hat-check", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma1_violations"] == []
        assert payload["measure_sum"] == "1/1"
        assert payload["box_count"] == 4
        assert payload["implied_size"] == 4
        assert payload["holds"] is True


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# --- fuzzing the input boundary ------------------------------------------

OTHER_TYPE = [None, True, 7, 2.5, "x", [], {}, [[0, 1]], {"p": 0}]


def _nodes(obj, path=()):
    """(path, value) for every value nested in obj, obj itself excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _mutant(rng, obj):
    """A copy of obj with one edit: a key or item deleted, a value replaced
    by one of another type, or an integer pushed out of range."""
    obj = json.loads(json.dumps(obj))
    nodes = list(_nodes(obj))
    ints = [(p, v) for p, v in nodes if type(v) is int]
    kind = rng.choice(["delete", "retype", "range"])
    path, value = rng.choice(ints if kind == "range" else nodes)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "retype":
        parent[path[-1]] = rng.choice([v for v in OTHER_TYPE if type(v) is not type(value)])
    else:
        # at most 40, so that every mutant grid stays within the default
        # cell budget and is walked rather than refused with exit 3
        parent[path[-1]] = rng.choice([-1, value + 1, value + 3, 40])
    return obj


FUZZ_FIXTURES = [
    (tiling_obj, ["validate", "analyze", "hat-check"]),
    (family_obj, ["validate", "analyze", "hat-check"]),
    (tree_obj, ["build-multipile"]),
]


def test_fuzzed_input_never_escapes_the_boundary(tmp_path, capsys):
    rng = random.Random(0)
    path = tmp_path / "mutant.json"
    for _ in range(100):
        for fixture, commands in FUZZ_FIXTURES:
            mutant = _mutant(rng, fixture())
            path.write_text(json.dumps(mutant))
            for command in commands:
                code = main([command, str(path)])
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (command, mutant, err)
                if code == 2:
                    assert_input_error(code, err)
