import json

import pytest

from kellerpack import arc_system, binary_system
from kellerpack.boxes import keller_families
from kellerpack.cli import main
from kellerpack.errors import IndependenceError, OverlapError
from kellerpack.serialization import family_from_obj, family_to_obj


def one_axis_family_obj():
    """A two-box family on one size-4 axis split into {0,1} and {2,3}."""
    return {
        "system": {
            "axes": [{"size": 4, "partitions": [[[0, 1], [2, 3]]]}],
            "unital": True,
        },
        "boxes": [[{"p": 0, "b": 0}], [{"p": 0, "b": 1}]],
    }


def with_blocks(blocks):
    obj = one_axis_family_obj()
    obj["system"]["axes"][0]["partitions"] = blocks
    return obj


def with_factor(factor):
    obj = one_axis_family_obj()
    obj["boxes"][0] = [factor]
    return obj


class TestMemo:
    def test_equal_texts_share_the_system_and_its_boxes(self):
        G = family_from_obj(one_axis_family_obj())
        H = family_from_obj(one_axis_family_obj())
        assert H.system is G.system
        assert all(K is L for K, L in zip(G.boxes, H.boxes))

    def test_equal_factors_share_a_box_across_families(self):
        obj = one_axis_family_obj()
        G = family_from_obj(obj)
        H = family_from_obj({**obj, "boxes": [obj["boxes"][1]]})
        assert H.boxes[0] is G.boxes[1]

    def test_key_order_does_not_change_the_box(self):
        obj = one_axis_family_obj()
        G = family_from_obj(obj)
        H = family_from_obj({**obj, "boxes": [[{"b": 1, "p": 0}]]})
        assert H.boxes[0] == G.boxes[1]

    def test_boxes_carry_the_system_they_are_decoded_in(self):
        obj = one_axis_family_obj()
        reordered = {
            "system": {"unital": True, "axes": obj["system"]["axes"]},
            "boxes": obj["boxes"],
        }
        for o in (obj, reordered):
            G = family_from_obj(o)
            assert all(K.system is G.system for K in G.boxes)
        # 16 other systems evict the first from the decoder's system cache
        for size in range(5, 21):
            axis = {"size": size, "partitions": []}
            family_from_obj({"system": {"axes": [axis], "unital": True},
                             "boxes": [["full"]]})
        G = family_from_obj(obj)
        assert all(K.system is G.system for K in G.boxes)

    @pytest.mark.parametrize(
        "system, count",
        [
            (arc_system(2, 1, 3), 2_088),
            (binary_system([2, 3], [[{0}], [{0}, {1}]]), 82),
        ],
        ids=["arc-2-1-3", "binary"],
    )
    def test_round_trip_on_every_keller_family(self, system, count):
        families = list(keller_families(system))
        assert len(families) == count
        for G in families:
            assert family_from_obj(family_to_obj(G)) == G

    # each names the exception that the first decode raises; a malformed
    # system or box is not cached, so every later decode raises it again,
    # also right after the valid family it differs from was decoded (True,
    # False, 0.0 and 3.0 compare equal to the valid file's 1, 0, 0 and 3, so
    # only a key that tells JSON types apart keeps them from hitting its
    # cache entry)
    @pytest.mark.parametrize(
        "obj, exc",
        [
            (with_blocks([[[0, True], [2, 3]]]), ValueError),
            (with_blocks([[[0, 1], [2, 3.0]]]), ValueError),
            (with_blocks([[[0, 1, 2], [2, 3]]]), OverlapError),
            (
                with_blocks([[[0, 1], [2, 3]], [[0], [1], [2, 3]]]),
                IndependenceError,
            ),
            (with_factor({"p": 9, "b": 0}), IndexError),
            (with_factor({"p": 0.0, "b": 0}), ValueError),
            (with_factor({"p": False, "b": 0}), ValueError),
            (with_factor({"p": 0, "b": 0.0}), ValueError),
        ],
        ids=[
            "element-true",
            "element-float",
            "overlapping-blocks",
            "dependent-partitions",
            "factor-out-of-range",
            "factor-p-float",
            "factor-p-false",
            "factor-b-float",
        ],
    )
    def test_malformed_raises_on_every_call(self, obj, exc):
        text = json.dumps(obj)
        for valid_first in (False, True, False):
            if valid_first:
                family_from_obj(one_axis_family_obj())
            with pytest.raises(exc):
                family_from_obj(json.loads(text))


class TestSystemPath:
    """A family file may name its system by a path, relative to the
    family file's own directory, not to the working directory."""

    def payload(self, out):
        report = json.loads(out)
        report.pop("config")
        return report

    def test_relative_path_from_another_cwd(self, tmp_path, monkeypatch, capsys):
        obj = one_axis_family_obj()
        inline = tmp_path / "inline.json"
        inline.write_text(json.dumps(obj))
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "system.json").write_text(json.dumps(obj["system"]))
        (sub / "family.json").write_text(
            json.dumps({**obj, "system": "system.json"})
        )
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)

        assert main(["analyze", str(inline)]) == 0
        expected = self.payload(capsys.readouterr().out)
        assert main(["analyze", "../sub/family.json"]) == 0
        assert self.payload(capsys.readouterr().out) == expected
        assert expected["c_total"] == 1

    def test_missing_system_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "family.json"
        path.write_text(
            json.dumps({**one_axis_family_obj(), "system": "absent.json"})
        )
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
