"""JSON wire formats.

partition_system.json:
    {"axes": [{"size": N, "partitions": [[[elem, ...], ...], ...]}],
     "unital": bool}
box_family.json:
    {"system": <inline object or path string>, "boxes": [[factor, ...]]}
    where factor is "full" or {"p": int, "b": int}
tiling json:
    {"m": [...], "q": [...], "starts": [[...], ...]}
multipile tree json:
    {"leaf": [factor, ...]}
    | {"axis": i, "partition": p, "children": {"<block>": <tree>}}

Rationals are serialized as "p/q" strings, never floats.  Block order is
canonical on write and tolerated unordered on read.

The decoders take JSON values, as json.loads returns them.  They decode
each distinct system and each box of a system object once per process,
keyed by marshal bytes (version 2, with no back-references), which tell
1, 1.0 and True apart, so a box carries the system it is decoded in.  A
malformed system or box is never cached, so it raises on every call.
"""

from __future__ import annotations

import json
import marshal
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any, Optional, Union

from .boxes import BlockRef, Box, BoxFamily
from .multipiles import Leaf, MultipileTree, Node
from .partitions import (
    PartitionSystem,
    elems_of,
    make_partition,
    trivial_partition,
)
from .torus import TorusSpec, TorusTiling


def fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _int(v: Any) -> int:
    """A JSON integer as read.  bool, float and str are refused, not
    coerced: int(1.9) and int(True) would accept a wrong file."""
    if type(v) is not int:
        raise ValueError(f"expected an integer, got {v!r}")
    return v


# --- partition systems --------------------------------------------------

def system_to_obj(system: PartitionSystem) -> dict[str, Any]:
    axes = []
    for size, family in zip(system.axis_sizes, system.families):
        axes.append(
            {
                "size": size,
                "partitions": [
                    [list(elems_of(m)) for m in p.blocks] for p in family
                ],
            }
        )
    return {"axes": axes, "unital": system.is_unital}


def system_from_obj(obj: dict[str, Any]) -> PartitionSystem:
    """Equal JSON, a family's or a tree's, decodes to one object per process."""
    return _system(marshal.dumps(obj, 2))


@lru_cache(maxsize=16)
def _system(key: bytes) -> PartitionSystem:
    """The system of its marshal bytes; lru_cache caches no exception."""
    obj = marshal.loads(key)
    sizes = []
    families = []
    for axis in obj["axes"]:
        size = _int(axis["size"])
        family = [
            make_partition(size, [[_int(e) for e in block] for block in blocks])
            for blocks in axis["partitions"]
        ]
        if obj.get("unital") and not any(p.is_trivial for p in family):
            family.append(trivial_partition(size))
        sizes.append(size)
        families.append(tuple(family))
    return PartitionSystem(tuple(sizes), tuple(families))


# --- box families -------------------------------------------------------

def _factor_to_obj(f: Optional[BlockRef]) -> Any:
    if f is None:
        return "full"
    return {"p": f.partition, "b": f.block}


def _factor_from_obj(obj: Any) -> Optional[BlockRef]:
    if obj == "full":
        return None
    return BlockRef(_int(obj["p"]), _int(obj["b"]))


@lru_cache(maxsize=4096)
def _box(system_id: int, system: PartitionSystem, key: bytes) -> Box:
    """The decoder's one box constructor, on id(system) and the marshal
    bytes of a box's factor list; the cached box keeps its system alive,
    so that no other system takes the id while the entry lives."""
    return Box(system, tuple(_factor_from_obj(f) for f in marshal.loads(key)))


def family_to_obj(G: BoxFamily) -> dict[str, Any]:
    return {
        "system": system_to_obj(G.system),
        "boxes": [[_factor_to_obj(f) for f in K.factors] for K in G.boxes],
    }


def family_from_obj(
    obj: dict[str, Any], base_dir: Optional[Path] = None
) -> BoxFamily:
    raw = obj["system"]
    if isinstance(raw, str):
        path = Path(raw)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        raw = json.loads(path.read_text())
    system = system_from_obj(raw)
    boxes = tuple(_box(id(system), system, marshal.dumps(f, 2)) for f in obj["boxes"])
    return BoxFamily(system, boxes)


# --- tilings ------------------------------------------------------------

def tiling_to_obj(t: TorusTiling) -> dict[str, Any]:
    return {
        "m": list(t.spec.m),
        "q": list(t.spec.q),
        "starts": [list(s) for s in t.starts],
    }


def tiling_from_obj(obj: dict[str, Any]) -> TorusTiling:
    spec = TorusSpec(tuple(map(_int, obj["m"])), tuple(map(_int, obj["q"])))
    starts = tuple(tuple(map(_int, s)) for s in obj["starts"])
    return TorusTiling(spec, starts)


# --- multipile trees ----------------------------------------------------

def tree_to_obj(tree: MultipileTree) -> dict[str, Any]:
    if isinstance(tree, Leaf):
        return {"leaf": [_factor_to_obj(f) for f in tree.box.factors]}
    return {
        "axis": tree.axis,
        "partition": tree.partition,
        "children": {str(b): tree_to_obj(c) for b, c in enumerate(tree.children)},
    }


def tree_from_obj(obj: dict[str, Any], system: PartitionSystem) -> MultipileTree:
    if "leaf" in obj:
        return Leaf(_box(id(system), system, marshal.dumps(obj["leaf"], 2)))
    children_raw = obj["children"]
    children = tuple(
        tree_from_obj(children_raw[str(b)], system)
        for b in range(len(children_raw))
    )
    return Node(_int(obj["axis"]), _int(obj["partition"]), children)


# --- file helpers -------------------------------------------------------

def load_json(path: Union[str, Path]) -> Any:
    return json.loads(Path(path).read_text())


def dump_json(obj: Any, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def detect_and_load(path: Union[str, Path]):
    """Load a tiling or a box family, deciding by the top-level keys."""
    obj = load_json(path)
    if "starts" in obj:
        return tiling_from_obj(obj)
    if "boxes" in obj:
        return family_from_obj(obj, base_dir=Path(path).parent)
    raise ValueError("file is neither a tiling nor a box family")
