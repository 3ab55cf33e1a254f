"""Every Keller family of a few arc systems, written in the box_family
wire format, with no help from the package under test.

A box of ``arc_system(n, q, d)`` picks, on each axis, either the full
axis or block ``b`` of arc partition ``p`` (``0 <= p < q``); the trivial
partition sits at index ``q``.  Two boxes form a Keller pair when some
axis carries two different blocks of one partition, and the Keller
families are exactly the nonempty cliques of that graph.
"""

from __future__ import annotations

import json
from itertools import product

# (n, q, d) -> number of Keller families, from the all-cliques enumeration.
SYSTEMS = {(3, 2, 2): 14_337, (2, 1, 3): 2_088, (3, 3, 2): 68_398}


def _arc_blocks(n: int, q: int, offset: int) -> list[list[int]]:
    size = n * q
    blocks = [
        sorted((offset + k * q + r) % size for r in range(q)) for k in range(n)
    ]
    # the wire format's block index is the canonical order: by least element
    return sorted(blocks)


def system_obj(n: int, q: int, d: int) -> dict:
    size = n * q
    partitions = [_arc_blocks(n, q, j) for j in range(q)]
    partitions.append([list(range(size))])
    return {
        "axes": [{"size": size, "partitions": partitions} for _ in range(d)],
        "unital": True,
    }


def _boxes(n: int, q: int, d: int) -> list[tuple]:
    factors = [None] + [(p, b) for p in range(q) for b in range(n)]
    return list(product(factors, repeat=d))


def _keller_pair(K: tuple, L: tuple) -> bool:
    return any(
        a is not None and b is not None and a[0] == b[0] and a[1] != b[1]
        for a, b in zip(K, L)
    )


def _cliques(n_vertices: int, adj: list[int]):
    """Every nonempty clique, each once, as a tuple of ascending vertices."""
    stack = [((), (1 << n_vertices) - 1)]
    while stack:
        clique, cand = stack.pop()
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            grown = clique + (v,)
            yield grown
            stack.append((grown, cand & adj[v]))


def keller_families(n: int, q: int, d: int) -> list[list[tuple]]:
    boxes = _boxes(n, q, d)
    adj = [
        sum(1 << j for j, L in enumerate(boxes) if _keller_pair(K, L))
        for K in boxes
    ]
    return [[boxes[v] for v in c] for c in sorted(_cliques(len(boxes), adj))]


def _factor_obj(f):
    return "full" if f is None else {"p": f[0], "b": f[1]}


def family_json(system: dict, family: list[tuple]) -> str:
    return json.dumps(
        {"system": system, "boxes": [[_factor_obj(f) for f in K] for K in family]}
    )


def population() -> list[tuple[tuple[int, int, int], list[tuple]]]:
    """All Keller families of every system in SYSTEMS, in a fixed order;
    raises if a count differs from the recorded one."""
    out = []
    for key, expected in SYSTEMS.items():
        fams = keller_families(*key)
        if len(fams) != expected:
            raise RuntimeError(
                f"arc_system{key}: {len(fams)} Keller families, expected {expected}"
            )
        out.extend((key, f) for f in fams)
    return out
