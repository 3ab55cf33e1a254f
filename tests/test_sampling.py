import hashlib
import json
import random
from collections import Counter
from itertools import combinations

import pytest

from kellerpack import (
    BlockRef,
    Box,
    BoxFamily,
    arc_system,
    keller_pair,
    make_partition,
    trivial_partition,
)
from kellerpack.boxes import all_boxes
from kellerpack.partitions import PartitionSystem, independent
from kellerpack.sampling import (
    _below,
    _draw_factors,
    _draw_table,
    random_keller_family,
    random_partition,
    random_system,
)
from kellerpack.serialization import family_to_obj
from oracles import keller_factors

# --- reference: the object-level sampler --------------------------------
# Draws and compares Box objects with keller_pair; the bit-mask
# sampler must consume the same random stream and return the same families.


def ref_random_partition(size, rng):
    while True:
        n_blocks = rng.randint(2, size)
        labels = [rng.randrange(n_blocks) for _ in range(size)]
        used = sorted(set(labels))
        if len(used) < 2:
            continue
        blocks = [[e for e, l in zip(range(size), labels) if l == u] for u in used]
        return make_partition(size, blocks)


def ref_random_system(rng, max_dimension=3, max_size=6, max_partitions=3):
    d = rng.randint(1, max_dimension)
    sizes = [rng.randint(2, max_size) for _ in range(d)]
    families = []
    for size in sizes:
        family = []
        target = rng.randint(1, max_partitions)
        attempts = 0
        while len(family) < target and attempts < 50:
            attempts += 1
            p = ref_random_partition(size, rng)
            if p not in family and all(independent(p, other) for other in family):
                family.append(p)
        family.append(trivial_partition(size))
        families.append(tuple(family))
    return PartitionSystem(tuple(sizes), tuple(families))


def ref_random_box(system, rng):
    factors = []
    for axis in range(system.dimension):
        nontrivial = system.nontrivial_indices(axis)
        if not nontrivial or rng.random() < 0.15:
            factors.append(None)
        else:
            p = rng.choice(nontrivial)
            b = rng.randrange(system.partition(axis, p).n_blocks)
            factors.append(BlockRef(p, b))
    return Box(system, tuple(factors))


def ref_random_keller_family(system, rng, max_boxes=6, attempts=60):
    boxes = []
    for _ in range(attempts):
        if len(boxes) >= max_boxes:
            break
        K = ref_random_box(system, rng)
        if K in boxes:
            continue
        if all(keller_pair(K, L) for L in boxes):
            boxes.append(K)
    if not boxes:
        return None
    return BoxFamily(system, tuple(boxes))


@pytest.mark.parametrize("seed", range(5))
def test_sweep_matches_object_sampler(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(500):
        system = random_system(rng)
        assert system == ref_random_system(ref)
        G = random_keller_family(system, rng)
        assert G == ref_random_keller_family(system, ref)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", range(5))
def test_random_box_matches_object_draw(seed):
    systems = random.Random(1000 + seed)
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(100):
        system = ref_random_system(systems)
        table = _draw_table(system)
        for _ in range(5):
            picks = _draw_factors(table, rng.random, rng.getrandbits)[0]
            assert Box(system, tuple(picks)) == ref_random_box(system, ref)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", range(5))
def test_below_is_randrange(seed):
    """_below is randrange(n)'s step for every n the sampler meets and
    more, n = 1 included: a Python whose randrange draws differently fails
    here by name, not only in the digest below."""
    rng, ref = random.Random(seed), random.Random(seed)
    for n in range(1, 71):
        for _ in range(20):
            assert _below(rng.getrandbits, n, n.bit_length()) == ref.randrange(n)
        assert rng.getstate() == ref.getstate()


def test_keller_factors_is_keller_pair():
    boxes = all_boxes(arc_system(2, 2, 2))
    assert len(boxes) == 25  # 5 factors on each of 2 axes
    for K, L in combinations(boxes, 2):
        assert keller_factors(K.factors, L.factors) == keller_pair(K, L)
        assert keller_factors(L.factors, K.factors) == keller_pair(L, K)
    for K in boxes:
        assert not keller_factors(K.factors, K.factors)


@pytest.mark.parametrize("seed", range(5))
def test_mask_test_is_keller_factors(seed):
    systems, rng = random.Random(2000 + seed), random.Random(seed)
    verdicts = Counter()
    for _ in range(100):
        table = _draw_table(ref_random_system(systems))
        for _ in range(10):
            fa, sel_a, clash_a = _draw_factors(table, rng.random, rng.getrandbits)
            fb, sel_b, clash_b = _draw_factors(table, rng.random, rng.getrandbits)
            verdict = keller_factors(fa, fb)
            assert bool(clash_a & sel_b) == verdict
            assert bool(clash_b & sel_a) == keller_factors(fb, fa) == verdict
            # a repeated draw is never a Keller pair with itself
            assert not clash_a & sel_a and not keller_factors(fa, fa)
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("seed", range(5))
def test_random_partition_matches_reference(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for size in range(2, 7):
        for _ in range(40):
            p = random_partition(size, rng)
            assert p == ref_random_partition(size, ref)
            assert rng.getstate() == ref.getstate()
            # built without make_partition's validation, so check it here
            blocks = [p.block_elems(b) for b in range(p.n_blocks)]
            assert p == make_partition(size, blocks)


def _halves(size):
    return make_partition(size, [range(size // 2), range(size // 2, size)])


# Shapes random_system almost never draws: one axis, and axes whose only
# partition is trivial (no nontrivial partition to draw a block from).
RARE_SYSTEMS = {
    "one-axis": PartitionSystem(
        (4,),
        ((_halves(4), make_partition(4, [[0, 2], [1, 3]]), trivial_partition(4)),),
    ),
    "one-axis-one-partition": PartitionSystem(
        (3,), ((make_partition(3, [[0], [1], [2]]),),)
    ),
    "trivial-axis-last": PartitionSystem(
        (2, 3), ((_halves(2), trivial_partition(2)), (trivial_partition(3),))
    ),
    "trivial-axis-middle": PartitionSystem(
        (4, 3, 2),
        ((_halves(4), trivial_partition(4)), (trivial_partition(3),), (_halves(2),)),
    ),
    "all-trivial": PartitionSystem(
        (2, 5), ((trivial_partition(2),), (trivial_partition(5),))
    ),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(RARE_SYSTEMS))
def test_rare_systems_match_object_sampler(name, seed):
    system = RARE_SYSTEMS[name]
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(50):
        G = random_keller_family(system, rng)
        assert G == ref_random_keller_family(system, ref)
        picks = _draw_factors(_draw_table(system), rng.random, rng.getrandbits)[0]
        assert Box(system, tuple(picks)) == ref_random_box(system, ref)
        assert rng.getstate() == ref.getstate()


def test_criterion_4_random_tail_digest():
    """criterion 4's 1,000 seeded families, pinned by content.  The sampler
    draws random() and getrandbits in randrange's step, so its stream is
    randint/choice/randrange's; the parity tests compare it with a sampler
    that calls those, so a Python whose randrange draws differently would
    pass them (though not test_below_is_randrange) and fail here."""
    rng = random.Random(0)
    families = [random_keller_family(random_system(rng), rng) for _ in range(1000)]
    blob = json.dumps([family_to_obj(G) for G in families], sort_keys=True)
    assert sum(len(G.boxes) for G in families) == 4026
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "f025497f79028f0a7d443643d74292c7020c4fb1fef4a2e68626e49acbbe602b"
    )


@pytest.mark.parametrize("seed", range(5))
def test_draw_table_reads_the_system_numbering(seed):
    rng = random.Random(3000 + seed)
    for _ in range(50):
        system = random_system(rng)
        table = _draw_table(system)
        for axis, (n, k, parts) in enumerate(table):
            nontrivial = system.nontrivial_indices(axis)
            assert n == len(parts) == len(nontrivial) and k == n.bit_length()
            assert [blocks[0][0].partition for _, _, blocks in parts] == list(
                nontrivial
            )
            for n, k, blocks in parts:
                p = blocks[0][0].partition
                assert blocks == system.block_bits[axis][p]
                assert n == len(system.block_bits[axis][p]) and k == n.bit_length()
                assert n == system.partition(axis, p).n_blocks
                assert [f for f, _, _ in blocks] == [
                    BlockRef(p, b) for b in range(n)
                ]
