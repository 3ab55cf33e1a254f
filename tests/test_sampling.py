import random
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
from kellerpack.boxes import all_boxes, keller_factors
from kellerpack.partitions import PartitionSystem, independent
from kellerpack.sampling import random_box, random_keller_family, random_system

# --- reference: the object-level sampler --------------------------------
# Draws and compares Box objects with keller_pair; the factor-tuple
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
        for _ in range(5):
            assert random_box(system, rng) == ref_random_box(system, ref)
        assert rng.getstate() == ref.getstate()


def test_keller_factors_is_keller_pair():
    boxes = all_boxes(arc_system(2, 2, 2))
    assert len(boxes) == 25  # 5 factors on each of 2 axes
    for K, L in combinations(boxes, 2):
        assert keller_factors(K.factors, L.factors) == keller_pair(K, L)
        assert keller_factors(L.factors, K.factors) == keller_pair(L, K)
    for K in boxes:
        assert not keller_factors(K.factors, K.factors)
