"""The array sweep of ``falconer.exact_plank_multiplicity`` and the sorted
hull of ``falconer._hull_polygon`` keep the bytes of the per-line loop and
the per-interval hull they replace (``falconer_oracle``).

The count and the witness of every sweep, and every row of every hull, are
compared as bits: on thousands of seeded packings and overlapping plank
sets, on partitions whose planks share boundary lines, on failing r - 1
checks, on planks that miss the hull or run parallel, on the unit disk, the
tangent trio and a huge hull, and on hulls of 100 and 300 disks and of
symmetric families whose bitangent normals tie in their last bits.
"""

import math

import numpy as np
import pytest

import falconer_oracle
from cylpack import falconer, instances
from cylpack.errors import NotAPacking

UNIT_DISK = falconer.DiskFamily([[0.0, 0.0]], [1.0])
TANGENT_TRIO = falconer.DiskFamily([[0.0, 0.0], [2.0, 0.0], [1.0, math.sqrt(3.0)]],
                                   [1.0, 1.0, 1.0])


def _bits(witness) -> list[str]:
    return [float(x).hex() for x in witness]


def assert_same_sweep(family, planks) -> tuple[int, tuple]:
    got = falconer.exact_plank_multiplicity(family, *falconer._plank_arrays(planks))
    want = falconer_oracle.exact_plank_multiplicity(family, planks)
    assert got[0] == want[0]
    assert _bits(got[1]) == _bits(want[1])
    return got


def assert_same_hull(family) -> np.ndarray:
    got = falconer._hull_polygon(family)
    want = falconer_oracle.hull_polygon(family)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


def _random_planks(family, gen, n):
    """n planks with random normals and intervals inside the support range;
    they overlap freely."""
    planks = []
    for _ in range(n):
        theta = gen.uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(theta), math.sin(theta)])
        a, b = np.sort(gen.uniform(-family.support(-u), family.support(u), 2))
        planks.append(falconer.plank(u, float(a), float(b)))
    return planks


@pytest.mark.parametrize("block", range(5))
def test_seeded_instances_keep_the_loop_bytes(block):
    # 5 blocks of 250 families, 4 plank sets each: 5000 instances
    for seed in range(250 * block, 250 * (block + 1)):
        family = instances.random_ns_family(3 + seed % 6, seed=seed)
        assert_same_hull(family)
        for r in (1, 2, 3):
            planks = instances.random_plank2d_packing(family, 3 + seed % 3, r, seed=seed)
            mult, _ = assert_same_sweep(family, planks)
            assert mult <= r
        # overlapping planks, each twice on even seeds: copies share their
        # boundary lines, so sweeps cross zero-length pieces
        planks = _random_planks(family, np.random.default_rng(seed), 3 + seed % 4)
        assert_same_sweep(family, planks * (2 - seed % 2))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_partitions_sharing_boundary_lines_keep_the_loop_bytes(r):
    for seed in range(40):
        family = instances.random_ns_family(3 + seed % 5, seed=seed + 7000)
        theta = 0.37 * seed
        direction = (math.cos(theta), math.sin(theta))
        planks = falconer_oracle.plank2d_partition(family, 2 + seed % 4, r=r,
                                                   direction=direction)
        mult, _ = assert_same_sweep(family, planks)
        assert mult == r


def test_failing_checks_report_the_loop_witness():
    # an r-fold packing checked at r - 1 fails with the sweep's witness
    failures = 0
    for seed in range(60):
        family = instances.random_ns_family(3 + seed % 5, seed=seed + 8000)
        for r in (2, 3):
            planks = instances.random_plank2d_packing(family, 3, r, seed=seed)
            _, witness = falconer_oracle.exact_plank_multiplicity(family, planks)
            try:
                falconer.check_disk_planks(family, planks, r - 1)
            except NotAPacking as exc:
                failures += 1
                assert _bits(exc.verdict.witness) == _bits(witness)
    assert failures > 100


def test_planks_missing_the_hull_or_parallel_keep_the_loop_bytes():
    gen = np.random.default_rng(9)
    for seed in range(40):
        family = instances.random_ns_family(4, seed=seed + 9000)
        theta = gen.uniform(0.0, math.pi)
        u = np.array([math.cos(theta), math.sin(theta)])
        top, bottom = family.support(u), -family.support(-u)
        width = top - bottom
        parallel = [falconer.plank(u, bottom + width * a, bottom + width * b)
                    for a, b in ((0.1, 0.3), (0.25, 0.5), (0.5, 0.9), (0.5, 0.6))]
        missing = [falconer.plank(u, top + 0.5, top + 1.5),          # beyond the hull
                   falconer.plank(u, bottom - 1.0, top + 1.0),       # around it
                   falconer.plank(-u, -top - 1.0, -top - 0.1)]       # below, flipped
        assert_same_sweep(family, parallel)
        assert_same_sweep(family, missing)
        assert_same_sweep(family, parallel + missing + _random_planks(family, gen, 2))


def test_unit_disk_trio_and_huge_hull_keep_the_loop_bytes():
    for family in (UNIT_DISK, TANGENT_TRIO):
        assert_same_hull(family)
        for direction in ((1.0, 0.0), (0.6, 0.8), (-0.28, 0.96)):
            for r in (1, 2):
                assert_same_sweep(family, falconer_oracle.plank2d_partition(
                    family, 4, r=r, direction=direction))
        assert_same_sweep(family, instances.random_plank2d_packing(family, 3, 2, seed=5))
    fam = instances.random_ns_family(4, 1)
    huge = falconer.DiskFamily(fam.centers, np.concatenate([[1e154], fam.radii[1:]]))
    assert_same_hull(huge)
    mult, _ = assert_same_sweep(huge, instances.random_plank2d_packing(fam, 3, 2, seed=1))
    assert mult == 2


@pytest.mark.parametrize("n", [100, 300])
def test_large_family_hulls_keep_the_interval_bytes(n):
    for seed in (1, 2):
        assert len(assert_same_hull(instances.random_ns_family(n, seed=seed)))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
def test_tied_normals_keep_the_interval_bytes(n):
    # symmetric families put several bitangent normals within a few ulps of
    # one another, where rounding decides the extreme disk
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    grid = [[x, y] for x in range(n) for y in range(n)]
    for family in (falconer.DiskFamily(ring, [0.3] * n),
                   falconer.DiskFamily(3.0 * ring, [1.0 + i % 2 for i in range(n)]),
                   falconer.DiskFamily([[i, 0.0] for i in range(n)], [1.0] * n),
                   falconer.DiskFamily(grid, [0.5] * len(grid))):
        assert_same_hull(family)
        assert_same_sweep(family, falconer_oracle.plank2d_partition(family, 3, r=2))
