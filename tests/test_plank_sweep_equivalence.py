"""The array sweep of ``multiplicity.exact_plank_multiplicity`` keeps the
counts of the per-line loop it replaced, and the hull chords of
``multiplicity._chords`` (disks and ``falconer._hull_segments``) those of the
per-interval hull polygon (``falconer_oracle``).

Every sweep's count equals the loop's, and its witness is certainly in the
hull and in exactly that many open planks; every chord's ends agree with the
polygon's within ``CHORD_TOL`` times the family's size.  The names keep
their earlier ids: the loop and the per-interval hull are still the
references, of counts and chords now rather than of bits.  The instances:
thousands of seeded packings and overlapping plank sets, partitions whose
planks share boundary lines, failing r - 1 checks, planks that miss the hull
or run parallel, the unit disk, the tangent trio and a huge hull, and hulls
of 100 and 300 disks and of symmetric families whose bitangent normals tie
in their last bits, among them chains of touching disks turned through 48
angles, with plank pairs that overlap only in a cusp between two disks and
the edge they touch.
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


CHORD_TOL = 1e-12  # chord ends agree within this times the family's size


def assert_witness(family, planks, mult, witness):
    assert falconer_oracle.certainly_in_hull(family, witness)[0]
    assert falconer_oracle.open_counts(planks, witness)[0] == mult


def assert_same_sweep(family, planks) -> tuple[int, tuple]:
    got = falconer_oracle.sweep(family, planks)
    assert got[0] == falconer_oracle.exact_plank_multiplicity(family, planks)[0]
    assert_witness(family, planks, *got)
    return got


def assert_same_chords(family, lines: int = 20, seed: int = 0) -> np.ndarray:
    """``lines`` seeded lines through the disks' bounding box, plus one
    through the middle of each hull segment at 30 to 150 degrees to it, get
    the polygon's chords; returns the segments."""
    segments = family.hull_segments
    polygon = falconer_oracle.hull_polygon(family)
    size = max(np.max(np.abs(family.centers)), np.max(family.radii))
    gen = np.random.default_rng(seed)
    box_lo = np.min(family.centers - family.radii[:, None], axis=0)
    box_hi = np.max(family.centers + family.radii[:, None], axis=0)
    points = np.vstack([gen.uniform(box_lo, box_hi, (lines, 2)), np.mean(segments, axis=1)])
    along = np.arctan2(*(segments[:, 1] - segments[:, 0]).T[::-1])
    theta = np.concatenate([gen.uniform(0.0, 2.0 * math.pi, lines),
                            along + gen.uniform(math.pi / 6.0, 5.0 * math.pi / 6.0, len(along))])
    directions = np.column_stack([np.cos(theta), np.sin(theta)])
    lo, hi = falconer_oracle.chords(family, segments, points, directions)
    for k, (point, direction) in enumerate(zip(points, directions)):
        want = falconer_oracle.hull_chord(family, polygon, point, direction)
        if want is None:
            assert not hi[k] - lo[k] > CHORD_TOL * size, k
        else:
            assert abs(lo[k] - want[0]) <= CHORD_TOL * size, k
            assert abs(hi[k] - want[1]) <= CHORD_TOL * size, k
    return segments


def _random_planks(family, gen, n):
    """n planks with random normals and intervals inside the support range;
    they overlap freely."""
    planks = []
    for _ in range(n):
        theta = gen.uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(theta), math.sin(theta)])
        a, b = np.sort(gen.uniform(-falconer_oracle.support(family, -u),
                                   falconer_oracle.support(family, u), 2))
        planks.append(falconer.plank(u, float(a), float(b)))
    return planks


@pytest.mark.parametrize("block", range(5))
def test_seeded_instances_keep_the_loop_bytes(block):
    # 5 blocks of 250 families, 4 plank sets each: 5000 instances
    for seed in range(250 * block, 250 * (block + 1)):
        family = instances.random_ns_family(3 + seed % 6, seed=seed)
        assert_same_chords(family, seed=seed)
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
    # an r-fold packing checked at r - 1 fails with the loop's count and a
    # witness in that many open planks
    failures = 0
    for seed in range(60):
        family = instances.random_ns_family(3 + seed % 5, seed=seed + 8000)
        for r in (2, 3):
            planks = instances.random_plank2d_packing(family, 3, r, seed=seed)
            mult, _ = falconer_oracle.exact_plank_multiplicity(family, planks)
            try:
                falconer.check_disk_planks(family, planks, r - 1)
            except NotAPacking as exc:
                failures += 1
                assert exc.verdict.report.max_mult == mult
                assert_witness(family, planks, mult, exc.verdict.witness)
    assert failures > 100


def test_planks_missing_the_hull_or_parallel_keep_the_loop_bytes():
    gen = np.random.default_rng(9)
    for seed in range(40):
        family = instances.random_ns_family(4, seed=seed + 9000)
        theta = gen.uniform(0.0, math.pi)
        u = np.array([math.cos(theta), math.sin(theta)])
        top = falconer_oracle.support(family, u)
        bottom = -falconer_oracle.support(family, -u)
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
        assert_same_chords(family)
        for direction in ((1.0, 0.0), (0.6, 0.8), (-0.28, 0.96)):
            for r in (1, 2):
                assert_same_sweep(family, falconer_oracle.plank2d_partition(
                    family, 4, r=r, direction=direction))
        assert_same_sweep(family, instances.random_plank2d_packing(family, 3, 2, seed=5))
    fam = instances.random_ns_family(4, 1)
    huge = falconer.DiskFamily(fam.centers, np.concatenate([[1e154], fam.radii[1:]]))
    assert_same_chords(huge)
    mult, _ = assert_same_sweep(huge, instances.random_plank2d_packing(fam, 3, 2, seed=1))
    assert mult == 2


@pytest.mark.parametrize("n", [100, 300])
def test_large_family_hulls_keep_the_interval_bytes(n):
    for seed in (1, 2):
        assert len(assert_same_chords(instances.random_ns_family(n, seed=seed), 200))


def assert_rotated_chain_keeps_its_cusps(n, phi):
    """A chain of n touching unit disks along the direction phi: rounding may
    leave the inner disks a few ulps of extreme arc at the normals of the two
    edges the chain's disks all touch.  Chords perpendicular to the chain
    must still end on those edges, and two planks whose only overlap in the
    hull is a cusp between two disks and an edge overlap there."""
    u = np.array([math.cos(phi), math.sin(phi)])
    v = np.array([-u[1], u[0]])
    family = falconer.DiskFamily([0.3, -0.7] + np.outer(2.0 * np.arange(n), u), [1.0] * n)
    segments = family.hull_segments
    points = family.centers[0] + np.outer(np.linspace(0.0, 2.0 * n - 2.0, 4 * n), u)
    lo, hi = falconer_oracle.chords(family, segments, points, np.tile(v, (len(points), 1)))
    assert np.allclose(lo, -1.0, rtol=0.0, atol=CHORD_TOL * 2.0 * n)
    assert np.allclose(hi, 1.0, rtol=0.0, atol=CHORD_TOL * 2.0 * n)
    base = family.centers[0] @ np.column_stack([u, v])
    for side in (1.0, -1.0):
        edge = base[1] * side + 1.0
        for k in range(n - 1):
            cusp = base[0] + 2.0 * k + 1.0
            planks = [falconer.plank(side * v, edge - 0.05, edge + 1.0),
                      falconer.plank(u, cusp - 0.1, cusp + 0.1)]
            mult, _ = assert_same_sweep(family, planks)
            assert mult == 2, (n, phi, side, k)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
def test_tied_normals_keep_the_interval_bytes(n):
    # symmetric families put several bitangent normals within a few ulps of
    # one another, where rounding decides the extreme disk; so do rotated
    # chains of touching disks
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    grid = [[x, y] for x in range(n) for y in range(n)]
    for family in (falconer.DiskFamily(ring, [0.3] * n),
                   falconer.DiskFamily(3.0 * ring, [1.0 + i % 2 for i in range(n)]),
                   falconer.DiskFamily([[i, 0.0] for i in range(n)], [1.0] * n),
                   falconer.DiskFamily(grid, [0.5] * len(grid))):
        assert_same_chords(family, 100)
        assert_same_sweep(family, falconer_oracle.plank2d_partition(family, 3, r=2))
    if n <= 6:
        for k in range(48):
            assert_rotated_chain_keeps_its_cusps(n, 2.0 * math.pi * k / 48.0 + 0.01 * n)

