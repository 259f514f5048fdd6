import math
import re

import numpy as np
import pytest

import falconer_oracle
from conftest import inscribed_hull
from cylpack import cli, falconer, geom, instances
from cylpack.errors import (
    DimensionMismatch,
    DomainError,
    NotAPacking,
    NotNS,
)


def disks(*specs) -> falconer.DiskFamily:
    """The family of the (centre, radius) pairs ``specs``."""
    return falconer.DiskFamily(*zip(*specs))


TANGENT_TRIO = disks(((0, 0), 1.0), ((2, 0), 1.0), ((1, math.sqrt(3)), 1.0))
UNIT_DISK = disks(((0, 0), 1.0))


def random_line_separability_oracle(family, rng, trials=10_000):
    """One-sided oracle: can only confirm separability."""
    centers, radii = family.centers, family.radii
    for _ in range(trials):
        theta = rng.uniform(0.0, math.pi)
        u = np.array([math.cos(theta), math.sin(theta)])
        proj = centers @ u
        s = rng.uniform(np.min(proj - radii), np.max(proj + radii))
        clear = np.abs(proj - s) - radii
        if np.all(clear > 0):
            side = proj - s > 0
            if side.any() and (~side).any():
                return True
    return False


# --- separability ------------------------------------------------------------

def test_separable_far_pair():
    fam = disks(((0, 0), 1.0), ((4, 0), 1.0))
    sep, line = falconer.is_separable(fam)
    assert sep
    u = np.asarray(line.u)
    clear = np.abs(fam.centers @ u - line.offset) - fam.radii
    side = fam.centers @ u - line.offset > 0
    assert np.all(clear > 0) and side.any() and (~side).any()


def test_tangent_trio_not_separable(rng):
    sep, _ = falconer.is_separable(TANGENT_TRIO)
    assert not sep
    assert not random_line_separability_oracle(TANGENT_TRIO, rng)


def test_single_disk_not_separable_by_convention():
    sep, line = falconer.is_separable(UNIT_DISK)
    assert not sep and line is None


def test_tangent_pair_not_separable():
    # the common tangent line touches both disks, so it does not separate
    fam = disks(((0, 0), 1.0), ((2, 0), 1.0))
    sep, _ = falconer.is_separable(fam)
    assert not sep


def test_concentric_pair_has_no_pair_angle():
    # a shared centre gives the pair no normal direction: the larger disk
    # meets every tangent line of the smaller, and the third disk alone
    # supplies the separating line
    fam = disks(((0, 0), 1.0), ((0, 0), 0.5))
    assert falconer.is_separable(fam) == (False, None)
    fam = disks(((0, 0), 1.0), ((0, 0), 0.5), ((5, 0), 1.0))
    sep, line = falconer.is_separable(fam)
    assert sep
    clear = np.abs(fam.centers @ np.asarray(line.u) - line.offset) - fam.radii
    assert np.all(clear > 0)


def test_separability_knife_edge():
    # two unit disks: separable exactly when the center gap exceeds 2
    for eps, want in ((1e-9, True), (-1e-9, False), (0.0, False)):
        fam = disks(((0, 0), 1.0), ((2.0 + eps, 0), 1.0))
        sep, _ = falconer.is_separable(fam)
        assert sep is want, eps


@pytest.mark.parametrize("scale", [1e-200, 1e-16, 1.0, 1e150])
def test_separable_pair_is_separable_at_every_scale(scale):
    # radius 0.6 s at (0, 0) and (s, s): a gap of (sqrt(2) - 1.2) s
    fam = disks(((0, 0), 0.6 * scale), ((scale, scale), 0.6 * scale))
    sep, line = falconer.is_separable(fam)
    assert sep
    signed = fam.centers @ np.asarray(line.u) - line.offset
    assert np.all(np.abs(signed) - fam.radii > 0) and (signed[0] > 0) != (signed[1] > 0)


def test_line_tangent_to_three_disks_does_not_separate():
    # the line x = 23 touches disks 1 and 2 (tangent at (23, 0)) and disk 4,
    # so two of disk 4's arcs meet at theta = pi; every distance and sum is
    # exact, and the family is not separable
    fam = disks(((0, 0), 9.0), ((16, 0), 7.0), ((24, 0), 1.0), ((32, 0), 7.0),
                ((32, 16), 9.0))
    assert falconer.is_separable(fam) == (False, None)
    assert falconer_oracle.is_separable(fam) == (False, None)


def test_separability_agrees_with_oracle(rng):
    agree_sep = agree_ns = 0
    for trial in range(100):
        n = int(rng.integers(2, 6))
        centers = rng.uniform(-2, 2, size=(n, 2))
        radii = rng.uniform(0.2, 1.0, size=n)
        fam = falconer.DiskFamily(centers, radii)
        exact, line = falconer.is_separable(fam)
        oracle = random_line_separability_oracle(fam, rng, trials=4000)
        if oracle:
            assert exact, "oracle found a separating line the exact test missed"
            agree_sep += 1
        else:
            agree_ns += 1
        if exact:
            u = np.asarray(line.u)
            clear = np.abs(fam.centers @ u - line.offset) - fam.radii
            side = fam.centers @ u - line.offset > 0
            assert np.all(clear > 0) and side.any() and (~side).any()
    assert agree_sep > 0 and agree_ns > 0


# --- circumradius ------------------------------------------------------------

def test_circumradius_point_disks():
    fam = disks(((0, 0), 0.0), ((2, 0), 0.0), ((1, 1), 0.0))
    out = falconer.circumradius(fam)
    assert np.allclose(out.center, [1.0, 0.0], atol=1e-12)
    assert out.radius == pytest.approx(1.0, abs=1e-12)


def test_circumradius_collinear_tangency():
    fam = disks(((0, 0), 1.0), ((4, 0), 1.0))
    out = falconer.circumradius(fam)
    assert np.allclose(out.center, [2.0, 0.0], atol=1e-12)
    assert out.radius == pytest.approx(3.0, abs=1e-12)


def test_circumradius_tangent_trio():
    out = falconer.circumradius(TANGENT_TRIO)
    assert out.radius == pytest.approx(2 / math.sqrt(3) + 1, abs=1e-10)
    assert max(falconer_oracle.tangency_residuals(out, TANGENT_TRIO)) <= 1e-10


@pytest.mark.parametrize("scale", [1e-200, 1e-8, 1e150])
def test_circumradius_of_the_tangent_trio_at_every_scale(scale):
    # below unit size the pass runs on the family scaled by a power of two:
    # at 1e-8 an absolute determinant threshold once dropped the trio's circle
    trio = falconer.DiskFamily(TANGENT_TRIO.centers * scale, TANGENT_TRIO.radii * scale)
    out = falconer.circumradius(trio)
    assert out.radius / scale == pytest.approx(1.0 + 2.0 / math.sqrt(3.0),
                                               rel=1e-12, abs=0.0)
    assert out.support == (0, 1, 2)


def test_verify_of_a_small_tangent_trio_file_passes(tmp_path, capsys):
    scale = 1e-8
    trio = falconer.DiskFamily(TANGENT_TRIO.centers * scale, TANGENT_TRIO.radii * scale)
    path = tmp_path / "trio.json"
    planks = falconer_oracle.plank2d_partition(trio, 3)
    instances.dump_json(instances.disk_planks_instance(trio, planks, 1, {}), path)
    assert cli.main(["verify", str(path)]) == 0
    capsys.readouterr()


def test_circumradius_raises_when_a_disk_stays_outside(monkeypatch):
    def too_small(support):
        return np.zeros(2), 0.5

    monkeypatch.setattr(falconer, "_smallest_circle_of", too_small)
    with pytest.raises(DomainError):
        falconer.circumradius(TANGENT_TRIO)


def test_circumradius_contains_and_is_tight(rng):
    for seed in range(25):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 9))
        fam = disks(*[(gen.uniform(-3, 3, 2), gen.uniform(0.1, 1.5))
                      for _ in range(n)])
        out = falconer.circumradius(fam)
        c = np.asarray(out.center)
        reach = np.linalg.norm(fam.centers - c, axis=1) + fam.radii
        assert np.max(reach) <= out.radius + 1e-10
        assert np.max(reach) > out.radius - 1e-6  # shrinking violates support


def test_circumradius_raises_when_the_circle_is_not_finite():
    # centres at +-1e300 put the circle's centre and radius past double range
    fam = disks(((1e300, 1e300), 1.0), ((-1e300, -1e300), 1.0), ((0, 0), 1.0))
    with pytest.raises(DomainError, match="not finite"):
        falconer.circumradius(fam)
    with pytest.raises(DomainError, match="not finite"):
        fam.circle


@pytest.mark.parametrize("centers,radii,error,message", [
    ([[0.0, 0.0, 1.0]], [1.0], DimensionMismatch, "(n, 2) centers"),
    ([[0.0, 0.0]], [1.0, 2.0], DimensionMismatch, "(n, 2) centers"),
    ([[math.nan, 0.0]], [1.0], DomainError, "must be finite"),
    ([[0.0, 0.0]], [-1.0], DomainError, "nonnegative and finite"),
    ([[0.0, 0.0]], [math.inf], DomainError, "nonnegative and finite"),
    (np.empty((0, 2)), [], DomainError, "at least one disk"),
], ids=["3-component", "count", "nan-center", "negative-radius", "inf-radius",
        "empty"])
def test_disk_family_checks_its_arrays(centers, radii, error, message):
    with pytest.raises(error, match=re.escape(message)):
        falconer.DiskFamily(centers, radii)


def test_disk_family_is_a_frozen_value():
    centers = np.array([[0.0, 0.0], [1.5, 0.0]])
    fam = falconer.DiskFamily(centers, [1.0, 0.5])
    centers[0, 0] = 9.0  # the family holds its own copy
    assert fam.centers[0, 0] == 0.0 and len(fam) == 2
    for arr in (fam.centers, fam.radii):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_family_decides_separation_and_circle_once(monkeypatch):
    calls = []
    for name in ("is_separable", "circumradius"):
        def counted(fam, _name=name, _real=getattr(falconer, name)):
            calls.append(_name)
            return _real(fam)

        monkeypatch.setattr(falconer, name, counted)
    fam = instances.random_ns_family(5, seed=2)
    assert calls[-1] == "is_separable"  # the generator's test of its last draw
    calls.clear()
    planks = instances.random_plank2d_packing(fam, 3, 2, seed=2)
    falconer.check_disk_planks(fam, planks, 2)
    falconer.check_disk_planks(fam, planks, 3)
    falconer.family_to_svg(fam, planks=planks)
    assert calls == ["circumradius"]
    assert fam.separation == (False, None)


def test_ns_diameter():
    assert falconer.ns_diameter(UNIT_DISK) == 2.0
    assert falconer.ns_diameter(TANGENT_TRIO) == 6.0
    fam = disks(((0, 0), 1.0), ((0.1, 0), 0.5), ((0, 0.1), 0.25))
    assert falconer.ns_diameter(fam) == pytest.approx(3.5)


@pytest.mark.parametrize("n", range(8, 13))
def test_disk_plank_reports_share_one_ns_diameter(n):
    # the density mass is the NS diameter: the chain's mass, the ridge bound
    # and the circumradius bound read one float, the width bound r times it
    for seed in range(10):
        fam = instances.random_ns_family(n, seed)
        planks = instances.random_plank2d_packing(fam, 3, 2, seed)
        width, circ, ridge, chain = falconer.check_disk_planks(fam, planks, 2)
        diam = falconer.ns_diameter(fam)
        assert chain.lhs == ridge.rhs == circ.rhs == diam, seed
        assert width.rhs == 2 * diam, seed


# --- plank packings and the width bound ---------------------------------------

def test_width_bound_unit_disk_partition_equality():
    planks = falconer_oracle.plank2d_partition(UNIT_DISK, 4)
    reps = falconer.check_disk_planks(UNIT_DISK, planks, 1)
    assert [rep.theorem_id for rep in reps] == [
        "plank_width_sum", "circumradius_vs_ns_diameter", "ridge_mass_bound",
        "mass_circumradius"]
    width, radius = reps[:2]
    assert width.passed and width.lhs == pytest.approx(2.0, abs=1e-12)
    assert width.rhs == pytest.approx(2.0, abs=1e-12)
    assert radius.passed and abs(radius.slack) <= 1e-12


def test_width_bound_tangent_trio():
    planks = instances.random_plank2d_packing(TANGENT_TRIO, 3, 2, seed=5)
    width, radius, _, _ = falconer.check_disk_planks(TANGENT_TRIO, planks, 2)
    assert width.passed
    assert radius.lhs == pytest.approx(2 * (2 / math.sqrt(3) + 1), abs=1e-9)
    assert radius.rhs == 6.0


def test_width_bound_requires_ns():
    fam = disks(((0, 0), 1.0), ((4, 0), 1.0))
    with pytest.raises(NotNS):
        falconer.check_disk_planks(fam, [], 1)


def test_width_bound_requires_packing():
    planks = falconer_oracle.plank2d_partition(UNIT_DISK, 3, r=2)
    with pytest.raises(NotAPacking):
        falconer.check_disk_planks(UNIT_DISK, planks, 1)


def test_plank_outside_the_support_range_fails_with_the_sweep_report():
    # the plank reaches past the disk's support 1 along u; the sweep still
    # runs, so its exact maximum comes with the failure
    planks = [falconer.plank(np.array([1.0, 0.0]), 0.5, 1.5)]
    verdict = falconer.verify_plank_packing(
        UNIT_DISK, *falconer._plank_arrays(planks), 1)
    assert not verdict.ok and verdict.witness is None
    assert verdict.reason == "plank 0 base leaves the support range"
    report = verdict.report
    assert report.certificate == falconer.SWEEP_CERTIFICATE
    assert report.samples == 0 and report.seed is None and report.max_mult == 1
    assert falconer_oracle.open_counts(planks, report.witness_max)[0] == 1
    with pytest.raises(NotAPacking) as info:
        falconer.check_disk_planks(UNIT_DISK, planks, 1)
    assert info.value.verdict.to_json() == verdict.to_json()


def sweep(family, planks):
    """``exact_plank_multiplicity`` of plank cylinders."""
    return falconer.exact_plank_multiplicity(family, *falconer._plank_arrays(planks))


def _random_planks(family, gen, n):
    """n planks with random normals and random intervals inside the support
    range; they overlap freely."""
    planks = []
    for _ in range(n):
        theta = gen.uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(theta), math.sin(theta)])
        a, b = np.sort(gen.uniform(-family.support(-u), family.support(u), 2))
        planks.append(falconer.plank(u, float(a), float(b)))
    return planks


def test_exact_multiplicity_matches_grid_oracle():
    for seed in range(30):
        fam = instances.random_ns_family(3 + seed % 4, seed=seed + 100)
        grid = falconer_oracle.hull_grid(fam)
        cases = [(instances.random_plank2d_packing(fam, 3, r, seed=seed), r)
                 for r in (1, 2, 3)]
        cases.append((_random_planks(fam, np.random.default_rng(seed), 5), None))
        for planks, r in cases:
            mult, witness = sweep(fam, planks)
            assert mult >= np.max(falconer_oracle.open_counts(planks, grid)), (seed, r)
            if r is not None:
                assert mult <= r, (seed, r)
            assert falconer_oracle.certainly_in_hull(fam, witness)[0], (seed, r)
            assert falconer_oracle.open_counts(planks, witness)[0] == mult, (seed, r)


def test_thin_plank_at_the_hull_top_overlaps():
    # the inscribed 256-gon used to cut this sliver off the top disk
    fam = instances.random_ns_family(4, 3)
    theta = 0.3 + math.pi / 256
    u = np.array([math.cos(theta), math.sin(theta)])
    top = fam.support(u)
    planks = [falconer.plank(u, -fam.support(-u), top),
              falconer.plank(u, top - 1e-5, top)]
    mult, witness = sweep(fam, planks)
    assert mult == 2
    assert falconer_oracle.open_counts(planks, witness)[0] == 2
    assert falconer_oracle.certainly_in_hull(fam, witness)[0]
    with pytest.raises(NotAPacking):
        falconer.check_disk_planks(fam, planks, 1)


@pytest.mark.parametrize("family", [UNIT_DISK, TANGENT_TRIO,
                                    instances.random_ns_family(5, 7)],
                         ids=["disk", "trio", "ns"])
@pytest.mark.parametrize("r", [1, 2])
def test_partition_multiplicity_is_exactly_r(family, r):
    # the partition's planks share boundary lines, r copies of each
    for direction in ((1.0, 0.0), (0.6, 0.8), (-0.28, 0.96)):
        planks = falconer_oracle.plank2d_partition(family, 4, r=r, direction=direction)
        mult, witness = sweep(family, planks)
        assert mult == r
        assert falconer_oracle.open_counts(planks, witness)[0] == r


def test_cell_on_the_low_side_of_all_its_lines_is_found():
    # three planks meet in a triangle around (0.5, 0) that lies below each
    # plank's upper line; their lower lines only touch the disk, and the
    # interior point (the origin) is outside the triangle
    planks = []
    for theta in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0):
        u = np.array([math.cos(theta), math.sin(theta)])
        planks.append(falconer.plank(u, -UNIT_DISK.support(-u),
                                     0.5 * u[0] + 0.2))
    assert falconer_oracle.open_counts(planks, [0.0, 0.0])[0] == 1
    mult, witness = sweep(UNIT_DISK, planks)
    assert mult == 3
    assert falconer_oracle.open_counts(planks, witness)[0] == 3


def test_parallel_planks_stay_apart_in_a_huge_hull():
    # one disk of radius 1e154 holds the others; the packing's parallel
    # planks are 1e-154 of the hull's size apart and must not coincide
    fam = instances.random_ns_family(4, 1)
    huge = falconer.DiskFamily(fam.centers, np.concatenate([[1e154], fam.radii[1:]]))
    planks = instances.random_plank2d_packing(fam, 3, 2, seed=1)
    mult, witness = sweep(huge, planks)
    assert mult == 2
    assert falconer_oracle.open_counts(planks, witness)[0] == 2


@pytest.mark.parametrize("scale", [1e-13, 1e-100, 1e-200, 1e-300, math.ldexp(1.0, -500),
                                   math.ldexp(1.0, -1060)])
def test_sweep_counts_do_not_depend_on_the_scale(scale):
    # the sweep runs in the family's unit: boundary lines of a tiny family
    # stay apart, and no square underflows; over the unit, a family scaled
    # by a power of two is the same family, witness bits and all, unless its
    # coordinates are subnormal (2^-1060), which round its hull segments
    for seed in range(40):
        family = instances.random_ns_family(3 + seed % 5, seed=seed)
        scaled = falconer.DiskFamily(family.centers * scale, family.radii * scale)
        for r in (1, 2, 3):
            planks = instances.random_plank2d_packing(family, 3 + seed % 3, r, seed=seed)
            normals, lows, highs = falconer._plank_arrays(planks)
            mult, unscaled = falconer.exact_plank_multiplicity(family, normals, lows, highs)
            got, witness = falconer.exact_plank_multiplicity(
                scaled, normals, lows * scale, highs * scale)
            assert got == mult, (seed, r)
            if math.frexp(scale)[0] == 0.5 and scale > 1e-300:
                assert witness == tuple(x * scale for x in unscaled), (seed, r)
            assert falconer_oracle.open_counts(planks, np.divide(witness, scale))[0] == mult
            assert falconer_oracle.certainly_in_hull(family, np.divide(witness, scale))[0]
            verdict = falconer.verify_plank_packing(scaled, normals, lows * scale,
                                                    highs * scale, r)
            assert verdict.ok, (seed, r, verdict.reason)


@pytest.mark.parametrize("scale,far", [(1.0, 1e200), (1e-300, 1e10), (1e-13, 3e-13)])
def test_far_plank_leaves_the_support_range(scale, far):
    # a boundary line far past the hull gets no chord, so neither its square
    # nor its offset in the family's unit overflows into a DomainError; the
    # support-range tolerance is relative to the family's size
    family = instances.random_ns_family(4, 1)
    family = falconer.DiskFamily(family.centers * scale, family.radii * scale)
    planks = [falconer.plank([1.0, 0.0], far, 2.0 * far),
              falconer.plank([0.6, 0.8], -0.1 * scale, 0.1 * scale)]
    verdict = falconer.verify_plank_packing(family, *falconer._plank_arrays(planks), 1)
    assert not verdict.ok and verdict.report.max_mult == 1
    assert verdict.reason == "plank 0 base leaves the support range"


def test_plank_around_the_whole_hull_counts_once():
    # no boundary line meets the hull: the interior point decides
    planks = [falconer.plank(np.array([0.0, 1.0]), -5.0, 5.0)]
    mult, witness = sweep(TANGENT_TRIO, planks)
    assert mult == 1
    assert falconer_oracle.certainly_in_hull(TANGENT_TRIO, witness)[0]


def test_hull_chords_end_on_the_hull_boundary(rng):
    # an end point q of a chord has max_v (v.q - h(v)) = 0; the maximum is
    # taken over a dense circle of normals plus the outer-bitangent normals,
    # where h has its kinks
    theta = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
    for n in range(1, 8):
        radii = [0.5] + list(rng.uniform(0.0, 1.2, n - 1))
        fam = falconer.DiskFamily([rng.uniform(-2, 2, 2) for _ in radii], radii)
        kinks = falconer_oracle._hull_pair_angles(fam.centers, fam.radii)
        angles = np.concatenate([theta, kinks])
        normals = np.column_stack([np.cos(angles), np.sin(angles)])
        support = np.max(normals @ fam.centers.T + fam.radii, axis=1)
        segments = fam.hull_segments
        phi = rng.uniform(0.0, 2.0 * math.pi, 20)
        directions = np.column_stack([np.cos(phi), np.sin(phi)])
        points = np.tile(fam.centers[0], (20, 1))  # inside the first disk, of radius 0.5
        ends = falconer._chords(fam, segments, points, directions)
        for t in ends:
            for point in points + t[:, None] * directions:
                excess = np.max(normals @ point - support)
                assert -1e-8 <= excess <= 1e-12, n


@pytest.mark.parametrize("scale", [1e-200, 1e-16, 1e150])
def test_hull_chords_scale_with_the_family(scale):
    # a scaled NS trio keeps its three segments, over the scale, and in the
    # family's unit, where the sweep takes them, its chords over the scale
    trio = disks(((0, 0), 1.0), ((1.5, 0), 1.0), ((0.75, 1.3), 1.0))
    scaled = falconer.DiskFamily(trio.centers * scale, trio.radii * scale)
    segments = trio.hull_segments
    assert segments.shape == (3, 2, 2)
    assert np.allclose(scaled.hull_segments / scale, segments,
                       rtol=0.0, atol=1e-12)
    theta = np.linspace(0.0, 2.0 * math.pi, 50)
    directions = np.column_stack([np.cos(theta), np.sin(theta)])
    points = np.random.default_rng(3).uniform(-1.0, 2.5, (50, 2))
    lo, hi = falconer._chords(trio, segments, points, directions)
    assert np.sum(lo < hi) > 25
    unit = scaled.unit
    in_units = falconer.DiskFamily(scaled.centers / unit, scaled.radii / unit)
    got = falconer._chords(in_units, in_units.hull_segments,
                           points * scale / unit, directions)
    for want, ends in zip((lo, hi), got):
        assert np.allclose(ends[lo < hi] * unit / scale, want[lo < hi],
                           rtol=0.0, atol=1e-12)


def test_exact_multiplicity_detects_overlap():
    planks = [falconer.plank(np.array([1.0, 0.0]), -0.5, 0.1),
              falconer.plank(np.array([1.0, 0.0]), -0.1, 0.5)]
    mult, witness = sweep(UNIT_DISK, planks)
    assert mult == 2
    w = np.asarray(witness)
    assert -0.1 < w[0] < 0.1


# --- sectional integrals -------------------------------------------------------

def test_sectional_integral_single_chord():
    assert falconer_oracle.sectional_integral(UNIT_DISK, 0.3, (1.0, 0.0)) == 1.0
    quad = falconer_oracle.sectional_integral_quadrature(UNIT_DISK, 0.3, (1.0, 0.0))
    assert quad == pytest.approx(1.0, abs=1e-8)


def test_sectional_integral_counts_crossings():
    fam = disks(((0, 0), 1.0), ((1.5, 0), 1.0))
    val = falconer_oracle.sectional_integral(fam, 0.75, (1.0, 0.0))
    assert val == 2.0


def test_sectional_integral_positive_on_ns(rng):
    for seed in range(10):
        fam = instances.random_ns_family(4, seed=seed + 30)
        hull = inscribed_hull(fam)
        pts = geom.sample_in_body(hull, 200, np.random.default_rng(seed))
        for _ in range(50):
            a, b = pts[rng.integers(0, len(pts), size=2)]
            if np.linalg.norm(a - b) < 1e-9:
                continue
            t = b - a
            u = np.array([-t[1], t[0]]) / np.linalg.norm(t)
            s = float(a @ u)
            val = falconer_oracle.sectional_integral(fam, s, u)
            assert val >= 1.0 - 1e-9


def test_sectional_integral_radius_scaled_mode():
    # only the unit-chord scaling makes every chord integrate to exactly 1;
    # the 1/(pi r) scaling yields 1/radius, recorded here as the finding
    fam = disks(((0, 0), 2.0))
    assert falconer_oracle.sectional_integral(fam, 0.0, (1.0, 0.0)) == 1.0
    scaled = falconer_oracle.sectional_integral(fam, 0.0, (1.0, 0.0),
                                         mode=falconer_oracle.RADIUS_SCALED)
    assert scaled == pytest.approx(0.5)


def test_line_misses_body():
    with pytest.raises(falconer_oracle.LineMissesBody):
        falconer_oracle.sectional_integral(UNIT_DISK, 1.5, (1.0, 0.0))


def test_total_mass_is_ns_diameter():
    # radial quadrature of the unit-chord density's mass, disk by disk
    for fam in (TANGENT_TRIO, disks(((0, 0), 1.5))):
        mass = sum(falconer_oracle.disk_mass_quadrature(r) for r in fam.radii)
        assert mass == pytest.approx(falconer.ns_diameter(fam), abs=1e-8)


# --- ridge functions -----------------------------------------------------------

def test_ridge_mass_partition_equality():
    planks = falconer_oracle.plank2d_partition(UNIT_DISK, 4)
    rep = falconer.check_disk_planks(UNIT_DISK, planks, 1)[2]
    assert rep.theorem_id == "ridge_mass_bound"
    assert rep.passed and rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    assert not rep.probabilistic  # decided on the arrangement cells


def test_ridge_mass_doubled_partition():
    planks = falconer_oracle.plank2d_partition(UNIT_DISK, 4, r=2)
    rep = falconer.check_disk_planks(UNIT_DISK, planks, 2)[2]
    assert rep.passed and rep.lhs == pytest.approx(2.0, abs=1e-12)


def test_ridge_mass_violation_witness():
    planks = [falconer.plank(np.array([1.0, 0.0]), -0.5, 0.1),
              falconer.plank(np.array([1.0, 0.0]), -0.1, 0.5)]
    # the ridge sum exceeds 1 exactly where the planks overlap twice, which
    # is the packing failure, reported with the sweep's witness
    with pytest.raises(NotAPacking) as info:
        falconer.check_disk_planks(UNIT_DISK, planks, 1)
    verdict = info.value.verdict
    assert verdict.report.max_mult == 2 and "exceeds r=1" in verdict.reason
    x, y = verdict.witness
    assert -0.1 < x < 0.1 and x * x + y * y < 1.0


# --- variational bound ----------------------------------------------------------

def test_minimal_profile_mass_values():
    assert falconer_oracle.minimal_profile_mass(0.5, 1.0) == pytest.approx(1.0)
    assert falconer_oracle.minimal_profile_mass(2.0, 1.0) == pytest.approx(2.0)
    assert falconer_oracle.minimal_profile_mass(1.0, 4.0) == pytest.approx(math.sqrt(8))


def test_lp_minimizer_agrees(rng):
    for _ in range(8):
        moment = float(rng.uniform(0.2, 4.0))
        floor = float(rng.uniform(0.3, 3.0))
        closed = falconer_oracle.minimal_profile_mass(moment, floor)
        lp = falconer_oracle.lp_profile_minimum(moment, floor)
        assert lp == pytest.approx(closed, rel=0.01)


def test_profile_domain():
    with pytest.raises(DomainError):
        falconer_oracle.minimal_profile_mass(0.0, 1.0)


# --- chain consistency -----------------------------------------------------------

def test_mass_circumradius_chain(rng):
    rep = falconer.check_disk_planks(UNIT_DISK, [], 1)[3]
    assert rep.theorem_id == "mass_circumradius"
    assert rep.passed and abs(rep.slack) <= 1e-12  # single disk: equality
    overlap = disks(((0, 0), 1.0), ((1, 0), 1.0))
    rep2 = falconer.check_disk_planks(overlap, [], 1)[3]
    assert rep2.lhs == pytest.approx(4.0)
    assert rep2.rhs == pytest.approx(3.0)  # 2 * (1.5)
    for seed in range(10):
        fam = instances.random_ns_family(4, seed=seed)
        rep3 = falconer.check_disk_planks(fam, [], 1)[3]
        assert rep3.passed


# --- rendering and io -------------------------------------------------------------

def test_svg_output(tmp_path):
    planks = falconer_oracle.plank2d_partition(TANGENT_TRIO, 3)
    svg = falconer.family_to_svg(TANGENT_TRIO, planks=planks)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 3
    assert svg.count("<polygon") == 3


def test_family_json_roundtrip():
    blob = TANGENT_TRIO.to_json()
    back = falconer.family_from_json(blob)
    assert np.array_equal(back.centers, TANGENT_TRIO.centers)
    assert np.array_equal(back.radii, TANGENT_TRIO.radii)
    blob = falconer.plank_to_json(falconer.plank(np.array([0.6, 0.8]), -0.25, 1.75))
    assert blob["interval"] == [-0.25, 1.75]
    assert falconer.plank_to_json(falconer.plank_from_json(blob)) == blob
