"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS line on success (run with ``pytest -s`` to see them
inline); a failure surfaces as a regular assertion with context.
"""

import math
import time

import numpy as np
import pytest

import density_oracle
import falconer_oracle
import shadow_oracle
import specfn_oracle
from conftest import box_bases, inscribed_hull, random_polytope
from cylpack import (
    bounds,
    cappack,
    cli,
    cylinders,
    densities,
    falconer,
    geom,
    instances,
    multiplicity,
    specfn,
)


def _report(name: str, elapsed: float, budget: float, detail: str = "") -> None:
    print(f"[acceptance] {name}: PASS in {elapsed:.1f}s (budget {budget:.0f}s)"
          + (f" | {detail}" if detail else ""))
    assert elapsed < budget, f"{name} exceeded its runtime budget"


# -- 1 -------------------------------------------------------------------------

def test_criterion_1_density_identities():
    t0 = time.time()
    rng = np.random.default_rng(101)
    checked_lines = 0
    while checked_lines < 100:
        d = 2 + checked_lines % 4
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        comp = geom.complement(geom.Frame(u[:, None]))
        z = comp.embed(rng.uniform(-0.7, 0.7, d - 1))
        if np.linalg.norm(z) > 0.99:
            continue
        assert abs(densities.line_integral(z, u) - math.pi) <= 1e-6
        checked_lines += 1
    checked_planes = 0
    while checked_planes < 100:
        d = 3 + checked_planes % 3
        plane = geom.orthonormalize(rng.standard_normal((2, d)))
        z = geom.complement(plane).embed(rng.uniform(-0.6, 0.6, d - 2))
        if np.linalg.norm(z) > 0.99:
            continue
        val = densities.plane_section_integral(plane, z)
        assert abs(val - 2 * math.pi) <= 1e-6
        checked_planes += 1
    for d in (2, 3, 4, 5):
        est = density_oracle.mu_total_mass_mc(d, samples=400_000, seed=2024 + d)
        assert abs(est.value - densities.mu_total_mass(d)) <= 3 * est.stderr
    _report("criterion 1 (density identities)", time.time() - t0, 30)


# -- 2 -------------------------------------------------------------------------

def test_criterion_2_integral_bracket_grid():
    t0 = time.time()
    deltas = np.arange(1, 151) * 0.01
    for n in range(1, 31):
        for delta in deltas:
            lower, upper = specfn_oracle.cos_power_bracket(n, float(delta))
            value = specfn.cos_power_integral(n, float(delta))
            quad = specfn_oracle.cos_power_quad(n, float(delta))
            recur = specfn_oracle.cos_power_recurrence(n, float(delta))
            assert lower < value < upper, (n, delta)
            assert abs(value - quad) <= 1e-10, (n, delta)
            assert abs(value - recur) <= 1e-10, (n, delta)
    _report("criterion 2 (integral bracket grid)", time.time() - t0, 10,
            detail="4500 (n, delta) pairs")


# -- 3 -------------------------------------------------------------------------

def test_criterion_3_packing_bounds():
    t0 = time.time()
    count = 0
    for seed in range(200):
        r = seed % 3 + 1
        k = 1 if seed % 2 == 0 else 2
        d = 2 + seed % 4 if k == 1 else 3 + seed % 3
        gen = np.random.default_rng(seed)
        body = geom.Ball(np.zeros(d), 1.0) if seed % 5 == 0 \
            else instances.random_ellipsoid(d, gen)
        fam = instances.random_base_packing(body, k, 3, r, seed=seed)
        if seed % 3 == 0:
            fam = box_bases(fam)
        res = multiplicity.decide(body, fam, r, 1500, seed=seed)
        assert res.ok, (seed, res.reason)
        assert cylinders.sum_crv(body, fam) <= r + 1e-12, seed
        count += 1
    assert count == 200
    # parallel-plank partitions meet the bound with equality
    for r in (1, 2, 3):
        ball2 = geom.Ball(np.zeros(2), 1.0)
        fam = instances.plank_partition(ball2, 4, r=r)
        rep = bounds.check_packing_upper_ellipsoid(ball2, fam, r, n=4000, seed=r)
        assert rep.passed and abs(rep.lhs - r) <= 1e-9
        ell3 = instances.random_ellipsoid(3, np.random.default_rng(50 + r))
        fam3 = instances.plank_partition(ell3, 5, r=r)
        rep3 = bounds.check_packing_upper_ellipsoid(ell3, fam3, r, n=4000, seed=r)
        assert rep3.passed and abs(rep3.lhs - r) <= 1e-9
    _report("criterion 3 (packing upper bounds)", time.time() - t0, 120,
            detail="200 random packings, 6 equality partitions")


# -- 4 -------------------------------------------------------------------------

def test_criterion_4_covering_bounds():
    t0 = time.time()
    for r in (1, 2, 3):
        # ellipse partitions: k = 1, the ellipsoid reading, with equality
        ell2 = instances.random_ellipsoid(2, np.random.default_rng(60 + r))
        fam = instances.plank_partition(ell2, 4, r=r)
        rep = bounds.check_covering_lower(ell2, fam, r, n=4000, seed=r)
        assert rep.passed and abs(rep.lhs - r) <= 1e-9
        # ellipsoid partitions: k = 2, the general reading
        ell3 = instances.random_ellipsoid(3, np.random.default_rng(70 + r))
        fam3 = instances.plank_partition(ell3, 5, r=r)
        rep3 = bounds.check_covering_lower(ell3, fam3, r, n=4000, seed=r)
        assert rep3.passed and rep3.lhs >= r / math.comb(3, 2) - 1e-9
    violations = 0
    for seed in range(30):
        r = seed % 3 + 1
        d = 2 + seed % 3
        k = d - 1 if d <= 3 else d - 2  # keep the base dimension small
        body = instances.random_ellipsoid(d, np.random.default_rng(80 + seed))
        fam = instances.random_box_covering(body, k, r, seed=seed)
        rep = bounds.check_covering_lower(body, fam, r, n=3000, seed=seed)
        if not rep.passed:
            violations += 1
    assert violations == 0
    _report("criterion 4 (covering lower bounds)", time.time() - t0, 60,
            detail="partitions r=1..3 plus 30 redundant coverings")


# -- 5 -------------------------------------------------------------------------

def test_criterion_5_cap_packing_pipeline():
    t0 = time.time()
    ratios = []
    for d in (4, 5, 6):
        for k in (1, 2):
            for delta in (0.2, 0.3):
                rep = cappack.cap_packing_report(d, k, delta, seed=1,
                                                 packing_samples=100_000)
                assert rep.packing.max_mult == 1, (d, k, delta)
                assert rep.n_cylinders >= rep.count_lower_bound_antipodal, \
                    (d, k, delta)
                assert rep.sum_crv >= rep.chain_rhs, (d, k, delta)
                assert rep.empirical_constant_ratio > 0
                # certified maximal, except the sets over the hull budget
                assert rep.separated_set_maximal == \
                    ((d, delta) in ((4, 0.2), (4, 0.3), (5, 0.3))), (d, k, delta)
                if rep.separated_set_maximal:
                    assert rep.covering_radius <= 2 * delta, (d, k, delta)
                else:
                    assert rep.covering_radius is None
                ratios.append(round(float(rep.empirical_constant_ratio), 3))
    _report("criterion 5 (cap-packing pipeline)", time.time() - t0, 180,
            detail=f"12 configs, constant ratios {ratios}")


# -- 6 -------------------------------------------------------------------------

def test_criterion_6_slice_projection_product():
    t0 = time.time()
    for seed in range(100):
        d = 2 + seed % 3
        gen = np.random.default_rng(900 + seed)
        poly = random_polytope(d, gen)
        k = int(gen.integers(1, d))
        frame = geom.orthonormalize(gen.standard_normal((k, d)))
        # exact volumes in every dimension: the exact 1e-9 tolerance throughout
        upper, lower = bounds.check_rogers_shephard(poly, frame)
        assert upper.tolerance == lower.tolerance == 1e-9
        assert upper.passed, (seed, upper)
        assert lower.passed, (seed, lower)
    ball3 = geom.Ball(np.zeros(3), 1.0)
    frame = geom.Frame(np.eye(3)[:, :1])
    upper, lower = bounds.check_rogers_shephard(ball3, frame)
    assert upper.lhs == pytest.approx(2 * math.pi, rel=1e-9)
    assert upper.passed and lower.passed
    box = geom.Polytope(np.array(
        [[x, y, z] for x in (0, 2) for y in (0, 0.7) for z in (0, 1.3)], float))
    upper, lower = bounds.check_rogers_shephard(box, frame)
    assert abs(lower.slack) <= 1e-9  # coordinate boxes: Fubini equality
    assert upper.passed
    _report("criterion 6 (slice-projection product)", time.time() - t0, 120,
            detail="100 random polytopes plus closed forms")


# -- 7 -------------------------------------------------------------------------

def test_criterion_7_base_volume_bound():
    t0 = time.time()
    assert bounds.surface_constant(2) == pytest.approx(math.pi / 2, rel=1e-14)
    for d in (10, 20, 40):
        ratio = bounds.surface_constant(d) / math.sqrt(math.pi * d / 2)
        assert 0.95 <= ratio <= 1.05
    for seed in range(50):
        r = seed % 3 + 1
        gen = np.random.default_rng(500 + seed)
        poly = instances.random_polygon(gen)
        fam = instances.random_strip_packing(poly, 3, r, seed=seed)
        rep = bounds.check_base_volume_bound(poly, fam, r, n=2000, seed=seed)
        assert rep.passed, (seed, rep)
        verts = poly.vertices
        perim = float(np.sum(np.linalg.norm(
            np.roll(verts, -1, axis=0) - verts, axis=1)))
        quad = shadow_oracle.cauchy_surface_area(poly, n_dirs=2048)
        assert abs(quad - perim) / perim <= 0.005, seed
    _report("criterion 7 (base-volume bound)", time.time() - t0, 60,
            detail="50 polygons, surface-formula quadrature within 0.5%")


# -- 8 -------------------------------------------------------------------------

def _oracle_finds_separating_line(family, rng, trials=10_000) -> bool:
    centers, radii = family.centers, family.radii
    thetas = rng.uniform(0.0, math.pi, trials)
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    projs = dirs @ centers.T                      # (trials, n)
    lo = np.min(projs - radii, axis=1)
    hi = np.max(projs + radii, axis=1)
    offsets = rng.uniform(lo, hi)
    clear = np.abs(projs - offsets[:, None]) - radii
    ok = np.all(clear > 0, axis=1)
    side = projs - offsets[:, None] > 0
    split = np.any(side, axis=1) & np.any(~side, axis=1)
    return bool(np.any(ok & split))


def test_criterion_8_disk_family_suite():
    t0 = time.time()
    rng = np.random.default_rng(303)
    # separability: exact decision versus the random-line oracle
    for seed in range(200):
        gen = np.random.default_rng(2000 + seed)
        n = int(gen.integers(2, 7))
        fam = falconer.DiskFamily(*zip(*[(gen.uniform(-2, 2, 2), gen.uniform(0.2, 1.0))
                                         for _ in range(n)]))
        exact, line = falconer.is_separable(fam)
        if _oracle_finds_separating_line(fam, rng):
            assert exact, seed
        if exact:
            u = np.asarray(line.u)
            clear = np.abs(fam.centers @ u - line.offset) - fam.radii
            side = fam.centers @ u - line.offset > 0
            assert np.all(clear > 0) and side.any() and (~side).any(), seed
    # NS families: width bound, circumradius chain, certified tangency
    sections_checked = 0
    for seed in range(100):
        fam = instances.random_ns_family(3 + seed % 3, seed=seed)
        r = seed % 3 + 1
        planks = instances.random_plank2d_packing(fam, 3, r, seed=seed)
        reps = falconer.check_disk_planks(fam, planks, r)
        assert [rep.passed for rep in reps] == [True] * 4, seed
        circ = falconer.circumradius(fam)
        assert max(falconer_oracle.tangency_residuals(circ, fam)) <= 1e-10, seed
        # five random interior lines per family: the sectional mass is >= 1
        hull = inscribed_hull(fam)
        gen = np.random.default_rng(seed)
        lines_here = 0
        while lines_here < 5:
            a, b = geom.sample_in_body(hull, 2, gen)
            t = b - a
            norm = np.linalg.norm(t)
            if norm < 1e-9:
                continue
            u = np.array([-t[1], t[0]]) / norm
            val = falconer_oracle.sectional_integral(fam, float(a @ u), u)
            assert val >= 1.0 - 1e-9, seed
            lines_here += 1
            sections_checked += 1
    assert sections_checked == 500
    # variational identity against the LP minimizer
    gen = np.random.default_rng(77)
    for _ in range(20):
        moment = float(gen.uniform(0.2, 5.0))
        floor = float(gen.uniform(0.2, 4.0))
        closed = falconer_oracle.minimal_profile_mass(moment, floor)
        lp = falconer_oracle.lp_profile_minimum(moment, floor)
        assert abs(lp - closed) / closed <= 0.01
    _report("criterion 8 (disk-family suite)", time.time() - t0, 120,
            detail=f"200 separability, 100 NS families, "
                   f"{sections_checked} sections, 20 variational pairs")


# -- 9 -------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    runs = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        blobs = []
        commands = [
            ["construct", "--kind", "plank-partition", "--dim", "2", "--n",
             "5", "--seed", "9", "--out", str(base / "part.json")],
            ["construct", "--kind", "packing", "--dim", "3", "--k", "1",
             "--r", "2", "--seed", "9", "--out", str(base / "pack.json")],
            ["construct", "--kind", "covering", "--dim", "2", "--k", "1",
             "--r", "2", "--seed", "9", "--out", str(base / "cover.json")],
            ["construct", "--kind", "cap", "--dim", "4", "--k", "1",
             "--delta", "0.3", "--seed", "9", "--out", str(base / "cap.json")],
            ["construct", "--kind", "ns-family", "--n", "4", "--seed", "9",
             "--r", "2", "--out", str(base / "ns.json")],
        ]
        for cmd in commands:
            assert cli.main(cmd) == 0
        for name in ("part", "pack", "cover"):
            out = base / f"{name}.report.json"
            rc = cli.main(["verify", str(base / f"{name}.json"), "--samples",
                           "3000", "--seed", "4", "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        table = base / "table.csv"
        rc = cli.main(["bounds", str(base / "part.json"),
                       str(base / "cover.json"), "--samples", "3000",
                       "--seed", "4", "--format", "csv", "--out", str(table)])
        assert rc == 0
        blobs.append(table.read_bytes())
        blobs.extend((base / f"{n}.json").read_bytes()
                     for n in ("part", "pack", "cover", "cap", "ns"))
        runs.append(blobs)
    assert runs[0] == runs[1], "fixture outputs differ between identical runs"
    _report("criterion 9 (determinism)", time.time() - t0, 120,
            detail="byte-identical construct/verify/bounds reruns")
