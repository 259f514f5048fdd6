import math

import numpy as np
import pytest

import mvee_oracle
import shadow_oracle
import slicemax_oracle
from conftest import random_polytope
from cylpack import bounds, cappack, cylinders, geom, instances, multiplicity
from cylpack.errors import DomainError, NotACovering, NotAPacking

BALL2 = geom.Ball(np.zeros(2), 1.0)
BALL3 = geom.Ball(np.zeros(3), 1.0)


# --- covering lower bounds ---------------------------------------------------

def test_covering_partition_equality_ellipsoid_mode():
    fam = instances.plank_partition(BALL2, 4)
    rep = bounds.check_covering_lower(BALL2, fam, 1, n=4000, seed=1)
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)
    assert rep.rhs == 1.0


def test_covering_repeated_partition():
    fam = instances.plank_partition(BALL2, 4, r=3)
    rep = bounds.check_covering_lower(BALL2, fam, 3, n=4000, seed=1)
    assert rep.passed and rep.lhs == pytest.approx(3.0, abs=1e-9)


def test_covering_redundant_has_positive_slack(rng):
    ell = instances.random_ellipsoid(2, rng)
    fam = instances.random_box_covering(ell, 1, 1, seed=8)
    rep = bounds.check_covering_lower(ell, fam, 1, n=4000, seed=2)
    assert rep.passed and rep.slack > 0


def test_covering_general_mode_binomial():
    fam = instances.plank_partition(BALL3, 4)  # k = d-1 = 2 planks
    rep = bounds.check_covering_lower(BALL3, fam, 1, n=4000, seed=1)
    assert rep.rhs == pytest.approx(1.0 / math.comb(3, 2))
    assert rep.passed


def test_covering_of_a_polygon_takes_the_general_reading():
    # k = 1 but the body is no ball or ellipsoid: rhs r / binom(2, 1)
    polygon = instances.random_polygon(np.random.default_rng(5))
    fam = instances.plank_partition(polygon, 4, r=2)
    rep = bounds.check_covering_lower(polygon, fam, 2, n=4000, seed=1)
    assert rep.rhs == 1.0 and rep.passed
    assert rep.lhs == pytest.approx(2.0, abs=1e-9)


def test_covering_precondition():
    fam = instances.plank_partition(BALL2, 4)
    del fam[1]
    with pytest.raises(NotACovering) as info:
        bounds.check_covering_lower(BALL2, fam, 1, n=4000, seed=1)
    verdict = info.value.verdict
    assert str(info.value) == verdict.reason
    assert verdict.report.min_mult == 0 and verdict.witness is not None


# --- ellipsoid packing upper bounds -------------------------------------------

def test_packing_partition_equality():
    fam = instances.plank_partition(BALL2, 4)
    rep = bounds.check_packing_upper_ellipsoid(BALL2, fam, 1, n=4000, seed=1)
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, abs=1e-9)


def test_packing_doubled_partition():
    fam = instances.plank_partition(BALL2, 4, r=2)
    rep = bounds.check_packing_upper_ellipsoid(BALL2, fam, 2, n=4000, seed=1)
    assert rep.passed and rep.lhs == pytest.approx(2.0, abs=1e-9)


def test_packing_partition_equality_codim2():
    fam = instances.plank_partition(BALL3, 5)  # k = 2 planks in R^3
    rep = bounds.check_packing_upper_ellipsoid(BALL3, fam, 1, n=4000, seed=1)
    assert rep.passed and rep.lhs == pytest.approx(1.0, abs=1e-9)


def test_packing_cap_family_bounded_by_one():
    ball4 = geom.Ball(np.zeros(4), 1.0)
    _, fam = cappack.build_cap_packing(4, 1, 0.3, seed=4)
    rep = bounds.check_packing_upper_ellipsoid(ball4, fam, 1, n=20_000, seed=1)
    assert rep.passed
    assert 0.0 < rep.lhs <= 1.0
    # the same family is bounded below by its counting chain
    assert rep.lhs >= cappack.chain_lower_bound(4, 1, 0.3) - 1e-12


def test_packing_precondition():
    fam = instances.plank_partition(BALL2, 4, r=2)
    with pytest.raises(NotAPacking) as info:
        bounds.check_packing_upper_ellipsoid(BALL2, fam, 1, n=4000, seed=1)
    verdict = info.value.verdict
    assert not verdict.ok and verdict.witness is not None
    assert str(info.value) == verdict.reason == "interior multiplicity 2 exceeds r=1"
    assert verdict.report.max_mult == 2


def test_sampling_checkers_carry_their_evidence():
    fam = instances.plank_partition(BALL2, 4)
    rep = bounds.check_packing_upper_ellipsoid(BALL2, fam, 1, n=4000, seed=1)
    assert rep.evidence == multiplicity.decide(BALL2, fam, 1, 4000, 1).report
    assert "evidence" not in rep.to_json()
    assert "evidence" not in bounds.bound_reports_to_csv([rep])


# --- scaled bound through the enclosing ellipsoid -----------------------------

def test_scaled_ellipsoid_reduces_to_unit_bound(rng):
    ell = instances.random_ellipsoid(3, rng)
    fam = instances.plank_partition(ell, 3)
    rep = mvee_oracle.check_packing_scaled(ell, fam, 1, n=4000, seed=3)
    assert rep.rhs == 1.0 and rep.passed


def _distance_factor(poly: geom.Polytope) -> float:
    """max over facets a.x <= b of sqrt(a^T Q^-1 a) / (b - a.c) for the
    enclosing ellipsoid (c, Q) that the scaled check builds; the check
    rounds it up by the relative margin SLICE_MARGIN."""
    ell = mvee_oracle.mvee(poly.vertices, tol=mvee_oracle.MVEE_TOL).ellipsoid
    return max(math.sqrt(row[:-1] @ np.linalg.solve(ell.shape, row[:-1]))
               / (-row[-1] - row[:-1] @ ell.center) for row in poly.equations)


def test_scaled_square_sqrt2_factor():
    square = geom.Polytope(np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], float))
    outer = mvee_oracle.mvee(square.vertices, tol=1e-6).ellipsoid
    fam = instances.plank_partition(outer, 3)
    rep = mvee_oracle.check_packing_scaled(square, fam, 1, n=4000, seed=3)
    t = _distance_factor(square)
    assert rep.rhs == pytest.approx(t * (1 + bounds.SLICE_MARGIN), rel=1e-12)
    assert rep.rhs >= t
    assert rep.passed


def test_scaled_triangle_john_factor():
    tri = geom.Polytope(np.array([[0, 0], [2.2, 0], [0.4, 1.9]], float))
    outer = mvee_oracle.mvee(tri.vertices, tol=1e-6).ellipsoid
    fam = instances.plank_partition(outer, 3)
    rep = mvee_oracle.check_packing_scaled(tri, fam, 1, n=4000, seed=3)
    t = _distance_factor(tri)
    assert rep.rhs == pytest.approx(t * (1 + bounds.SLICE_MARGIN), rel=1e-12)
    assert rep.rhs >= t
    assert rep.passed


def test_scaled_factor_keeps_the_shrunk_ellipsoid_inside():
    # c + (E - c) / t lies in the body for the measured t, where John's d
    # can leave the approximate ellipsoid sticking out
    for seed in range(40):
        for d in (2, 3, 4):
            poly = random_polytope(d, np.random.default_rng(seed))
            ell = mvee_oracle.mvee(poly.vertices, tol=mvee_oracle.MVEE_TOL).ellipsoid
            t = mvee_oracle._distance_factor(poly, ell)
            a, b = poly.equations[:, :-1], poly.equations[:, -1]
            reach = np.sqrt(np.einsum("ij,ij->i", a @ np.linalg.inv(ell.shape), a))
            assert np.all(a @ ell.center + reach / t + b <= 0.0)


# --- general convex-cylinder bound --------------------------------------------

def test_general_bound_full_cylinder():
    frame = geom.orthonormalize(np.eye(3)[:2])
    full = cylinders.Cylinder(frame, geom.Ball(np.zeros(2), 1.0))
    rep = bounds.check_packing_general(BALL3, [full], 1, n=4000, seed=2)
    assert rep.lhs == pytest.approx(1.0, rel=1e-12)
    assert rep.rhs == pytest.approx(3.0, rel=1e-6)
    assert rep.passed


def test_general_bound_cap_family_matches_closed_form():
    # one-sided caps keep the restricted cylinders convex, as the bound needs
    d, k, delta = 4, 1, 0.3
    fam = cappack.build_cap_packing(d, k, delta, seed=2,
                                    metric=cappack.GEODESIC)[1][:4]
    ball = geom.Ball(np.zeros(d), 1.0)
    rep = bounds.check_packing_general(ball, fam, 1, n=4000, seed=2)
    want = math.comb(d, k) * math.sin(delta) ** (-k)
    assert rep.rhs == pytest.approx(want, rel=1e-9)
    assert rep.passed


def test_general_bound_rejects_antipodal_caps():
    fam = cappack.build_cap_packing(4, 1, 0.3, seed=2)[1][:2]
    ball = geom.Ball(np.zeros(4), 1.0)
    with pytest.raises(DomainError):
        bounds.check_packing_general(ball, fam, 1, n=4000, seed=2)


def test_general_bound_box_product_slack():
    box = geom.Polytope(np.array(
        [[x, y, z] for x in (0, 2) for y in (0, 0.7) for z in (0, 1.3)], float))
    frame = geom.orthonormalize(np.eye(3)[:2])
    base = geom.Polytope(geom.project_body(box, frame).vertices)
    cyl = cylinders.Cylinder(frame, base)
    rep = bounds.check_packing_general(box, [cyl], 1, n=4000, seed=2)
    assert rep.slack == pytest.approx(math.comb(3, 1) - 1, abs=1e-9)


# --- slice-projection product bounds -------------------------------------------

def test_rogers_shephard_box_equality():
    box = geom.Polytope(np.array(
        [[x, y, z] for x in (0, 2) for y in (0, 0.7) for z in (0, 1.3)], float))
    frame = geom.Frame(np.eye(3)[:, :1])
    upper, lower = bounds.check_rogers_shephard(box, frame)
    assert lower.passed and upper.passed
    assert abs(lower.slack) <= 1e-9  # product bodies achieve Fubini equality


def test_rogers_shephard_ball_closed_forms():
    frame = geom.Frame(np.eye(3)[:, :1])
    upper, lower = bounds.check_rogers_shephard(BALL3, frame)
    assert upper.lhs == pytest.approx(2 * math.pi, rel=1e-9)
    assert upper.rhs == pytest.approx(3 * geom.volume(BALL3), rel=1e-12)
    assert lower.rhs == pytest.approx(geom.volume(BALL3), rel=1e-12)
    assert upper.passed and lower.passed


def test_rogers_shephard_random_polytopes(rng):
    for _ in range(10):
        d = int(rng.integers(2, 5))
        poly = random_polytope(d, rng)
        k = int(rng.integers(1, d))
        frame = geom.orthonormalize(rng.standard_normal((k, d)))
        upper, lower = bounds.check_rogers_shephard(poly, frame)
        assert upper.tolerance == lower.tolerance == bounds.EXACT_TOL
        assert upper.passed, (d, k, upper)
        assert lower.passed, (d, k, lower)


def test_max_translate_slice_ball_exact():
    frame = geom.orthonormalize(np.eye(3)[:1])  # slice along x-axis lines
    out = bounds.max_translate_slice(BALL3, frame)
    assert out.method == "ellipsoid"
    assert out.lo == pytest.approx(2.0, rel=1e-12)
    assert out.lo <= 2.0 * (1 + 1e-15) and out.hi >= 2.0


# a criterion-6 polytope (d = 4, interval slices) whose last grid refinement
# moves the slice maximum by 5.2%, past the oracle's SLICE_INSTABILITY_BAND;
# check_rogers_shephard takes its maximum from the difference body instead
UNSTABLE_VERTICES = [
    [0.8128416106494756, -0.14906608473442182, -0.13945421561807486, 1.1657475129399153],
    [0.18809862065839306, 0.3830609340677481, 0.588501256734581, 0.9992366014826984],
    [0.8685925590308926, 1.1637043842915182, 1.0298921472270344, -1.0767667166814074],
    [0.3489867217988547, -1.7028809072905984, -0.7120229074593658, -0.9521579749551138],
    [-0.5441759823134107, -0.8215074497125336, 0.6174121207589423, -1.3210573299994548],
    [0.4834275409267149, 2.263288616567191, 2.001428952024651, 1.020225729864999],
    [-0.8884649847472124, -0.2766493344022921, -0.6730556092982838, 1.2043699872974611],
    [1.4608460859473742, -1.4538688357142218, -0.20233402730135727, -1.3415310433407786],
]
UNSTABLE_FRAME = [
    [1.5414116595780374, 1.1119692502815641, 0.7756852305240205, 0.0635356786154188],
    [1.8127308754366804, -0.853813146252506, 0.2747782146373295, -0.40710262105788403],
    [0.9581831066299249, -0.14168166290710243, 0.9490937797061745, 0.3014170531318306],
]


def test_max_translate_slice_unstable_refinement_raises(monkeypatch):
    poly = geom.Polytope(np.array(UNSTABLE_VERTICES))
    frame = geom.orthonormalize(np.array(UNSTABLE_FRAME))
    comp = geom.complement(frame)
    offsets = geom.complement(comp)
    with pytest.raises(slicemax_oracle.SliceEstimateUnstable, match="5.2%"):
        slicemax_oracle._grid_search(poly, comp, offsets, None)
    out = bounds.max_translate_slice(poly, comp)
    assert out.method == "difference-body"
    upper, lower = bounds.check_rogers_shephard(poly, frame)
    assert upper.passed and lower.passed
    assert upper.lhs == pytest.approx(out.hi * geom.volume(
        geom.project_body(poly, frame)), rel=1e-15)
    # with the band lifted, the search's estimate stays below the bracket
    monkeypatch.setattr(slicemax_oracle, "SLICE_INSTABILITY_BAND", 1.0)
    grid = slicemax_oracle._grid_search(poly, comp, offsets, None)
    assert grid.lo == grid.hi <= out.hi


# --- base-volume bound ---------------------------------------------------------

def test_surface_constant_plane_value():
    assert bounds.surface_constant(2) == pytest.approx(math.pi / 2, rel=1e-14)


def test_surface_constant_asymptotics():
    for d in (10, 20, 40):
        ratio = bounds.surface_constant(d) / math.sqrt(math.pi * d / 2.0)
        assert 0.95 <= ratio <= 1.05


def test_base_volume_bound_disk_partition():
    fam = instances.plank_partition(BALL2, 4)
    rep = bounds.check_base_volume_bound(BALL2, fam, 1, n=4000, seed=1)
    assert rep.lhs == pytest.approx(2.0, abs=1e-9)
    assert rep.rhs == pytest.approx(math.pi, rel=1e-9)
    assert rep.passed


def test_cauchy_surface_area_polygon_perimeter(rng):
    poly = instances.random_polygon(rng)
    verts = poly.vertices
    hull_order = verts  # already hull-ordered by construction
    perim = float(np.sum(np.linalg.norm(
        np.roll(hull_order, -1, axis=0) - hull_order, axis=1)))
    quad = shadow_oracle.cauchy_surface_area(poly, n_dirs=2048)
    assert quad == pytest.approx(perim, rel=5e-3)


def test_base_volume_bound_random_polygons(rng):
    for seed in range(5):
        poly = instances.random_polygon(np.random.default_rng(seed + 40))
        fam = instances.random_strip_packing(poly, 3, 2, seed=seed)
        rep = bounds.check_base_volume_bound(poly, fam, 2, n=4000, seed=seed)
        assert rep.passed, rep


# --- report plumbing -----------------------------------------------------------

def test_partition_duality_crv_sums_to_one():
    # a family that verifies as both a 1-fold packing and a 1-fold covering of
    # a ball with parallel planks must tile the projected range exactly
    import cylpack.multiplicity as multiplicity

    for d, n_planks in ((2, 4), (3, 6)):
        ball = geom.Ball(np.zeros(d), 1.0)
        inner = np.sort(np.random.default_rng(d).uniform(-1.0, 1.0, n_planks - 1))
        breaks = np.concatenate([[-1.0], inner, [1.0]])
        frame = geom.Frame(np.eye(d)[:, :1])
        fam = [cylinders.Cylinder(frame, geom.Polytope([[a], [b]]))
               for a, b in zip(breaks, breaks[1:])]
        assert multiplicity.decide(ball, fam, 1, 4000, seed=3).ok
        assert multiplicity.decide(ball, fam, 1, 4000, seed=3, covering=True).ok
        assert cylinders.sum_crv(ball, fam) == pytest.approx(1.0, abs=1e-9)


def test_report_csv_output():
    fam = instances.plank_partition(BALL2, 3)
    rep = bounds.check_packing_upper_ellipsoid(BALL2, fam, 1, n=4000, seed=1)
    text = bounds.bound_reports_to_csv([rep])
    lines = text.strip().splitlines()
    assert lines[0].startswith("theorem_id")
    assert "packing_upper_ellipsoid" in lines[1]
    assert rep.to_json()["passed"] is True


def test_mode_validation():
    fam = instances.plank_partition(BALL2, 3)
    square = geom.Polytope(np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], float))
    with pytest.raises(DomainError):
        bounds.check_packing_upper_ellipsoid(square, fam, 1, n=4000, seed=1)
