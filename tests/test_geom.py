import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvee_oracle
from cylpack import cylinders, geom, specfn
from cylpack.errors import (
    DegenerateBody,
    DimensionMismatch,
    DomainError,
    FullDimensional,
    RankDeficient,
    SamplingFailure,
    UnsupportedDimension,
)
from conftest import random_frame, random_spd, transform_body


# --- frames -----------------------------------------------------------------

def test_orthonormalize_already_orthogonal():
    f = geom.orthonormalize([[1, 0], [0, 2]])
    assert np.allclose(f.columns, np.eye(2), atol=1e-15)


def test_orthonormalize_single_vector():
    f = geom.orthonormalize([[1, 1, 0]])
    want = np.array([[1 / math.sqrt(2)], [1 / math.sqrt(2)], [0.0]])
    assert np.allclose(f.columns, want, atol=1e-15)


def test_orthonormalize_gram_schmidt_by_hand():
    # second vector (1,1) minus its projection on (1,0) leaves (0,1)
    f = geom.orthonormalize([[1, 0], [1, 1]])
    assert np.allclose(f.columns, np.eye(2), atol=1e-15)


def test_orthonormalize_rank_deficient():
    with pytest.raises(RankDeficient):
        geom.orthonormalize([[1.0, 2.0], [2.0, 4.0]])


def gram_defect(frame) -> float:
    g = frame.columns.T @ frame.columns
    return float(np.max(np.abs(g - np.eye(frame.subspace_dim))))


def test_orthonormalize_first_column_parallel():
    v = np.array([3.0, -1.0, 2.0])
    f = geom.orthonormalize([v, [0, 1, 0]])
    assert np.allclose(f.columns[:, 0], v / np.linalg.norm(v), atol=1e-14)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000))
def test_orthonormalize_gram_defect(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    m = int(rng.integers(1, d + 1))
    f = geom.orthonormalize(rng.standard_normal((m, d)))
    assert gram_defect(f) <= 1e-10


def test_complement_examples():
    f = geom.orthonormalize([[1, 0, 0]])
    c = geom.complement(f)
    assert c.subspace_dim == 2
    assert np.max(np.abs(c.columns.T @ f.columns)) <= 1e-12

    g = geom.orthonormalize([[1 / math.sqrt(2), 1 / math.sqrt(2)]])
    cg = geom.complement(g)
    assert abs(abs(cg.columns[0, 0]) - 1 / math.sqrt(2)) <= 1e-12


def test_complement_random_frame_gram(rng):
    f = random_frame(5, 2, rng)
    c = geom.complement(f)
    assert c.subspace_dim == 3
    assert gram_defect(c) <= 1e-10
    assert np.max(np.abs(c.columns.T @ f.columns)) <= 1e-12


def test_complement_full_dimensional():
    with pytest.raises(FullDimensional):
        geom.complement(geom.orthonormalize(np.eye(3)))


# --- support ----------------------------------------------------------------

def test_support_ball():
    ball = geom.Ball(np.zeros(3), 1.0)
    for u in np.eye(3):
        assert geom.support(ball, u) == pytest.approx(1.0, abs=1e-15)


def test_support_ellipsoid_axes():
    ell = geom.Ellipsoid(np.zeros(2), np.diag([1.0, 0.25]))
    assert geom.support(ell, [0.0, 1.0]) == pytest.approx(2.0, abs=1e-12)


def test_support_square_diagonal():
    sq = geom.Polytope(np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float))
    u = np.array([1.0, 1.0]) / math.sqrt(2)
    assert geom.support(sq, u) == pytest.approx(math.sqrt(2), abs=1e-13)


def test_support_projection_identity(rng):
    # the shadow's support equals the body's support in embedded directions
    bodies = [
        geom.Ball(rng.uniform(-0.3, 0.3, 3), 0.8),
        geom.Ellipsoid(rng.uniform(-0.2, 0.2, 3), random_spd(3, rng)),
        geom.Polytope(rng.standard_normal((8, 3))),
    ]
    for body in bodies:
        frame = random_frame(3, 2, rng)
        shadow = geom.project_body(body, frame)
        for _ in range(12):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            h1 = geom.support(shadow, u)
            h2 = geom.support(body, frame.embed(u))
            assert h1 == pytest.approx(h2, abs=1e-9)


# --- projections ------------------------------------------------------------

def test_project_ball_to_disk():
    ball = geom.Ball(np.zeros(3), 1.0)
    shadow = geom.project_body(ball, geom.orthonormalize(np.eye(3)[:2]))
    assert isinstance(shadow, geom.Ball)
    assert geom.volume(shadow) == pytest.approx(math.pi, abs=1e-12)


def test_project_ellipse_to_segment():
    ell = geom.Ellipsoid(np.zeros(2), np.diag([1.0, 0.25]))
    seg = geom.project_body(ell, geom.Frame(np.array([[0.0], [1.0]])))
    assert geom.volume(seg) == pytest.approx(4.0, abs=1e-12)


def test_project_cube_to_hexagon():
    cube = geom.Polytope(np.array(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float))
    u = np.ones(3) / math.sqrt(3)
    frame = geom.complement(geom.Frame(u[:, None]))
    hexagon = geom.project_body(cube, frame)
    # oracle: the facet identity, half the area sum weighted by |<u, n>|
    normals, areas = cube.facet_data
    want = 0.5 * float(areas @ np.abs(normals @ u))
    assert want == pytest.approx(math.sqrt(3), abs=1e-12)
    assert geom.volume(hexagon) == pytest.approx(want, abs=1e-10)


def test_projection_dominates_parallel_slices(rng):
    # a slice parallel to the projection subspace never out-measures the shadow
    body = geom.Ellipsoid(np.zeros(3), random_spd(3, rng))
    frame = random_frame(3, 2, rng)
    shadow_vol = geom.volume(geom.project_body(body, frame))
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 3)
        assert geom.affine_slice_volume(body, frame, x) <= shadow_vol + 1e-12


# --- volumes ----------------------------------------------------------------

def test_ball_volume_closed_form():
    for m in range(1, 11):
        ball = geom.Ball(np.zeros(m), 1.0)
        assert abs(geom.volume(ball) - specfn.unit_ball_volume(m)) <= 1e-12


def test_ellipsoid_volume():
    ell = geom.Ellipsoid(np.zeros(3), np.diag([1.0, 0.25, 4.0]))
    want = specfn.unit_ball_volume(3) * 1.0 * 2.0 * 0.5
    assert geom.volume(ell) == pytest.approx(want, rel=1e-13)


def test_ball_powers_that_overflow_give_inf():
    # radius 2 in d = 1300: 2^1299 overflows while omega_1299 underflows to
    # 0, so each closed form is inf, never OverflowError or nan; so is the
    # volume of an ellipsoid whose determinant underflows to 0
    ball = geom.Ball(np.zeros(1300), 2.0)
    assert geom.volume(ball) == math.inf
    assert geom.hyperplane_shadow_volume(ball, np.eye(1300)[0]) == math.inf
    fibre = geom.Frame(np.eye(1300)[:, 2:])
    assert geom.affine_slice_volume(ball, fibre, np.zeros(1300)) == math.inf
    assert geom.volume(geom.Ellipsoid(np.zeros(3), np.eye(3) * 2.0 ** -400)) == math.inf


def test_ill_conditioned_ellipsoid_slices_raise_one_error():
    # the form on the slice has det 1e-400 (0.0) or 1e400 (inf): both fail
    # the same conditioning rule, once per kernel, instead of dividing by
    # zero or returning 0.0
    e1e2 = geom.Frame(np.eye(3)[:, :2])
    for scale in (1e-200, 1e200):
        body = geom.Ellipsoid(np.zeros(3), np.diag([scale, scale, 1.0]))
        with pytest.raises(DomainError, match="too ill-conditioned to slice"):
            geom.affine_slice_volume(body, e1e2, np.zeros(3))
        with pytest.raises(DomainError, match="too ill-conditioned to slice"):
            geom.slice_kernel(body, e1e2)


def test_ball_membership_reads_distances_at_the_radius_scale():
    # past ~1.3e154 a squared distance overflows and below ~1e-154 it
    # underflows; in the power of two at the radius neither happens
    for e in (-1000, -600, 600, 1000):
        s = 2.0 ** e
        ball = geom.Ball(np.array([s, 0.0]), s)
        pts = s * np.array([[1.5, 0.5], [1.0, 0.999], [2.001, 0.0], [1e6, 0.0]])
        assert geom.contains_points(ball, pts).tolist() == [True, True, False, False], e


def test_polytope_volume_exact_small_dims():
    tri = geom.Polytope(np.array([[0, 0], [1, 0], [0, 1]], float))
    assert geom.volume(tri) == pytest.approx(0.5, abs=1e-14)
    seg = geom.Polytope(np.array([[0.0], [2.5]]))
    assert geom.volume(seg) == pytest.approx(2.5, abs=1e-14)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_polytope_volume_exact_high_dims(d):
    eye = np.eye(d)
    cube = geom.Polytope(np.array(np.meshgrid(*[[0.0, 1.0]] * d)).reshape(d, -1).T)
    cross = geom.Polytope(np.vstack([eye, -eye]))
    simplex = geom.Polytope(np.vstack([np.zeros(d), eye]))
    assert abs(geom.volume(cube) - 1.0) <= 1e-12
    assert abs(geom.volume(cross) - 2.0**d / math.factorial(d)) <= 1e-12
    assert abs(geom.volume(simplex) - 1.0 / math.factorial(d)) <= 1e-12


def test_polytope_volume_mc_matches_triangulation_oracle(rng):
    from scipy.spatial import ConvexHull

    poly = geom.Polytope(rng.standard_normal((9, 4)))
    exact = ConvexHull(poly.vertices).volume  # triangulation oracle
    est, se = geom.polytope_volume_mc(poly, 400_000, seed=5)
    assert abs(est - exact) <= 3 * se


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_polytope_membership_chunks_match_one_product(d):
    # a row count that is no multiple of SAMPLE_CHUNK, points on both sides of
    # every facet, and tolerances that loosen and tighten
    rng = np.random.default_rng(70 + d)
    poly = geom.Polytope(rng.standard_normal((d + 4, d)))
    lo, hi = geom.bounding_box(poly)
    pts = rng.uniform(lo - 0.1, hi + 0.1, size=(2 * geom.SAMPLE_CHUNK + 37, d))
    eq = poly.equations
    for tol in (0.0, 0.05, -0.05):
        whole = np.all(pts @ eq[:, :-1].T + eq[:, -1] <= tol, axis=1)
        assert 0 < whole.sum() < len(pts)
        assert np.array_equal(geom.contains_points(poly, pts, tol=tol), whole)


def test_polytope_membership_memory_is_flat():
    # 200 000 points against 18 facets: one whole product took about 61 MB
    poly = geom.Polytope(np.random.default_rng(1).standard_normal((8, 4)))
    assert len(poly.equations) == 18
    tracemalloc.start()
    try:
        geom.polytope_volume_mc(poly, 200_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_degenerate_polytope_rejected():
    with pytest.raises(DegenerateBody):
        geom.Polytope(np.array([[0, 0], [1, 0], [2, 0]], float))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_fields_rejected(bad):
    makers = [
        lambda: geom.Ball(np.array([bad, 0.0]), 1.0),
        lambda: geom.Ball(np.zeros(2), bad),
        lambda: geom.Ellipsoid(np.zeros(2), np.array([[1.0, 0.0], [0.0, bad]])),
        lambda: geom.Polytope(np.array([[0, 0], [1, 0], [0, bad]], float)),
        lambda: geom.Frame(np.array([[1.0], [bad]])),
        lambda: cylinders.CapBase(np.array([1.0, 0.0]), bad),
    ]
    for make in makers:
        with pytest.raises(DomainError):
            make()


# --- enclosing ellipsoid ----------------------------------------------------

def test_mvee_square_gives_ball():
    out = mvee_oracle.mvee([[1, 1], [1, -1], [-1, 1], [-1, -1]], tol=1e-6)
    # the circumscribed ellipse of the square's vertices is the radius-sqrt(2) circle
    assert np.allclose(out.ellipsoid.shape, np.eye(2) / 2.0, atol=1e-5)
    assert np.allclose(out.ellipsoid.center, 0.0, atol=1e-7)


def test_mvee_simplex_circumcircle():
    angles = [0, 2 * math.pi / 3, 4 * math.pi / 3]
    pts = np.array([[math.cos(a), math.sin(a)] for a in angles])
    out = mvee_oracle.mvee(pts, tol=1e-6)
    assert np.allclose(out.ellipsoid.shape, np.eye(2), atol=1e-5)


def test_mvee_raises_when_the_ascent_runs_out(monkeypatch, rng):
    monkeypatch.setattr(mvee_oracle, "MVEE_MAX_ITER", 1)
    with pytest.raises(mvee_oracle.NoConvergence):
        mvee_oracle.mvee(rng.standard_normal((40, 3)), tol=1e-6)


def test_mvee_contains_and_is_tight(rng):
    pts = rng.standard_normal((40, 3))
    tol = 1e-5
    out = mvee_oracle.mvee(pts, tol=tol)
    ell = out.ellipsoid
    diff = pts - ell.center
    q = np.einsum("ij,jk,ik->i", diff, ell.shape, diff)
    assert np.max(q) <= 1.0 + 10 * tol          # containment
    shrink = ell.shape / (1.0 - 10 * tol) ** 2  # scaling radius by (1 - 10 tol)
    q2 = np.einsum("ij,jk,ik->i", diff, shrink, diff)
    assert np.max(q2) > 1.0                      # some input falls outside


@pytest.mark.parametrize("d", [2, 3, 4])
def test_mvee_optimality_certificate(d):
    # Todd-Yildirim / John conditions on the ascent weights u, with the lifted
    # Mahalanobis values M_i = q_i^T X(u)^-1 q_i derived independently of mvee
    rng = np.random.default_rng(100 + d)
    pts = rng.standard_normal((12 * d, d)) * rng.uniform(0.5, 2.0, d)
    tol = 1e-5
    u = mvee_oracle._mvee_weights(pts, tol)
    assert np.all(u >= 0.0) and abs(u.sum() - 1.0) <= 1e-12
    lifted = np.column_stack([pts, np.ones(len(pts))])
    x = lifted.T @ (u[:, None] * lifted)
    m_vals = np.einsum("ij,jk,ik->i", lifted, np.linalg.inv(x), lifted)
    assert np.max(m_vals) <= (d + 1) * (1 + tol)
    support = u > 1e-12
    assert np.min(m_vals[support]) >= (d + 1) * (1 - tol)
    # at least d + 1 contact points carry the weight of a full-dimensional X
    assert support.sum() >= d + 1
    out = mvee_oracle.mvee(pts, tol=tol)
    ell = out.ellipsoid
    assert np.allclose(ell.center, pts.T @ u, atol=1e-12)
    diff = pts - ell.center
    q = np.einsum("ij,jk,ik->i", diff, ell.shape, diff)
    # the returned shape is X(u)'s: M_i = d q_i + 1 on every point
    assert np.allclose(d * q + 1.0, m_vals, rtol=1e-9, atol=0.0)
    assert np.all(q <= 1.0 + out.containment_tolerance + 1e-15)


def test_mvee_volume_against_convex_solver(rng):
    cvxpy = pytest.importorskip("cvxpy")
    pts = rng.standard_normal((50, 3))
    out = mvee_oracle.mvee(pts, tol=1e-5)
    vol = geom.volume(out.ellipsoid)
    # log-det oracle: maximize volume of {x : |Ax + b| <= 1} containing points
    a = cvxpy.Variable((3, 3), PSD=True)
    b = cvxpy.Variable(3)
    constraints = [cvxpy.norm(a @ p + b) <= 1 for p in pts]
    prob = cvxpy.Problem(cvxpy.Maximize(cvxpy.log_det(a)), constraints)
    prob.solve(solver=cvxpy.SCS, eps=1e-8)
    oracle_vol = specfn.unit_ball_volume(3) / np.exp(prob.value)
    assert vol == pytest.approx(oracle_vol, rel=1e-3)


def test_mvee_rank_deficient():
    with pytest.raises(RankDeficient):
        mvee_oracle.mvee([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], tol=1e-5)


# --- hyperplane shadows -----------------------------------------------------

def test_max_projection_ball():
    ball = geom.Ball(np.zeros(3), 1.0)
    _, val = geom.max_hyperplane_projection(ball)
    assert val == pytest.approx(math.pi, rel=1e-12)


def test_max_projection_cube_brute_force_oracle(rng):
    cube = geom.Polytope(np.array(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float))
    u, val = geom.max_hyperplane_projection(cube)
    assert val == pytest.approx(math.sqrt(3), abs=1e-3)
    assert np.allclose(np.abs(u), 1 / math.sqrt(3), atol=5e-2)
    # grid dominance: better than every direction of an independent sample
    dirs = geom.uniform_sphere_points(3, 20_000, rng)
    brute = max(geom.hyperplane_shadow_volume(cube, w) for w in dirs)
    assert val >= brute - 1e-9


def test_shadow_identity_matches_projected_hull(rng):
    # flat, elongated polytope: the facet identity against the hull oracle
    pts = rng.standard_normal((7, 3)) * np.array([3.0, 1.0, 0.15])
    poly = geom.Polytope(pts)
    for _ in range(8):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        shadow = geom.project_body(poly, geom.complement(geom.Frame(u[:, None])))
        want = geom.volume(shadow)
        assert geom.hyperplane_shadow_volume(poly, u) == pytest.approx(
            want, abs=1e-4, rel=1e-9)


def test_max_projection_unsupported_dimension():
    # round bodies are closed-form in every d; polytopes stop at d = 4
    cube = geom.Polytope(np.array(
        [[x, y, z, s, t] for x in (0, 1) for y in (0, 1) for z in (0, 1)
         for s in (0, 1) for t in (0, 1)], float))
    with pytest.raises(UnsupportedDimension):
        geom.max_hyperplane_projection(cube)


# --- slices -----------------------------------------------------------------

def test_ball_slice_closed_form():
    ball = geom.Ball(np.zeros(3), 1.0)
    frame = geom.orthonormalize(np.eye(3)[:2])
    v = geom.affine_slice_volume(ball, frame, np.array([0, 0, 0.5]))
    assert v == pytest.approx(math.pi * 0.75, rel=1e-13)
    assert geom.affine_slice_volume(ball, frame, np.array([0, 0, 1.5])) == 0.0


def test_box_slice_exact():
    box = geom.Polytope(np.array(
        [[x, y, z] for x in (0, 2) for y in (0, 3) for z in (0, 5)], float))
    frame = geom.orthonormalize(np.eye(3)[:2])
    v = geom.affine_slice_volume(box, frame, np.array([0.3, 0.4, 2.0]))
    assert v == pytest.approx(6.0, abs=1e-9)


def test_ellipsoid_slice_missing_the_body_is_empty():
    ell = geom.Ellipsoid(np.zeros(3), np.diag([1.0, 2.0, 3.0]))
    frame = geom.orthonormalize(np.eye(3)[:2])
    assert geom.affine_slice_volume(ell, frame, np.array([0, 0, 5.0])) == 0.0


def test_polytope_line_parallel_to_a_facet_outside_is_empty():
    square = geom.Polytope(np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float))
    frame = geom.Frame(np.array([[1.0], [0.0]]))
    assert geom.affine_slice_volume(square, frame, np.array([0.5, 2.0])) == 0.0
    assert geom.affine_slice_volume(square, frame, np.array([0.5, 0.5])) == 1.0


def test_ellipsoid_slice_matches_ball_after_transform(rng):
    q = random_spd(3, rng)
    ell = geom.Ellipsoid(np.zeros(3), q)
    frame = random_frame(3, 1, rng)
    v = geom.affine_slice_volume(ell, frame, np.zeros(3))
    # oracle: chord length by bisection on the quadratic form
    u = frame.columns[:, 0]
    a = float(u @ q @ u)
    assert v == pytest.approx(2.0 / math.sqrt(a), rel=1e-12)


# --- sampling and transforms ------------------------------------------------

def test_sampling_inside_and_deterministic():
    ell = geom.Ellipsoid(np.array([0.5, -0.2]), np.diag([1.0, 4.0]))
    pts1 = geom.sample_in_body(ell, 500, np.random.default_rng(3))
    pts2 = geom.sample_in_body(ell, 500, np.random.default_rng(3))
    assert np.array_equal(pts1, pts2)
    diff = pts1 - ell.center
    q = np.einsum("ij,jk,ik->i", diff, ell.shape, diff)
    assert np.max(q) <= 1.0 + 1e-12


def test_sampling_failure_on_sliver():
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot = np.array([[c, -s], [s, c]])
    box = np.array([[0, 0], [1, 0], [1, 1e-5], [0, 1e-5]], float) @ rot.T
    poly = geom.Polytope(box)
    with pytest.raises(SamplingFailure):
        geom.sample_in_body(poly, 4000, np.random.default_rng(0))


def test_transform_body_membership(rng):
    ball = geom.Ball(np.zeros(3), 1.0)
    t = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    image = transform_body(ball, t)
    z = geom.sample_in_body(ball, 200, rng)
    assert np.all(geom.contains_points(image, z @ t.T, tol=1e-9))


def test_dimension_mismatch():
    ball = geom.Ball(np.zeros(3), 1.0)
    with pytest.raises(DimensionMismatch):
        geom.support(ball, [1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        geom.project_body(ball, geom.orthonormalize(np.eye(2)))


@pytest.mark.parametrize("value", ["1", True, None, ["1", "2"], [None, 1.0],
                                   [[1.0], ["2"]], 10**20],
                         ids=["string", "true", "null", "strings", "null-in-array",
                              "string-in-rows", "beyond-int64"])
def test_json_numbers_rejects_what_is_not_a_json_number(value):
    with pytest.raises(DomainError, match="x takes JSON numbers"):
        geom.json_numbers(value, "x")
    with pytest.raises(DomainError, match="x takes"):
        geom.json_number(value, "x")


def test_json_numbers_reads_numbers_as_float64():
    assert geom.json_number(2, "x") == 2.0 and type(geom.json_number(2, "x")) is float
    with pytest.raises(DomainError, match="x takes one JSON number"):
        geom.json_number([1.0], "x")
    rows = geom.json_numbers([[1, 2.5], [3, 4]], "x")
    assert rows.dtype == float and rows.flags.c_contiguous
    assert rows.tolist() == [[1.0, 2.5], [3.0, 4.0]]
    # numpy coerces a boolean among numbers, and it passes
    assert geom.json_numbers([0.5, True], "x").tolist() == [0.5, 1.0]
    floats = np.array([0.1, 0.2])
    assert geom.json_numbers(floats, "x") is floats
