"""The planar kernels against the code they replaced (``planar_oracle``):
the monotone-chain hull against qhull, the vertex chords against the
difference body, the polygon diameter against the projection zonotope, and
the scipy-free ball volumes against scipy.special."""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import planar_oracle
from cylpack import geom, instances, specfn
from cylpack.errors import DegenerateBody, DomainError

POLYGONS = 2000


def _polygon_points(seed: int) -> np.ndarray:
    """3-39 Gaussian points at a scale of 2^-20..2^20, with up to two
    duplicates and up to two points on hull edges (midpoints or other
    convex combinations), shuffled."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    pts = rng.standard_normal((n, 2)) * 2.0 ** int(rng.integers(-20, 21))
    hull = ConvexHull(pts).vertices
    extra = [pts[rng.integers(n, size=int(rng.integers(0, 3)))]]
    for _ in range(int(rng.integers(0, 3))):
        i = int(rng.integers(len(hull)))
        a, b = pts[hull[i]], pts[hull[(i + 1) % len(hull)]]
        lam = 0.5 if rng.random() < 0.5 else rng.random()
        extra.append(((1.0 - lam) * a + lam * b)[None])
    pts = np.vstack([pts, *extra])
    return pts[rng.permutation(len(pts))]


def _corners(pts, idx) -> set:
    return {tuple(p) for p in pts[idx]}


def test_chain_keeps_qhull_vertex_sets_and_areas():
    for seed in range(POLYGONS):
        pts = _polygon_points(seed)
        want = ConvexHull(pts)
        got = geom.planar_hull(pts)
        assert _corners(pts, got.vertices) == _corners(pts, want.vertices), seed
        assert got.volume == pytest.approx(want.volume, rel=1e-12), seed
        # counterclockwise edges with unit outward normals that hold every point
        assert (got.simplices[:, 1] == np.roll(got.vertices, -1)).all()
        normals, offsets = got.equations[:, :2], got.equations[:, 2]
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=0.0, atol=1e-15)
        reach = float(np.max(np.abs(pts)))
        assert (pts @ normals.T + offsets <= 1e-12 * reach).all(), seed


def test_chain_edges_pass_through_their_vertices():
    for seed in range(200):
        pts = _polygon_points(seed)
        hull = geom.planar_hull(pts)
        ends = pts[hull.simplices]                            # (V, 2, 2)
        vals = np.einsum("vek,vk->ve", ends, hull.equations[:, :2]) + hull.equations[:, 2:]
        assert np.abs(vals).max() <= 1e-14 * float(np.max(np.abs(pts))), seed


def test_chain_is_free_of_scale():
    pts = _polygon_points(7)
    hull = geom.planar_hull(pts)
    for e in (-300, -40, 40, 300):
        scaled = geom.planar_hull(pts * 2.0 ** e)
        assert (scaled.vertices == hull.vertices).all(), e
        assert (scaled.equations[:, :2] == hull.equations[:, :2]).all(), e
        assert scaled.volume == math.ldexp(hull.volume, 2 * e), e


def test_chain_keeps_the_corners_of_runs_out_of_sort_order():
    # crossing points of a box slice: runs along the sides x = -1 and x = 1,
    # with three corners a few ulps outside them, so the order by x is not
    # the order along a run
    ulp = 2.0 ** -52
    pts = [(x, y) for x in (-1.0, 1.0) for y in (-1.5, -0.45, -0.1875, 0.75, 1.5)]
    pts += [(-1.0 - 2 * ulp, -1.5 - 4 * ulp), (-1.0 - 2 * ulp, 1.5 + 4 * ulp),
            (1.0 + 2 * ulp, -1.5 - 4 * ulp), (0.5 - ulp, -1.5 - 2 * ulp),
            (-0.3, 1.5), (-0.3, -1.5)]
    for order in (pts, pts[::-1]):
        hull = geom.planar_hull(np.array(order))
        assert len(hull.vertices) == 4
        assert hull.volume == pytest.approx(6.0, rel=1e-14)


@pytest.mark.parametrize("points", [
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-300]],
    [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
    [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]],
], ids=["thin-triangle", "collinear", "one-point"])
def test_flat_point_sets_have_no_polygon(points):
    with pytest.raises(DegenerateBody, match="not full-dimensional"):
        geom.Polytope(np.array(points))


def test_an_overflowing_area_is_named():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert geom.volume(geom.Polytope(square * 1e150)) == pytest.approx(1e300)
    with pytest.raises(DomainError, match="area overflows"):
        geom.Polytope(square * 1e160)


def test_an_underflowing_area_is_named():
    # a valid square whose area, 2^-1200 or less, no double holds
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert geom.volume(geom.Polytope(square * 2.0 ** -500)) == 2.0 ** -1000
    for scale in (2.0 ** -600, 2.0 ** -1000):
        with pytest.raises(DomainError, match="area underflows double precision"):
            geom.Polytope(square * scale)
    with pytest.raises(DegenerateBody, match="not full-dimensional"):
        geom.Polytope(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]) * 2.0 ** -600)


def test_planar_polytopes_and_random_polygons_run_no_qhull(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("qhull called for a planar hull")

    solid = geom.Polytope(np.random.default_rng(4).standard_normal((7, 3)))
    monkeypatch.setattr(geom, "ConvexHull", refuse)
    poly = instances.random_polygon(np.random.default_rng(5))
    shadow = geom.project_body(solid, geom.orthonormalize(np.eye(3)[:2]))
    for body in (poly, shadow):
        assert geom.volume(body) > 0.0
        geom.longest_chord(body, np.array([0.6, 0.8]))
        geom.max_hyperplane_projection(body)


def test_vertex_chords_match_the_difference_body():
    for seed in range(POLYGONS // 4):
        pts = _polygon_points(seed)
        poly = geom.Polytope(pts)
        theta = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(theta), math.sin(theta)])
        want, _ = planar_oracle.longest_chord(poly, u)
        t, q = geom.longest_chord(poly, u)
        assert t == pytest.approx(want, rel=1e-12), seed
        # the chord from q of length t along u lies in the polygon
        slack = 1e-12 * float(np.max(np.abs(pts)))
        assert geom.contains_points(poly, np.array([q, q + t * u]), tol=slack).all(), seed


def test_vertex_chords_along_an_edge_and_across_a_square():
    square = geom.Polytope(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]))
    t, q = geom.longest_chord(square, np.array([1.0, 0.0]))
    assert t == 2.0 and q[0] == 0.0
    t, _ = geom.longest_chord(square, np.array([0.0, -1.0]))
    assert t == 1.0
    diag = np.array([2.0, 1.0]) / math.sqrt(5.0)
    t, q = geom.longest_chord(square, diag)
    assert t == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert np.allclose(q, [0.0, 0.0], atol=1e-15) or np.allclose(q, [2.0, 1.0], atol=1e-15)


def test_polygon_diameter_matches_the_projection_zonotope():
    for seed in range(POLYGONS // 4):
        poly = geom.Polytope(_polygon_points(seed))
        verts = planar_oracle.projection_zonotope_vertices(poly)
        z = verts[np.argmax(np.einsum("ij,ij->i", verts, verts))]
        want = geom.hyperplane_shadow_volume(poly, z / np.linalg.norm(z))
        u, got = geom.max_hyperplane_projection(poly)
        assert got == pytest.approx(want, rel=1e-12), seed
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-15
        gaps = poly.vertices[:, None] - poly.vertices[None]
        diameter = float(np.sqrt(np.max(np.einsum("ijk,ijk->ij", gaps, gaps))))
        assert got == pytest.approx(diameter, rel=1e-12), seed


def test_ball_volumes_keep_scipy_bits_through_the_table():
    for m in range(specfn.TABLE_DIM + 1):
        assert specfn.unit_ball_volume(m) == planar_oracle.unit_ball_volume(m), m


def test_ball_volumes_past_the_table_are_finite_and_decrease():
    vols = [specfn.unit_ball_volume(m) for m in range(specfn.TABLE_DIM, 1400)]
    assert all(math.isfinite(v) and v >= 0.0 for v in vols)
    assert all(b < a or a == b == 0.0 for a, b in zip(vols, vols[1:]))
    assert specfn.unit_ball_volume(452) > 0.0 == specfn.unit_ball_volume(453)
    # where scipy's Gamma is finite, the recurrence keeps its value
    for m in range(specfn.TABLE_DIM + 1, 340):
        assert specfn.unit_ball_volume(m) == pytest.approx(
            planar_oracle.unit_ball_volume(m), rel=1e-13), m
