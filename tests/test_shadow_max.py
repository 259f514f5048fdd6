"""The largest hyperplane shadow is exact: closed forms for round bodies, the
longest vertex of the projection zonotope for polytopes, never below the
direction search of ``shadow_oracle``."""

import itertools
import math

import numpy as np
import pytest

from cylpack import geom, instances, specfn

import shadow_oracle


def _shadows(body: geom.Polytope, dirs: np.ndarray) -> np.ndarray:
    normals, areas = body.facet_data
    return 0.5 * np.abs(dirs @ normals.T) @ areas


def _prism(n: int, height: float) -> geom.Polytope:
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    return geom.Polytope(np.vstack([np.column_stack([ring, np.full(n, z)])
                                    for z in (-height / 2, height / 2)]))


def test_polygon_shadow_is_the_vertex_diameter():
    for seed in range(50):
        poly = instances.random_polygon(np.random.default_rng(seed))
        v = poly.vertices
        diameter = np.max(np.linalg.norm(v[:, None] - v[None, :], axis=2))
        _, val = geom.max_hyperplane_projection(poly)
        assert val == pytest.approx(diameter, rel=1e-12, abs=0), seed


@pytest.mark.parametrize("d,want", [(3, math.sqrt(3.0)), (4, 2.0)])
def test_cube_shadow(d, want):
    cube = geom.Polytope(np.array(list(itertools.product((0.0, 1.0), repeat=d))))
    u, val = geom.max_hyperplane_projection(cube)
    assert val == pytest.approx(want, rel=1e-15, abs=0)
    assert np.allclose(np.abs(u), 1.0 / math.sqrt(d), rtol=0, atol=1e-15)


@pytest.mark.parametrize("d,n", [(2, 9), (2, 30), (3, 8), (3, 14), (4, 6), (4, 7)])
def test_gaussian_polytope_shadow_dominates_search_and_sample(d, n):
    rng = np.random.default_rng(100 * d + n)
    dirs = geom.uniform_sphere_points(d, 20_000, rng)
    for _ in range(3):
        poly = geom.Polytope(rng.standard_normal((n, d)))
        u, val = geom.max_hyperplane_projection(poly)
        assert val == geom.hyperplane_shadow_volume(poly, u)
        _, searched = shadow_oracle.max_hyperplane_projection(poly)
        assert val >= searched * (1.0 - 1e-12)
        assert val >= np.max(_shadows(poly, dirs))


def test_prism_shadow_dominates_a_direction_sample():
    # 60 parallel side facets per line and triangulated caps: the merged
    # generators of the zonotope
    prism = _prism(60, 1.4)
    u, val = geom.max_hyperplane_projection(prism)
    dirs = geom.uniform_sphere_points(3, 20_000, np.random.default_rng(7))
    assert val == geom.hyperplane_shadow_volume(prism, u)
    assert val >= np.max(_shadows(prism, dirs))
    assert val >= shadow_oracle.max_hyperplane_projection(prism)[1] * (1 - 1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_ellipsoid_shadow_closed_form(d):
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    shape = q @ np.diag(rng.uniform(0.3, 3.0, d)) @ q.T
    body = geom.Ellipsoid(rng.standard_normal(d), shape)
    u, val = geom.max_hyperplane_projection(body)
    want = specfn.unit_ball_volume(d - 1) * math.sqrt(
        np.linalg.det(np.linalg.inv(shape)) * np.linalg.eigvalsh(shape)[-1])
    assert val == pytest.approx(want, rel=1e-12)
    dirs = geom.uniform_sphere_points(d, 2000, rng)
    assert all(val >= geom.hyperplane_shadow_volume(body, w) for w in dirs)


@pytest.mark.parametrize("d", [2, 3, 7, 12])
def test_ball_shadow_closed_form(d):
    ball = geom.Ball(np.full(d, 0.3), 1.7)
    _, val = geom.max_hyperplane_projection(ball)
    assert val == pytest.approx(specfn.unit_ball_volume(d - 1) * 1.7 ** (d - 1),
                                rel=1e-14)

