"""Face-flat polytope slices agree with the LP/halfspace oracle.

The oracle (``slice_oracle``) is the original Chebyshev-LP construction.  On
seeded Gaussian polytopes the two must agree to 1e-12 relative, and must agree
on zero versus non-zero wherever either value exceeds 1e-20, at offsets on a
grid over the shadow's bounding box widened past the shadow.  Boundary cases
(flats on facets, just outside, through a single vertex) pin the barycentric
tolerance of the face-flat path and its handling of simplices parallel to
the flat.
"""

import itertools

import numpy as np
import pytest

import slice_oracle
from cylpack import geom

REL_TOL = 1e-12
ZERO_FLOOR = 1e-20
GRID = 7


def _offset_grid(body: geom.Polytope, comp: geom.Frame) -> np.ndarray:
    lo, hi = geom.bounding_box(geom.project_body(body, comp))
    pad = 0.15 * (hi - lo)
    axes = [np.linspace(a - p, b + p, GRID) for a, b, p in zip(lo, hi, pad)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))


@pytest.mark.parametrize("d,k", [(d, k) for d in (3, 4, 5) for k in range(2, d)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_oracle_on_gaussian_polytopes(d, k, seed):
    rng = np.random.default_rng([d, k, seed])
    body = geom.Polytope(rng.standard_normal((d + 4, d)))
    frame = geom.orthonormalize(rng.standard_normal((k, d)))
    comp = geom.complement(frame)
    zeros = positives = 0
    for z in _offset_grid(body, comp):
        x = comp.embed(z)
        got = geom.affine_slice_volume(body, frame, x)
        want = slice_oracle.affine_slice_volume(body, frame, x)
        if max(got, want) > ZERO_FLOOR:
            assert got > 0.0 and want > 0.0, (z, got, want)
            assert abs(got - want) <= REL_TOL * want, (z, got, want)
            positives += 1
        else:
            zeros += 1
    # the widened grid reaches both inside and outside the shadow
    assert positives > 0 and zeros > 0


BOX3 = geom.Polytope(np.array(list(itertools.product((0, 2), (0, 3), (0, 5))), float))
BOX4 = geom.Polytope(np.array(list(itertools.product((0, 2), (0, 3), (0, 5), (0, 7))),
                              float))


@pytest.mark.parametrize("z,want", [(0.0, 6.0), (5.0, 6.0), (2.0, 6.0),
                                    (-1e-9, 0.0), (5.0 + 1e-9, 0.0)])
def test_box_slice_on_and_beyond_facet_planes(z, want):
    frame = geom.orthonormalize(np.eye(3)[:2])
    assert geom.affine_slice_volume(BOX3, frame, [0.3, 0.4, z]) == pytest.approx(
        want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("w,want", [(0.0, 30.0), (7.0, 30.0), (3.5, 30.0),
                                    (-1e-9, 0.0), (7.0 + 1e-9, 0.0)])
def test_box4_hyperplane_slice_on_and_beyond_facets(w, want):
    frame = geom.orthonormalize(np.eye(4)[:3])
    assert geom.affine_slice_volume(BOX4, frame, [0.3, 0.4, 2.0, w]) == pytest.approx(
        want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("z,w,want", [(0.0, 0.0, 6.0), (5.0, 7.0, 6.0),
                                      (2.5, 0.0, 6.0), (0.0, 3.5, 6.0),
                                      (-1e-9, 3.5, 0.0), (2.5, 7.0 + 1e-9, 0.0)])
def test_box4_plane_slice_on_faces_and_beyond(z, w, want):
    frame = geom.orthonormalize(np.eye(4)[:2])
    assert geom.affine_slice_volume(BOX4, frame, [0.3, 0.4, z, w]) == pytest.approx(
        want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d,k", [(3, 2), (4, 3), (4, 2)])
def test_slice_through_single_simplex_vertex_is_zero(d, k):
    simplex = geom.Polytope(np.vstack([np.zeros(d), np.eye(d)]))
    frame = geom.orthonormalize(np.eye(d)[:k])
    apex = np.zeros(d)
    apex[-1] = 1.0
    assert geom.affine_slice_volume(simplex, frame, apex) == 0.0
    # the parallel flat through the origin cuts the unit k-simplex
    corner = geom.affine_slice_volume(simplex, frame, np.zeros(d))
    assert corner == pytest.approx(1.0 / np.prod(np.arange(1, k + 1)), rel=1e-12)


def test_full_dimensional_slice_is_the_body():
    frame = geom.orthonormalize(np.eye(3))
    assert geom.affine_slice_volume(BOX3, frame, np.zeros(3)) == pytest.approx(30.0)


def test_face_simplices_cached_per_codimension():
    body = geom.Polytope(np.random.default_rng(7).standard_normal((8, 4)))
    idx1 = body._face_simplices(1)
    idx2 = body._face_simplices(2)
    assert idx1.shape[1] == 2 and idx2.shape[1] == 3
    assert body._face_simplices(1) is idx1
    # every edge of the triangulated boundary, each once
    assert len(np.unique(idx1, axis=0)) == len(idx1)
