import math
from itertools import product

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from cylpack import cli, cylinders, geom

# arguments of one small instance file per `cylpack construct` kind
CONSTRUCT_KINDS = {
    "plank": ["--kind", "plank-partition", "--dim", "2", "--n", "5", "--r", "2"],
    "pack3": ["--kind", "packing", "--dim", "3", "--k", "1", "--r", "2"],
    "pack4": ["--kind", "packing", "--dim", "4", "--k", "2"],
    "pack5": ["--kind", "packing", "--dim", "5", "--k", "3"],
    "cover": ["--kind", "covering", "--dim", "3", "--k", "2"],
    "strips": ["--kind", "polygon-strips", "--n", "3", "--r", "2"],
    "cap": ["--kind", "cap", "--dim", "4", "--k", "1", "--delta", "0.3"],
    "ns": ["--kind", "ns-family", "--n", "4", "--r", "2"],
}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def construct_all(directory, seed: int) -> dict:
    """{kind: path} of one constructed instance file per kind in ``directory``."""
    paths = {}
    for name, args in CONSTRUCT_KINDS.items():
        path = directory / f"{name}.json"
        assert cli.main(["construct", *args, "--seed", str(seed),
                         "--out", str(path)]) == 0
        paths[name] = path
    return paths


POLYTOPE_EXTRA_VERTICES = 4  # a random polytope in R^d hulls d + 4 points


def random_polytope(d: int, rng: np.random.Generator) -> geom.Polytope:
    """Hull of d + POLYTOPE_EXTRA_VERTICES Gaussian points in R^d."""
    return geom.Polytope(rng.standard_normal((d + POLYTOPE_EXTRA_VERTICES, d)))


def box_bases(family) -> list[cylinders.Cylinder]:
    """The family with each disk base (centre c, radius h) of base dimension m
    swapped for the box c + (h / sqrt(m)) {-1, 1}^m inscribed in it, vertices
    in lexicographic sign order."""
    boxes = []
    for cyl in family:
        m = cyl.base.dim
        corners = np.array(list(product((-1.0, 1.0), repeat=m)))
        side = cyl.base.radius / math.sqrt(m)
        boxes.append(cylinders.Cylinder(cyl.frame,
                                        geom.Polytope(cyl.base.center + side * corners)))
    return boxes


def random_frame(d: int, m: int, rng: np.random.Generator) -> geom.Frame:
    return geom.orthonormalize(rng.standard_normal((m, d)))


def transform_body(body: geom.ConvexBody, t: np.ndarray) -> geom.ConvexBody:
    """Image of the body under x -> T x for invertible T."""
    t = np.asarray(t, dtype=float)
    if isinstance(body, geom.Polytope):
        return geom.Polytope(body.vertices @ t.T)
    t_inv = np.linalg.inv(t)
    if isinstance(body, geom.Ball):
        q = np.eye(body.dim) / body.radius**2
    else:
        q = body.shape
    return geom.Ellipsoid(t @ body.center, t_inv.T @ q @ t_inv)


def random_spd(d: int, rng: np.random.Generator,
               axis_range=(0.5, 2.0)) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    axes = rng.uniform(*axis_range, size=d)
    return q @ np.diag(1.0 / axes**2) @ q.T


def inscribed_hull(family, arc_points: int = 256) -> geom.Polytope:
    """Polygon spanned by ``arc_points`` equally spaced points on every disk
    circle and the disk centers; it lies inside the hull of the disks."""
    theta = np.linspace(0.0, 2.0 * math.pi, arc_points, endpoint=False)
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    pts = np.vstack([c + r * ring for c, r in zip(family.centers, family.radii)
                     if r > 0] + [family.centers])
    return geom.Polytope(pts[ConvexHull(pts).vertices])
