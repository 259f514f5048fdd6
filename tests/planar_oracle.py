"""Reference kernels that ``cylpack``'s planar closed forms replaced, each
kept verbatim but for its imports:

- ``unit_ball_volume``: pi^(m/2) / Gamma(m/2 + 1) through scipy.special;
- ``longest_chord``: the radial function of the difference body P - P from
  its qhull hull, in every dimension;
- ``projection_zonotope_vertices``: the projection zonotope behind the
  largest hyperplane shadow, its spanning generators put first by scipy's
  pivoted QR.

qhull's own planar hull is ``scipy.spatial.ConvexHull``, which the tests call
directly.
"""

import math

import numpy as np
from scipy import linalg, special
from scipy.spatial import ConvexHull

from cylpack.geom import CHORD_TIE_TOL, PARALLEL_TOL, Polytope


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m; the 0-dimensional ball has volume 1."""
    return math.pi ** (m / 2.0) / special.gamma(m / 2.0 + 1.0)


def longest_chord(body: Polytope, u) -> tuple[float, np.ndarray]:
    """Longest chord of a full-dimensional polytope parallel to the unit
    vector u: its length t and an endpoint q, with q and q + t u both in the
    body.

    The chord lengths along u are the differences p - q in the body that are
    multiples of u, so the longest is the radial function of the difference
    body P - P (Rogers and Shephard, 1957): the least b_F / (a_F . u) over the
    facets a_F . x <= b_F of its qhull hull with a_F . u > 0.  The barycentric
    weights w of t u in the facet simplex with corners v_i - v_j give the
    endpoints q = sum w v_j and q + t u = sum w v_i.  Triangulated coplanar
    facets tie on the ray; the one whose weights are the least negative holds
    the point.
    """
    u = np.asarray(u, dtype=float)
    n = len(body.vertices)
    first, second = np.nonzero(~np.eye(n, dtype=bool))
    hull = ConvexHull(body.vertices[first] - body.vertices[second])
    eq = hull.equations
    rate = eq[:, :-1] @ u
    reach = np.full(len(eq), np.inf)
    ahead = rate > 0.0
    reach[ahead] = -eq[ahead, -1] / rate[ahead]
    t = float(np.min(reach))
    tied = np.flatnonzero(reach <= t * (1.0 + CHORD_TIE_TOL))
    corners = hull.points[hull.simplices[tied]]              # (T, d, d)
    # triangulated merged facets can be flat simplices: skip those (volume
    # below 1e-12 of the Hadamard bound)
    flat = np.abs(np.linalg.det(corners)) <= 1e-12 * np.prod(
        np.linalg.norm(corners, axis=2), axis=1)
    tied, corners = tied[~flat], corners[~flat]
    target = np.broadcast_to(t * u, (len(tied), body.dim))[:, :, None]
    w = np.linalg.solve(corners.transpose(0, 2, 1), target)[:, :, 0]
    best = int(np.argmax(np.min(w, axis=1)))
    w = np.clip(w[best], 0.0, None)
    w /= np.sum(w)
    q = w @ body.vertices[second[hull.simplices[tied[best]]]]
    return t, q


def projection_zonotope_vertices(body: Polytope) -> np.ndarray:
    """Vertices of the zonotope sum_F [-w_F, w_F], w_F = a_F n_F / 2.

    Facet normals on one line through the origin (the triangulated pieces of
    a facet, opposite facets) give one generator, since |n . u| only sees
    the line.  A pivoted QR puts d spanning generators first; after them each
    Minkowski sum with a segment keeps the hull vertices of (P + w) u (P - w).
    """
    normals, areas = body.facet_data
    d = body.dim
    cos = normals @ normals.T
    free = np.ones(len(areas), dtype=bool)
    gens = []
    for i in range(len(areas)):
        if free[i]:
            line = free & (np.abs(cos[i]) >= 1.0 - PARALLEL_TOL)
            free &= ~line
            gens.append(0.5 * (areas[line] * np.sign(cos[i, line])) @ normals[line])
    gens = np.asarray(gens)
    _, order = linalg.qr(gens.T, mode="r", pivoting=True)
    pts = np.zeros((1, d))
    for i, w in enumerate(gens[order]):
        pts = np.concatenate([pts + w, pts - w])
        if i >= d - 1:
            pts = pts[ConvexHull(pts).vertices]
    return pts
