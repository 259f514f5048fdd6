"""The John-ellipsoid route to a packing bound on a general body, which no
``cylpack`` command takes: the CLI sends polytope bodies to
``bounds.check_base_volume_bound`` (k = 1) or ``bounds.check_packing_general``.

- ``mvee``: the minimum-volume enclosing ellipsoid of a point set, by the
  Todd-Yildirim multiplicative-weight ascent (``_mvee_weights``);
- ``check_packing_scaled``: the crv-sum bound carried to a general body
  through its enclosing ellipsoid, scaled by the measured ball-distance
  factor (``_distance_factor``).
"""

from dataclasses import dataclass

import numpy as np

from cylpack import bounds, cylinders, geom, multiplicity
from cylpack.errors import (
    CylpackError,
    DimensionMismatch,
    DomainError,
    NotAPacking,
    RankDeficient,
)

MVEE_TOL = 1e-5              # enclosing-ellipsoid volume tolerance
MVEE_MAX_ITER = 200_000      # iteration cap of the enclosing-ellipsoid ascent


class NoConvergence(CylpackError):
    """The ellipsoid ascent hit its iteration cap before reaching tolerance."""


@dataclass(frozen=True, eq=False)
class EnclosingEllipsoid:
    """An ellipsoid covering a point set, with the worst containment residual."""

    ellipsoid: geom.Ellipsoid
    containment_tolerance: float


def mvee(points, tol: float = 1e-6) -> EnclosingEllipsoid:
    """Minimum-volume enclosing ellipsoid via multiplicative-weight ascent.

    The returned ellipsoid contains every input point up to the recorded
    containment residual and its volume is within a (1 + tol) factor of the
    optimum.  Raises RankDeficient when the points do not span, NoConvergence
    after ``MVEE_MAX_ITER`` iterations.
    """
    pts = geom._as_points(points)
    d = pts.shape[1]
    u = _mvee_weights(pts, tol)
    center = pts.T @ u
    cov = pts.T @ (u[:, None] * pts) - np.outer(center, center)
    shape = np.linalg.inv(cov) / d
    ell = geom.Ellipsoid(center, shape)
    diff = pts - center
    residual = float(np.max(np.einsum("ij,jk,ik->i", diff, shape, diff)) - 1.0)
    return EnclosingEllipsoid(ell, max(residual, 0.0))


def _mvee_weights(pts: np.ndarray, tol: float) -> np.ndarray:
    """Todd-Yildirim weights u of the enclosing-ellipsoid ascent.

    With lifted points q_i = (p_i, 1) and X = sum u_i q_i q_i^T, it stops once
    every q_i^T X^-1 q_i is at most (d+1)(1 + eps) and every one on the
    support of u at least (d+1)(1 - eps), eps = tol / (2(d+1)).
    """
    n, d = pts.shape
    if not (0.0 < tol <= 1e-3):
        raise DimensionMismatch(f"tol must lie in (0, 1e-3], got {tol}")
    if n < d + 1 or np.linalg.matrix_rank(pts - pts[0], tol=1e-10) < d:
        raise RankDeficient("points do not span the ambient space")
    lifted = np.column_stack([pts, np.ones(n)])  # (n, d+1)
    u = np.full(n, 1.0 / n)
    dd = d + 1.0
    eps_stop = tol / (2.0 * dd)
    for _ in range(MVEE_MAX_ITER):
        x = lifted.T @ (u[:, None] * lifted)
        m_vals = np.einsum("ij,jk,ik->i", lifted, np.linalg.inv(x), lifted)
        j_add = int(np.argmax(m_vals))
        eps_add = m_vals[j_add] / dd - 1.0
        on_support = u > 1e-12
        m_sup = np.where(on_support, m_vals, np.inf)
        j_away = int(np.argmin(m_sup))
        eps_away = 1.0 - m_vals[j_away] / dd
        if max(eps_add, eps_away) <= eps_stop:
            break
        # add steps push weight toward the worst outlier; away steps drain
        # weight from interior support points (both first-order optimal moves)
        if eps_add >= eps_away:
            j, m = j_add, m_vals[j_add]
            step = (m - dd) / (dd * (m - 1.0))
        else:
            j, m = j_away, m_vals[j_away]
            step = max((m - dd) / (dd * (m - 1.0)), -u[j] / (1.0 - u[j]))
        u *= 1.0 - step
        u[j] += step
        u = np.maximum(u, 0.0)
    else:
        raise NoConvergence("ellipsoid ascent did not reach tolerance")
    return u


def check_packing_scaled(body: geom.ConvexBody, family, r: int,
                         n: int = 10_000, seed: int = 0) -> bounds.BoundReport:
    """Packing bound carried to a general body through its enclosing ellipsoid.

    The family must pack the minimum-volume enclosing ellipsoid E (centre c)
    of the body; the crv sum relative to the body is bounded by r t^(d - k),
    t the ball-distance factor with c + (E - c) / t inside the body.  John's
    theorem gives t <= d (sqrt(d) for symmetric bodies) for the exact E; the
    check measures t for the E in use (:func:`_distance_factor`).
    """
    family = list(family)
    d = body.dim
    ks = {c.k for c in family}
    if not ks <= {1, 2}:
        raise DomainError(f"codimension must be 1 or 2, got {sorted(ks)}")
    k = max(ks)
    if isinstance(body, (geom.Ball, geom.Ellipsoid)):
        outer: geom.ConvexBody = body
        distance_bound = 1.0
    else:
        outer = mvee(body.vertices, tol=MVEE_TOL).ellipsoid
        distance_bound = _distance_factor(body, outer)
    ev = bounds.evidence(multiplicity.decide(outer, family, r, n, seed),
                         NotAPacking)
    lhs = cylinders.sum_crv(body, family)
    rhs = r * distance_bound ** (d - k)
    digest = bounds._digest_family(body, family, {"r": r})
    return bounds.make_report("packing_upper_scaled", lhs, rhs, bounds.LE, digest,
                              **bounds.hypothesis(ev, "packing",
                                                  f"distance bound {distance_bound:g}"))


def _distance_factor(body: geom.Polytope, ell: geom.Ellipsoid) -> float:
    """Smallest t with c + (E - c) / t inside the polytope, rounded up: the
    largest ratio over the facets a.x <= b of the support sqrt(a^T Q^-1 a)
    of E - c to the facet's distance b - a.c from the centre."""
    normals, offsets = body.equations[:, :-1], body.equations[:, -1]
    support = np.sqrt(np.einsum("ij,ij->i", normals @ np.linalg.inv(ell.shape),
                                normals))
    t = float(np.max(support / (-offsets - normals @ ell.center)))
    return t * (1.0 + bounds.SLICE_MARGIN)
