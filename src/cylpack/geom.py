"""Linear-algebraic and convex-body primitives.

Bodies are carried in closed form (balls, ellipsoids) or as vertex lists;
subspaces are orthonormal frames.  All types are immutable values and all
functions are pure, so objects can be shared freely between threads.  Volumes
are exact in every dimension (closed forms, qhull for polytopes); the Monte
Carlo :func:`polytope_volume_mc` is kept only as an oracle.  Random paths take
explicit seeds; bodies round-trip through JSON bit for bit.  Balls and
polytopes also serve as cylinder bases, in base-subspace coordinates (see
``cylinders``).
"""

import importlib
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import specfn
from .errors import (
    DegenerateBody,
    DimensionMismatch,
    DomainError,
    FullDimensional,
    NoConvergence,
    RankDeficient,
    SamplingFailure,
    UnsupportedDimension,
)

ORTHO_TOL = 1e-12   # frame invariant: unit columns, vanishing cross products
PIVOT_TOL = 1e-10   # relative dependence threshold in orthonormalization
FACE_LAMBDA_TOL = 1e-12  # barycentric slack for a flat meeting a face simplex
CHORD_TIE_TOL = 1e-9     # relative spread of difference-body facets tied on one ray
SAMPLE_CHUNK = 1024      # proposal rows per polytope membership test in sample_in_body
SECULAR_ITERS = 200      # bisection cap of quadratic_on_ball; doubles run out first
PARALLEL_TOL = 1e-12     # 1 - |cos| under which facet normals share a line
MIN_ACCEPTANCE = 1e-4    # rejection acceptance rate below which sample_in_body gives up
MVEE_MAX_ITER = 200_000  # iteration cap of the enclosing-ellipsoid ascent

# scipy names served as module attributes, loaded on first access: importing
# scipy.spatial or scipy.optimize costs more than numpy itself
_SCIPY_NAMES = {"ConvexHull": "scipy.spatial", "QhullError": "scipy.spatial",
                "HalfspaceIntersection": "scipy.spatial",
                "linprog": "scipy.optimize"}
# hull calls go through this module's attributes (not bare globals), so they
# reach __getattr__ on first use and a replaced geom.ConvexHull is the one run
_geom = sys.modules[__name__]


def __getattr__(name: str):
    """Load a scipy name of ``_SCIPY_NAMES`` on first access (PEP 562) and
    cache it as a module global."""
    if name not in _SCIPY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_SCIPY_NAMES[name]), name)
    globals()[name] = value
    return value


def _as_points(vectors) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a list of vectors, got shape {arr.shape}")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    if not np.all(np.isfinite(out)):
        raise DomainError("array fields must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Frame:
    """Orthonormal basis of an m-dimensional linear subspace of R^d.

    ``columns`` has shape (d, m); each column is a unit vector and distinct
    columns are orthogonal, both within 1e-12.
    """

    columns: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise DimensionMismatch(f"frame columns must be a (d, m) matrix, got shape {cols.shape}")
        cols = _freeze(cols)
        object.__setattr__(self, "columns", cols)
        d, m = cols.shape
        if not (1 <= m <= d):
            raise DimensionMismatch(f"frame needs 1 <= m <= d, got m={m}, d={d}")
        with np.errstate(over="ignore"):  # past ~1.3e154 a norm is inf and fails
            norms = np.linalg.norm(cols, axis=0)
        if np.max(np.abs(norms - 1.0)) > ORTHO_TOL:
            raise DimensionMismatch("frame columns must be unit vectors")
        gram = cols.T @ cols
        np.fill_diagonal(gram, 0.0)
        if np.max(np.abs(gram)) > ORTHO_TOL:
            raise DimensionMismatch("frame columns must be pairwise orthogonal")

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[0]

    @property
    def subspace_dim(self) -> int:
        return self.columns.shape[1]

    def coords(self, x) -> np.ndarray:
        """Coordinates of the orthogonal projection of x onto the subspace."""
        return np.asarray(x, dtype=float) @ self.columns

    def embed(self, z) -> np.ndarray:
        """Ambient point of subspace coordinates z."""
        return np.asarray(z, dtype=float) @ self.columns.T

    def gram_defect(self) -> float:
        g = self.columns.T @ self.columns
        return float(np.max(np.abs(g - np.eye(self.subspace_dim))))


def orthonormalize(vectors) -> Frame:
    """Gram-Schmidt frame spanning the same subspace as the input vectors.

    The first column stays parallel to the first input vector.  Raises
    RankDeficient when a residual falls below the relative pivot threshold.
    This is the one-list case of ``orthonormalize_stack``.
    """
    return orthonormalize_stack(_as_points(vectors)[None])[0]


def orthonormalize_stack(stack) -> list[Frame]:
    """One Gram-Schmidt frame per vector list of an (N, m, d) stack.

    The N lists run together, one input vector at a time.  Every dot product
    and norm is a row of ``np.vecdot``, which numpy hands to the same BLAS dot
    kernel as the 1-d ``w @ c`` and ``linalg.norm(w)`` of a single list, and
    the updates are elementwise, so each frame is bit-identical to
    orthonormalizing its list alone.  Raises RankDeficient when a residual of
    any list falls below the relative pivot threshold.
    """
    vs = np.ascontiguousarray(stack, dtype=float)
    if vs.ndim != 3:
        raise DimensionMismatch(f"expected a stack of vector lists, got shape {vs.shape}")
    scale = np.sqrt(np.vecdot(vs, vs))
    norm = np.empty_like(scale)
    cols = np.empty_like(vs)
    # a dependent list divides by a vanishing norm here and raises below
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(vs.shape[1]):
            w = vs[:, j].copy()
            # second pass keeps cross products at the 1e-12 invariant
            for _ in range(2):
                for i in range(j):
                    c = cols[:, i]
                    w -= np.vecdot(w, c)[:, None] * c
            norm[:, j] = np.sqrt(np.vecdot(w, w))
            cols[:, j] = w / norm[:, j, None]
    if ((scale == 0.0) | (norm <= PIVOT_TOL * scale)).any():
        raise RankDeficient("input vectors are linearly dependent")
    return [Frame(c) for c in np.ascontiguousarray(cols.transpose(0, 2, 1))]


def float32_dot_margin(d: int) -> float:
    """8x the error bound (d + 2) * 2**-24 of a float32 dot product of two
    float64 unit vectors of R^d: the two conversions plus the sum (Higham
    2002, section 3.1)."""
    return 8.0 * (d + 2) * 2.0 ** -24


def complement(frame: Frame) -> Frame:
    """Orthonormal frame of the orthogonal complement subspace."""
    d, m = frame.columns.shape
    if m >= d:
        raise FullDimensional("a full-dimensional frame has no complement")
    return Frame(_complement_columns(frame.columns))


def _complement_columns(cols: np.ndarray) -> np.ndarray:
    u, _, _ = np.linalg.svd(cols, full_matrices=True)
    return u[:, cols.shape[1]:]


@dataclass(frozen=True, eq=False)
class Ball:
    """Euclidean ball {x : |x - center| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _freeze(np.atleast_1d(np.asarray(self.center, dtype=float)))
        object.__setattr__(self, "center", c)
        if not math.isfinite(self.radius):
            raise DomainError(f"ball radius must be finite, got {self.radius}")
        if not self.radius > 0:
            raise DegenerateBody(f"ball radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Ellipsoid {x : (x-c)^T Q (x-c) <= 1} with symmetric positive-definite Q."""

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        c = _freeze(np.atleast_1d(np.asarray(self.center, dtype=float)))
        q = np.asarray(self.shape, dtype=float)
        with np.errstate(over="ignore"):  # an inf entry fails _freeze: exit 2
            q = _freeze(0.5 * (q + q.T))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "shape", q)
        if q.shape != (c.shape[0], c.shape[0]):
            raise DimensionMismatch("shape form does not match the center dimension")
        eigvals = np.linalg.eigvalsh(q)
        if eigvals[0] <= 0:
            raise DegenerateBody("shape form must be positive definite")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @cached_property
    def shape_inv(self) -> np.ndarray:
        return _freeze(np.linalg.inv(self.shape))

    @cached_property
    def _chol_t(self) -> np.ndarray:
        # x = center + solve(L.T, z) maps the unit ball onto the ellipsoid
        return np.linalg.cholesky(self.shape).T


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex hull of a vertex list; must be full-dimensional."""

    vertices: np.ndarray

    def __post_init__(self):
        vs = _freeze(_as_points(self.vertices))
        object.__setattr__(self, "vertices", vs)
        n, d = vs.shape
        if n < d + 1:
            raise DegenerateBody(f"need at least {d + 1} vertices in R^{d}, got {n}")
        if d == 1:
            if np.ptp(vs[:, 0]) <= 0:
                raise DegenerateBody("1-d polytope has zero length")
        else:
            try:
                hull = _geom.ConvexHull(vs)
            except _geom.QhullError as exc:
                raise DegenerateBody("vertex hull is not full-dimensional") from exc
            if hull.volume <= 0:
                raise DegenerateBody("vertex hull has zero volume")
            object.__setattr__(self, "_hull", hull)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def equations(self) -> np.ndarray:
        """Facet inequalities A x + b <= 0 with unit normals, shape (F, d+1)."""
        if self.dim == 1:
            lo, hi = float(np.min(self.vertices)), float(np.max(self.vertices))
            return _freeze(np.array([[1.0, -hi], [-1.0, lo]]))
        return _freeze(self._hull.equations)

    @cached_property
    def facet_data(self) -> tuple[np.ndarray, np.ndarray]:
        """(outward unit normals, facet (d-1)-volumes) over simplicial facets."""
        if self.dim == 1:
            return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
        hull = self._hull
        normals = hull.equations[:, :-1]
        areas = np.empty(len(hull.simplices))
        pts = self.vertices
        fact = math.factorial(self.dim - 1)
        for i, simplex in enumerate(hull.simplices):
            edges = pts[simplex[1:]] - pts[simplex[0]]
            gram = edges @ edges.T
            areas[i] = math.sqrt(max(np.linalg.det(gram), 0.0)) / fact
        return normals, areas

    @cached_property
    def centroid(self) -> np.ndarray:
        return _freeze(np.mean(self.vertices, axis=0))

    @cached_property
    def _face_simplex_cache(self) -> dict:
        return {}

    def _face_simplices(self, c: int) -> np.ndarray:
        """Vertex indices (M, c+1) of the c-simplices of the triangulated
        boundary, filled on demand per c.  Every c-face of the polytope is a
        union of these simplices."""
        idx = self._face_simplex_cache.get(c)
        if idx is None:
            picks = np.array(list(combinations(range(self.dim), c + 1)))
            facets = np.sort(self._hull.simplices, axis=1)
            idx = np.unique(facets[:, picks].reshape(-1, c + 1), axis=0)
            self._face_simplex_cache[c] = idx
        return idx


ConvexBody = Ball | Ellipsoid | Polytope


@dataclass(frozen=True, eq=False)
class EnclosingEllipsoid:
    """An ellipsoid covering a point set, with the worst containment residual."""

    ellipsoid: Ellipsoid
    containment_tolerance: float


def body_to_json(body: ConvexBody) -> dict:
    if isinstance(body, Ball):
        return {"type": "ball", "center": body.center.tolist(),
                "radius": body.radius}
    if isinstance(body, Ellipsoid):
        return {"type": "ellipsoid", "center": body.center.tolist(),
                "shape": body.shape.tolist()}
    return {"type": "polytope", "vertices": body.vertices.tolist()}


def body_from_json(obj: dict) -> ConvexBody:
    t = obj["type"]
    if t == "ball":
        return Ball(np.asarray(obj["center"], dtype=float), float(obj["radius"]))
    if t == "ellipsoid":
        return Ellipsoid(np.asarray(obj["center"], dtype=float),
                         np.asarray(obj["shape"], dtype=float))
    if t == "polytope":
        return Polytope(np.asarray(obj["vertices"], dtype=float))
    raise DomainError(f"unknown body type {t!r}")


def support(body: ConvexBody, u) -> float:
    """Support function h(u) = sup over the body of <x, u>, for unit u."""
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise DimensionMismatch("support direction must be a unit vector")
    if u.shape[0] != body.dim:
        raise DimensionMismatch("direction dimension does not match the body")
    if isinstance(body, Ball):
        return float(body.center @ u) + body.radius
    if isinstance(body, Ellipsoid):
        return float(body.center @ u) + math.sqrt(float(u @ body.shape_inv @ u))
    return float(np.max(body.vertices @ u))


def contains_points(body: ConvexBody, points, tol: float = 0.0) -> np.ndarray:
    """Vectorized membership test; ``tol`` loosens (or, negative, tightens)."""
    pts = _as_points(points)
    if pts.shape[1] != body.dim:
        raise DimensionMismatch("point dimension does not match the body")
    if isinstance(body, Ball):
        with np.errstate(over="ignore"):  # an inf distance is outside
            return np.linalg.norm(pts - body.center, axis=1) <= body.radius + tol
    if isinstance(body, Ellipsoid):
        diff = pts - body.center
        q = np.einsum("ij,jk,ik->i", diff, body.shape, diff)
        return q <= 1.0 + tol
    eq = body.equations
    vals = pts @ eq[:, :-1].T + eq[:, -1]
    return np.all(vals <= tol, axis=1)


def bounding_box(body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) axis-aligned bounds of the body."""
    d = body.dim
    if isinstance(body, Ball):
        return body.center - body.radius, body.center + body.radius
    if isinstance(body, Ellipsoid):
        half = np.sqrt(np.diag(body.shape_inv))
        return body.center - half, body.center + half
    return np.min(body.vertices, axis=0), np.max(body.vertices, axis=0)


def body_center(body: ConvexBody) -> np.ndarray:
    if isinstance(body, Polytope):
        return body.centroid
    return body.center


def project_body(body: ConvexBody, frame: Frame) -> ConvexBody:
    """Shadow of the body under orthogonal projection, in frame coordinates.

    Balls project to balls, ellipsoids to ellipsoids (the inverse shape form
    restricts as the Gram matrix of Q^-1 on the frame columns), polytopes to
    the hull of the projected vertices.
    """
    if frame.ambient_dim != body.dim:
        raise DimensionMismatch("frame ambient dimension does not match the body")
    if isinstance(body, Ball):
        return Ball(frame.coords(body.center), body.radius)
    if isinstance(body, Ellipsoid):
        gram = frame.columns.T @ body.shape_inv @ frame.columns
        return Ellipsoid(frame.coords(body.center), np.linalg.inv(gram))
    return Polytope(frame.coords(body.vertices))


def transform_body(body: ConvexBody, t: np.ndarray, shift=None) -> ConvexBody:
    """Image of the body under x -> T x + shift for invertible T."""
    t = np.asarray(t, dtype=float)
    d = body.dim
    shift = np.zeros(d) if shift is None else np.asarray(shift, dtype=float)
    if isinstance(body, Polytope):
        return Polytope(body.vertices @ t.T + shift)
    t_inv = np.linalg.inv(t)
    if isinstance(body, Ball):
        q = np.eye(d) / body.radius**2
    else:
        q = body.shape
    new_q = t_inv.T @ q @ t_inv
    return Ellipsoid(t @ body.center + shift, new_q)


def volume(body: ConvexBody) -> float:
    """Exact m-dimensional volume of a body living in R^m.

    Balls and ellipsoids are closed-form; polytope volume is the qhull hull
    triangulation's, in every dimension.
    """
    d = body.dim
    if isinstance(body, Ball):
        with np.errstate(over="ignore"):  # inf, not OverflowError, past ~1e154
            return specfn.unit_ball_volume(d) * float(np.float64(body.radius) ** d)
    if isinstance(body, Ellipsoid):
        with np.errstate(over="ignore"):
            det = float(np.linalg.det(body.shape))
        return specfn.unit_ball_volume(d) / math.sqrt(det)
    if d == 1:
        return float(np.ptp(body.vertices[:, 0]))
    return float(body._hull.volume)


def polytope_volume_mc(body: Polytope, samples: int, seed: int) -> tuple[float, float]:
    """Bounding-box rejection estimate of a polytope volume, with its stderr
    (an independent oracle for :func:`volume`)."""
    lo, hi = bounding_box(body)
    box_vol = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(samples, body.dim))
    hits = contains_points(body, pts)
    p = float(np.mean(hits))
    est = box_vol * p
    stderr = box_vol * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return est, stderr


def sample_in_body(body: ConvexBody, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points sampled uniformly from the body.

    Balls and ellipsoids are sampled directly; polytopes by bounding-box
    rejection.  Each round draws a ``max(4 * (n - filled), 1024)``-row
    proposal block from ``rng`` (so the RNG stream, the points returned and
    the generator state afterwards are those of testing the whole block at
    once), but tests it in ``SAMPLE_CHUNK``-row chunks and stops testing once
    n points are accepted, so the temporary stays ``SAMPLE_CHUNK x F``.
    Raises SamplingFailure when the observed acceptance rate, counted over
    whole proposal blocks, drops below ``MIN_ACCEPTANCE``.
    """
    d = body.dim
    if isinstance(body, Ball):
        return body.center + body.radius * _unit_ball_points(d, n, rng)
    if isinstance(body, Ellipsoid):
        z = _unit_ball_points(d, n, rng)
        return body.center + np.linalg.solve(body._chol_t, z.T).T
    lo, hi = bounding_box(body)
    out = np.empty((n, d))
    filled = 0
    proposed = 0
    while filled < n:
        block = max(4 * (n - filled), 1024)
        pts = rng.uniform(lo, hi, size=(block, d))
        proposed += block
        for start in range(0, block, SAMPLE_CHUNK):
            chunk = pts[start:start + SAMPLE_CHUNK]
            chunk = chunk[contains_points(body, chunk)]
            take = min(len(chunk), n - filled)
            out[filled:filled + take] = chunk[:take]
            filled += take
            if filled == n:
                break
        if proposed >= 50_000 and filled / proposed < MIN_ACCEPTANCE:
            raise SamplingFailure(
                f"rejection acceptance {filled / proposed:.2e} below {MIN_ACCEPTANCE:.0e}")
    return out


def _unit_ball_points(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    radii = rng.random(n) ** (1.0 / d)
    return x * radii[:, None]


def uniform_sphere_points(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform on the unit sphere in R^d."""
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def mvee(points, tol: float = 1e-6) -> EnclosingEllipsoid:
    """Minimum-volume enclosing ellipsoid via multiplicative-weight ascent.

    The returned ellipsoid contains every input point up to the recorded
    containment residual and its volume is within a (1 + tol) factor of the
    optimum.  Raises RankDeficient when the points do not span, NoConvergence
    after ``MVEE_MAX_ITER`` iterations.
    """
    pts = _as_points(points)
    d = pts.shape[1]
    u = _mvee_weights(pts, tol)
    center = pts.T @ u
    cov = pts.T @ (u[:, None] * pts) - np.outer(center, center)
    shape = np.linalg.inv(cov) / d
    ell = Ellipsoid(center, shape)
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


def hyperplane_shadow_volume(body: ConvexBody, u) -> float:
    """(d-1)-volume of the projection of the body onto the hyperplane u-perp.

    Polytopes use the projection-area identity: half the facet-area sum
    weighted by |<u, normal>|.
    """
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    d = body.dim
    if isinstance(body, Ball):
        return specfn.unit_ball_volume(d - 1) * body.radius ** (d - 1)
    if isinstance(body, Ellipsoid):
        det = float(np.linalg.det(body.shape_inv))
        return specfn.unit_ball_volume(d - 1) * math.sqrt(det * float(u @ body.shape @ u))
    normals, areas = body.facet_data
    return 0.5 * float(areas @ np.abs(normals @ u))


def max_hyperplane_projection(body: ConvexBody) -> tuple[np.ndarray, float]:
    """Largest hyperplane shadow: a unit u maximizing
    :func:`hyperplane_shadow_volume`, and that volume at u.

    Exact up to rounding.  A ball's shadow is the same in every direction.
    An ellipsoid's is omega_{d-1} sqrt(det Q^-1 u^T Q u), largest along the
    top eigenvector of Q.  A polytope's, 1/2 sum_F a_F |n_F . u|, is the
    support function of the projection body, the zonotope sum_F [-w_F, w_F]
    with w_F = a_F n_F / 2 (Cauchy's projection formula; Bolker 1969), so
    it is largest along the longest vertex of that zonotope.  The zonotope
    has O(F^(d-1)) vertices, so polytopes are supported for d in 2..4; round
    bodies in every d >= 2.
    """
    d = body.dim
    if d < 2 or (isinstance(body, Polytope) and d > 4):
        raise UnsupportedDimension(
            f"largest hyperplane shadow supports d >= 2, and d <= 4 for "
            f"polytopes, got d={d}")
    if isinstance(body, Ball):
        u = np.eye(d)[0]
    elif isinstance(body, Ellipsoid):
        u = np.linalg.eigh(body.shape)[1][:, -1]
    else:
        verts = _projection_zonotope_vertices(body)
        z = verts[np.argmax(np.einsum("ij,ij->i", verts, verts))]
        u = z / np.linalg.norm(z)
    return u, hyperplane_shadow_volume(body, u)


def _projection_zonotope_vertices(body: Polytope) -> np.ndarray:
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
    from scipy import linalg

    _, order = linalg.qr(gens.T, mode="r", pivoting=True)
    pts = np.zeros((1, d))
    for i, w in enumerate(gens[order]):
        pts = np.concatenate([pts + w, pts - w])
        if i >= d - 1:
            pts = pts[_geom.ConvexHull(pts).vertices]
    return pts


def affine_slice_volume(body: ConvexBody, slice_frame: Frame, point) -> float:
    """Exact k-volume of the slice body ∩ (point + span(slice_frame)).

    Ball and ellipsoid slices are closed-form.  A polytope slice with k = 1
    is the interval cut from the line by the facet inequalities.  For k >= 2
    the slice is built from faces: with c = d - k the codimension of the
    flat, every vertex of the slice is a point where the flat meets a c-face
    of the polytope (a point of the slice interior to a face of higher
    dimension has a segment of that face through it inside the flat, and a
    generic nearby flat meets faces of lower dimension nowhere).  Each c-face
    is a union of c-simplices of the triangulated facets, so the slice is the
    convex hull of the points where the flat crosses those simplices: the
    solutions of [N^T V; 1^T] lam = [N^T point; 1] with lam >= 0, N a frame
    of the complement and V the simplex vertices.  Simplices parallel to the
    flat (singular systems) are skipped: their crossing points are also
    crossings of transversal ones.  A nearly parallel simplex is kept, since a
    backward-stable solve with bounded lam still puts its point in the
    simplex and on the flat up to rounding.  Returns 0 for empty or
    lower-dimensional slices.
    """
    x0 = np.asarray(point, dtype=float)
    s = slice_frame.columns
    k = slice_frame.subspace_dim
    if slice_frame.ambient_dim != body.dim or x0.shape[0] != body.dim:
        raise DimensionMismatch("slice frame or base point does not match the body")
    if isinstance(body, Ball):
        diff = x0 - body.center
        dist2 = float(diff @ diff - np.square(s.T @ diff).sum())
        rho2 = body.radius**2 - dist2
        if rho2 <= 0:
            return 0.0
        return specfn.unit_ball_volume(k) * rho2 ** (k / 2.0)
    if isinstance(body, Ellipsoid):
        diff = x0 - body.center
        qs = s.T @ body.shape @ s
        w = s.T @ body.shape @ diff
        q0 = float(diff @ body.shape @ diff)
        rho2 = 1.0 - q0 + float(w @ np.linalg.solve(qs, w))
        if rho2 <= 0:
            return 0.0
        return specfn.unit_ball_volume(k) * rho2 ** (k / 2.0) / math.sqrt(np.linalg.det(qs))
    if k == 1:
        eq = body.equations
        a = eq[:, :-1] @ s                      # (F, 1)
        b = -(eq[:, -1] + eq[:, :-1] @ x0)      # A_s t <= b
        col = a[:, 0]
        hi = np.min(b[col > 1e-14] / col[col > 1e-14]) if np.any(col > 1e-14) else np.inf
        lo = np.max(b[col < -1e-14] / col[col < -1e-14]) if np.any(col < -1e-14) else -np.inf
        if np.any((np.abs(col) <= 1e-14) & (b < 0)):
            return 0.0
        return float(max(hi - lo, 0.0)) if np.isfinite(hi - lo) else 0.0
    c = body.dim - k
    idx = body._face_simplices(c)
    rel = body.vertices - x0
    across = (rel @ _complement_columns(s))[idx]            # (M, c+1, c)
    system = np.concatenate([across.transpose(0, 2, 1),
                             np.ones((len(idx), 1, c + 1))], axis=1)
    transversal = np.linalg.det(system) != 0.0
    rhs = np.zeros((int(transversal.sum()), c + 1, 1))
    rhs[:, c] = 1.0
    lam = np.linalg.solve(system[transversal], rhs)[:, :, 0]
    hit = np.all(lam >= -FACE_LAMBDA_TOL, axis=1)
    along = (rel @ s)[idx[transversal][hit]]                 # (H, c+1, k)
    t = np.einsum("hi,hik->hk", lam[hit], along)
    if len(t) < k + 1:
        return 0.0
    try:
        return float(_geom.ConvexHull(t).volume)
    except _geom.QhullError:
        return 0.0


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
    hull = _geom.ConvexHull(body.vertices[first] - body.vertices[second])
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


def quadratic_on_ball(shape, center, ball_center, radius: float,
                      maximize: bool = False) -> tuple[np.ndarray, float]:
    """Minimum (or maximum) of q(z) = (z - center)^T shape (z - center) over
    the ball |z - ball_center| <= radius, for positive-definite ``shape``.

    With p the eigenvalues of shape and g the eigen-coordinates of
    center - ball_center, the Lagrangian q + lam (|z - ball_center|^2 -
    radius^2) is stationary at y(lam) = p g / (p + lam) and has the dual value
    phi(lam) = lam (sum p g^2 / (p + lam) - radius^2).  By weak duality
    phi(lam) bounds min q from below for every lam >= 0 and max q from above
    for every lam < -max p (the S-lemma makes both bounds tight).  The secular
    equation |y(lam)| = radius is bisected from the side where y(lam) lies in
    the ball, down to adjacent doubles.  Returns (z, phi(lam)) at the final
    lam: z, the point of eigen-coordinates y(lam) about ball_center, lies in
    the ball, so phi <= min q <= q(z) for a minimum and max q <= phi for a
    maximum.  Centres near 1e154 apart overflow phi to +inf (no slice, no
    containment); where inf * 0 leaves phi or z undefined, the trivial
    bounds stand: phi = 0 for a minimum, +inf for a maximum, z = ball_center.
    """
    p, vecs = np.linalg.eigh(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        g = vecs.T @ (center - ball_center)
        pg = p * g
        gap = math.hypot(*g) / radius
        if maximize:
            # strictly below -max p, so a start with no top-eigenvector
            # component (the hard case) still has finite terms
            inside, outside = -p[-1] * (1.0 + gap) * (1.0 + 1e-12), -p[-1]
        elif gap <= 1.0:
            return center, 0.0
        else:
            inside, outside = p[-1] * gap, 0.0
        for _ in range(SECULAR_ITERS):
            mid = 0.5 * (inside + outside)
            if mid == inside or mid == outside:
                break
            if math.hypot(*(pg / (p + mid))) <= radius:
                inside = mid
            else:
                outside = mid
        y = pg / (p + inside)
        y *= min(1.0, radius / max(math.hypot(*y), np.finfo(float).tiny))
        dual = inside * (float(np.sum(pg * g / (p + inside))) - radius * radius)
        z = ball_center + vecs @ y
    if math.isnan(dual):
        dual = math.inf if maximize else 0.0
    if not np.all(np.isfinite(z)):
        z = ball_center
    return z, dual
