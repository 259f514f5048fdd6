"""Linear-algebraic and convex-body primitives.

Bodies are carried in closed form (balls, ellipsoids) or as vertex lists;
subspaces are orthonormal frames.  All types are immutable values and all
functions are pure but for bodies memoizing their shadows (a race computes
one twice), so objects can be shared freely between threads.  Volumes
are exact in every dimension (closed forms; for polytopes a monotone chain
in the plane and qhull above); the Monte Carlo :func:`polytope_volume_mc`
is kept only as an oracle.  Random paths take
explicit seeds; bodies round-trip through JSON bit for bit.  Balls and
polytopes also serve as cylinder bases, in base-subspace coordinates (see
``cylinders``).
"""

import importlib
import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import specfn
from .errors import (
    DegenerateBody,
    DimensionMismatch,
    DomainError,
    FullDimensional,
    RankDeficient,
    SamplingFailure,
    UnsupportedDimension,
)

ORTHO_TOL = 1e-12   # frame invariant: unit columns, vanishing cross products
PIVOT_TOL = 1e-10   # relative dependence threshold in orthonormalization
FACE_LAMBDA_TOL = 1e-12  # barycentric slack for a flat meeting a face simplex
CHORD_TIE_TOL = 1e-9     # relative spread of difference-body facets tied on one ray
SAMPLE_CHUNK = 1024      # point rows per polytope membership product
SECULAR_ITERS = 200      # bisection cap of quadratic_on_ball; doubles run out first
PARALLEL_TOL = 1e-12     # 1 - |cos| under which facet normals share a line
MIN_ACCEPTANCE = 1e-4    # rejection acceptance rate below which sample_in_body gives up
HULL_FLAT_TOL = 1e-12    # distance to a hull edge, relative to the extent, that is no corner

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
    columns are orthogonal, both within 1e-12 (``_checked_frames``).
    """

    columns: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)[None]
        object.__setattr__(self, "columns", _checked_frames(cols)[0])

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


def orthonormalize(vectors) -> Frame:
    """Gram-Schmidt frame (``_gram_schmidt``) of the vectors' span, its first
    column parallel to the first vector; RankDeficient below the pivot threshold."""
    return Frame(_gram_schmidt(_as_points(vectors)[None])[0])


def _gram_schmidt(stack) -> np.ndarray:
    """(N, d, m) Gram-Schmidt columns of an (N, m, d) stack of vector lists.

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
    return np.ascontiguousarray(cols.transpose(0, 2, 1))


def _checked_frames(stack) -> np.ndarray:
    """Frozen copy of an (N, d, m) stack of column matrices, each checked in
    one pass to be finite (``DomainError``), then 1 <= m <= d with unit,
    pairwise orthogonal columns within ORTHO_TOL (``DimensionMismatch``)."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3:
        raise DimensionMismatch("frame columns must be a (d, m) matrix, "
                                f"got shape {stack.shape[1:]}")
    stack = _freeze(stack)
    _, d, m = stack.shape
    if not (1 <= m <= d):
        raise DimensionMismatch(f"frame needs 1 <= m <= d, got m={m}, d={d}")
    with np.errstate(over="ignore"):  # past ~1.3e154 a norm is inf and fails
        gram = np.matmul(stack.transpose(0, 2, 1), stack)
    diag = gram.reshape(-1, m * m)[:, ::m + 1]  # squared column norms
    if (np.abs(np.sqrt(diag) - 1.0) > ORTHO_TOL).any():
        raise DimensionMismatch("frame columns must be unit vectors")
    diag[:] = 0.0
    if (np.abs(gram) > ORTHO_TOL).any():
        raise DimensionMismatch("frame columns must be pairwise orthogonal")
    return stack


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` from fields that already
    meet its invariant, without running ``__post_init__`` again."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


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


def length_unit(size: float) -> float:
    """1 for a size of at least 0.5, else the power of two taking it into [0.5, 1)."""
    return math.ldexp(1.0, min(math.frexp(size)[1], 0))


class _Body:
    @cached_property
    def unit(self) -> float:
        """``length_unit`` of the body's largest |coordinate|."""
        return length_unit(float(np.max(np.abs(bounding_box(self)))))

    @cached_property
    def _shadow_cache(self) -> dict:
        return {}


@dataclass(frozen=True, eq=False)
class Ball(_Body):
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
class Ellipsoid(_Body):
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
        if self.eigenvalues[0] <= 0:
            raise DegenerateBody("shape form must be positive definite")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the shape form, ascending."""
        vals = np.linalg.eigvalsh(self.shape)
        vals.setflags(write=False)
        return vals

    @cached_property
    def shape_inv(self) -> np.ndarray:
        return _freeze(np.linalg.inv(self.shape))

    @cached_property
    def _chol_t(self) -> np.ndarray:
        # x = center + solve(L.T, z) maps the unit ball onto the ellipsoid
        return np.linalg.cholesky(self.shape).T


@dataclass(frozen=True, eq=False)
class Polytope(_Body):
    """Convex hull of a vertex list; must be full-dimensional.  Its hull is
    :func:`planar_hull`'s in the plane and qhull's from d = 3 on."""

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
            if d == 2:
                hull = planar_hull(vs)
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
        if not np.all(np.isfinite(self._hull.equations)):
            raise DomainError("the vertex hull's facet equations overflow double precision")
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


class PlanarHull(NamedTuple):
    """The hull of a planar point list, with the fields of a qhull hull that
    :class:`Polytope` reads."""

    vertices: np.ndarray   # point indices of the hull vertices, counterclockwise
    simplices: np.ndarray  # (V, 2) edges: each vertex and the next one
    equations: np.ndarray  # (V, 3) rows (n, b) of n . x + b <= 0, n the outward unit normal
    volume: float          # area


def planar_hull(points) -> PlanarHull:
    """Convex hull of planar points by Andrew's monotone chain (1979).

    The turn tests run on the points scaled by the power of two that brings
    their extent into [0.5, 1), exactly, so they neither overflow nor
    underflow.  The chain pops on turns of at most 0.0 as computed, and then
    a vertex within HULL_FLAT_TOL of the extent from the line through its
    hull neighbours (a duplicate, a point on an edge, in any sort order) is
    dropped, one at a time.  Edge normals come from the scaled edges too
    (the same bits), and the area is the shoelace sum of the scaled vertices
    about the first one, scaled back.  Raises DegenerateBody when fewer than
    three vertices remain and DomainError when the area overflows or
    underflows.
    """
    pts = _as_points(points)
    xs, ys = pts.T.tolist()
    ext = max(max(xs) - min(xs), max(ys) - min(ys))
    if not 0.0 < ext < math.inf:
        raise DegenerateBody("vertex hull is not full-dimensional")
    exp = math.frexp(ext)[1]
    sx, sy = np.ldexp(pts, -exp).T.tolist()
    tol = HULL_FLAT_TOL * math.ldexp(ext, -exp)

    def turn(o, a, b) -> float:
        """Cross product of a - o and b - o."""
        return (sx[a] - sx[o]) * (sy[b] - sy[o]) - (sy[a] - sy[o]) * (sx[b] - sx[o])

    def chain(order):
        out = []
        for i in order:
            while len(out) > 1 and turn(out[-2], out[-1], i) <= 0.0:
                out.pop()
            out.append(i)
        return out[:-1]

    order = np.lexsort(pts.T[::-1]).tolist()
    idx = chain(order) + chain(order[::-1])
    # one at a time, drop a vertex within tol of the line through its
    # neighbours, until every vertex turns by more than that
    i = kept = 0
    while len(idx) > 2 and kept < len(idx):
        i %= len(idx)
        o, p = idx[i - 1], idx[(i + 1) % len(idx)]
        if turn(o, idx[i], p) > tol * math.hypot(sx[p] - sx[o], sy[p] - sy[o]):
            kept, i = kept + 1, i + 1
        else:
            del idx[i]
            kept, i = 0, i - 1
    if len(idx) < 3:
        raise DegenerateBody("vertex hull is not full-dimensional")
    edges = list(zip(idx, idx[1:] + idx[:1]))
    rows, area = [], 0.0
    for a, b in edges:
        dx, dy = sx[b] - sx[a], sy[b] - sy[a]
        length = math.hypot(dx, dy)
        nx, ny = dy / length, -dx / length
        rows.append((nx, ny, -(nx * xs[a] + ny * ys[a])))
        area += turn(idx[0], a, b)
    try:
        volume = math.ldexp(0.5 * area, 2 * exp)
    except OverflowError:
        raise DomainError("the vertex hull's area overflows double precision") from None
    if volume == 0.0 and area > 0.0:
        raise DomainError("the vertex hull's area underflows double precision")
    return PlanarHull(np.array(idx), np.array(edges), np.array(rows), volume)


def body_to_json(body: ConvexBody) -> dict:
    if isinstance(body, Ball):
        return {"type": "ball", "center": body.center.tolist(),
                "radius": body.radius}
    if isinstance(body, Ellipsoid):
        return {"type": "ellipsoid", "center": body.center.tolist(),
                "shape": body.shape.tolist()}
    return {"type": "polytope", "vertices": body.vertices.tolist()}


def json_numbers(value, field: str) -> np.ndarray:
    """An instance file's number or array of numbers as float64.  numpy's
    inferred dtype must be integer or float, so a string, boolean or null,
    which a float conversion would accept, raises DomainError; a boolean
    among numbers is coerced by numpy and passes."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{field} takes JSON numbers, got {value!r:.60}")
    return arr.astype(float, copy=False)


def json_number(value, field: str) -> float:
    """An instance file's number, checked by :func:`json_numbers`."""
    arr = json_numbers(value, field)
    if arr.ndim:
        raise DomainError(f"{field} takes one JSON number, got {value!r:.60}")
    return float(arr)


def body_from_json(obj: dict) -> ConvexBody:
    t = obj["type"]
    if t == "ball":
        return Ball(json_numbers(obj["center"], "body center"),
                    json_number(obj["radius"], "body radius"))
    if t == "ellipsoid":
        return Ellipsoid(json_numbers(obj["center"], "body center"),
                         json_numbers(obj["shape"], "body shape"))
    if t == "polytope":
        return Polytope(json_numbers(obj["vertices"], "body vertices"))
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
    """Vectorized membership test; ``tol`` loosens (or, negative, tightens).

    Polytopes test ``SAMPLE_CHUNK`` points per facet product, so memory
    stays flat in the number of points."""
    pts = _as_points(points)
    if pts.shape[1] != body.dim:
        raise DimensionMismatch("point dimension does not match the body")
    if isinstance(body, Ball):
        s = _radius_unit(body.radius)
        with np.errstate(over="ignore"):  # an inf distance is outside
            return np.linalg.norm((pts - body.center) / s, axis=1) <= (body.radius + tol) / s
    if isinstance(body, Ellipsoid):
        diff = pts - body.center
        q = np.einsum("ij,jk,ik->i", diff, body.shape, diff)
        return q <= 1.0 + tol
    normals, offsets = body.equations[:, :-1].T, body.equations[:, -1]
    inside = np.empty(len(pts), dtype=bool)
    for start in range(0, len(pts), SAMPLE_CHUNK):
        vals = pts[start:start + SAMPLE_CHUNK] @ normals + offsets
        np.all(vals <= tol, axis=1, out=inside[start:start + SAMPLE_CHUNK])
    return inside


def _radius_unit(radius: float) -> float:
    """The power of two at a radius (2**1023 at most).  Lengths divided by it
    compare as before, exactly, but a squared distance to the ball's centre
    overflows only ~1e154 radii out and underflows only ~1e-154 radii in."""
    return math.ldexp(1.0, min(math.frexp(radius)[1], 1023))


def bounding_box(body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) axis-aligned bounds of the body."""
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
    """Shadow of the body under orthogonal projection, in frame coordinates,
    projected once per body and bit-equal frame columns.

    Balls project to balls, ellipsoids to ellipsoids (the inverse shape form
    restricts as the Gram matrix of Q^-1 on the frame columns), polytopes to
    the hull of the projected vertices."""
    if frame.ambient_dim != body.dim:
        raise DimensionMismatch("frame ambient dimension does not match the body")
    cache, key = body._shadow_cache, frame.columns.tobytes()
    if key not in cache:
        cache[key] = _project(body, frame)
    return cache[key]


def _project(body: ConvexBody, frame: Frame) -> ConvexBody:
    if isinstance(body, Ball):
        return Ball(frame.coords(body.center), body.radius)
    if isinstance(body, Ellipsoid):
        gram = frame.columns.T @ body.shape_inv @ frame.columns
        return Ellipsoid(frame.coords(body.center), np.linalg.inv(gram))
    return Polytope(frame.coords(body.vertices))


def volume(body: ConvexBody) -> float:
    """Exact m-dimensional volume of a body living in R^m.

    Balls and ellipsoids are closed-form; a polygon's area is its
    :func:`planar_hull`'s shoelace sum, a larger polytope's volume the qhull
    hull triangulation's.
    """
    d = body.dim
    if isinstance(body, Ball):
        return _ball_volume(d, body.radius, d)
    if isinstance(body, Ellipsoid):
        with np.errstate(over="ignore"):
            det = float(np.linalg.det(body.shape))
        return specfn.unit_ball_volume(d) / math.sqrt(det) if det > 0.0 else math.inf
    if d == 1:
        return float(np.ptp(body.vertices[:, 0]))
    return float(body._hull.volume)


def _ball_volume(m: int, base: float, power: float) -> float:
    """omega_m base**power, a ball's m-volume: inf, not OverflowError or
    nan, where the power overflows, though omega_m underflows from m = 453."""
    with np.errstate(over="ignore"):
        value = float(np.float64(base) ** power)
    return math.inf if value == math.inf else specfn.unit_ball_volume(m) * value


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
    x = uniform_sphere_points(d, n, rng)
    radii = rng.random(n) ** (1.0 / d)
    return x * radii[:, None]


def uniform_sphere_points(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform on the unit sphere in R^d."""
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def hyperplane_shadow_volume(body: ConvexBody, u) -> float:
    """(d-1)-volume of the projection of the body onto the hyperplane u-perp.

    Polytopes use the projection-area identity: half the facet-area sum
    weighted by |<u, normal>|.
    """
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    d = body.dim
    if isinstance(body, Ball):
        return _ball_volume(d - 1, body.radius, d - 1)
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
    it is largest along the longest vertex of that zonotope.  In the plane
    that zonotope is the difference body turned by a right angle, so the
    largest shadow is the polygon's diameter, the longest gap between two
    hull vertices, and u is normal to that gap.  The zonotope has
    O(F^(d-1)) vertices, so polytopes are supported for d in 2..4; round
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
    elif d == 2:
        corners = body.vertices[body._hull.vertices]
        gaps = (corners[:, None] - corners[None]).reshape(-1, 2)
        z = gaps[np.argmax(np.einsum("ij,ij->i", gaps, gaps))]
        u = np.array([-z[1], z[0]]) / np.linalg.norm(z)
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
    solutions of [N^T (V - o); 1^T] lam = [N^T (point - o); 1] with lam >= 0,
    N a frame of the complement, V the simplex vertices and o the centroid.
    These systems depend on the frame alone, and :func:`slice_kernel` builds
    them once.  Simplices parallel to the flat (singular systems) are
    skipped: their crossing points are also crossings of transversal ones.
    A nearly parallel simplex is kept, since a backward-stable solve with
    bounded lam still puts its point in the simplex and on the flat up to
    rounding.  A 2-d slice's area is :func:`_polygon_area`'s, a larger
    slice's volume qhull's.  Returns 0 for empty or lower-dimensional slices.
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
        return _ball_volume(k, rho2, k / 2.0)
    if isinstance(body, Polytope) and k == 1:
        eq = body.equations
        a = eq[:, :-1] @ s                      # (F, 1)
        b = -(eq[:, -1] + eq[:, :-1] @ x0)      # A_s t <= b
        col = a[:, 0]
        hi = np.min(b[col > 1e-14] / col[col > 1e-14]) if np.any(col > 1e-14) else np.inf
        lo = np.max(b[col < -1e-14] / col[col < -1e-14]) if np.any(col < -1e-14) else -np.inf
        if np.any((np.abs(col) <= 1e-14) & (b < 0)):
            return 0.0
        return float(max(hi - lo, 0.0)) if np.isfinite(hi - lo) else 0.0
    return slice_kernel(body, slice_frame)(x0)


def slice_kernel(body: ConvexBody, slice_frame: Frame):
    """point -> :func:`affine_slice_volume` (body, slice_frame, point), with
    an ellipsoid's restricted form, and a polytope's face systems for k >= 2,
    built and filtered once, so that a point costs one batched solve.  An
    ellipsoid's restricted form whose determinant is not positive and finite
    in double precision raises DomainError."""
    k = slice_frame.subspace_dim
    if isinstance(body, Ball) or isinstance(body, Polytope) and k == 1 \
            or slice_frame.ambient_dim != body.dim:
        return partial(affine_slice_volume, body, slice_frame)
    s, c = slice_frame.columns, body.dim - k
    if isinstance(body, Ellipsoid):
        return _ellipsoid_slices(body, s)
    idx = body._face_simplices(c)
    origin, normal = body.centroid, _complement_columns(s)
    rel = body.vertices - origin
    across = (rel @ normal)[idx]                            # (M, c+1, c)
    system = np.concatenate([across.transpose(0, 2, 1),
                             np.ones((len(idx), 1, c + 1))], axis=1)
    transversal = np.linalg.det(system) != 0.0
    system, along = system[transversal], (rel @ s)[idx[transversal]]  # (T, c+1, k)
    scale = float(np.max(np.abs(along), initial=0.0))

    def volume(point) -> float:
        rhs = np.concatenate([(np.asarray(point, dtype=float) - origin) @ normal, [1.0]])
        lam = np.linalg.solve(system, rhs)
        hit = (lam >= -FACE_LAMBDA_TOL).all(axis=1)
        t = np.einsum("hi,hik->hk", lam[hit], along[hit])
        if len(t) < k + 1:
            return 0.0
        if k == 2:
            return _polygon_area(t, scale)
        try:
            return float(_geom.ConvexHull(t).volume)
        except _geom.QhullError:
            return 0.0

    return volume


def _ellipsoid_slices(body: Ellipsoid, s: np.ndarray):
    """point -> the k-volume of the ellipsoid's slice through it along the
    columns s: omega_k rho^k / sqrt(det Q_s), Q_s = s^T Q s its form on the
    slice and rho^2 = 1 - q(point) + w^T Q_s^-1 w, w = s^T Q (point - c)."""
    k, sq = s.shape[1], s.T @ body.shape
    qs = sq @ s
    with np.errstate(over="ignore"):  # an overflow to inf fails below, like a 0
        det = np.linalg.det(qs)
    if not 0 < det < math.inf:  # positive and finite in exact arithmetic
        raise DomainError("ellipsoid shape form too ill-conditioned to slice")
    root = math.sqrt(det)

    def volume(point) -> float:
        diff = np.asarray(point, dtype=float) - body.center
        w = sq @ diff
        rho2 = 1.0 - float(diff @ body.shape @ diff) + float(w @ np.linalg.solve(qs, w))
        if rho2 <= 0:
            return 0.0
        return specfn.unit_ball_volume(k) * rho2 ** (k / 2.0) / root

    return volume


def _polygon_area(t: np.ndarray, scale: float) -> float:
    """Area of the convex hull of the planar points t; 0.0 when it is within
    FACE_LAMBDA_TOL * scale of a point or a segment, which qhull rejects.
    Sorted by angle about their mean, the points make a star-shaped polygon.
    Points within that slack of their predecessor go (their turns are
    rounding noise); a reflex corner lies in the triangle of the mean and its
    neighbours, so dropping reflex corners until none is left keeps the hull.
    """
    tol = FACE_LAMBDA_TOL * scale
    p = t - t.sum(axis=0) / len(t)
    p = p[np.arctan2(p[:, 1], p[:, 0]).argsort(kind="stable")]
    p = p[np.abs(p - p[np.arange(-1, len(p) - 1)]).max(axis=1) > tol]
    while True:
        ring = np.concatenate([p[-1:], p, p[:1]])
        edge = ring[1:] - ring[:-1]         # edges into and out of each corner
        turn = edge[:-1, 0] * edge[1:, 1] - edge[:-1, 1] * edge[1:, 0]
        if len(p) < 3 or not (turn < 0.0).any():
            break
        p = p[turn >= 0.0]
    x, y = ring[1:-1].T
    area = 0.5 * float((x * ring[2:, 1] - ring[2:, 0] * y).sum())
    if len(p) < 3 or not area > tol * float(np.abs(p).max()):
        return 0.0
    return area


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
    the point.  A polygon takes :func:`_planar_chord` instead.
    """
    u = np.asarray(u, dtype=float)
    if body.dim == 2:
        return _planar_chord(body, u)
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


def _planar_chord(body: Polytope, u: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`longest_chord` of a polygon, through a hull vertex.

    Along the offset s = <x, w>, w normal to u, the chord parallel to u is
    the upper minus the lower boundary height <x, u>, concave and piecewise
    linear with its kinks at vertex offsets, so a longest chord passes
    through a vertex.  Each edge not parallel to u gives the height at every
    vertex offset it spans, as the convex combination of its end heights
    (exact at the ends); a chord is the spread of the heights at its offset.
    """
    ends = body.vertices[body._hull.simplices]               # (edge, end, xy)
    s, h = np.moveaxis(ends @ np.array([[-u[1], u[0]], u]).T, -1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # edges parallel to u span nothing
        lam = (s[:, :1] - s[:, 0]) / (s[:, 1] - s[:, 0])  # (vertex, edge)
        heights = (1.0 - lam) * h[:, 0] + lam * h[:, 1]
    spans = (lam >= 0.0) & (lam <= 1.0)
    top = np.where(spans, heights, -np.inf).max(axis=1)
    low = np.where(spans, heights, np.inf)
    bottom = low.min(axis=1)
    i = int(np.argmax(top - bottom))
    e = int(np.argmin(low[i]))
    q = (1.0 - lam[i, e]) * ends[e, 0] + lam[i, e] * ends[e, 1]
    return float(top[i] - bottom[i]), q


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
        top = float(p[-1])
        if maximize:
            # strictly below -max p, so a start with no top-eigenvector
            # component (the hard case) still has finite terms
            inside, outside = -top * (1.0 + gap) * (1.0 + 1e-12), -top
        elif gap <= 1.0:
            return center, 0.0
        else:
            inside, outside = top * gap, 0.0
        # the bisection runs on Python floats, each step the IEEE operations
        # of pg / (p + mid), where p + mid != 0 (p > 0 < mid, or mid < -max p)
        terms = list(zip(pg.tolist(), p.tolist()))
        for _ in range(SECULAR_ITERS):
            mid = 0.5 * (inside + outside)
            if mid == inside or mid == outside:
                break
            if math.hypot(*[a / (b + mid) for a, b in terms]) <= radius:
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
