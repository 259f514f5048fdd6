"""Inequality checkers: both sides of every packing/covering bound, with slack.

Each checker pre-verifies its hypothesis (packing or covering) once through the
multiplicity sampler (raising NotAPacking / NotACovering with the failing
verdict), evaluates both sides of the inequality, and emits a BoundReport
carrying the sampled evidence.  Translated-slice maxima are brackets
lo <= max <= hi, closed-form where the body and base allow it; each check
takes the end that errs toward failing, and the report names the method.
The remaining grid searches give lower estimates (lo = hi), and reports
record slack rather than claiming tightness.
"""

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from . import cylinders, geom, multiplicity, specfn
from .errors import (
    DimensionMismatch,
    DomainError,
    NotACovering,
    NotAPacking,
    SliceEstimateUnstable,
)

LE = "<="
GE = ">="

EXACT_TOL = 1e-9

SLICE_COARSE = 7             # grid points per axis of a 1- or 2-d slice search
SLICE_LEVELS = 5             # grid refinement levels of a slice search
SLICE_INSTABILITY_BAND = 0.05  # largest relative move of the last refinement
SLICE_MARGIN = 1e-12         # relative rounding margin on closed-form slice maxima
PIECE_MIN = 1e-12            # shortest polynomial piece, relative to the offset range
MVEE_TOL = 1e-5              # enclosing-ellipsoid volume tolerance


def instance_digest(obj) -> str:
    """Stable short digest of a JSON-serializable instance description."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _digest_family(body: geom.ConvexBody, family, extra=None) -> str:
    payload = {
        "body": geom.body_to_json(body),
        "cylinders": [cylinders.cylinder_to_json(c) for c in family],
        "extra": extra,
    }
    return instance_digest(payload)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality: lhs (direction) rhs, with slack and verdict.
    ``evidence``, the sample that verified the hypothesis, stays out of JSON."""

    theorem_id: str
    lhs: float
    rhs: float
    direction: str
    slack: float
    instance_digest: str
    passed: bool
    tolerance: float = EXACT_TOL
    probabilistic: bool = False
    notes: str = ""
    evidence: multiplicity.MultiplicityReport | None = None

    def to_json(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "evidence"}


def make_report(theorem_id: str, lhs: float, rhs: float, direction: str,
                digest: str, tolerance: float = EXACT_TOL,
                probabilistic: bool = False, notes: str = "",
                evidence: multiplicity.MultiplicityReport | None = None,
                ) -> BoundReport:
    slack = rhs - lhs if direction == LE else lhs - rhs
    return BoundReport(
        theorem_id=theorem_id, lhs=float(lhs), rhs=float(rhs),
        direction=direction, slack=float(slack), instance_digest=digest,
        passed=bool(slack >= -tolerance), tolerance=tolerance,
        probabilistic=probabilistic, notes=notes, evidence=evidence)


def _evidence(verdict: multiplicity.VerificationResult, failure: type,
              ) -> multiplicity.MultiplicityReport:
    """The sampled report of a passing hypothesis check; raises ``failure``
    carrying the verdict otherwise."""
    if not verdict.ok:
        raise failure(verdict.reason, verdict)
    return verdict.report


def bound_reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theorem_id", "lhs", "direction", "rhs", "slack",
                     "passed", "instance_digest"])
    for r in reports:
        writer.writerow([r.theorem_id, repr(r.lhs), r.direction, repr(r.rhs),
                         repr(r.slack), r.passed, r.instance_digest])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# covering and packing crv bounds


def check_covering_lower(body: geom.ConvexBody, family, r: int,
                         mode: str = "general", n: int = 10_000,
                         seed: int = 0) -> BoundReport:
    """Covering bound: sum of crv >= r / binom(d, k), or >= r in the
    ellipsoid codimension-1 mode."""
    family = list(family)
    evidence = _evidence(multiplicity.verify_covering(body, family, r, n, seed),
                         NotACovering)
    d = body.dim
    ks = {c.k for c in family}
    if len(ks) != 1:
        raise DimensionMismatch("mixed codimensions in one covering check")
    k = ks.pop()
    if mode == "ellipsoid":
        if k != 1 or isinstance(body, geom.Polytope):
            raise DomainError("ellipsoid mode requires k = 1 and an ellipsoidal body")
        rhs = float(r)
    elif mode == "general":
        rhs = r / math.comb(d, k)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    lhs = cylinders.sum_crv(body, family)
    digest = _digest_family(body, family, {"r": r, "mode": mode})
    return make_report("covering_lower", lhs, rhs, GE, digest,
                       probabilistic=True,
                       notes=f"covering verified on {n} samples",
                       evidence=evidence)


def check_packing_upper_ellipsoid(body: geom.ConvexBody, family, r: int,
                                  n: int = 10_000, seed: int = 0) -> BoundReport:
    """Packing bound for ellipsoids in codimension 1 or 2: sum of crv <= r."""
    family = list(family)
    if isinstance(body, geom.Polytope):
        raise DomainError("this bound needs an ellipsoidal body")
    ks = {c.k for c in family}
    if not ks <= {1, 2}:
        raise DomainError(f"codimension must be 1 or 2, got {sorted(ks)}")
    evidence = _evidence(multiplicity.verify_packing(body, family, r, n, seed),
                         NotAPacking)
    lhs = cylinders.sum_crv(body, family)
    digest = _digest_family(body, family, {"r": r})
    return make_report("packing_upper_ellipsoid", lhs, float(r), LE, digest,
                       probabilistic=True,
                       notes=f"packing verified on {n} samples",
                       evidence=evidence)


def check_packing_scaled(body: geom.ConvexBody, family, r: int,
                         symmetric: bool = False, n: int = 10_000,
                         seed: int = 0) -> BoundReport:
    """Packing bound carried to a general body through its enclosing ellipsoid.

    The family must pack the minimum-volume enclosing ellipsoid of the body;
    the crv sum relative to the body is bounded by r times the ball-distance
    bound (dimension, or sqrt(dimension) for symmetric bodies) to the power
    d - k.
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
        outer = geom.mvee(body.vertices, tol=MVEE_TOL).ellipsoid
        distance_bound = math.sqrt(d) if symmetric else float(d)
    evidence = _evidence(multiplicity.verify_packing(outer, family, r, n, seed),
                         NotAPacking)
    lhs = cylinders.sum_crv(body, family)
    rhs = r * distance_bound ** (d - k)
    digest = _digest_family(body, family, {"r": r, "symmetric": symmetric})
    return make_report("packing_upper_scaled", lhs, rhs, LE, digest,
                       probabilistic=True,
                       notes=f"distance bound {distance_bound:g}",
                       evidence=evidence)


# ---------------------------------------------------------------------------
# translated-slice maxima


@dataclass(frozen=True)
class SliceMax:
    """Bracket lo <= max <= hi of a translated-slice maximum.

    ``lo`` is the exact slice volume at ``offset`` (offsets-frame
    coordinates), so it is achieved; ``hi`` bounds the maximum from above up
    to the relative rounding margin SLICE_MARGIN.  ``method`` names the route:
    "ellipsoid", "difference-body" and "piecewise-polynomial" are closed forms;
    "grid" is the refined grid search, whose value is a lower estimate that
    it reports as both ends.
    """

    lo: float
    hi: float
    offset: tuple
    method: str


def max_translate_slice(body: geom.ConvexBody, slice_frame: geom.Frame,
                        base: cylinders.CylinderBase | None = None,
                        offsets_frame: geom.Frame | None = None) -> SliceMax:
    """max over offsets z of the slice volume body ∩ (N z + span(slice_frame)),
    N the ``offsets_frame`` (by default an orthonormal complement of the
    slice subspace), over the offsets in ``base`` when one is given.

    Closed forms:
    - ellipsoid: a ball or ellipsoid with no base or a disk base.  The
      squared slice radius is 1 - |z - z_c|_P^2 over the shadow ellipsoid
      (centre z_c, shape P), so the central slice is the largest and a disk
      base needs the minimum of the shadow quadratic over the disk
      (:func:`geom.quadratic_on_ball`: primal point for lo, dual bound for hi).
    - difference-body: a polytope with 1-d slices and no base; the maximal
      chord is the radial function of P - P (:func:`geom.longest_chord`).
    - piecewise-polynomial: a polytope with 1-d offsets and no base.
      Between consecutive vertex projections the slice volume is a
      polynomial of degree m (the slice dimension); it is interpolated at
      m + 1 Chebyshev nodes per piece and maximized over the roots of its
      derivative and the piece ends.
    Everything else takes the grid search.
    """
    if offsets_frame is None:
        offsets_frame = geom.complement(slice_frame)
    if not isinstance(body, geom.Polytope):
        if base is None or isinstance(base, cylinders.DiskBase):
            return _ellipsoid_max(body, slice_frame, offsets_frame, base)
    elif base is None and slice_frame.subspace_dim == 1:
        t, q = geom.longest_chord(body, slice_frame.columns[:, 0])
        return _bracket(body, slice_frame, offsets_frame,
                        offsets_frame.coords(q), t, "difference-body")
    elif base is None and offsets_frame.subspace_dim == 1:
        return _piecewise_max(body, slice_frame, offsets_frame)
    return _grid_search(body, slice_frame, offsets_frame, base)


def _bracket(body, slice_frame, offsets_frame, z, upper: float,
             method: str) -> SliceMax:
    """SliceMax with lo the slice at offset z and hi the closed-form upper
    value, widened by the rounding margin (and never below lo)."""
    lo = geom.affine_slice_volume(body, slice_frame, offsets_frame.embed(z))
    hi = max(upper, lo) * (1.0 + SLICE_MARGIN)
    return SliceMax(lo=lo, hi=hi, offset=tuple(map(float, z)), method=method)


def _ellipsoid_max(body, slice_frame, offsets_frame, base) -> SliceMax:
    m = slice_frame.subspace_dim
    s = slice_frame.columns
    shadow = geom.project_body(body, offsets_frame)
    if isinstance(body, geom.Ball):
        central = specfn.unit_ball_volume(m) * body.radius**m
        shape = np.eye(offsets_frame.subspace_dim) / shadow.radius**2
    else:
        det = np.linalg.det(s.T @ body.shape @ s)
        if not det > 0:  # positive in exact arithmetic; rounding can zero it
            raise DomainError("ellipsoid shape form too ill-conditioned to slice")
        central = specfn.unit_ball_volume(m) / math.sqrt(det)
        shape = shadow.shape
    if base is None:
        z, dual = shadow.center, 0.0
    else:
        z, dual = geom.quadratic_on_ball(shape, shadow.center, base.center,
                                         base.radius)
    upper = central * max(1.0 - dual, 0.0) ** (m / 2.0)
    return _bracket(body, slice_frame, offsets_frame, z, upper, "ellipsoid")


def _piecewise_max(body, slice_frame, offsets_frame) -> SliceMax:
    m = slice_frame.subspace_dim
    knots = np.unique(body.vertices @ offsets_frame.columns[:, 0])
    first, last = knots[0], knots[-1]
    nodes = np.cos((2 * np.arange(m + 1) + 1) * math.pi / (2 * (m + 1)))
    best_t, best_v = first, -math.inf
    for a, b in zip(knots[:-1], knots[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        if half <= PIECE_MIN * (last - first):
            continue  # the neighbouring pieces' ends cover it
        vals = [geom.affine_slice_volume(body, slice_frame,
                                         offsets_frame.embed([mid + half * x]))
                for x in nodes]
        coef = chebyshev.chebfit(nodes, vals, m)
        # every real critical point is among the real parts of the roots;
        # extra candidates inside [-1, 1] cannot raise the maximum
        roots = chebyshev.chebroots(chebyshev.chebder(coef)).real
        xs = np.concatenate([[-1.0, 1.0], np.clip(roots, -1.0, 1.0)])
        ys = chebyshev.chebval(xs, coef)
        i = int(np.argmax(ys))
        if ys[i] > best_v:
            best_v = float(ys[i])
            best_t = min(max(mid + half * float(xs[i]), a), b)
    return _bracket(body, slice_frame, offsets_frame, [best_t], best_v,
                    "piecewise-polynomial")


def _grid_search(body, slice_frame, offsets_frame, base) -> SliceMax:
    """Coarse-to-fine grid over the shadow of the body on the offsets frame,
    restricted to ``base`` membership and seeded with informed base points,
    followed by compass moves per level.  Slice volumes are exact per offset;
    the refinement makes the value a lower estimate.  Raises
    SliceEstimateUnstable when the last refinement moves the maximum by more
    than SLICE_INSTABILITY_BAND.
    """
    shadow = geom.project_body(body, offsets_frame)
    lo, hi = geom.bounding_box(shadow)

    def slice_at(z: np.ndarray) -> float:
        if base is not None and not cylinders.base_membership(base, z[None, :])[0]:
            return 0.0
        return geom.affine_slice_volume(body, slice_frame, offsets_frame.embed(z))

    dim = offsets_frame.subspace_dim
    per_axis = SLICE_COARSE if dim <= 2 else 5
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    best_z, best_v = center.copy(), slice_at(center)
    if base is not None:
        for z in _base_offsets(base):
            v = slice_at(z)
            if v > best_v:
                best_v, best_z = v, z.copy()

    def compass(z0, v0, step, budget=60):
        # expanding/shrinking coordinate moves follow diagonal ridges that a
        # fixed axis grid crawls along
        z, v = z0.copy(), v0
        evals = 0
        while evals < budget and step > 1e-9:
            moved = False
            for axis in range(dim):
                for sgn in (1.0, -1.0):
                    cand = z.copy()
                    cand[axis] += sgn * step
                    val = slice_at(cand)
                    evals += 1
                    if val > v:
                        z, v = cand, val
                        moved = True
            step = step * 1.6 if moved else step * 0.5
        return z, v

    level_values = []
    for _ in range(SLICE_LEVELS):
        axes = [np.linspace(c - h, c + h, per_axis)
                for c, h in zip(best_z, half)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        for z in mesh:
            v = slice_at(z)
            if v > best_v:
                best_v, best_z = v, z.copy()
        step = float(np.max(half)) / max(per_axis - 1, 1)
        best_z, best_v = compass(best_z, best_v, step)
        level_values.append(best_v)
        # keep the refined window wider than one coarse cell so a peak next to
        # the best grid point stays inside the next level
        half = half * (3.0 / per_axis)
    if level_values[-1] > 0:
        move = abs(level_values[-1] - level_values[-2]) / level_values[-1]
        if move > SLICE_INSTABILITY_BAND:
            raise SliceEstimateUnstable(
                f"refinement moved the slice maximum by {move:.1%}")
    return SliceMax(lo=best_v, hi=best_v, offset=tuple(map(float, best_z)),
                    method="grid")


def check_packing_general(body: geom.ConvexBody, family, r: int,
                          n: int = 10_000, seed: int = 0) -> BoundReport:
    """General convex-cylinder packing bound via the slice-ratio correction.

    sum of crv <= r * binom(d, k) * max over the family of
        (max translated k-slice of the body) / (max translated k-slice of the
        restricted cylinder).
    Restricted-cylinder slice maxima are body slices over the base.  The
    ratio takes the sound ends of both brackets: the body's achieved ``lo``
    over the restricted cylinder's upper ``hi``.
    """
    family = list(family)
    for cyl in family:
        if isinstance(cyl.base, cylinders.CapBase) and cyl.base.antipodal:
            raise DomainError(
                "antipodal cap bases make the restricted cylinder non-convex; "
                "this bound needs one-sided caps")
    evidence = _evidence(multiplicity.verify_packing(body, family, r, n, seed),
                         NotAPacking)
    d = body.dim
    ks = {c.k for c in family}
    if len(ks) != 1:
        raise DimensionMismatch("mixed codimensions in one packing check")
    k = ks.pop()
    worst_ratio, methods = 0.0, ""
    for cyl in family:
        h_frame = geom.complement(cyl.frame)
        body_max = max_translate_slice(body, h_frame)
        cyl_max = max_translate_slice(body, h_frame, base=cyl.base,
                                      offsets_frame=cyl.frame)
        if cyl_max.hi <= 0:
            raise DomainError("restricted cylinder has numerically empty slices")
        ratio = body_max.lo / cyl_max.hi
        if ratio >= worst_ratio:
            worst_ratio = ratio
            methods = f"body {body_max.method}, restricted {cyl_max.method}"
    lhs = cylinders.sum_crv(body, family)
    rhs = r * math.comb(d, k) * worst_ratio
    digest = _digest_family(body, family, {"r": r})
    return make_report("packing_upper_general", lhs, rhs, LE, digest,
                       probabilistic=True,
                       notes=f"worst slice ratio {worst_ratio:.6g} "
                             f"(slice maxima: {methods})",
                       evidence=evidence)


def _base_offsets(base: cylinders.CylinderBase) -> np.ndarray:
    """Informed slice-offset candidates inside a cylinder base."""
    if isinstance(base, cylinders.CapBase):
        ts = np.linspace(math.cos(base.delta), 1.0, 9)
        pts = ts[:, None] * base.pole
        return np.vstack([pts, -pts]) if base.antipodal else pts
    if isinstance(base, cylinders.DiskBase):
        c, r = base.center, base.radius
        norm = float(np.linalg.norm(c))
        pts = [c]
        if norm > 1e-12:
            pts.append(c * max(0.0, 1.0 - r / norm))  # base point nearest the origin
        else:
            pts.append(np.zeros_like(c))
        return np.asarray(pts)
    verts = base.vertices
    return np.vstack([np.mean(verts, axis=0)[None, :], verts])


# ---------------------------------------------------------------------------
# slice-times-projection bounds


def check_rogers_shephard(body: geom.ConvexBody, frame: geom.Frame,
                          ) -> tuple[BoundReport, BoundReport]:
    """Both directions of the slice-projection volume product bound.

    upper:  maxslice * vol_k(shadow) <= binom(d, k) * vol_d(body)
    lower:  maxslice * vol_k(shadow) >= vol_d(body)   (Fubini)
    where maxslice is the largest (d-k)-volume of a translate of the
    complement subspace intersected with the body, and the shadow lives on the
    k-dimensional frame.  The upper check takes the slice bracket's ``hi``,
    the lower one its achieved ``lo``.
    """
    d = body.dim
    k = frame.subspace_dim
    comp = geom.complement(frame)
    max_slice = max_translate_slice(body, comp)
    shadow_vol = geom.volume(geom.project_body(body, frame))
    vol = geom.volume(body)
    digest = instance_digest({"body": geom.body_to_json(body),
                              "frame": frame.columns.tolist()})
    notes = f"{max_slice.method} max slice at offset {max_slice.offset}"
    upper = make_report("rogers_shephard_upper", max_slice.hi * shadow_vol,
                        math.comb(d, k) * vol, LE, digest, notes=notes)
    lower = make_report("fubini_lower", max_slice.lo * shadow_vol, vol, GE,
                        digest, notes=notes)
    return upper, lower


# ---------------------------------------------------------------------------
# base-volume bound through the surface-area formula constant


def surface_constant(d: int) -> float:
    """d * omega_d / (2 * omega_{d-1}); asymptotically sqrt(pi d / 2)."""
    return d * specfn.unit_ball_volume(d) / (2.0 * specfn.unit_ball_volume(d - 1))


def check_base_volume_bound(body: geom.ConvexBody, family, r: int,
                            n: int = 10_000, seed: int = 0) -> BoundReport:
    """Absolute base-volume packing bound for codimension-1 cylinders.

    sum of base (d-1)-volumes <= surface_constant(d) * r * (largest hyperplane
    shadow of the body).  The largest shadow is exact
    (:func:`geom.max_hyperplane_projection`), and the check runs no self-test
    of the surface-area formula behind the constant.
    """
    family = list(family)
    if any(c.k != 1 for c in family):
        raise DomainError("the base-volume bound is for codimension-1 cylinders")
    evidence = _evidence(multiplicity.verify_packing(body, family, r, n, seed),
                         NotAPacking)
    d = body.dim
    lhs = float(sum(cylinders.base_volume(c.base) for c in family))
    _, max_shadow = geom.max_hyperplane_projection(body)
    rhs = surface_constant(d) * r * max_shadow
    digest = _digest_family(body, family, {"r": r})
    return make_report("plank_base_volume", lhs, rhs, LE, digest,
                       probabilistic=True, notes=f"max shadow {max_shadow:.6g}",
                       evidence=evidence)
