"""Inequality checkers: both sides of every packing/covering bound, with slack.

Each checker pre-verifies its hypothesis (packing or covering) once through the
multiplicity sampler (raising NotAPacking / NotACovering with the failing
verdict), evaluates both sides of the inequality, and emits a BoundReport
carrying the sampled evidence.  Translated-slice maxima are brackets
lo <= max <= hi, closed-form where the body and base allow it and a
certified concave search elsewhere; each check takes the end that errs
toward failing, and the report names the method.
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
from .errors import DimensionMismatch, DomainError, NotACovering, NotAPacking

LE = "<="
GE = ">="

EXACT_TOL = 1e-9

SLICE_GAP = 1e-6             # relative gap hi - lo at which a concave search stops
SLICE_MARGIN = 1e-12         # relative rounding margin on the upper end of slice maxima
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
    "concave-search" certifies hi from its probes and stops at
    hi - lo <= SLICE_GAP * hi.
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
    - ellipsoid: a ball or ellipsoid with no base, a disk base or a
      one-sided cap base.  The squared slice radius is 1 - |z - z_c|_P^2 over
      the shadow ellipsoid (centre z_c, shape P), so the central slice is the
      largest and a base needs the minimum of the shadow quadratic over it
      (:func:`geom.quadratic_on_ball`: primal point for lo, dual bound for
      hi; a cap is a ball cut by a halfspace, see :func:`_quadratic_on_cap`).
    - difference-body: a polytope with 1-d slices and no base; the maximal
      chord is the radial function of P - P (:func:`geom.longest_chord`).
    - piecewise-polynomial: a polytope with 1-d offsets and no base.
      Between consecutive vertex projections the slice volume is a
      polynomial of degree m (the slice dimension); it is interpolated at
      m + 1 Chebyshev nodes per piece and maximized over the roots of its
      derivative and the piece ends.
    Everything else takes the concave search (:func:`_concave_search`).
    Antipodal cap bases raise DomainError: their restricted bodies are not
    convex, so no route applies.
    """
    if offsets_frame is None:
        offsets_frame = geom.complement(slice_frame)
    if isinstance(base, cylinders.CapBase) and base.antipodal:
        raise DomainError("antipodal cap bases make the restricted body "
                          "non-convex; slice maxima need one-sided caps")
    if not isinstance(body, geom.Polytope):
        if not isinstance(base, cylinders.PolytopeBase):
            return _ellipsoid_max(body, slice_frame, offsets_frame, base)
    elif base is None and slice_frame.subspace_dim == 1:
        t, q = geom.longest_chord(body, slice_frame.columns[:, 0])
        return _bracket(body, slice_frame, offsets_frame,
                        offsets_frame.coords(q), t, "difference-body")
    elif base is None and offsets_frame.subspace_dim == 1:
        return _piecewise_max(body, slice_frame, offsets_frame)
    return _concave_search(body, slice_frame, offsets_frame, base)


def _bracket(body, slice_frame, offsets_frame, z, upper: float,
             method: str) -> SliceMax:
    """SliceMax with lo the slice at offset z and hi the upper value,
    widened by the rounding margin (and never below lo)."""
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
    elif isinstance(base, cylinders.DiskBase):
        z, dual = geom.quadratic_on_ball(shape, shadow.center, base.center,
                                         base.radius)
    else:
        z, dual = _quadratic_on_cap(shape, shadow.center, base)
    upper = central * max(1.0 - dual, 0.0) ** (m / 2.0)
    return _bracket(body, slice_frame, offsets_frame, z, upper, "ellipsoid")


def _quadratic_on_cap(shape, center, cap) -> tuple[np.ndarray, float]:
    """(z, dual) for the minimum of (z - center)^T shape (z - center) over
    the one-sided cap |z| <= 1, pole . z >= cos(delta), as
    :func:`geom.quadratic_on_ball` gives them over a ball.

    A 1-d cap is the segment [cos(delta), 1] pole, a ball itself.  Otherwise
    the unit ball's minimizer answers when it lies in the halfspace; when it
    does not, the convex minimum sits on the hyperplane, over the ball of
    radius sin(delta) that the hyperplane cuts from the unit ball.  There the
    quadratic is its hyperplane minimum (at y_c) plus a quadratic in the
    hyperplane coordinates y.
    """
    h, pole, n = math.cos(cap.delta), cap.pole, cap.dim
    if n == 1:
        return geom.quadratic_on_ball(shape, center, 0.5 * (1.0 + h) * pole,
                                      0.5 * (1.0 - h))
    z, dual = geom.quadratic_on_ball(shape, center, np.zeros(n), 1.0)
    if z @ pole >= h:
        return z, dual
    basis = geom.complement(geom.Frame(pole[:, None])).columns
    reduced = basis.T @ shape @ basis
    y_c = np.linalg.solve(reduced, basis.T @ shape @ (center - h * pole))
    gap = h * pole + basis @ y_c - center
    y, dual = geom.quadratic_on_ball(reduced, y_c, np.zeros(n - 1),
                                     math.sin(cap.delta))
    return h * pole + basis @ y, float(gap @ shape @ gap) + dual


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


def _concave_search(body, slice_frame, offsets_frame, base) -> SliceMax:
    """Nested golden-section search over the offsets in D = shadow ∩ base.

    f = V^(1/m) is concave on D (Brunn), and so is its maximum over each
    section of D at fixed leading offset coordinates.  Each coordinate gets
    a level of :func:`_golden_search`, whose probes are searches of the next
    level at a sixteenth of its tolerance; a relative gap of SLICE_GAP / 2m
    on f keeps the gap of V within SLICE_GAP.  Level j runs over the chord
    at the fixed coordinates of the shadow's and the base's projections onto
    the first j + 1 coordinates, which is the exact range of D's sections
    when the base lies in the shadow.  The coordinates are rotated to put a
    cap's pole first, so that the cap is the unit ball cut by y_0 >= cos(delta)
    and projects exactly too.
    """
    m, n = slice_frame.subspace_dim, offsets_frame.subspace_dim
    rot = np.eye(n)
    if isinstance(base, cylinders.CapBase):
        rot = np.linalg.qr(np.column_stack([base.pole, np.eye(n)]))[0]
    quads, polys, cut = [], [], None  # regions in the rotated coordinates y
    for region in [geom.project_body(body, offsets_frame), base]:
        if isinstance(region, (geom.Ball, cylinders.DiskBase)):
            quads.append((np.eye(n) / (region.radius * region.radius),
                          region.center @ rot))
        elif isinstance(region, geom.Ellipsoid):
            quads.append((rot.T @ region.shape @ rot, region.center @ rot))
        elif isinstance(region, (geom.Polytope, cylinders.PolytopeBase)):
            polys.append(region.vertices @ rot)
        elif isinstance(region, cylinders.CapBase):
            quads.append((np.eye(n), np.zeros(n)))
            cut = np.append(-rot.T @ region.pole, math.cos(region.delta))
    levels = []  # (quadratics, halfspace rows) of the projections per level
    for j in range(1, n + 1):
        rows = [np.zeros((0, j + 1))]
        rows += [geom.Polytope(v[:, :j]).equations for v in polys]
        if cut is not None:
            rows.append([np.append(cut[:j], cut[-1])])
        levels.append(([(np.linalg.inv(np.linalg.inv(q)[:j, :j]), c[:j])
                        for q, c in quads], np.vstack(rows)))

    def level(prefix, tol):
        def probe(x):
            y = np.append(prefix, x)
            if len(y) < n:
                return level(y, tol / 16.0)
            f = geom.affine_slice_volume(body, slice_frame,
                                         offsets_frame.embed(rot @ y)) ** (1.0 / m)
            return f, f, y
        ends = _chord(prefix, *levels[len(prefix)])
        if ends is None:
            return -math.inf, math.inf, None
        return _golden_search(probe, *ends, tol)

    _, hi, y = level(np.zeros(0), SLICE_GAP / (2.0 * m))
    if y is None:
        raise DomainError("no searched offset of the base meets the body's shadow")
    return _bracket(body, slice_frame, offsets_frame, rot @ y, hi ** m,
                    "concave-search")


def _chord(prefix, quads, planes) -> tuple[float, float] | None:
    """Ends of {t : (prefix, t) in D}, or None, for D given by quadratics
    (Q, c): (z - c)^T Q (z - c) <= 1 and halfspace rows [a, b]: a.z + b <= 0."""
    j = len(prefix)
    rate, rest = planes[:, j], planes[:, :j] @ prefix + planes[:, -1]
    if np.any((rate == 0.0) & (rest > 0.0)):
        return None
    lo = np.max(-rest[rate < 0.0] / rate[rate < 0.0], initial=-math.inf)
    hi = np.min(-rest[rate > 0.0] / rate[rate > 0.0], initial=math.inf)
    for q, c in quads:
        # with p = prefix - c[:j]: q_jj (t - t0)^2 <= room, completed square
        # free of the cancellation in (z - c)^T q (z - c) - 1 for balls
        p = prefix - c[:j]
        w = q[j, :j] @ p
        room = 1.0 - p @ q[:j, :j] @ p + w * w / q[j, j]
        if not room >= 0.0:
            return None
        t0, half = c[j] - w / q[j, j], math.sqrt(room / q[j, j])
        lo, hi = max(lo, t0 - half), min(hi, t0 + half)
    return (float(lo), float(hi)) if lo <= hi else None


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_search(probe, a: float, b: float, tol: float):
    """(lo, hi, z) for the maximum over [a, b] of a concave g whose probe at
    x gives (lo, hi, z): lo <= g(x) <= hi and z the point achieving lo, or
    (-inf, inf, None) where it found no point of the domain.  Golden-section
    steps shrink a bracket around the larger lo of its inner probes, and
    :func:`_concave_envelope` bounds g from all probes.  Stops at
    hi - lo <= tol * hi or once the bracket has shrunk to adjacent doubles.
    """
    if not a < b:
        return probe(a)
    seen, ends = {}, (a, b)

    def take(x):
        seen[x] = probe(x)
        return _concave_envelope(sorted((x, *v) for x, v in seen.items()
                                        if v[2] is not None), *ends)

    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    for x in dict.fromkeys((a, c, d, b)):  # c or d can round onto an end
        lo, hi, z = take(x)
    while lo < (1.0 - tol) * hi:
        if seen[c][0] >= seen[d][0]:
            b, d = d, c
            x = c = b - GOLDEN * (b - a)
        else:
            a, c = c, d
            x = d = a + GOLDEN * (b - a)
        if x in seen:
            break
        lo, hi, z = take(x)
    return lo, hi, z


def _concave_envelope(found: list, a: float, b: float):
    """(lo, hi, z): the best of the probes (x, lo, hi, z), sorted by x, and
    an upper bound of the concave g on [a, b].  Between two probes g stays
    below the chords through the probe pairs next to the gap, extended into
    it; a chord takes hi at its end next to the gap and lo at its far end,
    so brackets keep the bound sound (hi = inf ends no chord).  One chord
    reaches past the outer probes to a and b, none the gap of two probes.
    """
    if not found:
        return -math.inf, math.inf, None
    xs, lo, hi, zs = zip(*found)
    k, best = len(xs), int(np.argmax(lo))
    if k < 3:
        return lo[best], math.inf, zs[best]
    top = -math.inf
    for i in range(k - 1):
        width, left, right = xs[i + 1] - xs[i], (math.inf,) * 2, (math.inf,) * 2
        if i > 0:
            rise = (hi[i] - lo[i - 1]) / (xs[i] - xs[i - 1])
            left = (hi[i], hi[i] + rise * width)
        if i + 2 < k:
            rise = (hi[i + 1] - lo[i + 2]) / (xs[i + 2] - xs[i + 1])
            right = (hi[i + 1] + rise * width, hi[i + 1])
        top = max(top, min(left[0], right[0]), min(left[1], right[1]))
        d0, d1 = left[0] - right[0], left[1] - right[1]  # nan or inf without two chords
        if d0 * d1 < 0.0:
            top = max(top, left[0] + d0 / (d0 - d1) * (left[1] - left[0]))
    for end, near, far in ((a, 0, 1), (b, k - 1, k - 2)):
        if end != xs[near]:
            rise = (hi[near] - lo[far]) / (xs[near] - xs[far])
            top = max(top, hi[near], hi[near] + rise * (end - xs[near]))
    return lo[best], top, zs[best]


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
