"""Inequality checkers: both sides of every packing/covering bound, with slack.

Each checker pre-verifies its hypothesis (packing or covering) once through
``multiplicity``, certified or else sampled (``evidence`` raises NotAPacking /
NotACovering with the failing verdict), evaluates both sides of the inequality,
and emits a BoundReport carrying that evidence (``hypothesis``), as
``falconer``'s disk-plank checks do; only sampled evidence makes it
probabilistic.  Every report passes within its ``tolerance``: EXACT_TOL, times
unit^p where the sides are p-dimensional.  The covering bound
takes its reading from k and the body.  Translated-slice maxima are brackets
lo <= max <= hi, closed-form where the body and base allow it and a certified
concave search elsewhere; each check takes the end that errs toward failing,
and the report names the method.
"""

import bisect
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
SLICE_MARGIN = 1e-12         # relative rounding margin on computed upper ends
PIECE_MIN = 1e-12            # shortest polynomial piece, relative to the offset range
KNOT_TIE = 1e-9              # relative margin within which a knot value ties the top one


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
    ``evidence``, the certified or sampled report that verified the
    hypothesis, stays out of JSON."""

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
                digest: str, probabilistic: bool = False, notes: str = "",
                evidence: multiplicity.MultiplicityReport | None = None,
                tolerance: float = EXACT_TOL) -> BoundReport:
    """BoundReport of lhs (direction) rhs, passed within the tolerance."""
    slack = rhs - lhs if direction == LE else lhs - rhs
    return BoundReport(
        theorem_id=theorem_id, lhs=float(lhs), rhs=float(rhs),
        direction=direction, slack=float(slack), instance_digest=digest,
        passed=bool(slack >= -tolerance), tolerance=tolerance,
        probabilistic=probabilistic, notes=notes, evidence=evidence)


def evidence(verdict: multiplicity.VerificationResult, failure: type,
             ) -> multiplicity.MultiplicityReport:
    """The report of a passing hypothesis check; raises ``failure``
    carrying the verdict otherwise."""
    if not verdict.ok:
        raise failure(verdict.reason, verdict)
    return verdict.report


def hypothesis(report: multiplicity.MultiplicityReport, reading: str,
               notes: str = "") -> dict:
    """``make_report`` keywords of a bound whose evidence is the report: sampled
    evidence makes it probabilistic, a certificate is named in the notes."""
    if report.certificate is None:
        return {"probabilistic": True, "evidence": report,
                "notes": notes or f"{reading} verified on {report.samples} samples"}
    named = f"{reading} certified by {report.certificate}"
    return {"probabilistic": False, "evidence": report,
            "notes": f"{notes}; {named}" if notes else named}


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
                         n: int = 10_000, seed: int = 0) -> BoundReport:
    """Covering bound: sum of crv >= r for codimension-1 cylinders and a ball
    or ellipsoid body (the "ellipsoid" reading), else >= r / binom(d, k)
    (the "general" one)."""
    family = list(family)
    ev = evidence(multiplicity.decide(body, family, r, n, seed, covering=True),
                  NotACovering)
    d = body.dim
    ks = {c.k for c in family}
    if len(ks) != 1:
        raise DimensionMismatch("mixed codimensions in one covering check")
    k = ks.pop()
    if k == 1 and not isinstance(body, geom.Polytope):
        mode, rhs = "ellipsoid", float(r)
    else:
        mode, rhs = "general", r / math.comb(d, k)
    lhs = cylinders.sum_crv(body, family)
    digest = _digest_family(body, family, {"r": r, "mode": mode})
    return make_report("covering_lower", lhs, rhs, GE, digest,
                       **hypothesis(ev, "covering"))


def check_packing_upper_ellipsoid(body: geom.ConvexBody, family, r: int,
                                  n: int = 10_000, seed: int = 0) -> BoundReport:
    """Packing bound for ellipsoids in codimension 1 or 2: sum of crv <= r."""
    family = list(family)
    if isinstance(body, geom.Polytope):
        raise DomainError("this bound needs an ellipsoidal body")
    ks = {c.k for c in family}
    if not ks <= {1, 2}:
        raise DomainError(f"codimension must be 1 or 2, got {sorted(ks)}")
    ev = evidence(multiplicity.decide(body, family, r, n, seed), NotAPacking)
    lhs = cylinders.sum_crv(body, family)
    digest = _digest_family(body, family, {"r": r})
    return make_report("packing_upper_ellipsoid", lhs, float(r), LE, digest,
                       **hypothesis(ev, "packing"))


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
    hi - lo <= SLICE_GAP * hi.  ``probes`` counts the slice volumes the call
    evaluated; it stays out of reports.
    """

    lo: float
    hi: float
    offset: tuple
    method: str
    probes: int = 0


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
      Between consecutive vertex projections (the knots) the slice volume
      is a polynomial of degree m (the slice dimension).  Every knot is
      probed; a piece beside a top knot is interpolated at its m + 1
      Chebyshev-Lobatto nodes, the ends being its knots, and maximized over
      the roots of its derivative and the piece ends.
    Everything else takes the concave search (:func:`_concave_search`).
    Antipodal cap bases raise DomainError: their restricted bodies are not
    convex, so no route applies.  Every route evaluates slices through one
    :func:`geom.slice_kernel`, built once per call.
    """
    if offsets_frame is None:
        offsets_frame = geom.complement(slice_frame)
    if isinstance(base, cylinders.CapBase) and base.antipodal:
        raise DomainError("antipodal cap bases make the restricted body "
                          "non-convex; slice maxima need one-sided caps")
    slice_at = _SliceProbes(geom.slice_kernel(body, slice_frame), offsets_frame)
    m = slice_frame.subspace_dim
    if isinstance(body, geom.Polytope) and base is None:
        if m == 1:
            t, q = geom.longest_chord(body, slice_frame.columns[:, 0])
            return _bracket(slice_at, offsets_frame.coords(q), t, "difference-body")
        if offsets_frame.subspace_dim == 1:
            return _piecewise_max(slice_at, m, body, offsets_frame)
    shadow = geom.project_body(body, offsets_frame)
    if not isinstance(body, geom.Polytope) and not isinstance(base, geom.Polytope):
        return _ellipsoid_max(slice_at, body, slice_frame, shadow, base)
    return _concave_search(slice_at, m, shadow, offsets_frame, base)


class _SliceProbes:
    """Slice volumes at offsets-frame coordinates through one kernel, counted."""

    def __init__(self, kernel, offsets_frame: geom.Frame):
        self.kernel, self.embed, self.count = kernel, offsets_frame.embed, 0

    def __call__(self, z) -> float:
        self.count += 1
        return self.kernel(self.embed(z))


def _bracket(slice_at: _SliceProbes, z, upper: float, method: str) -> SliceMax:
    """SliceMax with lo the slice at offset z and hi the upper value,
    widened by the rounding margin (and never below lo)."""
    lo = slice_at(z)
    hi = max(upper, lo) * (1.0 + SLICE_MARGIN)
    if not hi < math.inf:
        raise DomainError("slice volume overflows")
    return SliceMax(lo=lo, hi=hi, offset=tuple(map(float, z)), method=method,
                    probes=slice_at.count)


def _ellipsoid_max(slice_at, body, slice_frame, shadow, base) -> SliceMax:
    m = slice_frame.subspace_dim
    s = slice_frame.columns
    if isinstance(body, geom.Ball):
        central = geom._ball_volume(m, body.radius, m)
        _check_ball_form(shadow)
        shape = np.eye(shadow.dim) / shadow.radius**2
    else:  # geom.slice_kernel found det positive and finite
        central = specfn.unit_ball_volume(m) / math.sqrt(np.linalg.det(s.T @ body.shape @ s))
        shape = shadow.shape
    if base is None:
        z, dual = shadow.center, 0.0
    elif isinstance(base, geom.Ball):
        z, dual = geom.quadratic_on_ball(shape, shadow.center, base.center,
                                         base.radius)
    else:
        z, dual = _quadratic_on_cap(shape, shadow.center, base)
    upper = central * max(1.0 - dual, 0.0) ** (m / 2.0)
    return _bracket(slice_at, z, upper, "ellipsoid")


def _check_ball_form(ball: geom.Ball) -> None:
    """DomainError where the squared radius of a ball shadow or disk base,
    whose form I / r^2 the slice maxima read, overflows or underflows."""
    if not 0.0 < ball.radius * ball.radius < math.inf:
        raise DomainError("squared radius of a ball or disk overflows or "
                          "underflows double precision")


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


def _piecewise_max(slice_at, m, body, offsets_frame) -> SliceMax:
    knots = np.unique(body.vertices @ offsets_frame.columns[:, 0])
    first, last = knots[0], knots[-1]
    at_knots = [slice_at([t]) for t in knots]
    best_v = max(at_knots)
    best_t = knots[at_knots.index(best_v)]
    # V is unimodal (Brunn), so only a piece beside a top knot holds its
    # maximum; a knot within KNOT_TIE of the top counts as one
    top = np.asarray(at_knots) >= best_v * (1.0 - KNOT_TIE)
    nodes = np.cos(np.arange(m, -1, -1) * math.pi / m)  # Lobatto, -1 to 1
    for i in np.flatnonzero(top[:-1] | top[1:]):
        a, b = knots[i], knots[i + 1]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        if half <= PIECE_MIN * (last - first):
            continue  # the neighbouring pieces' ends cover it
        vals = [at_knots[i], *(slice_at([mid + half * x]) for x in nodes[1:-1]),
                at_knots[i + 1]]
        coef = chebyshev.chebfit(nodes, vals, m)
        # every real critical point is among the real parts of the roots;
        # extra candidates inside [-1, 1] cannot raise the maximum
        roots = chebyshev.chebroots(chebyshev.chebder(coef)).real
        xs = np.concatenate([[-1.0, 1.0], np.clip(roots, -1.0, 1.0)])
        ys = chebyshev.chebval(xs, coef)
        j = int(np.argmax(ys))
        if ys[j] > best_v:
            best_v = float(ys[j])
            best_t = min(max(mid + half * float(xs[j]), a), b)
    return _bracket(slice_at, [best_t], best_v, "piecewise-polynomial")


def _concave_search(slice_at, m, shadow, offsets_frame, base) -> SliceMax:
    """Nested parabolic and golden-section search over the offsets in
    D = shadow ∩ base, the shadow being the body's on the offsets frame.

    f = V^(1/m) is concave on D (Brunn), and so is its maximum over each
    section of D at fixed leading offset coordinates.  Each coordinate gets
    a level of :func:`_golden_search`, whose probes are searches of the next
    level at a sixteenth of its tolerance; a relative gap of SLICE_GAP / 2m
    on f keeps the gap of V within SLICE_GAP.  Level j runs over the chord
    at the fixed coordinates of the shadow's and the base's projections onto
    the first j + 1 coordinates, which is the exact range of D's sections
    when the base lies in the shadow.  The coordinates are rotated to put a
    cap's pole first, so that the cap is the unit ball cut by y_0 >= cos(delta)
    and projects exactly too.  A search of a level starts from a bracket
    around the maximizer of the finished search of that level whose leading
    coordinates lie nearest: its half-width is twice their distance plus a
    thousandth of the chord, and the envelope still spans the whole chord.
    """
    n = offsets_frame.subspace_dim
    rot = np.eye(n)
    if isinstance(base, cylinders.CapBase):
        rot = np.linalg.qr(np.column_stack([base.pole, np.eye(n)]))[0]
    quads, polys, cut = [], [], None  # regions in the rotated coordinates y
    for region in [shadow, base]:
        if isinstance(region, geom.Ball):
            _check_ball_form(region)
            quads.append((np.eye(n) / (region.radius * region.radius),
                          region.center @ rot))
        elif isinstance(region, geom.Ellipsoid):
            quads.append((rot.T @ region.shape @ rot, region.center @ rot))
        elif isinstance(region, geom.Polytope):
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
    finished = [([], []) for _ in range(n)]  # (prefixes, maximizers) per level

    def level(prefix, tol):
        def probe(x):
            y = np.append(prefix, x)
            if len(y) < n:
                return level(y, tol / 16.0)
            f = slice_at(rot @ y) ** (1.0 / m)
            return f, f, y
        j = len(prefix)
        ends = _chord(prefix, *levels[j])
        if ends is None:
            return -math.inf, math.inf, None
        (a, b), (prefixes, maximizers), start = ends, finished[j], None
        if prefixes:  # around the maximizer of the nearest finished search
            dist = np.linalg.norm(np.asarray(prefixes) - prefix, axis=1)
            i = int(np.argmin(dist))
            x, half = maximizers[i], 2.0 * float(dist[i]) + 1e-3 * (b - a)
            start = (max(min(x, b) - half, a), min(max(x, a) + half, b))
        lo, hi, y = _golden_search(probe, a, b, tol, start)
        if y is not None:
            prefixes.append(prefix)
            maximizers.append(float(y[j]))
        return lo, hi, y

    _, hi, y = level(np.zeros(0), SLICE_GAP / (2.0 * m))
    if y is None:
        raise DomainError("no searched offset of the base meets the body's shadow")
    return _bracket(slice_at, rot @ y, hi ** m, "concave-search")


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
PARABOLA_SPACING = 0.1       # parabolic-step floor, in units of sqrt(tol g / curvature)
PARABOLA_RATIO = 0.05        # parabolic-step floor over bracketed probes, per bracket side


def _golden_search(probe, a: float, b: float, tol: float, start=None):
    """(lo, hi, z) for the maximum over [a, b] of a concave g whose probe at
    x gives (lo, hi, z): lo <= g(x) <= hi and z the point achieving lo, or
    (-inf, inf, None) where it found no point of the domain.  The first
    probes are the ends of ``start`` and its golden points; ``start`` is
    [a, b] when it is not given or its ends are equal.  While the best probe
    (by lo, the first in x on ties) is an end short of a or b, the next
    probe widens past it by a golden step.  Otherwise the maximum lies
    between the best probe's neighbours, and the next probe is
    :func:`_parabolic_step`'s, or the golden point of the larger side when
    it declines, when a neighbour is a chord end (g may drop there) or when
    this bracket is wider than half the one two steps before.  From the
    first probes on, :func:`_concave_envelope` bounds g on all of [a, b]
    from all probes.  Stops at hi - lo <= tol * hi or once the bracket has
    shrunk to adjacent doubles.
    """
    if not a < b:
        return probe(a)
    ends, found = (a, b), []  # probes (x, lo, hi, z) in x order
    if start is not None and start[0] < start[1]:
        a, b = start
    for x in dict.fromkeys((a, b - GOLDEN * (b - a), a + GOLDEN * (b - a), b)):
        bisect.insort(found, (x, *probe(x)))  # a golden point can round onto an end
    lo, hi, z = _concave_envelope(found, *ends)
    widths = []
    while lo < (1.0 - tol) * hi:
        i = max(range(len(found)), key=lambda j: found[j][1])
        x = found[i][0]
        if i == 0 and x > ends[0]:
            u = max(x - (found[1][0] - x) / GOLDEN, ends[0])
        elif i == len(found) - 1 and x < ends[1]:
            u = min(x + (x - found[-2][0]) / GOLDEN, ends[1])
        else:
            left, right = found[max(i - 1, 0)], found[min(i + 1, len(found) - 1)]
            a, b = left[0], right[0]
            widths.append(b - a)
            u = None
            if ends[0] < a and b < ends[1] and not (
                    len(widths) > 2 and widths[-1] > 0.5 * widths[-3]):
                u = _parabolic_step(left, found[i], right, tol)
            if u is None:
                u = x + (1.0 - GOLDEN) * ((a - x) if x - a > b - x else (b - x))
        j = bisect.bisect_left(found, (u,))
        if j < len(found) and found[j][0] == u:
            break
        found.insert(j, (u, *probe(u)))
        lo, hi, z = _concave_envelope(found, *ends)
    return lo, hi, z


def _parabolic_step(at_a, at_x, at_b, tol: float) -> float | None:
    """Vertex of the parabola through the lo values of the probes (x, lo,
    hi, z) at a < x < b, x the best, kept a floor away from every probe: a
    vertex nearer x moves out to the floor on its side, one nearer a or b is
    declined (None).  The floor is PARABOLA_SPACING sqrt(tol g / c) for the
    parabola g - c (t - vertex)^2, a tenth of the distance over which it
    falls by tol g.  Where the probes are brackets (lo < hi) it is at least
    PARABOLA_RATIO of the larger side: an envelope chord through two probes
    much closer than the gaps it extends into would carry their bracket
    widths across those gaps.
    """
    (a, ya, ha, _), (x, yx, hx, _), (b, yb, hb, _) = at_a, at_x, at_b
    left, right = (yx - ya) / (x - a), (yb - yx) / (b - x)
    curv = (left - right) / (b - a)
    if not curv > 0.0:
        return None
    u = 0.5 * (a + x) + left / (2.0 * curv)
    floor = PARABOLA_SPACING * math.sqrt(tol * abs(yx) / curv)
    if max(ha - ya, hx - yx, hb - yb) > 0.0:
        floor = max(floor, PARABOLA_RATIO * max(x - a, b - x))
    if abs(u - x) < floor:
        u = x + math.copysign(floor, u - x)
    return u if a + floor <= u <= b - floor else None


def _concave_envelope(found: list, a: float, b: float):
    """(lo, hi, z) of the probes (x, lo, hi, z), sorted by x, that found a
    point of the domain (z not None): the first best and an upper bound of
    the concave g on [a, b].  Between two probes g stays below the chords
    through the probe pairs next to the gap, extended into it; a chord takes
    hi at its end next to the gap and lo at its far end, so brackets keep
    the bound sound (hi = inf ends no chord).  One chord reaches past the
    outer probes to a and b, none the gap of two probes.
    """
    found = [p for p in found if p[3] is not None]
    if not found:
        return -math.inf, math.inf, None
    xs, lo, hi, zs = zip(*found)
    k = len(xs)
    best = max(range(k), key=lo.__getitem__)
    if k < 3:
        return lo[best], math.inf, zs[best]
    top = -math.inf
    for i in range(k - 1):  # chord values (l0, l1) and (r0, r1) at the gap's ends
        l0 = l1 = r0 = r1 = math.inf
        if i > 0:
            rise = (hi[i] - lo[i - 1]) / (xs[i] - xs[i - 1])
            l0, l1 = hi[i], hi[i] + rise * (xs[i + 1] - xs[i])
        if i + 2 < k:
            rise = (hi[i + 1] - lo[i + 2]) / (xs[i + 2] - xs[i + 1])
            r0, r1 = hi[i + 1] + rise * (xs[i + 1] - xs[i]), hi[i + 1]
        top = max(top, min(l0, r0), min(l1, r1))
        d0, d1 = l0 - r0, l1 - r1  # nan or inf without two chords
        if d0 * d1 < 0.0:
            top = max(top, l0 + d0 / (d0 - d1) * (l1 - l0))
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
    ev = evidence(multiplicity.decide(body, family, r, n, seed), NotAPacking)
    d = body.dim
    ks = {c.k for c in family}
    if len(ks) != 1:
        raise DimensionMismatch("mixed codimensions in one packing check")
    k = ks.pop()
    slices = cylinders._per_frame(family, lambda i: (
        h := geom.complement(family[i].frame), max_translate_slice(body, h)))
    worst_ratio, methods = 0.0, ""
    for cyl, (h_frame, body_max) in zip(family, slices):
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
                       **hypothesis(ev, "packing",
                                    f"worst slice ratio {worst_ratio:.6g} "
                                    f"(slice maxima: {methods})"))


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
    tolerance = EXACT_TOL * body.unit ** d  # the sides are d-volumes
    upper = make_report("rogers_shephard_upper", max_slice.hi * shadow_vol,
                        math.comb(d, k) * vol, LE, digest, notes=notes,
                        tolerance=tolerance)
    lower = make_report("fubini_lower", max_slice.lo * shadow_vol, vol, GE,
                        digest, notes=notes, tolerance=tolerance)
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
    ev = evidence(multiplicity.decide(body, family, r, n, seed), NotAPacking)
    d = body.dim
    lhs = float(sum(cylinders.base_volume(c.base) for c in family))
    _, max_shadow = geom.max_hyperplane_projection(body)
    if max_shadow == math.inf:
        raise DomainError("largest hyperplane shadow overflows")
    rhs = surface_constant(d) * r * max_shadow
    digest = _digest_family(body, family, {"r": r})
    return make_report("plank_base_volume", lhs, rhs, LE, digest,
                       **hypothesis(ev, "packing", f"max shadow {max_shadow:.6g}"),
                       tolerance=EXACT_TOL * body.unit ** (d - 1))
