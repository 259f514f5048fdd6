"""r-fold packing and covering verification: structural certificates first,
multiplicity sampling for the families they leave undecided.

``certify`` bounds multiplicities from the family's structure, in the sound
direction: cap cylinders by the separation of their poles, other families
layer by layer.  ``decide`` takes its verdict when it settles the r-fold
reading, and else tests n seeded uniform samples of the body once against
every base, through ``cylinders.base_membership`` whatever the body:
strict-interior counts for packings, closed ones for coverings.
Sampling runs in fixed-size blocks with per-block derived seeds and a fixed
reduction order, so identical seeds reproduce reports bit for bit.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cylinders, geom
from .errors import DimensionMismatch, DomainError

BLOCK = 8192
MIN_SAMPLES = 1000
ALPHA = 0.05          # a sampled pass bounds its violating fraction at confidence 1 - ALPHA
POLE_PAIRS = 1 << 15  # pole pairs per block of the level product (256 KB)
SHADOW_MARGIN = 1e-9  # relative outward widening of a layer's shadow, far beyond rounding
_U = 2.0 ** -53       # unit roundoff of float64
CAP_CERTIFICATE = "pole-separation"
LAYER_CERTIFICATE = "layer-depth"


@dataclass(frozen=True)
class MultiplicityReport:
    """Multiplicity summary of a cylinder family inside a body.

    A sampled report (``certificate`` None) gives the largest strict-interior
    count seen (``max_mult``, packing reading), the smallest closed count
    (``min_mult``, covering reading), the fraction ``coverage_fraction`` of
    samples with closed count >= 1, and samples attaining both counts.  After
    a passed check, ``violation_fraction_ucb`` = ln(1/ALPHA)/n bounds the
    fraction of the body that violates it, at confidence 1 - ALPHA.

    A certified report (``samples`` 0, ``seed`` None) names its certificate:
    ``max_mult`` bounds the interior multiplicity from above and ``min_mult``
    (None when the certificate leaves coverings open) the closed one from
    below; a witness, where the certificate gives one, attains its bound.
    """

    samples: int
    max_mult: int
    min_mult: int | None
    coverage_fraction: float | None
    witness_max: tuple | None
    witness_min: tuple | None
    seed: int | None
    certificate: str | None = None
    violation_fraction_ucb: float | None = None

    def to_json(self) -> dict:
        out = dict(self.__dict__)
        for key in ("witness_max", "witness_min"):
            out[key] = None if out[key] is None else list(out[key])
        return out


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    witness: tuple | None
    report: MultiplicityReport
    reason: str = ""

    def to_json(self) -> dict:
        return {**self.report.to_json(), "witness": self.witness,
                "reason": self.reason}


# ---------------------------------------------------------------------------
# certificates


def pole_conflicts(poles: np.ndarray, cos_a: np.ndarray, sin_a: np.ndarray,
                   antipodal: np.ndarray) -> np.ndarray:
    """Conflict degree of each pole: the other poles not certified to lie
    farther than a_i + a_j from it (from its line, when either is antipodal).

    cos a and sin a come rounded in the sound direction.  A pair is cleared
    when the level of the normalized poles lies below cos(a_i + a_j) =
    cos a_i cos a_j - sin a_i sin a_j by more than 64 d 2**-53, which exceeds
    the rounding of the normalization, of the level's dot product and of the
    threshold's products.  Levels are formed in row blocks of about
    POLE_PAIRS pairs, so memory stays flat in the number of poles.
    """
    p = poles / np.linalg.norm(poles, axis=1)[:, None]
    margin = 64.0 * p.shape[1] * _U
    degree = np.zeros(len(p), dtype=np.int64)
    step = max(1, POLE_PAIRS // len(p))
    for lo in range(0, len(p), step):
        rows = slice(lo, lo + step)
        level = p[rows] @ p.T
        np.abs(level, out=level, where=antipodal[rows, None] | antipodal[None, :])
        level -= np.outer(cos_a[rows], cos_a) - np.outer(sin_a[rows], sin_a) - margin
        hit = ~(level < 0.0)  # nan conflicts
        np.fill_diagonal(hit[:, lo:], False)
        degree[rows] = np.count_nonzero(hit, axis=1)
    return degree


def _cap_certificate(body, family) -> MultiplicityReport | None:
    """Pole separation of cap cylinders in a ball body of reach R = |c| + r.

    A point x of cap cylinder i has |x.p_i| = |(F_i^T x).q_i| >= cos(delta_i)
    for the embedded pole p_i = F_i q_i, so inside the body its angle to p_i
    (to the line +-p_i when antipodal) is at most a_i, cos a_i =
    cos(delta_i) / (R |p_i|).  Cylinders whose poles lie farther apart than
    a_i + a_j are disjoint in the body, and a point lies in at most (largest
    conflict degree + 1) of them.  cos a_i is rounded down and sin a_i up,
    with a_i widened by eps = 8 d^2 2**-53, more than a computed pole errs in
    norm and in angle; a half-angle reaching pi/2 leaves the family open.
    """
    if not isinstance(body, geom.Ball):
        return None
    d = body.dim
    reach = (float(np.linalg.norm(body.center)) + body.radius) * (1.0 + 4.0 * d * _U)
    poles = np.array([cyl.frame.embed(cyl.base.pole) for cyl in family])
    # a computed pole errs from F q by less than eps, in norm and in angle
    eps = 8.0 * d * d * _U
    norms = np.linalg.norm(poles, axis=1) + eps
    cos_d = np.array([math.cos(cyl.base.delta) for cyl in family])
    # a body within cos(delta) of the origin meets no cylinder: cos a = 1
    cos_a = np.minimum(cos_d / (reach * norms) * (1.0 - 4.0 * _U), 1.0) - eps
    if not np.all(cos_a > 0.0):  # a half-angle past pi/2: no separation argument
        return None
    sin_a = np.sqrt((1.0 - cos_a) * (1.0 + cos_a)) * (1.0 + 4.0 * _U) + eps
    anti = np.array([cyl.base.antipodal for cyl in family])
    top = int(pole_conflicts(poles, cos_a, sin_a, anti).max()) + 1
    # with no conflict, a point of the body inside one cylinder attains the bound
    x = poles[0] / np.linalg.norm(poles[0]) * (1.0 + cos_d[0]) / 2.0
    witness = _confirmed(body, family[:1], x, 1, closed=False) if top == 1 else None
    return MultiplicityReport(0, top, None, None, witness, None, None,
                              certificate=CAP_CERTIFICATE)


def _interval_depths(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """(x, depth): the sorted endpoints with -inf and inf, and the number of
    intervals that hold the open piece (x_k, x_k+1); the closed intervals
    [lo, hi] and the open ones (lo, hi) hold the same pieces."""
    x = np.unique(np.concatenate([lo, hi, [-math.inf, math.inf]]))
    depth = np.searchsorted(np.sort(lo), x, "right") \
        - np.searchsorted(np.sort(hi), x, "right")
    return x, depth[:-1]


def _disk_depth(bases) -> int:
    """Largest conflict degree + 1 of disk bases in one frame: a pair is
    cleared when |c_i - c_j| >= r_i + r_j beyond 8 (m + 2) 2**-53 of the
    terms, the rounding of the distance and the sum."""
    c = np.array([b.center for b in bases])
    rad = np.array([b.radius for b in bases])
    dist = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2)
    reach = rad[:, None] + rad[None, :]
    hit = ~(dist - reach >= 8.0 * (c.shape[1] + 2) * _U * (dist + reach))
    np.fill_diagonal(hit, False)
    return int(np.count_nonzero(hit, axis=1).max()) + 1


def _layer_certificate(body, family) -> MultiplicityReport | None:
    """Layer depths of cylinders grouped by bit-equal frames, in which
    membership depends on the base coordinates alone.

    Disk bases give ``_disk_depth``.  Interval bases are exact: their
    largest open depth bounds the packing reading, and their smallest closed
    depth over the body's shadow [-h(-u), h(u)], widened outward by
    SHADOW_MARGIN, the covering one.  Other groups leave the family open.
    Depths add over groups; a lone interval group also takes witnesses,
    inside the body, of both of its bounds.
    """
    groups: dict = {}
    for cyl in family:  # one ambient dimension: equal bytes, equal shapes
        groups.setdefault(cyl.frame.columns.tobytes(), []).append(cyl)
    top, low = 0, 0
    witness_max = witness_min = None
    for group in groups.values():
        bases = [cyl.base for cyl in group]
        if all(isinstance(b, geom.Ball) for b in bases):
            top, low = top + _disk_depth(bases), None
            continue
        if group[0].frame.subspace_dim > 1 \
                or not all(isinstance(b, geom.Polytope) for b in bases):
            return None
        u = group[0].frame.columns[:, 0]
        x, depth = _interval_depths(np.array([np.min(b.vertices) for b in bases]),
                                    np.array([np.max(b.vertices) for b in bases]))
        k = int(np.argmax(depth))
        top += int(depth[k])
        shadow = (-geom.support(body, -u), geom.support(body, u))
        pad = SHADOW_MARGIN * (1.0 + max(map(abs, shadow)))
        # pieces meeting the widened shadow; none when the shadow overflowed
        on = np.flatnonzero((x[:-1] < shadow[1] + pad) & (x[1:] > shadow[0] - pad))
        j = on[np.argmin(depth[on])] if len(on) else None
        low = None if low is None or j is None else low + int(depth[j])
        if len(groups) == 1:
            witness_max = _level_witness(body, family, u, shadow, x[k:k + 2],
                                         top, closed=False)
            if low is not None:
                witness_min = _level_witness(body, family, u, shadow,
                                             x[j:j + 2], low, closed=True)
    if low == 0 and witness_min is None:  # a bound of 0 says nothing
        low = None
    return MultiplicityReport(
        0, top, low, None if low is None or low < 1 else 1.0,
        witness_max, witness_min, None, certificate=LAYER_CERTIFICATE)


def _level_witness(body, family, u, shadow, piece, count: int, closed: bool):
    """A confirmed witness at the middle of the piece within the shadow:
    the body's centre moved toward its support point on that side until
    <x, u> reaches the level, which keeps x inside the body."""
    a, b = max(piece[0], shadow[0]), min(piece[1], shadow[1])
    if not a < b:
        return None
    t = (a + b) / 2.0
    g = geom.body_center(body)
    side = u if t >= g @ u else -u
    if isinstance(body, geom.Polytope):
        s = body.vertices[np.argmax(body.vertices @ side)]
    elif isinstance(body, geom.Ellipsoid):
        w = body.shape_inv @ side
        s = body.center + w / np.sqrt(side @ w)
    else:
        s = body.center + body.radius / np.linalg.norm(side) * side
    x = g + (t - g @ u) / ((s - g) @ u) * (s - g)
    return _confirmed(body, family, x, count, closed)


def _confirmed(body, family, x, count: int, closed: bool) -> tuple | None:
    """x as a witness when the body holds it and its closed (or strict)
    count across the family is ``count``; else None."""
    pts = np.asarray(x, dtype=float)[None, :]
    if not geom.contains_points(body, pts)[0]:
        return None
    counts = multiplicity_counts(body, family, pts)[1 if closed else 0]
    return tuple(map(float, pts[0])) if counts[0] == count else None


def certify(body: geom.ConvexBody, family) -> MultiplicityReport | None:
    """Certified multiplicity bounds of the family inside the body, or None
    when no certificate applies: caps get ``_cap_certificate``, families
    without caps ``_layer_certificate``, and mixed families none."""
    family = list(family)
    if any(cyl.ambient_dim != body.dim for cyl in family):
        raise DimensionMismatch("family and body disagree in dimension")
    caps = [isinstance(cyl.base, cylinders.CapBase) for cyl in family]
    if not family or any(caps) and not all(caps):
        return None
    # an overflow or nan counts as a conflict, or leaves a bound open
    with np.errstate(all="ignore"):
        return (_cap_certificate if all(caps) else _layer_certificate)(body, family)


# ---------------------------------------------------------------------------
# sampling


def _sample_blocks(body: geom.ConvexBody, n: int, seed: int):
    """Yield sample blocks with per-block derived seeds, in a fixed order."""
    n_blocks = math.ceil(n / BLOCK)
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    remaining = n
    for child in children:
        take = min(BLOCK, remaining)
        rng = np.random.default_rng(child)
        yield geom.sample_in_body(body, take, rng)
        remaining -= take


def multiplicity_counts(body: geom.ConvexBody, family, pts: np.ndarray,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(strict, closed) membership counts of each point across the family.

    Each cylinder's base is evaluated once for both readings
    (``cylinders.base_membership``), so a count does not depend on the body.
    ``body`` stays the first argument: perfbench's tracer reads the family
    and the points as the second and third.
    """
    family = list(family)
    if any(cyl.ambient_dim != pts.shape[1] for cyl in family):
        raise DimensionMismatch("family and samples disagree in dimension")
    strict = np.zeros(len(pts), dtype=np.int32)
    closed = np.zeros(len(pts), dtype=np.int32)
    with np.errstate(over="ignore"):  # a norm past ~1.3e154 is inf: outside
        for cyl in family:
            closed_in, strict_in = cylinders.base_membership(
                cyl.base, pts @ cyl.frame.columns)
            closed += closed_in
            strict += strict_in
    return strict, closed


def _check_samples(n: int) -> None:
    if n < MIN_SAMPLES:
        raise DomainError(f"need at least {MIN_SAMPLES} samples, got {n}")


def estimate_multiplicity(body: geom.ConvexBody, family, n: int, seed: int,
                          ) -> MultiplicityReport:
    """Sample n points of the body and report family multiplicity statistics."""
    _check_samples(n)
    family = list(family)
    best_max = -1
    best_min = None
    covered = 0
    total = 0
    witness_max = witness_min = None
    for pts in _sample_blocks(body, n, seed):
        strict, closed = multiplicity_counts(body, family, pts)
        i = int(np.argmax(strict))
        if int(strict[i]) > best_max:
            best_max, witness_max = int(strict[i]), tuple(map(float, pts[i]))
        j = int(np.argmin(closed))
        if best_min is None or int(closed[j]) < best_min:
            best_min, witness_min = int(closed[j]), tuple(map(float, pts[j]))
        covered += int(np.count_nonzero(closed >= 1))
        total += len(pts)
    return MultiplicityReport(
        samples=total, max_mult=best_max, min_mult=best_min,
        coverage_fraction=covered / total,
        witness_max=witness_max, witness_min=witness_min, seed=seed)


# ---------------------------------------------------------------------------
# verdicts


def decide(body: geom.ConvexBody, family, r: int, n: int, seed: int,
           covering: bool = False) -> VerificationResult:
    """r-fold packing (or, with ``covering``, covering) verdict.

    The certificate settles the reading when its bound meets r, or when a
    witness inside the body attains a bound that misses r; otherwise n
    samples decide it.  n must reach MIN_SAMPLES either way.
    """
    _check_samples(n)
    family = list(family)
    report = certify(body, family)
    if report is None or not _settles(report, r, covering):
        report = estimate_multiplicity(body, family, n, seed)
    if covering:
        ok, witness = report.min_mult >= r, report.witness_min
        reason = f"closed multiplicity {report.min_mult} falls below r={r}"
    else:
        ok, witness = report.max_mult <= r, report.witness_max
        reason = f"interior multiplicity {report.max_mult} exceeds r={r}"
    if not ok:
        return VerificationResult(False, witness, report, reason=reason)
    if report.certificate is None:
        report = replace(report, violation_fraction_ucb=math.log(1.0 / ALPHA) / n)
    return VerificationResult(True, None, report)


def _settles(report: MultiplicityReport, r: int, covering: bool) -> bool:
    """Whether a certified report decides the r-fold reading: its bound
    meets r, or a witness attains a bound that misses r."""
    if covering:
        return report.min_mult is not None and (
            report.min_mult >= r or report.witness_min is not None)
    return report.max_mult <= r or report.witness_max is not None


def verify_packing(body: geom.ConvexBody, family, r: int, n: int, seed: int,
                   ) -> VerificationResult:
    """r-fold packing check (``decide``).

    Also fails, without a witness, when some base is not contained in the
    body's shadow.
    """
    family = list(family)
    outside = next((i for i, cyl in enumerate(family)
                    if not cylinders.base_contained(body, cyl)), None)
    verdict = decide(body, family, r, n, seed)
    if outside is not None:
        return VerificationResult(
            False, None, verdict.report,
            reason=f"base {outside} is not contained in the body shadow")
    return verdict


def verify_covering(body: geom.ConvexBody, family, r: int, n: int, seed: int,
                    ) -> VerificationResult:
    """r-fold covering check (``decide``); the witness is an undercovered point."""
    return decide(body, family, r, n, seed, covering=True)
