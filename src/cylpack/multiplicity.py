"""r-fold packing and covering verification: exact certificates first,
multiplicity sampling for the families they leave undecided.

``decide`` hands ``judge`` one ordered list of steps, each a report or None
where it does not apply: pole separation for cap cylinders in a ball,
layer depth for cylinders grouped by frame, the exact plank arrangement
sweep (``exact_plank_multiplicity``, also ``falconer``'s on a disk hull)
for a planar strip packing in a disk or polygon, then the sampler: n seeded
uniform samples of the body tested once against every base, through
``cylinders.base_membership``, strict-interior counts for packings and
closed ones for coverings.  The first report that settles the r-fold
reading is the verdict.  Every verdict, ``cappack``'s and ``falconer``'s
included, is a ``VerificationResult`` that ``judge`` draws from a
``MultiplicityReport``.
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
POLE_PAIRS = 1 << 15  # pairs per row block of pole levels and disk distances
SHADOW_MARGIN = 1e-9  # relative outward widening of a layer's shadow, far beyond rounding
_U = 2.0 ** -53       # unit roundoff of float64
ON_LINE = 1e-12       # gap, in region units, and slope at which two boundary lines coincide
SWEEP_BLOCK = 1 << 20  # midpoint-plank pairs counted per batch of the sweep
CAP_CERTIFICATE = "pole-separation"
LAYER_CERTIFICATE = "layer-depth"
SWEEP_CERTIFICATE = "arrangement-sweep"


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
    threshold's products; nan conflicts.  Levels are formed in row blocks of
    about POLE_PAIRS pairs, so memory stays flat in the number of poles.

    A block skips that test when the |level| of each of its off-diagonal
    pairs lies below the floor (c c - s s) - 64 d 2**-53, c the smallest
    cos a and s the largest sin a, in the same rounded operations as each
    pair's threshold.  Rounding is monotone, so with every cos a and sin a in
    [0, 1] the floor lies at or below every computed threshold, and the level
    minus the threshold, two distinct doubles, is negative: the test clears
    the pair too.  Otherwise the floor is -inf and every block takes the test.
    """
    p = poles / np.linalg.norm(poles, axis=1)[:, None]
    margin = 64.0 * p.shape[1] * _U
    floor = -math.inf
    if len(p) and np.all((cos_a >= 0.0) & (cos_a <= 1.0) & (sin_a >= 0.0) & (sin_a <= 1.0)):
        c, s = np.min(cos_a), np.max(sin_a)
        floor = (c * c - s * s) - margin
    degree = np.zeros(len(p), dtype=np.int64)
    step = max(1, POLE_PAIRS // len(p))
    for lo in range(0, len(p), step):
        rows = slice(lo, lo + step)
        level = p[rows] @ p.T
        cleared = np.abs(level) < floor
        np.fill_diagonal(cleared[:, lo:], True)
        if cleared.all():
            continue
        np.abs(level, out=level, where=antipodal[rows, None] | antipodal[None, :])
        level -= np.outer(cos_a[rows], cos_a) - np.outer(sin_a[rows], sin_a) - margin
        hit = ~(level < 0.0)  # nan conflicts
        np.fill_diagonal(hit[:, lo:], False)
        degree[rows] = np.count_nonzero(hit, axis=1)
    return degree


def _cap_certificate(body, family) -> MultiplicityReport | None:
    """``pole_certificate`` of a cap family in a ball body, stacked once;
    None for another body, an empty family, a base that is not a cap or
    mixed base dimensions (no stack)."""
    frames = [cyl.frame.columns for cyl in family]
    if not isinstance(body, geom.Ball) or len({f.shape for f in frames}) != 1 \
            or not all(isinstance(cyl.base, cylinders.CapBase) for cyl in family):
        return None
    return pole_certificate(
        body, np.stack(frames), np.array([cyl.base.pole for cyl in family]),
        np.array([math.cos(cyl.base.delta) for cyl in family]),
        np.array([cyl.base.antipodal for cyl in family]), lambda: family[0])


@np.errstate(all="ignore")  # an overflow or nan counts as a conflict
def pole_certificate(ball: geom.Ball, frames: np.ndarray, qs: np.ndarray,
                     cos_d: np.ndarray, antipodal: np.ndarray,
                     first) -> MultiplicityReport | None:
    """Pole separation of N cap cylinders in a ball of reach R = |c| + r,
    from their (N, d, m) frame stack, (N, m) poles, cos(delta_i) and
    antipodal flags; ``first()`` builds cylinder 0, the one a witness is
    checked against.

    A point x of cap cylinder i has |x.p_i| = |(F_i^T x).q_i| >= cos(delta_i)
    for the embedded pole p_i = F_i q_i, so inside the body its angle to p_i
    (to the line +-p_i when antipodal) is at most a_i, cos a_i =
    cos(delta_i) / (R |p_i|).  Cylinders whose poles lie farther apart than
    a_i + a_j are disjoint in the body, and a point lies in at most (largest
    conflict degree + 1) of them.  cos a_i is rounded down and sin a_i up,
    with a_i widened by eps = 8 d^2 2**-53, more than a computed pole errs in
    norm and in angle; a half-angle reaching pi/2 leaves the family open.
    """
    d = ball.dim
    reach = (float(np.linalg.norm(ball.center)) + ball.radius) * (1.0 + 4.0 * d * _U)
    poles = np.matmul(frames, qs[:, :, None])[:, :, 0]  # each F q
    # a computed pole errs from F q by less than eps, in norm and in angle
    eps = 8.0 * d * d * _U
    norms = np.linalg.norm(poles, axis=1) + eps
    # a body within cos(delta) of the origin meets no cylinder: cos a = 1
    cos_a = np.minimum(cos_d / (reach * norms) * (1.0 - 4.0 * _U), 1.0) - eps
    if not np.all(cos_a > 0.0):  # a half-angle past pi/2: no separation argument
        return None
    sin_a = np.sqrt((1.0 - cos_a) * (1.0 + cos_a)) * (1.0 + 4.0 * _U) + eps
    top = int(pole_conflicts(poles, cos_a, sin_a, antipodal).max()) + 1
    # with no conflict, a point of the body inside one cylinder attains the bound
    x = poles[0] / np.linalg.norm(poles[0]) * (1.0 + cos_d[0]) / 2.0
    witness = _confirmed(ball, [first()], x, 1, closed=False) if top == 1 else None
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
    terms, the rounding of the distance and the sum; pairs are formed in
    row blocks of about POLE_PAIRS, so memory stays flat in n."""
    c = np.array([b.center for b in bases])
    rad = np.array([b.radius for b in bases])
    degree = 0
    step = max(1, POLE_PAIRS // len(c))
    for lo in range(0, len(c), step):
        rows = slice(lo, lo + step)
        dist = np.linalg.norm(c[rows, None, :] - c[None, :, :], axis=2)
        reach = rad[rows, None] + rad[None, :]
        hit = ~(dist - reach >= 8.0 * (c.shape[1] + 2) * _U * (dist + reach))
        np.fill_diagonal(hit[:, lo:], False)
        degree = max(degree, int(np.count_nonzero(hit, axis=1).max()))
    return degree + 1


@np.errstate(all="ignore")  # an overflow or nan leaves a bound open
def _layer_certificate(body, family) -> MultiplicityReport | None:
    """Layer depths of cylinders grouped by bit-equal frames
    (``cylinders._frame_groups``), where membership depends on the base
    coordinates alone.

    Disk bases give ``_disk_depth``.  Interval bases are exact: their
    largest open depth bounds the packing reading, and their smallest closed
    depth over the body's shadow [-h(-u), h(u)], widened outward by
    SHADOW_MARGIN of the body's ``unit`` and extent, the covering one.  Other
    groups, cap ones too, leave the family open.  Depths add over groups; a
    lone interval group also takes witnesses, inside the body, of both.
    """
    groups = [[family[i] for i in idx] for idx in cylinders._frame_groups(family)]
    top, low = 0, 0
    witness_max = witness_min = None
    for group in groups:
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
        pad = SHADOW_MARGIN * (body.unit + max(map(abs, shadow)))
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


# ---------------------------------------------------------------------------
# the plank arrangement sweep


def _chords(centers: np.ndarray, radii: np.ndarray, segments: np.ndarray,
            points: np.ndarray, directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends (lo, hi) of the ranges of t with points + t * directions in the
    hull, one row per line (unit directions); lo >= hi where a line meets the
    hull in at most one point, and possibly where it runs along a segment.

    The hull boundary is made of disk arcs and segments, so its chord runs
    from the lowest to the highest point at which the line meets a disk or
    a segment.  Each line's products have the shapes of a lone line's,
    (n + 2m, 2) @ (2,) stacked over the lines, so a line gets the same bits
    in any batch.
    """
    n = len(radii)
    normals = np.column_stack([-directions[:, 1], directions[:, 0]])
    rel = np.concatenate([centers, segments.reshape(-1, 2)]) - points[:, None, :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        side = (rel @ normals[:, :, None])[..., 0]
        mid = (rel @ directions[:, :, None])[..., 0]
        room2 = radii ** 2 - side[:, :n] ** 2
        hit = room2 >= 0
        half = np.sqrt(np.where(hit, room2, 0.0))
        near, far = mid[:, :n] - half, mid[:, :n] + half
        finite = np.all(np.isfinite(room2)
                        & (~hit | (np.isfinite(near) & np.isfinite(far))), axis=1)
        p, q, tp, tq = side[:, n::2], side[:, n + 1::2], mid[:, n::2], mid[:, n + 1::2]
        cross = (p <= 0) != (q <= 0)  # the segment's ends lie on both sides of the line
        t = tp + (tq - tp) * (p / (p - q))
    if not np.all(finite):
        raise DomainError("disk family hull chord is not finite in double precision")
    return (np.min(np.concatenate([np.where(hit, near, np.inf),
                                   np.where(cross, t, np.inf)], axis=1), axis=1),
            np.max(np.concatenate([np.where(hit, far, -np.inf),
                                   np.where(cross, t, -np.inf)], axis=1), axis=1))


def _plank_arrays(planks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(normals (n, 2), lows (n,), highs (n,)) of planar k = 1 cylinders: each
    normal is the frame's column, each interval the base's bounding box."""
    planks = list(planks)
    if any(p.ambient_dim != 2 or p.k != 1 or isinstance(p.base, cylinders.CapBase)
           for p in planks):
        raise DimensionMismatch("planks are k = 1 cylinders in the plane "
                                "with interval bases")
    normals = np.array([p.frame.columns[:, 0] for p in planks]).reshape(-1, 2)
    lows, highs = np.array([geom.bounding_box(p.base) for p in planks]).reshape(-1, 2).T
    return normals, lows, highs


def _support_range(centers: np.ndarray, radii: np.ndarray, normals: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(-h(-u), h(u)) of the hull of the disks for each row u of normals:
    (n, 2) @ (2,) products, stacked over the rows."""
    proj = (centers @ normals[:, :, None])[..., 0]
    return (-np.max(radii - proj, axis=1, initial=-np.inf),
            np.max(proj + radii, axis=1, initial=-np.inf))


def exact_plank_multiplicity(centers: np.ndarray, radii: np.ndarray,
                             segments: np.ndarray, unit: float, normals: np.ndarray,
                             lows: np.ndarray, highs: np.ndarray) -> tuple[int, tuple]:
    """Largest open-plank multiplicity over a planar region, with a witness
    point, for the planks {x : lows < <x, u> < highs}, u the rows of normals
    (``_plank_arrays``).  The region is the hull of (n, 2) centres and n
    radii of disks, whose arcs (m, 2, 2) segments join; ``unit`` is a power
    of two near its size.

    The plank boundary lines cut the hull into arrangement cells of constant
    multiplicity.  When some line crosses the hull interior, every cell that
    meets the interior borders such a line's chord between two consecutive
    crossings with the other lines; otherwise the hull is one cell.  So the
    count on both sides of every sub-segment midpoint, plus the count at one
    interior point, visits every cell.  A boundary line that coincides with
    the chord's own line (within ``ON_LINE``, as shared plank boundaries do)
    is decided by the side, not by comparing offsets.  The witness lies in
    the hull and in exactly the returned number of open planks.  The sweep
    runs in ``unit``, exactly, so its thresholds are relative to the
    region's size: a region scaled by a power of two, with its unit, gets
    the same count, and its witness scaled by that power.

    All 2P boundary lines (each plank's low line, then its high line) are
    swept at once: their chords (``_chords``), crossings, sorted sub-segment
    ends and midpoint counts are arrays over the lines.  The cell is the first
    maximum in (line, side, midpoint) order, taken when it beats the
    interior point.  Every product has the shapes of a lone line's: the
    midpoint counts of the lines with M midpoints are one (M, 2) @ (2, P)
    product per line, stacked.
    """
    # a power of two: the scaling is exact, unless subnormal
    centers, radii, segments = centers / unit, radii / unit, segments / unit
    with np.errstate(over="ignore"):  # past the hull: inf is as good
        lows, highs = lows / unit, highs / unit
    if not np.all(np.isfinite(segments)):
        raise DomainError("disk family hull is not finite in double precision")
    inner = np.mean(centers, axis=0)  # interior: a mix of disk centers
    t = normals @ inner
    best = int(np.sum((t > lows) & (t < highs)))
    u = np.repeat(normals, 2, axis=0)  # the lines <x, u> = s
    s = np.column_stack([lows, highs]).ravel()
    d = np.column_stack([-u[:, 1], u[:, 0]])
    bottom, top = np.repeat(_support_range(centers, radii, normals), 2, axis=1)
    meets = (bottom < s) & (s < top)  # no chord outside the support range, where s may be huge
    lo, hi = _chords(centers, radii, segments, np.where(meets, s, 0.0)[:, None] * u, d)
    meets &= lo < hi  # the line crosses the hull interior
    slope = (normals @ d[:, :, None])[..., 0]
    along = (normals @ u[:, :, None])[..., 0]
    crossing = np.abs(slope) > ON_LINE
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cuts = ((np.concatenate([lows, highs]) - s[:, None] * np.tile(along, 2))
                / np.tile(slope, 2))
        cuts = np.where(np.tile(crossing, 2) & (cuts > lo[:, None]) & (cuts < hi[:, None]),
                        cuts, np.inf)
        ts = np.sort(np.column_stack([lo, hi, cuts]), axis=1)
        ts[:, 1:][ts[:, 1:] == ts[:, :-1]] = np.inf  # no zero-length pieces
        ts = np.sort(ts, axis=1)
        mids = (s[:, None] * u)[:, None, :] \
            + ((ts[:, :-1] + ts[:, 1:]) / 2.0)[:, :, None] * d[:, None, :]
        on_line = ON_LINE * np.maximum(1.0, np.abs(s))
        on_low = ~crossing & (np.abs(lows - s[:, None] * along) <= on_line[:, None])
        on_high = ~crossing & (np.abs(highs - s[:, None] * along) <= on_line[:, None])
    pieces = np.where(meets, np.sum(ts < np.inf, axis=1) - 1, 0)
    counts = np.empty((len(s), 2, mids.shape[1]), dtype=int)
    block = max(1, SWEEP_BLOCK // max(1, mids.shape[1] * len(lows)))
    for begin in range(0, len(s), block):
        lines = slice(begin, begin + block)
        here = pieces[lines]
        t = np.zeros(mids[lines].shape[:2] + (len(lows),))  # (lines, M, P)
        for m in np.unique(here[here > 0]).tolist():
            rows = np.flatnonzero(here == m)
            t[rows, :m] = mids[begin + rows, :m] @ normals.T
        ahead = np.array([1.0, -1.0])[:, None, None] * along[lines, None, None, :]
        inside = (np.where(on_low[lines, None, None], ahead > 0, t[:, None] > lows)
                  & np.where(on_high[lines, None, None], ahead < 0, t[:, None] < highs))
        counts[lines] = np.where(np.arange(mids.shape[1]) < here[:, None, None],
                                 inside.sum(axis=3), -1)
    if not counts.size or counts.max() <= best:
        return best, tuple(map(float, inner * unit))
    line, side, k = np.unravel_index(int(np.argmax(counts)), counts.shape)  # the first
    best = int(counts[line, side, k])
    # step off the midpoint into its cell: half way to the nearest other
    # boundary line or to the hull boundary
    mid, step = mids[line, k], (1.0, -1.0)[side] * u[line]
    t = normals @ mid
    gaps = np.concatenate([np.abs(t - lows)[~on_low[line]],
                           np.abs(t - highs)[~on_high[line]],
                           _chords(centers, radii, segments, mid[None], step[None])[1]])
    return best, tuple(map(float, (mid + 0.5 * float(np.min(gaps)) * step) * unit))


def _sweep_certificate(body, family) -> MultiplicityReport | None:
    """``exact_plank_multiplicity`` of planar k = 1 interval bases in a disk
    (one disk) or a polygon (hull vertices of radius 0 joined by hull edges),
    in the body's ``unit``, else None.  The open count bounds the strict one
    from above; a witness stands where ``_confirmed`` reproduces the count."""
    if body.dim != 2 or isinstance(body, geom.Ellipsoid) or any(
            cyl.k != 1 or isinstance(cyl.base, cylinders.CapBase) for cyl in family):
        return None  # an affine map would move an ellipse's plank lines by rounding
    if isinstance(body, geom.Ball):
        region = body.center[None], np.array([body.radius]), np.zeros((0, 2, 2))
    else:
        v, hull = body.vertices, body._hull
        region = v[hull.vertices], np.zeros(len(hull.vertices)), v[hull.simplices]
    count, x = exact_plank_multiplicity(*region, body.unit, *_plank_arrays(family))
    witness = _confirmed(body, family, x, count, closed=False)
    return MultiplicityReport(0, count, None, None, witness, None, None,
                              certificate=SWEEP_CERTIFICATE)


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
    (``cylinders.base_membership``, in the body's ``unit``).
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
                cyl.base, pts @ cyl.frame.columns, body.unit)
            closed += closed_in
            strict += strict_in
    return strict, closed


def check_samples(n: int) -> None:
    if n < MIN_SAMPLES:
        raise DomainError(f"need at least {MIN_SAMPLES} samples, got {n}")


def estimate_multiplicity(body: geom.ConvexBody, family, n: int, seed: int,
                          ) -> MultiplicityReport:
    """Sample n points of the body and report family multiplicity statistics."""
    check_samples(n)
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
    """r-fold packing (or, with ``covering``, covering) verdict: ``judge``
    over pole separation, layer depth, for a packing the arrangement sweep,
    and n samples, in turn; a packing with a base outside the body's shadow
    (``geom.project_body``) fails without a witness.  n must reach
    MIN_SAMPLES either way."""
    check_samples(n)
    family = list(family)
    shadows = [] if covering else [geom.project_body(body, c.frame) for c in family]
    outside = next((i for i, (cyl, shadow) in enumerate(zip(family, shadows))
                    if not cylinders.base_contained(shadow, cyl.base, body.unit)), None)
    if any(cyl.ambient_dim != body.dim for cyl in family):
        raise DimensionMismatch("family and body disagree in dimension")
    verdict = judge(None, r, covering,
                    lambda: _cap_certificate(body, family),
                    lambda: _layer_certificate(body, family),
                    lambda: None if covering else _sweep_certificate(body, family),
                    lambda: estimate_multiplicity(body, family, n, seed))
    if outside is not None:
        return VerificationResult(
            False, None, verdict.report,
            reason=f"base {outside} is not contained in the body shadow")
    return verdict


def judge(report: MultiplicityReport | None, r: int, covering: bool = False,
          *steps) -> VerificationResult:
    """The r-fold packing (or covering) verdict of a report.

    A certified report stands when its bound meets r, or when a witness
    attains a bound that misses r; otherwise, or with no report, each of
    ``steps`` in turn gives the next report (None where it does not
    apply), until one settles the reading.  A failure carries the report's
    witness of the reading, and a passed sampled report its
    violation_fraction_ucb, ln(1/ALPHA) over its own samples.
    """
    def reading(rep):
        if rep is None:
            return False, None
        if covering:
            return rep.min_mult is not None and rep.min_mult >= r, rep.witness_min
        return rep.max_mult <= r, rep.witness_max
    ok, witness = reading(report)
    for step in steps:
        if not ok and witness is None:
            report = step() or report
            ok, witness = reading(report)
    if not ok:
        reason = (f"closed multiplicity {report.min_mult} falls below r={r}" if covering
                  else f"interior multiplicity {report.max_mult} exceeds r={r}")
        return VerificationResult(False, witness, report, reason=reason)
    if report.certificate is None:
        report = replace(report, violation_fraction_ucb=math.log(1.0 / ALPHA)
                         / report.samples)
    return VerificationResult(True, None, report)
