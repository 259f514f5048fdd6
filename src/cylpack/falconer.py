"""Non-separable disk families in the plane and plank-packing width bounds.

A family of closed disks is separable when some line misses every disk and
splits them into two nonempty groups.  For non-separable families the sum of
widths of any r-fold plank packing of the hull is at most r times the sum of
the disk diameters; the machinery here decides separability exactly, certifies
the circumradius of the hull, and verifies the width bound together with its
ridge-function and variational ingredients.  Every chord of a disk carries
unit mass under its density (1/pi) (r^2 - rho^2)^(-1/2), so the family's
density mass is its NS-diameter, ``ns_diameter``.  A plank is a k = 1
``cylinders.Cylinder`` in the plane (:func:`plank`): its frame's one column is
the normal u and its base, a 1-d ``geom.Polytope``, the interval [a, b] of
<x, u>.  A ``DiskFamily`` holds checked, frozen (n, 2) centres and n radii
and decides its separation (``is_separable``) and enclosing circle
(``circumradius``) once each.  Both separability and the hull, the disks
and the segments that join their extreme arcs (``_hull_segments``), come
from one pass of tangent arcs per disk.  ``check_disk_planks`` decides all
of one instance's checks from these and one exact arrangement sweep on the
hull, in the family's ``unit``; nothing is sampled, and the sweep's verdict
is a ``multiplicity.VerificationResult`` certified by ``SWEEP_CERTIFICATE``,
the evidence of the reports that rest on it.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cylinders, geom, multiplicity
from .bounds import (EXACT_TOL, GE, LE, BoundReport, evidence, hypothesis,
                     instance_digest, make_report)
from .errors import (
    DimensionMismatch,
    DomainError,
    NotAPacking,
    NotNS,
)

ON_LINE = 1e-12             # gap, in family units, and slope at which two boundary lines coincide
SHUFFLE_SEED = 0            # disk order of the enclosing-circle pass
SWEEP_BLOCK = 1 << 20       # midpoint-plank pairs counted per batch of the sweep
SVG_SIZE = 480              # width and height of family_to_svg drawings, in pixels
SWEEP_CERTIFICATE = "arrangement-sweep"


def _plane_vector(value, field: str) -> np.ndarray:
    vec = geom.json_numbers(value, field)
    if vec.size != 2:
        raise DimensionMismatch(f"{field} needs 2 components, got {vec.size}")
    return vec.reshape(2)


@dataclass(frozen=True, eq=False)
class DiskFamily:
    """Closed disks, as (n, 2) centres and n radii, plus the convex hull of
    their union.  ``separation`` (``is_separable``), ``circle``
    (``circumradius``), ``hull_segments`` and ``unit`` are computed once."""

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        radii = np.asarray(self.radii, dtype=float)
        if not radii.size:
            raise DomainError("a disk family needs at least one disk")
        if radii.ndim != 1 or centers.shape != (len(radii), 2):
            raise DimensionMismatch(f"a disk family needs (n, 2) centers and n radii, "
                                    f"got {centers.shape} and {radii.shape}")
        object.__setattr__(self, "centers", geom._freeze(centers))
        if not np.all((radii >= 0) & (radii < math.inf)):
            raise DomainError("disk radius must be nonnegative and finite")
        object.__setattr__(self, "radii", geom._freeze(radii))

    def __len__(self) -> int:
        return len(self.radii)

    def support(self, u) -> float:
        """Exact support function of the hull of the union."""
        u = np.asarray(u, dtype=float)
        return float(np.max(self.centers @ u + self.radii))

    @cached_property
    def separation(self) -> tuple[bool, "SeparatingLine | None"]:
        return is_separable(self)

    @cached_property
    def circle(self) -> "EnclosingCircle":
        return circumradius(self)

    @cached_property
    def hull_segments(self) -> np.ndarray:
        """``_hull_segments``; a non-separable family has them from the pair
        arcs of ``is_separable``."""
        return _hull_segments(self, _pair_arcs(self.centers, self.radii))

    @cached_property
    def unit(self) -> float:
        """``geom.length_unit`` of the largest |centre coordinate| or radius."""
        return geom.length_unit(max(float(np.max(np.abs(self.centers))),
                                    float(np.max(self.radii))))

    def to_json(self) -> dict:
        return {"disks": [{"center": c, "radius": r}
                          for c, r in zip(self.centers.tolist(), self.radii.tolist())]}


def family_from_json(obj: dict) -> DiskFamily:
    disks = obj["disks"]
    return DiskFamily([_plane_vector(d["center"], "disk center") for d in disks],
                      [geom.json_number(d["radius"], "disk radius") for d in disks])


def ns_diameter(family: DiskFamily) -> float:
    """Sum of the disk diameters."""
    return float(2.0 * np.sum(family.radii))


# ---------------------------------------------------------------------------
# exact separability


@dataclass(frozen=True)
class SeparatingLine:
    """Line {x : <x, u> = offset} witnessing separability."""

    u: tuple
    offset: float


def _arc_gaps(start: np.ndarray, length: np.ndarray, lo: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, left, right) of each open gap, ordered by i and then by angle,
    between the closed arcs [start, start + length] of normal angles in row
    i, whose columns are the disks j, once or repeated.  With lo = (r_i -
    r_j) / rho, where rho = |c_j - c_i|, disk j has no arc when lo > 1 or
    nan (disk i itself, an equal concentric disk), and row i has no gap when
    lo <= -1 (j holds i).  One sort per row: O(n^2 log n)."""
    meets = np.tile(lo <= 1.0, start.shape[1] // lo.shape[1])
    start = np.where(meets, np.mod(start, 2.0 * math.pi), np.inf)
    end = np.where(meets, start + length, -np.inf)
    order = np.argsort(start, axis=1, kind="stable")
    start = np.take_along_axis(start, order, axis=1)
    reach = np.maximum.accumulate(np.take_along_axis(end, order, axis=1), axis=1)
    wrapped = reach[:, -1:] - 2.0 * math.pi  # how far arcs past 2 pi cover the start
    left = np.concatenate([np.maximum(reach[:, :-1], wrapped), reach[:, -1:]], axis=1)
    right = np.concatenate([start[:, 1:], start[:, :1] + 2.0 * math.pi], axis=1)
    gap = (right > left) & (right < math.inf) & ~np.any(lo <= -1.0, axis=1)[:, None]
    rows, cols = np.nonzero(gap)
    return rows, left[rows, cols], right[rows, cols]


def _pair_arcs(c: np.ndarray, r: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(psi, lo, a, b) of each pair, row i and column j: c_j - c_i = rho
    (cos psi, sin psi), lo = (r_i - r_j) / rho, a = arccos((r_i + r_j) /
    rho) and b = arccos(lo), clipped to [0, pi].  A concentric disk (rho ==
    0) has lo = -inf, +inf or nan, exactly."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dx, dy = np.moveaxis(c[None, :, :] - c[:, None, :], 2, 0)  # row i: c_j - c_i
        rho, psi = np.hypot(dx, dy), np.arctan2(dy, dx)
        lo = (r[:, None] - r[None, :]) / rho
        a = np.arccos(np.minimum((r[:, None] + r[None, :]) / rho, 1.0))
        b = np.arccos(np.maximum(lo, -1.0))
    return psi, lo, a, b


def _tangent_gaps(arcs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(i, middle angle) of each open gap, ordered by i and then by angle,
    among the closed arcs of normal angles theta at which disk i's tangent
    line (disk i behind it) meets a disk j: cos(theta - psi) in
    [r_i - r_j, r_i + r_j] / rho (``_pair_arcs``).  A pair's arcs [psi + a,
    psi + b] and [psi - b, psi - a] are joined before the modulo 2 pi when
    they meet at psi (a == 0: j reaches past i's tangent point), lest
    rounding part them; when they also meet at psi + pi (b == pi: j holds
    i), they are the whole circle.  A concentric disk meets every tangent
    line of a smaller one and none of an equal or larger one."""
    psi, lo, a, b = arcs
    joined = a == 0.0
    rows, left, right = _arc_gaps(
        np.concatenate([np.where(joined, psi - b, psi + a), psi - b], axis=1),
        np.tile(np.where(joined, 2.0 * b, b - a), 2), lo)
    return rows, (left + right) / 2.0


def is_separable(family: DiskFamily) -> tuple[bool, SeparatingLine | None]:
    """Exact separability decision from one sweep of tangent arcs per disk.

    Slid back until it first touches a disk i, a strictly separating line is
    a tangent line beyond i that meets no other disk (turned a little if it
    touches two), with a disk j strictly beyond: cos(theta - psi) > (r_i +
    r_j) / rho.  Moved a little on, such a line separates.  So the witness is
    the middle of the first gap of ``_tangent_gaps`` with a disk beyond,
    offset midway between i's tangent line and the nearest near edge beyond;
    it must separate strictly in float arithmetic, since rounding may part
    two arcs that meet where a line touches three disks.  A single disk has
    no gap with a disk beyond, so it is non-separable.  A non-separable
    family keeps the O(hull) ``hull_segments`` of the same O(n^2) pair arcs.
    """
    n, c, r = len(family), family.centers, family.radii
    arcs = _pair_arcs(c, r)
    rows, theta = _tangent_gaps(arcs)
    for k in range(0, len(rows), n):  # n gaps at a time: O(n^2) memory
        i, ux, uy = rows[k:k + n], np.cos(theta[k:k + n]), np.sin(theta[k:k + n])
        proj = ux[:, None] * c[:, 0] + uy[:, None] * c[:, 1]
        tangent = proj[np.arange(len(i)), i] + r[i]
        beyond = np.where(proj - r > tangent[:, None], proj - r, np.inf)  # near edges
        offset = (tangent + np.min(beyond, axis=1)) / 2.0
        hit = np.flatnonzero(np.all(np.abs(proj - offset[:, None]) > r, axis=1)
                             & (offset < math.inf))  # inf: no disk beyond
        if hit.size:
            g = hit[0]
            return True, SeparatingLine(u=(float(ux[g]), float(uy[g])),
                                        offset=float(offset[g]))
    vars(family)["hull_segments"] = _hull_segments(family, arcs)
    return False, None


# ---------------------------------------------------------------------------
# smallest circle containing every disk


@dataclass(frozen=True)
class EnclosingCircle:
    center: tuple
    radius: float
    support: tuple  # indices of the determining disks


def _disk_in_circle(disk, center: np.ndarray, radius: float,
                    tol: float = 1e-12) -> bool:
    c, r = disk
    scale = max(1.0, radius)
    return float(np.linalg.norm(c - center)) + r <= radius + tol * scale


def _circle_two(d1, d2) -> tuple[np.ndarray, float]:
    (c1, r1), (c2, r2) = d1, d2
    gap = float(np.linalg.norm(c2 - c1))
    if gap + r2 <= r1:
        return c1.copy(), r1
    if gap + r1 <= r2:
        return c2.copy(), r2
    radius = (gap + r1 + r2) / 2.0
    direction = (c2 - c1) / gap
    return c1 + (radius - r1) * direction, radius


def _circle_three(d1, d2, d3) -> tuple[np.ndarray, float] | None:
    # internally tangent circle: |x - c_i| = R - r_i; pair differences are
    # linear in (x, R), leaving one quadratic in R
    c, r = zip(d1, d2, d3)
    a = 2.0 * np.array([c[0] - c[1], c[0] - c[2]])
    dvec = 2.0 * np.array([r[0] - r[1], r[0] - r[2]])
    rhs = np.array([
        c[0] @ c[0] - c[1] @ c[1] - r[0] ** 2 + r[1] ** 2,
        c[0] @ c[0] - c[2] @ c[2] - r[0] ** 2 + r[2] ** 2,
    ])
    if abs(np.linalg.det(a)) < 1e-12:
        return None
    p = np.linalg.solve(a, rhs)
    q = np.linalg.solve(a, dvec)
    qa = float(q @ q) - 1.0
    qb = 2.0 * (float(q @ (p - c[0])) + r[0])
    qc = float((p - c[0]) @ (p - c[0])) - r[0] ** 2
    roots = []
    if abs(qa) < 1e-14:
        if abs(qb) > 1e-14:
            roots = [-qc / qb]
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0:
            s = math.sqrt(disc)
            roots = [(-qb - s) / (2 * qa), (-qb + s) / (2 * qa)]
    best = None
    for radius in roots:
        if radius < max(r) - 1e-12:
            continue
        x = p + radius * q
        if all(_disk_in_circle(d, x, radius, tol=1e-9) for d in (d1, d2, d3)):
            if best is None or radius < best[1]:
                best = (x, radius)
    return best


def _smallest_circle_of(support: list[tuple[int, tuple]]) -> tuple[np.ndarray, float]:
    disks = [d for _, d in support]
    if not disks:
        return np.zeros(2), -1.0
    if len(disks) == 1:
        return disks[0][0].copy(), disks[0][1]
    if len(disks) == 2:
        return _circle_two(*disks)
    cands = [_circle_three(*disks)]
    for i in range(3):
        pair = [disks[j] for j in range(3) if j != i]
        cands.append(_circle_two(*pair))
    best = None
    for cand in cands:
        if cand is None:
            continue
        x, radius = cand
        if all(_disk_in_circle(d, x, radius, tol=1e-9) for d in disks):
            if best is None or radius < best[1]:
                best = (x, radius)
    return best if best is not None else _circle_two(disks[0], disks[-1])


def circumradius(family: DiskFamily) -> EnclosingCircle:
    """Smallest circle containing every disk.

    Incremental Welzl-style pass over disks shuffled with the fixed seed
    ``SHUFFLE_SEED``: whenever a disk falls outside the current circle it joins
    the boundary basis and the prefix is re-solved, so the output is determined
    by at most three internally tangent support disks; the helpers take disks
    as (centre, radius) rows.  The pass runs in the family's ``unit``, so no
    square underflows and the helpers' thresholds and tolerances are
    relative to the family.  Raises
    ``DomainError`` when the circle is not finite in double precision or a
    containment post-check finds a disk outside it.
    """
    import random as _random

    unit = family.unit
    # float64: a square overflows to inf
    rows = list(zip(family.centers / unit, family.radii / unit))
    order = list(enumerate(rows))
    _random.Random(SHUFFLE_SEED).shuffle(order)

    def solve(items: list, support: list) -> tuple[np.ndarray, float, list]:
        x, radius = _smallest_circle_of(support)
        basis = list(support)
        for pos, item in enumerate(items):
            if len(support) < 3 and (radius < 0 or
                                     not _disk_in_circle(item[1], x, radius)):
                x, radius, basis = solve(items[:pos], support + [item])
        return x, radius, basis

    with np.errstate(over="ignore", invalid="ignore"):  # the checks below decide
        x, radius, basis = solve(order, [])
        if not (np.all(np.isfinite(x)) and math.isfinite(radius)):
            raise DomainError("the enclosing circle is not finite in double precision")
        if not all(_disk_in_circle(d, x, radius, tol=1e-10) for d in rows):
            raise DomainError("the enclosing circle leaves a disk outside")
    return EnclosingCircle(center=(float(x[0] * unit), float(x[1] * unit)),
                           radius=float(radius * unit),
                           support=tuple(sorted(i for i, _ in basis)))


# ---------------------------------------------------------------------------
# exact hull of the disks


def _hull_segments(family: DiskFamily, arcs: tuple) -> np.ndarray:
    """(m, 2, 2) ends of the segments that join the hull's boundary arcs,
    from the family's pair ``arcs``; not finite where the hull is not.

    Disk i is extreme at the normal angle theta (c_i.v + r_i >= c_j.v + r_j
    for every j) exactly when theta lies outside every open arc (psi - b,
    psi + b) of ``_pair_arcs``, where a disk j reaches past i's tangent line.
    So the gaps ``_arc_gaps`` leaves are the extreme arcs.  Taken in the
    order of their middles, each one's last tangent point is joined to the
    next one's first: a segment of two disk points, in the hull.  A sliver
    of arc that rounding leaves a disk on an edge sorts between its ends.
    """
    c, r = family.centers, family.radii
    psi, lo, _, b = arcs
    disk, left, right = _arc_gaps(psi - b, 2.0 * b, lo)
    order = np.argsort(np.mod((left + right) / 2.0, 2.0 * math.pi), kind="stable")
    disks = np.column_stack([disk[order], np.roll(disk[order], -1)])
    angles = np.column_stack([right[order], np.roll(left[order], -1)])
    with np.errstate(over="ignore", invalid="ignore"):
        return c[disks] + r[disks, None] * np.stack([np.cos(angles), np.sin(angles)], axis=2)


def _chords(family: DiskFamily, segments: np.ndarray, points: np.ndarray,
            directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ends (lo, hi) of the ranges of t with points + t * directions in the
    hull, one row per line (unit directions); lo >= hi where a line meets the
    hull in at most one point, and possibly where it runs along a segment.

    The hull boundary is made of disk arcs and ``hull_segments``, so its
    chord runs from the lowest to the highest point at which the line meets
    a disk or a segment.  Each line's products have the shapes of a lone
    line's, (n + 2m, 2) @ (2,) stacked over the lines, so a line gets the
    same bits in any batch.
    """
    n = len(family)
    normals = np.column_stack([-directions[:, 1], directions[:, 0]])
    rel = np.concatenate([family.centers, segments.reshape(-1, 2)]) - points[:, None, :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        side = (rel @ normals[:, :, None])[..., 0]
        mid = (rel @ directions[:, :, None])[..., 0]
        room2 = family.radii ** 2 - side[:, :n] ** 2
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


# ---------------------------------------------------------------------------
# planks and exact multiplicity


def plank(u, a: float, b: float) -> cylinders.Cylinder:
    """The strip {x : a <= <x, u> <= b} for a unit normal u in the plane: a
    k = 1 cylinder whose frame is u and whose base is the interval [a, b].
    u is renormalized (it must be a unit vector within 1e-9) before the frame
    checks it to 1e-12."""
    u = _plane_vector(u, "plank normal")
    with np.errstate(over="ignore"):  # past ~1.3e154 the norm is inf and fails
        norm = np.linalg.norm(u)
    if abs(norm - 1.0) > 1e-9:
        raise DomainError("plank normal must be a unit vector")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("plank offsets must be finite")
    if not b > a:
        raise DomainError("plank needs positive width")
    return cylinders.Cylinder(geom.Frame((u / norm)[:, None]),
                              geom.Polytope(np.array([[a], [b]], dtype=float)))


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


def _planks_json(normals: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> list[dict]:
    return [{"u": u, "interval": [a, b]}
            for u, a, b in zip(normals.tolist(), lows.tolist(), highs.tolist())]


def plank_to_json(p: cylinders.Cylinder) -> dict:
    return _planks_json(*_plank_arrays([p]))[0]


def plank_from_json(obj: dict) -> cylinders.Cylinder:
    a, b = obj["interval"]
    return plank(obj["u"], geom.json_number(a, "plank interval"),
                 geom.json_number(b, "plank interval"))


def _support_range(family: DiskFamily, normals: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(-h(-u), h(u)) of the hull for each row u of normals: ``support``'s
    (n, 2) @ (2,) products, stacked over the rows."""
    proj = (family.centers @ normals[:, :, None])[..., 0]
    return (-np.max(family.radii - proj, axis=1, initial=-np.inf),
            np.max(proj + family.radii, axis=1, initial=-np.inf))


def exact_plank_multiplicity(family: DiskFamily, normals: np.ndarray,
                             lows: np.ndarray, highs: np.ndarray) -> tuple[int, tuple]:
    """Largest open-plank multiplicity over the hull, with a witness point,
    for the planks {x : lows < <x, u> < highs}, u the rows of normals
    (``_plank_arrays``).

    The plank boundary lines cut the hull into arrangement cells of constant
    multiplicity.  When some line crosses the hull interior, every cell that
    meets the interior borders such a line's chord between two consecutive
    crossings with the other lines; otherwise the hull is one cell.  So the
    count on both sides of every sub-segment midpoint, plus the count at one
    interior point, visits every cell.  A boundary line that coincides with
    the chord's own line (within ``ON_LINE``, as shared plank boundaries do)
    is decided by the side, not by comparing offsets.  The witness lies in
    the hull and in exactly the returned number of open planks.  The sweep
    runs in the family's ``unit``, exactly, so its thresholds are relative
    to the family's size: a family scaled by a power of two gets the same
    count, and its witness scaled by that power.

    All 2P boundary lines (each plank's low line, then its high line) are
    swept at once: their chords (``_chords`` through the disks and
    ``hull_segments``), crossings, sorted sub-segment ends and
    midpoint counts are arrays over the lines.  The cell is the first
    maximum in (line, side, midpoint) order, taken when it beats the
    interior point.  Every product has the shapes of a lone line's: the
    midpoint counts of the lines with M midpoints are one (M, 2) @ (2, P)
    product per line, stacked.
    """
    unit = family.unit  # a power of two: the scaling is exact
    segments = family.hull_segments / unit  # the copy's, unless subnormal
    family = DiskFamily(family.centers / unit, family.radii / unit)
    with np.errstate(over="ignore"):  # past the hull: inf is as good
        lows, highs = lows / unit, highs / unit
    if not np.all(np.isfinite(segments)):
        raise DomainError("disk family hull is not finite in double precision")
    inner = np.mean(family.centers, axis=0)  # interior: a mix of disk centers
    t = normals @ inner
    best = int(np.sum((t > lows) & (t < highs)))
    u = np.repeat(normals, 2, axis=0)  # the lines <x, u> = s
    s = np.column_stack([lows, highs]).ravel()
    d = np.column_stack([-u[:, 1], u[:, 0]])
    bottom, top = np.repeat(_support_range(family, normals), 2, axis=1)
    meets = (bottom < s) & (s < top)  # no chord outside the support range, where s may be huge
    lo, hi = _chords(family, segments, np.where(meets, s, 0.0)[:, None] * u, d)
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
                           _chords(family, segments, mid[None], step[None])[1]])
    return best, tuple(map(float, (mid + 0.5 * float(np.min(gaps)) * step) * unit))


def verify_plank_packing(family: DiskFamily, normals: np.ndarray, lows: np.ndarray,
                         highs: np.ndarray, r: int) -> multiplicity.VerificationResult:
    """r-fold packing check of planks (``_plank_arrays``) inside the hull,
    exact on arrangement cells (``SWEEP_CERTIFICATE``); like a packing's
    ``multiplicity.decide`` it also fails, without a witness, when a
    plank leaves the support range by more than ``cylinders.CONTAINMENT_TOL``
    times the family's ``unit``."""
    mult, witness = exact_plank_multiplicity(family, normals, lows, highs)
    report = multiplicity.MultiplicityReport(0, mult, None, None, witness, None,
                                             None, certificate=SWEEP_CERTIFICATE)
    tol = cylinders.CONTAINMENT_TOL * family.unit
    bottom, top = _support_range(family, normals)
    outside = np.flatnonzero((lows < bottom - tol) | (highs > top + tol))
    if outside.size:
        return multiplicity.VerificationResult(
            False, None, report, reason=f"plank {outside[0]} base leaves the support range")
    return multiplicity.judge(report, r)


# ---------------------------------------------------------------------------
# the disk-plank checks


def check_disk_planks(family: DiskFamily, planks, r: int) -> list[BoundReport]:
    """Every disk-plank check of one instance, from the family's separation
    and enclosing circle and one arrangement sweep.

    Reports, in order: the width bound for plank packings of a non-separable
    family's hull (sum of widths <= r * sum of diameters); the circumradius
    bound (2 R <= sum of diameters); the ridge-function route to the width
    bound, whose pointwise condition (the strip indicators scaled by 1/r sum
    to at most 1 almost everywhere on the hull) is the sweep's open-cell
    multiplicity bound, and whose strip integrals are bounded by the total
    mass of the family density; and the chain consistency check that this
    mass is at least twice the circumradius.  The mass is the NS-diameter,
    and one ``ns_diameter`` value serves all four reports.  Raises ``NotNS``
    for a separable family and ``NotAPacking`` (``bounds.evidence``), with
    the sweep's verdict and witness, when the planks are no r-fold packing.
    """
    separable, line = family.separation
    if separable:
        raise NotNS(f"family is separable by the line {line}")
    normals, lows, highs = _plank_arrays(planks)
    ev = evidence(verify_plank_packing(family, normals, lows, highs, r), NotAPacking)
    diam_ns = ns_diameter(family)
    circ = family.circle
    family_json = family.to_json()
    digest = instance_digest({"family": family_json,
                              "planks": _planks_json(normals, lows, highs), "r": r})
    widths = (highs - lows).tolist()  # Python floats: sum() rounds as it always has
    tol = EXACT_TOL * family.unit  # every side is a length
    return [
        make_report("plank_width_sum", float(sum(widths)), r * diam_ns, LE, digest,
                    **hypothesis(ev, "packing"), tolerance=tol),
        make_report("circumradius_vs_ns_diameter", 2.0 * circ.radius, diam_ns,
                    LE, digest, tolerance=tol),
        make_report("ridge_mass_bound",
                    float(sum((1.0 / r) * w for w in widths)), diam_ns, LE, digest,
                    **hypothesis(ev, "packing",
                                 "pointwise bound checked on arrangement cells"),
                    tolerance=tol),
        make_report("mass_circumradius", diam_ns, 2.0 * circ.radius, GE,
                    instance_digest({"family": family_json}),
                    notes=f"bracket [2R, ns_diameter] = "
                          f"[{2.0 * circ.radius!r}, {diam_ns!r}]", tolerance=tol),
    ]


# ---------------------------------------------------------------------------
# SVG rendering


def family_to_svg(family: DiskFamily, planks=()) -> str:
    """Static ``SVG_SIZE``-pixel SVG drawing of the disks, optional planks
    and, for a separable family, its separating line, framed by the family's
    enclosing circle."""
    (cx, cy), half = family.circle.center, family.circle.radius * 1.25
    scale = SVG_SIZE / (2.0 * half)

    def sx(x: float) -> float:
        return (x - cx + half) * scale

    def sy(y: float) -> float:
        return (cy + half - y) * scale

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
             f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">']
    for u, a, b in zip(*_plank_arrays(planks)):
        d = np.array([-u[1], u[0]])
        corners = [a * u + 3 * half * d, b * u + 3 * half * d,
                   b * u - 3 * half * d, a * u - 3 * half * d]
        pts = " ".join(f"{sx(c[0]):.2f},{sy(c[1]):.2f}" for c in corners)
        parts.append(f'<polygon points="{pts}" fill="#44a" fill-opacity="0.15" '
                     f'stroke="#44a" stroke-width="1"/>')
    for (x, y), radius in zip(family.centers, family.radii):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" '
                     f'r="{radius * scale:.2f}" fill="#c33" fill-opacity="0.35" '
                     f'stroke="#c33" stroke-width="1.5"/>')
    _, line = family.separation
    if line is not None:
        u = np.asarray(line.u)
        d = np.array([-u[1], u[0]])
        p0 = line.offset * u - 3 * half * d
        p1 = line.offset * u + 3 * half * d
        parts.append(f'<line x1="{sx(p0[0]):.2f}" y1="{sy(p0[1]):.2f}" '
                     f'x2="{sx(p1[0]):.2f}" y2="{sy(p1[1]):.2f}" '
                     f'stroke="#000" stroke-width="2" stroke-dasharray="6 4"/>')
    parts.append("</svg>")
    return "\n".join(parts)
