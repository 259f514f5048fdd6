"""Non-separable disk families in the plane and plank-packing width bounds.

A family of closed disks is separable when some line misses every disk and
splits them into two nonempty groups.  For non-separable families the sum of
widths of any r-fold plank packing of the hull is at most r times the sum of
the disk diameters; the machinery here decides separability exactly, certifies
the circumradius of the hull, and verifies the width bound together with its
ridge-function and variational ingredients.  ``check_disk_planks`` decides all
of one instance's checks in one pass: one separability test, one exact
arrangement sweep on the hull of the disks and one circumradius; nothing is
sampled.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import geom
from .bounds import GE, LE, BoundReport, instance_digest, make_report
from .errors import (
    DimensionMismatch,
    DomainError,
    LineMissesBody,
    NotAPacking,
    NotNS,
)

UNIT_CHORD = "unit_chord"   # density (1/pi) (r^2 - rho^2)^(-1/2): every chord integrates to 1
RADIUS_SCALED = "radius_scaled"  # 1/(pi r) scaling: a chord of disk j integrates to 1/r_j

SUPPORT_TOL = 1e-9          # slack of a plank's base against the hull's support range
ON_LINE = 1e-12             # relative gap and slope at which two boundary lines coincide


def _plane_vector(value, field: str) -> np.ndarray:
    vec = np.asarray(value, dtype=float)
    if vec.size != 2:
        raise DimensionMismatch(f"{field} needs 2 components, got {vec.size}")
    return vec.reshape(2)


@dataclass(frozen=True, eq=False)
class Disk:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _plane_vector(self.center, "disk center")
        object.__setattr__(self, "center", geom._freeze(c))
        if not 0 <= self.radius < math.inf:
            raise DomainError("disk radius must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class DiskFamily:
    """Closed disks plus the convex hull of their union."""

    disks: tuple

    def __post_init__(self):
        disks = tuple(self.disks)
        if not disks:
            raise DomainError("a disk family needs at least one disk")
        object.__setattr__(self, "disks", disks)

    def __len__(self) -> int:
        return len(self.disks)

    @property
    def centers(self) -> np.ndarray:
        return np.asarray([d.center for d in self.disks])

    @property
    def radii(self) -> np.ndarray:
        return np.asarray([d.radius for d in self.disks])

    def support(self, u) -> float:
        """Exact support function of the hull of the union."""
        u = np.asarray(u, dtype=float)
        return float(np.max(self.centers @ u + self.radii))

    def to_json(self) -> dict:
        return {"disks": [{"center": d.center.tolist(), "radius": d.radius}
                          for d in self.disks]}


def family_from_json(obj: dict) -> DiskFamily:
    return DiskFamily(tuple(Disk(np.asarray(d["center"], dtype=float),
                                 float(d["radius"]))
                            for d in obj["disks"]))


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


def _gap_offset(centers: np.ndarray, radii: np.ndarray, u: np.ndarray,
                ) -> float | None:
    proj = centers @ u
    order = np.argsort(proj - radii)
    lefts = (proj - radii)[order]
    rights = (proj + radii)[order]
    max_right = rights[0]
    for i in range(1, len(order)):
        if lefts[i] > max_right:  # strict: a tangent line is not disjoint
            return float((max_right + lefts[i]) / 2.0)
        max_right = max(max_right, rights[i])
    return None


def _pair_angles(centers: np.ndarray, radii: np.ndarray, offsets) -> list[float]:
    """Angles of the unit normals v with (c_i - c_j).v = w, over the pairs
    i < j and each w in ``offsets(r_i, r_j)``."""
    out = []
    n = len(radii)
    for i in range(n):
        for j in range(i + 1, n):
            v = centers[i] - centers[j]
            rho = math.hypot(v[0], v[1])  # no overflow in squares near 1e154
            if rho < 1e-15:
                continue
            psi = math.atan2(v[1], v[0])
            for w in offsets(radii[i], radii[j]):
                val = float(w) / rho  # a Python float: inf, not a warning
                if abs(val) <= 1.0:
                    a = math.acos(val)
                    out += [psi + a, psi - a]
    return out


def _critical_angles(centers: np.ndarray, radii: np.ndarray) -> list[float]:
    out = {a % math.pi for a in _pair_angles(
        centers, radii, lambda ri, rj: (ri + rj, -(ri + rj), ri - rj, rj - ri))}
    merged: list[float] = []
    for angle in sorted(out):
        if not merged or angle - merged[-1] > 1e-9:
            merged.append(angle)
    return merged


def is_separable(family: DiskFamily) -> tuple[bool, SeparatingLine | None]:
    """Exact separability decision.

    Projected onto a direction, the disks become intervals, and a separating
    line perpendicular to the direction exists exactly when the sorted
    intervals leave a strict gap with disks on both sides.  The interval
    overlap pattern only changes at finitely many critical directions (where
    projected endpoints coincide), so testing every critical direction plus
    one direction per cell in between decides separability exactly.  A single
    disk is non-separable by convention.
    """
    if len(family) < 2:
        return False, None
    centers, radii = family.centers, family.radii
    crit = _critical_angles(centers, radii)
    candidates = []
    if crit:
        # cell midpoints first: they witness fat gaps; critical angles only
        # matter for tangency-boundary cells and are appended after
        wrapped = crit + [crit[0] + math.pi]
        candidates.extend((a + b) / 2.0 for a, b in zip(wrapped, wrapped[1:]))
        candidates.extend(crit)
    else:
        candidates.extend([0.0, math.pi / 2.0])
    for theta in candidates:
        u = np.array([math.cos(theta), math.sin(theta)])
        offset = _gap_offset(centers, radii, u)
        if offset is not None:
            return True, SeparatingLine(u=(float(u[0]), float(u[1])),
                                        offset=offset)
    return False, None


# ---------------------------------------------------------------------------
# smallest circle containing every disk


@dataclass(frozen=True)
class EnclosingCircle:
    center: tuple
    radius: float
    support: tuple  # indices of the determining disks

    def tangency_residuals(self, family: DiskFamily) -> list[float]:
        c = np.asarray(self.center)
        return [abs(self.radius - (float(np.linalg.norm(family.disks[i].center - c))
                                   + family.disks[i].radius))
                for i in self.support]


def _disk_in_circle(d: Disk, center: np.ndarray, radius: float,
                    tol: float = 1e-12) -> bool:
    scale = max(1.0, radius)
    return float(np.linalg.norm(d.center - center)) + d.radius <= radius + tol * scale


def _circle_two(d1: Disk, d2: Disk) -> tuple[np.ndarray, float]:
    gap = float(np.linalg.norm(d2.center - d1.center))
    if gap + d2.radius <= d1.radius:
        return d1.center.copy(), d1.radius
    if gap + d1.radius <= d2.radius:
        return d2.center.copy(), d2.radius
    radius = (gap + d1.radius + d2.radius) / 2.0
    direction = (d2.center - d1.center) / gap
    return d1.center + (radius - d1.radius) * direction, radius


def _circle_three(d1: Disk, d2: Disk, d3: Disk) -> tuple[np.ndarray, float] | None:
    # internally tangent circle: |x - c_i| = R - r_i; pair differences are
    # linear in (x, R), leaving one quadratic in R
    c = [d.center for d in (d1, d2, d3)]
    r = [d.radius for d in (d1, d2, d3)]
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


def _smallest_circle_of(support: list[tuple[int, Disk]]) -> tuple[np.ndarray, float]:
    disks = [d for _, d in support]
    if not disks:
        return np.zeros(2), -1.0
    if len(disks) == 1:
        return disks[0].center.copy(), disks[0].radius
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


def circumradius(family: DiskFamily, seed: int = 0) -> EnclosingCircle:
    """Smallest circle containing every disk.

    Incremental Welzl-style pass over shuffled disks: whenever a disk falls
    outside the current circle it joins the boundary basis and the prefix is
    re-solved, so the output is determined by at most three internally tangent
    support disks.  A containment post-check raises ``DomainError`` if the
    result still leaves a disk outside.
    """
    import random as _random

    order = list(enumerate(family.disks))
    _random.Random(seed).shuffle(order)

    def solve(items: list, support: list) -> tuple[np.ndarray, float, list]:
        x, radius = _smallest_circle_of(support)
        basis = list(support)
        for pos, item in enumerate(items):
            if len(support) < 3 and (radius < 0 or
                                     not _disk_in_circle(item[1], x, radius)):
                x, radius, basis = solve(items[:pos], support + [item])
        return x, radius, basis

    x, radius, basis = solve(order, [])
    if not all(_disk_in_circle(d, x, radius, tol=1e-10) for d in family.disks):
        raise DomainError("the enclosing circle leaves a disk outside")
    return EnclosingCircle(center=(float(x[0]), float(x[1])),
                           radius=float(radius),
                           support=tuple(sorted(i for i, _ in basis)))


# ---------------------------------------------------------------------------
# exact hull of the disks


def _unit(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def _hull_polygon(family: DiskFamily) -> np.ndarray:
    """Rows (n_x, n_y, offset) of halfplanes n.x <= offset.

    The support function h(v) = max_i(c_i.v + r_i) changes its extreme disk
    only at outer-bitangent normals, where c_i.v + r_i = c_j.v + r_j.  So the
    hull boundary is the extreme disk's arc between consecutive such normals,
    joined by bitangent segments, and the hull is the union of the disks and
    the polygon of the arc endpoints.  That polygon is cut out by each
    bitangent line and each arc's chord line; it is empty (no rows) when a
    single arc remains, that is, when one disk holds all the others.
    """
    centers, radii = family.centers, family.radii
    angles = sorted({a % (2.0 * math.pi) for a in _pair_angles(
        centers, radii, lambda ri, rj: (rj - ri,))})
    arcs: list[list] = []  # [extreme disk, start angle, end angle]
    for lo, hi in zip(angles, angles[1:] + [a + 2.0 * math.pi for a in angles[:1]]):
        disk = int(np.argmax(centers @ _unit((lo + hi) / 2.0) + radii))
        if arcs and arcs[-1][0] == disk:
            arcs[-1][2] = hi
        else:
            arcs.append([disk, lo, hi])
    if len(arcs) > 1 and arcs[0][0] == arcs[-1][0]:
        arcs[0][1] = arcs.pop()[1] - 2.0 * math.pi
    rows = []
    if len(arcs) > 1:
        for disk, lo, hi in arcs:
            v = _unit((lo + hi) / 2.0)
            rows.append([*v, centers[disk] @ v + radii[disk] * math.cos((hi - lo) / 2.0)])
            v = _unit(hi)
            rows.append([*v, family.support(v)])
    rows = np.asarray(rows, dtype=float).reshape(-1, 3)
    if not np.all(np.isfinite(rows)):
        raise DomainError("disk family hull is not finite in double precision")
    return rows


def _chord(family: DiskFamily, polygon: np.ndarray, point: np.ndarray,
           direction: np.ndarray) -> tuple[float, float] | None:
    """Range of t with point + t * direction in the hull (direction a unit
    vector), or None when the line meets the hull in at most one point.

    The hull is the union of the disks and the polygon, and that union is
    convex, so its chord runs from the lowest to the highest end of theirs.
    """
    normal = np.array([-direction[1], direction[0]])
    rel = family.centers - point
    with np.errstate(over="ignore", invalid="ignore"):
        room2 = family.radii ** 2 - (rel @ normal) ** 2
        hit = room2 >= 0
        half, mid = np.sqrt(room2[hit]), (rel @ direction)[hit]
        ends = [mid - half, mid + half]
        slope = polygon[:, :2] @ direction
        room = polygon[:, 2] - polygon[:, :2] @ point
        if len(polygon) and np.all(room[slope == 0] >= 0):
            lo = np.max(room[slope < 0] / slope[slope < 0])
            hi = np.min(room[slope > 0] / slope[slope > 0])
            if lo <= hi:
                ends += [[lo], [hi]]
    ends = np.concatenate(ends)
    if not (np.all(np.isfinite(room2)) and np.all(np.isfinite(ends))):
        raise DomainError("disk family hull chord is not finite in double precision")
    if not len(ends) or np.min(ends) >= np.max(ends):
        return None
    return float(np.min(ends)), float(np.max(ends))


# ---------------------------------------------------------------------------
# planks and exact multiplicity


@dataclass(frozen=True, eq=False)
class Plank2D:
    """Strip {x : a <= <x, u> <= b} for a unit normal u."""

    u: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        u = _plane_vector(self.u, "plank normal")
        with np.errstate(over="ignore"):  # past ~1.3e154 the norm is inf and fails
            norm = np.linalg.norm(u)
        if abs(norm - 1.0) > 1e-9:
            raise DomainError("plank normal must be a unit vector")
        object.__setattr__(self, "u", geom._freeze(u / norm))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("plank offsets must be finite")
        if not self.b > self.a:
            raise DomainError("plank needs positive width")

    @property
    def width(self) -> float:
        return self.b - self.a

    def to_json(self) -> dict:
        return {"u": self.u.tolist(), "interval": [self.a, self.b]}


def plank_from_json(obj: dict) -> Plank2D:
    a, b = obj["interval"]
    return Plank2D(np.asarray(obj["u"], dtype=float), float(a), float(b))


def exact_plank_multiplicity(family: DiskFamily, planks) -> tuple[int, tuple]:
    """Largest open-plank multiplicity over the hull, with a witness point.

    The plank boundary lines cut the hull into arrangement cells of constant
    multiplicity.  When some line crosses the hull interior, every cell that
    meets the interior borders such a line's chord between two consecutive
    crossings with the other lines; otherwise the hull is one cell.  So the
    count on both sides of every sub-segment midpoint, plus the count at one
    interior point, visits every cell.  A boundary line that coincides with
    the chord's own line (within ``ON_LINE``, as shared plank boundaries do)
    is decided by the side, not by comparing offsets.  The witness lies in
    the hull and in exactly the returned number of open planks.
    """
    planks = list(planks)
    normals = np.asarray([p.u for p in planks]).reshape(-1, 2)
    lows = np.asarray([p.a for p in planks])
    highs = np.asarray([p.b for p in planks])
    polygon = _hull_polygon(family)
    inner = np.mean(family.centers, axis=0)  # interior: a mix of disk centers
    t = normals @ inner
    best, cell = int(np.sum((t > lows) & (t < highs))), None
    for u, s in [(p.u, s) for p in planks for s in (p.a, p.b)]:
        d = np.array([-u[1], u[0]])
        chord = _chord(family, polygon, s * u, d)
        if chord is None or not -family.support(-u) < s < family.support(u):
            continue  # the line misses the hull interior
        slope, along = normals @ d, normals @ u
        crossing = np.abs(slope) > ON_LINE
        cuts = ((np.concatenate([lows[crossing], highs[crossing]])
                 - s * np.tile(along[crossing], 2)) / np.tile(slope[crossing], 2))
        cuts = cuts[(cuts > chord[0]) & (cuts < chord[1])]
        ts = np.unique(np.concatenate([chord, cuts]))
        mids = s * u + ((ts[:-1] + ts[1:]) / 2.0)[:, None] * d
        t = mids @ normals.T
        on_line = ON_LINE * max(1.0, abs(s))
        on_low = ~crossing & (np.abs(lows - s * along) <= on_line)
        on_high = ~crossing & (np.abs(highs - s * along) <= on_line)
        for side in (1.0, -1.0):
            inside = (np.where(on_low, side * along > 0, t > lows)
                      & np.where(on_high, side * along < 0, t < highs))
            counts = inside.sum(axis=1)
            k = int(np.argmax(counts))
            if counts[k] > best:
                best = int(counts[k])
                cell = (mids[k], side * u, on_low, on_high)
    if cell is None:
        return best, tuple(map(float, inner))
    # step off the midpoint into its cell: half way to the nearest other
    # boundary line or to the hull boundary
    mid, step, on_low, on_high = cell
    t = normals @ mid
    gaps = np.concatenate([np.abs(t - lows)[~on_low], np.abs(t - highs)[~on_high],
                           [_chord(family, polygon, mid, step)[1]]])
    return best, tuple(map(float, mid + 0.5 * float(np.min(gaps)) * step))


@dataclass(frozen=True)
class PlankVerdict:
    """Exact plank-packing verdict: the sweep's largest open multiplicity and
    its witness, both None when a plank leaves the support range."""

    ok: bool
    max_mult: int | None
    witness: tuple | None
    reason: str = ""

    def to_json(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "ok"}


def verify_plank_packing(family: DiskFamily, planks, r: int) -> PlankVerdict:
    """Packing check for planks inside the hull, exact on arrangement cells."""
    for i, p in enumerate(planks):
        lo = -family.support(-p.u)
        hi = family.support(p.u)
        if p.a < lo - SUPPORT_TOL or p.b > hi + SUPPORT_TOL:
            return PlankVerdict(False, None, None,
                                f"plank {i} base leaves the support range")
    mult, witness = exact_plank_multiplicity(family, planks)
    if mult > r:
        return PlankVerdict(False, mult, witness,
                            f"multiplicity {mult} at {witness} exceeds r={r}")
    return PlankVerdict(True, mult, witness)


# ---------------------------------------------------------------------------
# sectional integrals of the disk densities


def _chord_half_length(disk: Disk, s: float, u: np.ndarray) -> float:
    dist = abs(float(disk.center @ u) - s)
    if dist >= disk.radius:
        return 0.0
    return math.sqrt(disk.radius ** 2 - dist ** 2)


def sectional_integral(family: DiskFamily, s: float, u,
                       mode: str = UNIT_CHORD) -> float:
    """Integral of the family density over the line <x, u> = s inside the hull.

    In unit-chord mode every disk whose open interior the line crosses
    contributes exactly 1 (the arcsine integral of the inverse-square-root
    profile), so the value counts crossed disks; the radius-scaled normalization
    contributes 1/radius instead.
    """
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    if not (-family.support(-u) + 1e-12 < s < family.support(u) - 1e-12):
        raise LineMissesBody("section line misses the interior of the hull")
    total = 0.0
    for disk in family.disks:
        if _chord_half_length(disk, s, u) > 0.0:
            total += 1.0 if mode == UNIT_CHORD else 1.0 / disk.radius
    return total


def disk_mass(disk: Disk, mode: str = UNIT_CHORD) -> float:
    """Total mass of one disk's density: the diameter in unit-chord mode."""
    return 2.0 * disk.radius if mode == UNIT_CHORD else 2.0


def total_mass(family: DiskFamily, mode: str = UNIT_CHORD) -> float:
    """Mass of the summed disk densities; the NS-diameter in unit-chord mode."""
    return float(sum(disk_mass(d, mode) for d in family.disks))


# ---------------------------------------------------------------------------
# variational profile bound


def minimal_profile_mass(moment: float, floor: float) -> float:
    """Infimum of the total of a profile F >= floor with first moment >= moment.

    The infimum over the cutoff A of integral_0^A F equals sqrt(2 * moment *
    floor), attained by the constant profile F = floor on [0, sqrt(2 moment /
    floor)].
    """
    if moment <= 0 or floor <= 0:
        raise DomainError("moment and floor must be positive")
    return math.sqrt(2.0 * moment * floor)


# ---------------------------------------------------------------------------
# the disk-plank checks


def check_disk_planks(family: DiskFamily, planks, r: int) -> list[BoundReport]:
    """Every disk-plank check of one instance, from one separability test,
    one arrangement sweep and one circumradius.

    Reports, in order: the width bound for plank packings of a non-separable
    family's hull (sum of widths <= r * sum of diameters); the circumradius
    bound (2 R <= sum of diameters); the ridge-function route to the width
    bound, whose pointwise condition (the strip indicators scaled by 1/r sum
    to at most 1 almost everywhere on the hull) is the sweep's open-cell
    multiplicity bound, and whose strip integrals are bounded by the total
    mass of the family density; and the chain consistency check that this
    mass (the NS-diameter) is at least twice the circumradius.  Raises
    ``NotNS`` for a separable family and ``NotAPacking``, carrying the
    ``PlankVerdict`` and its witness, when the planks are no r-fold packing.
    """
    planks = list(planks)
    separable, line = is_separable(family)
    if separable:
        raise NotNS(f"family is separable by the line {line}")
    verdict = verify_plank_packing(family, planks, r)
    if not verdict.ok:
        raise NotAPacking(verdict.reason, verdict)
    diam_ns = ns_diameter(family)
    mass = total_mass(family, UNIT_CHORD)
    circ = circumradius(family)
    digest = instance_digest({"family": family.to_json(),
                              "planks": [p.to_json() for p in planks], "r": r})
    return [
        make_report("plank_width_sum", float(sum(p.width for p in planks)),
                    r * diam_ns, LE, digest,
                    notes="packing checked on arrangement cells"),
        make_report("circumradius_vs_ns_diameter", 2.0 * circ.radius, diam_ns,
                    LE, digest),
        make_report("ridge_mass_bound",
                    float(sum((1.0 / r) * (p.b - p.a) for p in planks)), mass,
                    LE, digest,
                    notes="pointwise bound checked on arrangement cells"),
        make_report("mass_circumradius", mass, 2.0 * circ.radius, GE,
                    instance_digest({"family": family.to_json()}),
                    notes=f"bracket [2R, ns_diameter] = "
                          f"[{2.0 * circ.radius!r}, {mass!r}]"),
    ]


# ---------------------------------------------------------------------------
# SVG rendering


def family_to_svg(family: DiskFamily, planks=(), line: SeparatingLine | None = None,
                  size: int = 480) -> str:
    """Static SVG drawing of disks, optional planks, and a separating line."""
    circ = circumradius(family)
    cx, cy = circ.center
    half = circ.radius * 1.25
    scale = size / (2.0 * half)

    def sx(x: float) -> float:
        return (x - cx + half) * scale

    def sy(y: float) -> float:
        return (cy + half - y) * scale

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">']
    for p in planks:
        u = p.u
        d = np.array([-u[1], u[0]])
        corners = [p.a * u + 3 * half * d, p.b * u + 3 * half * d,
                   p.b * u - 3 * half * d, p.a * u - 3 * half * d]
        pts = " ".join(f"{sx(c[0]):.2f},{sy(c[1]):.2f}" for c in corners)
        parts.append(f'<polygon points="{pts}" fill="#44a" fill-opacity="0.15" '
                     f'stroke="#44a" stroke-width="1"/>')
    for d in family.disks:
        parts.append(f'<circle cx="{sx(d.center[0]):.2f}" cy="{sy(d.center[1]):.2f}" '
                     f'r="{d.radius * scale:.2f}" fill="#c33" fill-opacity="0.35" '
                     f'stroke="#c33" stroke-width="1.5"/>')
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
