"""Independent numerical references for ``cylpack.falconer``, and the
closed forms they check.

The closed-form sectional integral and minimal profile mass (the ridge-function
and variational ingredients of the width bound), the evenly split plank
partition and the enclosing circle's tangency residuals have no caller in the
package; they live here next to their tests.
The discretized LP profile minimizer, the radial disk-mass quadrature and the
per-chord quadrature of sectional integrals check the closed forms.
``hull_grid`` with ``open_counts`` is a one-sided reference
for the exact plank-arrangement sweep: it counts open planks only at grid
points that are certainly in the hull, so it can miss thin cells but never
reports a count that does not occur.  ``is_separable`` is the earlier exact
separability test, an O(n^3) scan of the cell midpoints and critical angles
of every pair's critical directions, each with an interval sweep
(``_gap_offset``); it is the reference for the tangent-arc rule of
``falconer.is_separable``.  It skips pairs whose centres lie closer than
1e-15, so it is wrong for families at that scale.
``hull_polygon`` (one ``argmax`` over all disks per interval between
consecutive bitangent normals, O(n^3)), ``hull_chord`` and the per-line loop
``exact_plank_multiplicity`` are the earlier hull and arrangement sweep.
``hull_chord`` through ``hull_polygon``'s halfplanes is the chord reference
of ``falconer._chords`` on the disks and ``falconer._hull_segments``, within
1e-12 of the family's size, and the loop is the count reference of
``falconer.exact_plank_multiplicity``, whose witnesses ``certainly_in_hull``
and ``open_counts`` check.
"""

import math

import numpy as np
from scipy import integrate
from scipy.optimize import linprog

from conftest import inscribed_hull
from cylpack import geom
from cylpack.errors import CylpackError, DomainError
from cylpack import falconer

ORACLE_ARC_POINTS = 4096
UNIT_CHORD = "unit_chord"   # density (1/pi) (r^2 - rho^2)^(-1/2): every chord integrates to 1
RADIUS_SCALED = "radius_scaled"  # 1/(pi r) scaling: a chord of disk j integrates to 1/r_j


class LineMissesBody(CylpackError):
    """The requested section line does not meet the interior of the body."""


def _chord_half_length(center, radius: float, s: float, u: np.ndarray) -> float:
    dist = abs(float(center @ u) - s)
    if dist >= radius:
        return 0.0
    return math.sqrt(radius ** 2 - dist ** 2)


def sectional_integral(family, s: float, u, mode: str = UNIT_CHORD) -> float:
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
    for center, radius in zip(family.centers, family.radii):
        if _chord_half_length(center, radius, s, u) > 0.0:
            total += 1.0 if mode == UNIT_CHORD else 1.0 / radius
    return total


def minimal_profile_mass(moment: float, floor: float) -> float:
    """Infimum of the total of a profile F >= floor with first moment >= moment.

    The infimum over the cutoff A of integral_0^A F equals sqrt(2 * moment *
    floor), attained by the constant profile F = floor on [0, sqrt(2 moment /
    floor)].
    """
    if moment <= 0 or floor <= 0:
        raise DomainError("moment and floor must be positive")
    return math.sqrt(2.0 * moment * floor)


def plank2d_partition(family, n_planks: int, r: int = 1, direction=None) -> list:
    """r copies of the partition of the family's width along ``direction``
    (default e_1) into n_planks equal planks."""
    u = np.array([1.0, 0.0]) if direction is None else np.asarray(direction, float)
    u = u / np.linalg.norm(u)
    lo, hi = -family.support(-u), family.support(u)
    breaks = np.linspace(lo, hi, n_planks + 1)
    return [falconer.plank(u, float(a), float(b))
            for _ in range(r) for a, b in zip(breaks, breaks[1:])]


def tangency_residuals(circle, family) -> list[float]:
    """|R - (|c_i - x| + r_i)| for each support disk i of an enclosing circle
    (x, R): zero for disks that touch it from inside."""
    c = np.asarray(circle.center)
    return [abs(circle.radius - (float(np.linalg.norm(family.centers[i] - c))
                                 + float(family.radii[i])))
            for i in circle.support]


def lp_profile_minimum(moment: float, floor: float, n_cutoffs: int = 33,
                       n_cells: int = 400) -> float:
    """Discretized minimizer: one small LP per cutoff grid value.

    Independent check of :func:`minimal_profile_mass`; agreement within 1% is
    the documented contract.
    """
    if moment <= 0 or floor <= 0:
        raise DomainError("moment and floor must be positive")
    a_star = math.sqrt(2.0 * moment / floor)
    best = math.inf
    for a in np.linspace(0.4 * a_star, 2.5 * a_star, n_cutoffs):
        h = a / n_cells
        t = (np.arange(n_cells) + 0.5) * h
        res = linprog(np.full(n_cells, h),
                      A_ub=-(t * h)[None, :], b_ub=[-moment],
                      bounds=[(floor, None)] * n_cells, method="highs")
        if res.success:
            best = min(best, float(res.fun))
    return best


def disk_mass_quadrature(r: float, mode: str = UNIT_CHORD) -> float:
    """Radial quadrature of the same mass for a disk of radius r, via the
    sine substitution."""
    norm = 1.0 / math.pi if mode == UNIT_CHORD else 1.0 / (math.pi * r)

    def integrand(psi: float) -> float:
        # rho = r sin(psi); weight (r^2 - rho^2)^(-1/2) = 1/(r cos(psi))
        return norm * 2.0 * math.pi * (r * math.sin(psi)) * r * math.cos(psi) \
            / (r * math.cos(psi))

    val, _ = integrate.quad(integrand, 0.0, math.pi / 2.0,
                            epsabs=1e-10, epsrel=1e-10)
    return val


def sectional_integral_quadrature(family, s: float, u,
                                  mode: str = UNIT_CHORD) -> float:
    """Sectional integral with the per-disk chord integrals evaluated
    numerically (after the arcsine substitution)."""
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    if not (-family.support(-u) + 1e-12 < s < family.support(u) - 1e-12):
        raise LineMissesBody("section line misses the interior of the hull")
    total = 0.0
    for center, radius in zip(family.centers, family.radii):
        h = _chord_half_length(center, radius, s, u)
        if h <= 0.0:
            continue
        weight = 1.0 if mode == UNIT_CHORD else 1.0 / radius
        val, _ = integrate.quad(
            lambda th, hh=h: (1.0 / math.pi) * hh * math.cos(th)
            / math.sqrt(max(hh * hh * (1.0 - math.sin(th) ** 2), 1e-300)),
            -math.pi / 2.0, math.pi / 2.0, epsabs=1e-10, epsrel=1e-10)
        total += weight * val
    return total


def _in_convex_polygon(vertices, pts) -> np.ndarray:
    """Closed membership, by the wedge of each point around the vertex mean."""
    center = vertices.mean(axis=0)
    angle = np.arctan2(*(vertices - center).T[::-1])
    order = np.argsort(angle)
    vertices, angle = vertices[order], angle[order]
    k = np.searchsorted(angle, np.arctan2(*(pts - center).T[::-1])) % len(angle)
    a, b = vertices[k - 1], vertices[k]
    edge, rel = b - a, pts - a
    return edge[:, 0] * rel[:, 1] - edge[:, 1] * rel[:, 0] >= 0


def certainly_in_hull(family, pts) -> np.ndarray:
    """Points inside some disk or inside the inscribed 4096-gon."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    dist = np.linalg.norm(pts[:, None, :] - family.centers[None], axis=2)
    inside = np.any(dist <= family.radii, axis=1)
    if not np.all(inside):
        polygon = inscribed_hull(family, ORACLE_ARC_POINTS).vertices
        inside[~inside] = _in_convex_polygon(polygon, pts[~inside])
    return inside


def hull_grid(family, n: int = 300) -> np.ndarray:
    """The points of an n x n grid on the disks' bounding box that are
    certainly in the hull."""
    lo = np.min(family.centers - family.radii[:, None], axis=0)
    hi = np.max(family.centers + family.radii[:, None], axis=0)
    xs, ys = np.meshgrid(np.linspace(lo[0], hi[0], n), np.linspace(lo[1], hi[1], n))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    return pts[certainly_in_hull(family, pts)]


def open_counts(planks, pts) -> np.ndarray:
    """Number of open planks containing each point."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    counts = np.zeros(len(pts), dtype=int)
    for p in planks:  # k = 1 cylinders: a unit normal and an interval base
        t = pts @ p.frame.columns[:, 0]
        (a,), (b,) = geom.bounding_box(p.base)
        counts += (t > a) & (t < b)
    return counts


# ---------------------------------------------------------------------------
# separability by critical directions


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


def is_separable(family) -> tuple[bool, falconer.SeparatingLine | None]:
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
    crit = _critical_angles(family.centers, family.radii)
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
        offset = _gap_offset(family.centers, family.radii, u)
        if offset is not None:
            return True, falconer.SeparatingLine(u=(float(u[0]), float(u[1])),
                                                 offset=offset)
    return False, None


# ---------------------------------------------------------------------------
# the per-interval hull and the per-line arrangement sweep


def _unit(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def _hull_pair_angles(centers: np.ndarray, radii: np.ndarray) -> list[float]:
    """Angles of the outer-bitangent normals v, (c_i - c_j).v = r_j - r_i,
    over the pairs i < j of distinct centres."""
    out = []
    n = len(radii)
    for i in range(n):
        for j in range(i + 1, n):
            v = centers[i] - centers[j]
            rho = math.hypot(v[0], v[1])  # no overflow in squares near 1e154
            if rho == 0.0:
                continue
            psi = math.atan2(v[1], v[0])
            val = float(radii[j] - radii[i]) / rho  # a Python float: inf, not a warning
            if abs(val) <= 1.0:
                a = math.acos(val)
                out += [psi + a, psi - a]
    return out


def hull_polygon(family) -> np.ndarray:
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
    angles = sorted({a % (2.0 * math.pi) for a in _hull_pair_angles(centers, radii)})
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


def hull_chord(family, polygon: np.ndarray, point: np.ndarray,
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


def exact_plank_multiplicity(family, planks) -> tuple[int, tuple]:
    """Largest open-plank multiplicity over the hull, with a witness point.

    The plank boundary lines cut the hull into arrangement cells of constant
    multiplicity.  When some line crosses the hull interior, every cell that
    meets the interior borders such a line's chord between two consecutive
    crossings with the other lines; otherwise the hull is one cell.  So the
    count on both sides of every sub-segment midpoint, plus the count at one
    interior point, visits every cell.  A boundary line that coincides with
    the chord's own line (within ``falconer.ON_LINE``, as shared plank
    boundaries do) is decided by the side, not by comparing offsets.  The witness lies in
    the hull and in exactly the returned number of open planks.
    """
    normals, lows, highs = falconer._plank_arrays(planks)
    polygon = hull_polygon(family)
    inner = np.mean(family.centers, axis=0)  # interior: a mix of disk centers
    t = normals @ inner
    best, cell = int(np.sum((t > lows) & (t < highs))), None
    for u, s in [(u, s) for u, a, b in zip(normals, lows, highs) for s in (a, b)]:
        d = np.array([-u[1], u[0]])
        chord = hull_chord(family, polygon, s * u, d)
        if chord is None or not -family.support(-u) < s < family.support(u):
            continue  # the line misses the hull interior
        slope, along = normals @ d, normals @ u
        crossing = np.abs(slope) > falconer.ON_LINE
        cuts = ((np.concatenate([lows[crossing], highs[crossing]])
                 - s * np.tile(along[crossing], 2)) / np.tile(slope[crossing], 2))
        cuts = cuts[(cuts > chord[0]) & (cuts < chord[1])]
        ts = np.unique(np.concatenate([chord, cuts]))
        mids = s * u + ((ts[:-1] + ts[1:]) / 2.0)[:, None] * d
        t = mids @ normals.T
        on_line = falconer.ON_LINE * max(1.0, abs(s))
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
                           [hull_chord(family, polygon, mid, step)[1]]])
    return best, tuple(map(float, mid + 0.5 * float(np.min(gaps)) * step))
