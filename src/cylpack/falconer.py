"""Non-separable disk families in the plane and plank-packing width bounds.

A family of closed disks is separable when some line misses every disk and
splits them into two nonempty groups.  For non-separable families the sum of
widths of any r-fold plank packing of the hull is at most r times the sum of
the disk diameters; the machinery here decides separability exactly, certifies
the circumradius of the hull, and verifies the width bound together with its
ridge-function and variational ingredients.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import integrate
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from . import geom
from .bounds import GE, LE, BoundReport, _make_report, instance_digest
from .errors import (
    DimensionMismatch,
    DomainError,
    LineMissesBody,
    NotAPacking,
    NotNS,
    PointwiseViolated,
)

UNIT_CHORD = "unit_chord"   # density (1/pi) (r^2 - rho^2)^(-1/2): every chord integrates to 1
RADIUS_SCALED = "radius_scaled"  # 1/(pi r) scaling: a chord of disk j integrates to 1/r_j

HULL_ARC_POINTS = 256       # inscribed-polygon resolution for hull membership


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

    @cached_property
    def hull(self) -> geom.Polytope:
        """Inscribed polygon of the hull; used for membership and sampling."""
        theta = np.linspace(0.0, 2.0 * math.pi, HULL_ARC_POINTS, endpoint=False)
        ring = np.column_stack([np.cos(theta), np.sin(theta)])
        pts = np.vstack([d.center + d.radius * ring for d in self.disks
                         if d.radius > 0] +
                        [d.center[None, :] for d in self.disks])
        hull = ConvexHull(pts)
        return geom.Polytope(pts[hull.vertices])

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


def _critical_angles(centers: np.ndarray, radii: np.ndarray) -> list[float]:
    out = set()
    n = len(radii)
    for i in range(n):
        for j in range(i + 1, n):
            v = centers[i] - centers[j]
            rho = float(np.linalg.norm(v))
            if rho < 1e-15:
                continue
            psi = math.atan2(v[1], v[0])
            for w in (radii[i] + radii[j], -(radii[i] + radii[j]),
                      radii[i] - radii[j], radii[j] - radii[i]):
                val = w / rho
                if abs(val) <= 1.0:
                    a = math.acos(max(-1.0, min(1.0, val)))
                    out.add((psi + a) % math.pi)
                    out.add((psi - a) % math.pi)
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
    support disks.  A containment post-check falls back to exhaustive basis
    enumeration on (unreached in practice) degenerate inputs.
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
        x, radius, basis = _brute_force_circle(family)
    return EnclosingCircle(center=(float(x[0]), float(x[1])),
                           radius=float(radius),
                           support=tuple(sorted(i for i, _ in basis)))


def _brute_force_circle(family: DiskFamily):
    # subset enumeration fallback; only reachable on degenerate inputs
    from itertools import combinations

    items = list(enumerate(family.disks))
    best = None
    for size in (1, 2, 3):
        for subset in combinations(items, size):
            x, radius = _smallest_circle_of(list(subset))
            if radius < 0:
                continue
            if all(_disk_in_circle(d, x, radius, tol=1e-10) for d in family.disks):
                if best is None or radius < best[1]:
                    best = (x, radius, list(subset))
    if best is None:
        raise DomainError("could not determine an enclosing circle")
    return best


# ---------------------------------------------------------------------------
# planks, ridge functions, exact multiplicity


@dataclass(frozen=True, eq=False)
class Plank2D:
    """Strip {x : a <= <x, u> <= b} for a unit normal u."""

    u: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        u = _plane_vector(self.u, "plank normal")
        norm = np.linalg.norm(u)
        if abs(norm - 1.0) > 1e-9:
            raise DomainError("plank normal must be a unit vector")
        object.__setattr__(self, "u", geom._freeze(u / norm))
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


@dataclass(frozen=True, eq=False)
class RidgeFunction:
    """t -> scale * indicator of [a, b], composed with <x, u>."""

    u: np.ndarray
    a: float
    b: float
    scale: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.scale * ((t >= self.a) & (t <= self.b))

    def at_point(self, x) -> float:
        return float(self(np.asarray(x, dtype=float) @ self.u))

    def integral(self) -> float:
        return self.scale * (self.b - self.a)


def _strict_counts(planks, pts: np.ndarray, margin: float = 1e-12) -> np.ndarray:
    counts = np.zeros(len(pts), dtype=np.int32)
    for p in planks:
        t = pts @ p.u
        counts += (t > p.a + margin) & (t < p.b - margin)
    return counts


def exact_plank_multiplicity(family: DiskFamily, planks,
                             mc_samples: int = 20_000, seed: int = 0,
                             ) -> tuple[int, tuple]:
    """Largest strict strip multiplicity over the hull.

    The strip boundaries cut the plane into an arrangement whose cells carry
    constant multiplicity, so the maximum is attained at cell interior points:
    evaluation points are taken next to every boundary-line intersection, along
    every boundary line clipped to the hull, and at the hull centroid, then a
    Monte Carlo pass is folded in as a safety net.
    """
    planks = list(planks)
    hull = family.hull
    circ = circumradius(family)
    scale = max(circ.radius, 1.0)
    eps = 1e-7 * scale
    candidates = [hull.centroid]
    lines = [(p.u, t) for p in planks for t in (p.a, p.b)]
    for i in range(len(lines)):
        u1, s1 = lines[i]
        d1 = np.array([-u1[1], u1[0]])
        # samples along the line, clipped to the hull, nudged to both sides
        base_pt = s1 * u1
        eq = hull.equations
        denom = eq[:, :-1] @ d1
        numer = -(eq[:, -1] + eq[:, :-1] @ base_pt)
        t_hi = np.min(numer[denom > 1e-12] / denom[denom > 1e-12]) \
            if np.any(denom > 1e-12) else None
        t_lo = np.max(numer[denom < -1e-12] / denom[denom < -1e-12]) \
            if np.any(denom < -1e-12) else None
        if t_hi is not None and t_lo is not None and t_hi > t_lo:
            for t in np.linspace(t_lo, t_hi, 25):
                for side in (eps, -eps):
                    candidates.append(base_pt + t * d1 + side * u1)
        for j in range(i + 1, len(lines)):
            u2, s2 = lines[j]
            mat = np.array([u1, u2])
            if abs(np.linalg.det(mat)) < 1e-12:
                continue
            p = np.linalg.solve(mat, np.array([s1, s2]))
            for sa in (eps, -eps):
                for sb in (eps, -eps):
                    candidates.append(p + sa * u1 + sb * u2)
    cand = np.asarray(candidates)
    inside = geom.contains_points(hull, cand, tol=-1e-9 * scale)
    best = 0
    witness = tuple(map(float, hull.centroid))
    if np.any(inside):
        counts = _strict_counts(planks, cand[inside])
        k = int(np.argmax(counts))
        if counts[k] > best:
            best = int(counts[k])
            witness = tuple(map(float, cand[inside][k]))
    if mc_samples > 0:
        rng = np.random.default_rng(seed)
        pts = geom.sample_in_body(hull, mc_samples, rng)
        counts = _strict_counts(planks, pts)
        k = int(np.argmax(counts))
        if counts[k] > best:
            best = int(counts[k])
            witness = tuple(map(float, pts[k]))
    return best, witness


def verify_plank_packing(family: DiskFamily, planks, r: int,
                         mc_samples: int = 20_000, seed: int = 0,
                         tol: float = 1e-9) -> tuple[bool, str]:
    """Exact-arrangement packing check for planks inside the hull."""
    for i, p in enumerate(planks):
        lo = -family.support(-p.u)
        hi = family.support(p.u)
        if p.a < lo - tol or p.b > hi + tol:
            return False, f"plank {i} base leaves the support range"
    mult, witness = exact_plank_multiplicity(family, planks,
                                             mc_samples=mc_samples, seed=seed)
    if mult > r:
        return False, f"multiplicity {mult} at {witness} exceeds r={r}"
    return True, ""


# ---------------------------------------------------------------------------
# width-sum and circumradius bounds


def check_width_sum(family: DiskFamily, planks, r: int,
                    mc_samples: int = 20_000, seed: int = 0,
                    ) -> tuple[BoundReport, BoundReport]:
    """Width bound for plank packings of a non-separable family's hull.

    Returns the width report (sum of widths <= r * sum of diameters) and the
    companion circumradius report (2 R <= sum of diameters).
    """
    separable, line = is_separable(family)
    if separable:
        raise NotNS(f"family is separable by the line {line}")
    ok, reason = verify_plank_packing(family, planks, r,
                                      mc_samples=mc_samples, seed=seed)
    if not ok:
        raise NotAPacking(reason)
    widths = float(sum(p.width for p in planks))
    diam_ns = ns_diameter(family)
    digest = instance_digest({"family": family.to_json(),
                              "planks": [p.to_json() for p in planks], "r": r})
    width_report = _make_report("plank_width_sum", widths, r * diam_ns, LE,
                                digest, probabilistic=False,
                                notes="packing checked on arrangement cells")
    circ = circumradius(family)
    radius_report = _make_report("circumradius_vs_ns_diameter",
                                 2.0 * circ.radius, diam_ns, LE, digest)
    return width_report, radius_report


# ---------------------------------------------------------------------------
# sectional integrals of the disk densities


def _chord_half_length(disk: Disk, s: float, u: np.ndarray) -> float:
    dist = abs(float(disk.center @ u) - s)
    if dist >= disk.radius:
        return 0.0
    return math.sqrt(disk.radius ** 2 - dist ** 2)


def sectional_integral(family: DiskFamily, s: float, u,
                       mode: str = UNIT_CHORD,
                       quadrature: bool = False) -> float:
    """Integral of the family density over the line <x, u> = s inside the hull.

    In unit-chord mode every disk whose open interior the line crosses
    contributes exactly 1 (the arcsine integral of the inverse-square-root
    profile), so the value counts crossed disks; the radius-scaled normalization
    contributes 1/radius instead.  With ``quadrature=True`` the per-disk chord
    integrals are evaluated numerically (after the arcsine substitution) as a
    cross-check.
    """
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    if not (-family.support(-u) + 1e-12 < s < family.support(u) - 1e-12):
        raise LineMissesBody("section line misses the interior of the hull")
    total = 0.0
    for disk in family.disks:
        h = _chord_half_length(disk, s, u)
        if h <= 0.0:
            continue
        weight = 1.0 if mode == UNIT_CHORD else 1.0 / disk.radius
        if quadrature:
            val, _ = integrate.quad(
                lambda th, hh=h: (1.0 / math.pi) * hh * math.cos(th)
                / math.sqrt(max(hh * hh * (1.0 - math.sin(th) ** 2), 1e-300)),
                -math.pi / 2.0, math.pi / 2.0, epsabs=1e-10, epsrel=1e-10)
            total += weight * val
        else:
            total += weight
    return total


def disk_mass(disk: Disk, mode: str = UNIT_CHORD) -> float:
    """Total mass of one disk's density: the diameter in unit-chord mode."""
    return 2.0 * disk.radius if mode == UNIT_CHORD else 2.0


def disk_mass_quadrature(disk: Disk, mode: str = UNIT_CHORD) -> float:
    """Radial quadrature of the same mass, via the sine substitution."""
    r = disk.radius
    norm = 1.0 / math.pi if mode == UNIT_CHORD else 1.0 / (math.pi * r)

    def integrand(psi: float) -> float:
        # rho = r sin(psi); weight (r^2 - rho^2)^(-1/2) = 1/(r cos(psi))
        return norm * 2.0 * math.pi * (r * math.sin(psi)) * r * math.cos(psi) \
            / (r * math.cos(psi))

    val, _ = integrate.quad(integrand, 0.0, math.pi / 2.0,
                            epsabs=1e-10, epsrel=1e-10)
    return val


def total_mass(family: DiskFamily, mode: str = UNIT_CHORD) -> float:
    """Mass of the summed disk densities; the NS-diameter in unit-chord mode."""
    return float(sum(disk_mass(d, mode) for d in family.disks))


def check_ridge_mass(family: DiskFamily, planks, r: int,
                     n_samples: int = 20_000, seed: int = 0) -> BoundReport:
    """Ridge-function route to the width bound.

    Scaled strip indicators must sum to at most 1 across the hull (the packing
    hypothesis, checked on a dense sample with a witness on failure); their
    total integrals are then bounded by the total mass of the family density.
    """
    planks = list(planks)
    ridges = [RidgeFunction(p.u, p.a, p.b, 1.0 / r) for p in planks]
    rng = np.random.default_rng(seed)
    pts = geom.sample_in_body(family.hull, n_samples, rng)
    sums = np.zeros(len(pts))
    for g in ridges:
        sums += g(pts @ g.u)
    worst = int(np.argmax(sums))
    if sums[worst] > 1.0 + 1e-9:
        raise PointwiseViolated(
            f"ridge sum {sums[worst]:.6f} at {tuple(map(float, pts[worst]))}")
    lhs = float(sum(g.integral() for g in ridges))
    rhs = total_mass(family, UNIT_CHORD)
    digest = instance_digest({"family": family.to_json(),
                              "planks": [p.to_json() for p in planks], "r": r})
    return _make_report("ridge_mass_bound", lhs, rhs, LE, digest,
                        probabilistic=True,
                        notes=f"pointwise bound checked on {n_samples} samples")


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


def check_mass_circumradius(family: DiskFamily) -> BoundReport:
    """Chain consistency: total density mass of the family is at least twice
    the circumradius of the hull (and equals the NS-diameter)."""
    circ = circumradius(family)
    mass = total_mass(family, UNIT_CHORD)
    digest = instance_digest({"family": family.to_json()})
    return _make_report(
        "mass_circumradius", mass, 2.0 * circ.radius, GE, digest,
        notes=f"bracket [2R, ns_diameter] = [{2.0 * circ.radius!r}, {mass!r}]")


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
