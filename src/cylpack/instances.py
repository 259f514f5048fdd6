"""Instance generators and JSON schemas shared by the CLI, tests, and fixtures.

Every generator is deterministic for a fixed seed, and every produced family
is a packing or covering *by construction*: packings use pairwise-disjoint
base regions inside the projected body (1-D interval separation along a common
axis), coverings tile the bounding box of the projected body.  The JSON
round-trip is bit-exact at double precision.
"""

import json
import math

import numpy as np

from . import cappack, cylinders, falconer, geom
from .errors import DomainError

SCHEMA_VERSION = 1

KIND_PACKING = "cylinder_packing"
KIND_COVERING = "cylinder_covering"
KIND_DISK_PLANKS = "disk_planks"


# ---------------------------------------------------------------------------
# bodies


def unit_ball(d: int) -> geom.Ball:
    return geom.Ball(np.zeros(d), 1.0)


def random_ellipsoid(d: int, rng: np.random.Generator,
                     axis_range=(0.6, 1.8)) -> geom.Ellipsoid:
    """Random ellipsoid with moderate eccentricity, centered near the origin."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    semi_axes = rng.uniform(*axis_range, size=d)
    shape = q @ np.diag(1.0 / semi_axes**2) @ q.T
    center = rng.uniform(-0.2, 0.2, size=d)
    return geom.Ellipsoid(center, shape)


def random_polygon(rng: np.random.Generator, n_points: int = 9,
                   scale: float = 1.0) -> geom.Polytope:
    """Random convex polygon: hull of a Gaussian cloud in the plane."""
    from scipy.spatial import ConvexHull

    pts = rng.standard_normal((n_points, 2)) * scale
    hull = ConvexHull(pts)
    return geom.Polytope(pts[hull.vertices])


def random_polytope(d: int, rng: np.random.Generator,
                    n_vertices: int | None = None) -> geom.Polytope:
    n = n_vertices or (d + 4)
    return geom.Polytope(rng.standard_normal((n, d)))


# ---------------------------------------------------------------------------
# projected-range helpers


def _projected_interval(body: geom.ConvexBody, u: np.ndarray) -> tuple[float, float]:
    """Exact range of <x, u> over the body, for unit u."""
    return -geom.support(body, -u), geom.support(body, u)


def _disjoint_intervals(lo: float, hi: float, n: int, rng: np.random.Generator,
                        min_width_frac: float = 0.02) -> list[tuple[float, float]]:
    """n pairwise-disjoint intervals inside (lo, hi), widths bounded below."""
    span = hi - lo
    for _ in range(200):
        breaks = np.sort(rng.uniform(lo, hi, size=2 * n))
        pairs = [(float(breaks[2 * i]), float(breaks[2 * i + 1])) for i in range(n)]
        if all(b - a >= min_width_frac * span for a, b in pairs):
            return pairs
    # fall back to an even partition with gaps
    cell = span / n
    return [(lo + i * cell + 0.2 * cell, lo + (i + 1) * cell - 0.2 * cell)
            for i in range(n)]


def _partition_breaks(lo: float, hi: float, n: int,
                      rng: np.random.Generator | None) -> np.ndarray:
    if rng is None:
        return np.linspace(lo, hi, n + 1)
    inner = np.sort(rng.uniform(lo, hi, size=n - 1)) if n > 1 else np.empty(0)
    return np.concatenate([[lo], inner, [hi]])


# ---------------------------------------------------------------------------
# cylinder-family generators


def plank_partition(body: geom.ConvexBody, n_planks: int, r: int = 1,
                    direction=None, rng: np.random.Generator | None = None,
                    ) -> list[cylinders.Cylinder]:
    """Parallel planks (codimension d-1) partitioning the body, repeated r times.

    The base segments tile the exact projected range, so the partition is at
    once an r-fold packing and an r-fold covering with crv sum exactly r.
    """
    d = body.dim
    if direction is None:
        u = np.zeros(d)
        u[0] = 1.0
    else:
        u = np.asarray(direction, dtype=float)
        u = u / np.linalg.norm(u)
    frame = geom.Frame(u[:, None])
    lo, hi = _projected_interval(body, u)
    breaks = _partition_breaks(lo, hi, n_planks, rng)
    family = []
    for _ in range(r):
        for a, b in zip(breaks, breaks[1:]):
            base = cylinders.PolytopeBase(np.array([[a], [b]]))
            family.append(cylinders.Cylinder(frame, base))
    return family


def random_base_packing(body: geom.ConvexBody, k: int, n_per_layer: int, r: int,
                        seed: int, base_kind: str = "disk",
                        ) -> list[cylinders.Cylinder]:
    """Random r-fold packing: r layers of cylinders with disjoint bases.

    Each layer fixes a random base subspace, then places disjoint disk or box
    bases inside the inscribed ball of the projected body, separated along a
    common axis.  Disjoint bases make restricted-cylinder interiors disjoint,
    so the union of r layers is an r-fold packing by construction.
    """
    d = body.dim
    m = d - k
    if m < 1:
        raise DomainError("codimension too large for the ambient dimension")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xBA5E)))
    family = []
    for _ in range(r):
        frame = geom.orthonormalize(rng.standard_normal((m, d)))
        proj = geom.project_body(body, frame)
        center = geom.body_center(proj)
        if isinstance(proj, geom.Ball):
            inscribed = proj.radius
        elif isinstance(proj, geom.Ellipsoid):
            inscribed = 1.0 / math.sqrt(float(np.linalg.eigvalsh(proj.shape)[-1]))
        else:
            eq = proj.equations
            inscribed = float(np.min(-(eq[:, -1] + eq[:, :-1] @ center)))
        axis = rng.standard_normal(m)
        axis /= np.linalg.norm(axis)
        reach = 0.85 * inscribed
        intervals = _disjoint_intervals(-reach, reach, n_per_layer, rng)
        for a, b in intervals:
            mid, half = (a + b) / 2.0, (b - a) / 2.0
            base_center = center + mid * axis
            if base_kind == "disk":
                base: cylinders.CylinderBase = cylinders.DiskBase(base_center, half)
            elif base_kind == "box":
                corners = np.stack(np.meshgrid(*[[-1.0, 1.0]] * m,
                                               indexing="ij"), axis=-1).reshape(-1, m)
                side = half / math.sqrt(m)
                base = cylinders.PolytopeBase(base_center + side * corners)
            else:
                raise DomainError(f"unknown base kind {base_kind!r}")
            family.append(cylinders.Cylinder(frame, base))
    return family


def random_box_covering(body: geom.ConvexBody, k: int, r: int, seed: int,
                        tiles_per_axis: int = 3) -> list[cylinders.Cylinder]:
    """Redundant r-fold covering: r layers of box bases tiling the shadow box."""
    d = body.dim
    m = d - k
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xC0B0)))
    family = []
    for _ in range(r):
        frame = geom.orthonormalize(rng.standard_normal((m, d)))
        proj = geom.project_body(body, frame)
        lo, hi = geom.bounding_box(proj)
        lo = lo - 0.05 * (hi - lo)
        hi = hi + 0.05 * (hi - lo)
        edges = [np.linspace(lo[j], hi[j], tiles_per_axis + 1) for j in range(m)]
        overlap = 0.06
        for idx in np.ndindex(*([tiles_per_axis] * m)):
            cell_lo = np.array([edges[j][idx[j]] for j in range(m)])
            cell_hi = np.array([edges[j][idx[j] + 1] for j in range(m)])
            pad = overlap * (cell_hi - cell_lo)
            corners = np.stack(np.meshgrid(*[[0.0, 1.0]] * m,
                                           indexing="ij"), axis=-1).reshape(-1, m)
            verts = (cell_lo - pad) + corners * (cell_hi - cell_lo + 2 * pad)
            family.append(cylinders.Cylinder(frame, cylinders.PolytopeBase(verts)))
    return family


def random_strip_packing(body: geom.ConvexBody, n_per_layer: int, r: int,
                         seed: int) -> list[cylinders.Cylinder]:
    """r-fold packing of strips (k = 1 in the plane): disjoint base intervals
    inside the exact projected range, one direction per layer."""
    if body.dim != 2:
        raise DomainError("strip packings are generated in the plane")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x57F1)))
    family = []
    for _ in range(r):
        theta = rng.uniform(0.0, math.pi)
        u = np.array([math.cos(theta), math.sin(theta)])
        frame = geom.Frame(u[:, None])
        lo, hi = _projected_interval(body, u)
        for a, b in _disjoint_intervals(lo, hi, n_per_layer, rng):
            family.append(cylinders.Cylinder(
                frame, cylinders.PolytopeBase(np.array([[a], [b]]))))
    return family


def cap_family_instance(d: int, k: int, delta: float, seed: int,
                        metric: str = cappack.PROJECTIVE) -> list[cylinders.Cylinder]:
    """Cap-cylinder family over a fresh separated set (projective metric pairs
    with antipodal bases, geodesic with one-sided convex ones)."""
    sep = cappack.build_separated_set(d, 2.0 * delta, metric=metric, seed=seed)
    fam = cappack.build_cap_family(sep, delta, k, seed=seed)
    return list(fam.cylinders)


# ---------------------------------------------------------------------------
# disk families and plank packings in the plane


def random_ns_family(n_disks: int, seed: int, tries: int = 500) -> falconer.DiskFamily:
    """Non-separable disk family by rejection on the exact separability test."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xD15C)))
    for _ in range(tries):
        centers = rng.uniform(-1.4, 1.4, size=(n_disks, 2))
        radii = rng.uniform(0.5, 1.1, size=n_disks)
        family = falconer.DiskFamily(tuple(
            falconer.Disk(c, float(rad)) for c, rad in zip(centers, radii)))
        separable, _ = falconer.is_separable(family)
        if not separable:
            return family
    raise DomainError(f"no NS family found in {tries} tries")


def random_plank2d_packing(family: falconer.DiskFamily, n_per_layer: int,
                           r: int, seed: int) -> list[falconer.Plank2D]:
    """r layers of disjoint strips inside the hull's exact support range."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x9A2)))
    planks = []
    for _ in range(r):
        theta = rng.uniform(0.0, math.pi)
        u = np.array([math.cos(theta), math.sin(theta)])
        lo, hi = -family.support(-u), family.support(u)
        for a, b in _disjoint_intervals(lo, hi, n_per_layer, rng):
            planks.append(falconer.Plank2D(u, a, b))
    return planks


def plank2d_partition(family: falconer.DiskFamily, n_planks: int, r: int = 1,
                      direction=None) -> list[falconer.Plank2D]:
    u = np.array([1.0, 0.0]) if direction is None else np.asarray(direction, float)
    u = u / np.linalg.norm(u)
    lo, hi = -family.support(-u), family.support(u)
    breaks = np.linspace(lo, hi, n_planks + 1)
    return [falconer.Plank2D(u, float(a), float(b))
            for _ in range(r) for a, b in zip(breaks, breaks[1:])]


# ---------------------------------------------------------------------------
# instance files


def packing_instance(body: geom.ConvexBody, family, r: int, meta: dict) -> dict:
    ks = {c.k for c in family}
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": KIND_PACKING,
        "body": geom.body_to_json(body),
        "k": max(ks) if ks else 0,
        "r": r,
        "cylinders": [cylinders.cylinder_to_json(c) for c in family],
        "meta": meta,
    }


def covering_instance(body: geom.ConvexBody, family, r: int, meta: dict) -> dict:
    out = packing_instance(body, family, r, meta)
    out["kind"] = KIND_COVERING
    return out


def disk_planks_instance(family: falconer.DiskFamily, planks, r: int,
                         meta: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": KIND_DISK_PLANKS,
        "disks": family.to_json()["disks"],
        "planks": [p.to_json() for p in planks],
        "r": r,
        "meta": meta,
    }


def parse_instance(obj: dict) -> dict:
    """Validate and materialize an instance file into live objects."""
    if not isinstance(obj, dict):
        raise DomainError("instance must be a JSON object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DomainError(f"unsupported schema_version {version!r}")
    kind = obj.get("kind")
    if kind not in (KIND_PACKING, KIND_COVERING, KIND_DISK_PLANKS):
        raise DomainError(f"unknown instance kind {kind!r}")
    r = cylinders.json_typed(obj["r"], int, "multiplicity r")
    if not 1 <= r <= 2**53:  # above 2**53 the bounds' float arithmetic is inexact
        raise DomainError(f"multiplicity r must lie in [1, 2**53], got {r}")
    if kind == KIND_DISK_PLANKS:
        family = falconer.family_from_json({"disks": obj["disks"]})
        planks = [falconer.plank_from_json(p) for p in obj["planks"]]
        return {"kind": kind, "disk_family": family, "planks": planks,
                "r": r, "raw": obj}
    body = geom.body_from_json(obj["body"])
    family = [cylinders.cylinder_from_json(c) for c in obj["cylinders"]]
    k = cylinders.json_typed(obj["k"], int, "instance k")
    # the CLI picks the checker from k, so it must be every cylinder's codimension
    if any(c.k != k for c in family):
        raise DomainError(f"instance k={k} disagrees with the cylinder codimensions "
                          f"{sorted({c.k for c in family})}")
    return {"kind": kind, "body": body, "family": family,
            "r": r, "k": k, "raw": obj}


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
