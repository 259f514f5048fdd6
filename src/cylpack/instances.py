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

from . import cylinders, falconer, geom
from .errors import DomainError

SCHEMA_VERSION = 1

KIND_PACKING = "cylinder_packing"
KIND_COVERING = "cylinder_covering"
KIND_DISK_PLANKS = "disk_planks"

AXIS_RANGE = (0.6, 1.8)      # semi-axis range of random ellipsoids
POLYGON_POINTS = 9           # Gaussian points whose hull is a random polygon
MIN_WIDTH_FRAC = 0.02        # narrowest random interval, relative to the range
NS_TRIES = 500               # rejection draws of a non-separable disk family
COVER_TILES = 3              # box tiles per axis in one random covering layer


# ---------------------------------------------------------------------------
# bodies


def unit_ball(d: int) -> geom.Ball:
    return geom.Ball(np.zeros(d), 1.0)


def random_ellipsoid(d: int, rng: np.random.Generator) -> geom.Ellipsoid:
    """Random ellipsoid with moderate eccentricity, centered near the origin."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    semi_axes = rng.uniform(*AXIS_RANGE, size=d)
    shape = q @ np.diag(1.0 / semi_axes**2) @ q.T
    center = rng.uniform(-0.2, 0.2, size=d)
    return geom.Ellipsoid(center, shape)


def random_polygon(rng: np.random.Generator) -> geom.Polytope:
    """Random convex polygon: hull of a Gaussian cloud in the plane."""
    pts = rng.standard_normal((POLYGON_POINTS, 2))
    return geom.Polytope(pts[geom.planar_hull(pts).vertices])


# ---------------------------------------------------------------------------
# projected-range helpers


def _projected_interval(body: geom.ConvexBody, u: np.ndarray) -> tuple[float, float]:
    """Exact range of <x, u> over the body, for unit u."""
    return -geom.support(body, -u), geom.support(body, u)


def _disjoint_intervals(lo: float, hi: float, n: int,
                        rng: np.random.Generator) -> list[tuple[float, float]]:
    """n pairwise-disjoint intervals inside (lo, hi), widths bounded below."""
    span = hi - lo
    for _ in range(200):
        breaks = np.sort(rng.uniform(lo, hi, size=2 * n))
        pairs = [(float(breaks[2 * i]), float(breaks[2 * i + 1])) for i in range(n)]
        if all(b - a >= MIN_WIDTH_FRAC * span for a, b in pairs):
            return pairs
    # fall back to an even partition with gaps
    cell = span / n
    return [(lo + i * cell + 0.2 * cell, lo + (i + 1) * cell - 0.2 * cell)
            for i in range(n)]


# ---------------------------------------------------------------------------
# cylinder-family generators


def plank_partition(body: geom.ConvexBody, n_planks: int, r: int = 1,
                    ) -> list[cylinders.Cylinder]:
    """Evenly spaced parallel planks (codimension d-1) normal to e_1
    partitioning the body, repeated r times.

    The base segments tile the exact projected range, so the partition is at
    once an r-fold packing and an r-fold covering with crv sum exactly r.
    """
    u = np.eye(body.dim)[0]
    frame = geom.Frame(u[:, None])
    lo, hi = _projected_interval(body, u)
    breaks = np.linspace(lo, hi, n_planks + 1)
    family = []
    for _ in range(r):
        for a, b in zip(breaks, breaks[1:]):
            family.append(cylinders.Cylinder(frame, geom.Polytope([[a], [b]])))
    return family


def _base_dim(d: int, k: int) -> int:
    """Base dimension d - k of a codimension-k cylinder of R^d; DomainError
    unless it lies in 1..d-1."""
    if not 1 <= k <= d - 1:
        raise DomainError(f"codimension k={k} must lie in 1..{d - 1} for d={d}")
    return d - k


def random_base_packing(body: geom.ConvexBody, k: int, n_per_layer: int, r: int,
                        seed: int) -> list[cylinders.Cylinder]:
    """Random r-fold packing: r layers of cylinders with disjoint bases.

    Each layer fixes a random base subspace, then places disjoint disk bases
    inside the inscribed ball of the projected body, separated along a
    common axis.  Disjoint bases make restricted-cylinder interiors disjoint,
    so the union of r layers is an r-fold packing by construction.
    """
    d = body.dim
    m = _base_dim(d, k)
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
            family.append(cylinders.Cylinder(frame, geom.Ball(center + mid * axis, half)))
    return family


def random_box_covering(body: geom.ConvexBody, k: int, r: int,
                        seed: int) -> list[cylinders.Cylinder]:
    """Redundant r-fold covering: r layers of box bases tiling the shadow box."""
    d = body.dim
    m = _base_dim(d, k)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xC0B0)))
    family = []
    for _ in range(r):
        frame = geom.orthonormalize(rng.standard_normal((m, d)))
        proj = geom.project_body(body, frame)
        lo, hi = geom.bounding_box(proj)
        lo = lo - 0.05 * (hi - lo)
        hi = hi + 0.05 * (hi - lo)
        edges = [np.linspace(lo[j], hi[j], COVER_TILES + 1) for j in range(m)]
        overlap = 0.06
        for idx in np.ndindex(*([COVER_TILES] * m)):
            cell_lo = np.array([edges[j][idx[j]] for j in range(m)])
            cell_hi = np.array([edges[j][idx[j] + 1] for j in range(m)])
            pad = overlap * (cell_hi - cell_lo)
            corners = np.stack(np.meshgrid(*[[0.0, 1.0]] * m,
                                           indexing="ij"), axis=-1).reshape(-1, m)
            verts = (cell_lo - pad) + corners * (cell_hi - cell_lo + 2 * pad)
            family.append(cylinders.Cylinder(frame, geom.Polytope(verts)))
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
            family.append(cylinders.Cylinder(frame, geom.Polytope([[a], [b]])))
    return family


# ---------------------------------------------------------------------------
# disk families and plank packings in the plane


def random_ns_family(n_disks: int, seed: int) -> falconer.DiskFamily:
    """Non-separable disk family by rejection on the exact separability test."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xD15C)))
    for _ in range(NS_TRIES):
        family = falconer.DiskFamily(rng.uniform(-1.4, 1.4, size=(n_disks, 2)),
                                     rng.uniform(0.5, 1.1, size=n_disks))
        if not family.separation[0]:
            return family
    raise DomainError(f"no NS family found in {NS_TRIES} tries")


def random_plank2d_packing(family: falconer.DiskFamily, n_per_layer: int,
                           r: int, seed: int) -> list[cylinders.Cylinder]:
    """r layers of disjoint planks (planar k = 1 cylinders) inside the hull's
    exact support range."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x9A2)))
    planks = []
    for _ in range(r):
        theta = rng.uniform(0.0, math.pi)
        u = np.array([math.cos(theta), math.sin(theta)])
        lo, hi = -family.support(-u), family.support(u)
        for a, b in _disjoint_intervals(lo, hi, n_per_layer, rng):
            planks.append(falconer.plank(u, a, b))
    return planks


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
        "planks": [falconer.plank_to_json(p) for p in planks],
        "r": r,
        "meta": meta,
    }


def check_multiplicity(r: int) -> int:
    """r in [1, 2**53]; above 2**53 the bounds' float arithmetic is inexact."""
    if not 1 <= r <= 2**53:
        raise DomainError(f"multiplicity r must lie in [1, 2**53], got {r}")
    return r


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
    r = check_multiplicity(cylinders.json_typed(obj["r"], int, "multiplicity r"))
    if kind == KIND_DISK_PLANKS:
        family = falconer.family_from_json({"disks": obj["disks"]})
        planks = [falconer.plank_from_json(p) for p in obj["planks"]]
        return {"kind": kind, "disk_family": family, "planks": planks, "r": r}
    body = geom.body_from_json(obj["body"])
    if not obj["cylinders"]:
        raise DomainError(f"a {kind} instance needs at least one cylinder")
    # the CLI picks the checker from k, so it must be every cylinder's codimension
    k = cylinders.json_typed(obj["k"], int, "instance k")
    family = cylinders.family_from_json(obj["cylinders"], body.dim, k)
    return {"kind": kind, "body": body, "family": family, "r": r, "k": k}


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
