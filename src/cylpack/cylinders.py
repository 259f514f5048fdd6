"""k-codimensional cylinders and the cross-sectional volume functional.

A cylinder is a base region B inside a (d-k)-dimensional subspace E plus the
implicit complement subspace: a point belongs to the cylinder exactly when its
orthogonal projection onto E lands in B.  Membership is therefore constant
along the complement directions.  B is given in E-coordinates: a
``geom.Polytope`` or ``geom.Ball`` (which validate themselves when built) or a
solid ``CapBase`` of the unit ball.  A plank is the k = d - 1 case, whose base
is a 1-d polytope: an interval along the frame's one column.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import geom, specfn
from .errors import (
    DegenerateProjection,
    DimensionMismatch,
    DomainError,
    EmptyIntersection,
)

INTERIOR_MARGIN = 1e-12  # strict-interior slack: tangent cylinders are a legal packing
BOUNDARY_SAMPLES = 1024  # sampled boundary directions of cap bases
CONTAINMENT_TOL = 1e-9   # slack of base-in-shadow containment checks
MAX_PROPOSALS = 100_000  # body samples after which an empty restricted cylinder raises


@dataclass(frozen=True, eq=False)
class CapBase:
    """Solid cap of the unit ball of E around a pole direction.

    Membership: |z| <= 1 and |<z, pole>| >= cos(delta) when ``antipodal`` (the
    literal two-sided reading), or <z, pole> >= cos(delta) one-sided.
    """

    pole: np.ndarray
    delta: float
    antipodal: bool = True

    def __post_init__(self):
        pole = np.atleast_1d(np.asarray(self.pole, dtype=float))
        with np.errstate(over="ignore"):  # past ~1.3e154 the norm is inf and fails
            norm = np.linalg.norm(pole)
        if abs(norm - 1.0) > 1e-9:
            raise DomainError("cap pole must be a unit vector")
        object.__setattr__(self, "pole", geom._freeze(pole / norm))
        if not 0.0 < self.delta < math.pi / 2.0:
            raise DomainError(f"cap angle must lie in (0, pi/2), got {self.delta}")

    @property
    def dim(self) -> int:
        return self.pole.shape[0]


CylinderBase = geom.Polytope | geom.Ball | CapBase


@dataclass(frozen=True, eq=False)
class Cylinder:
    """Base region in a (d-k)-frame E; the complement contributes k free directions."""

    frame: geom.Frame
    base: CylinderBase

    def __post_init__(self):
        if self.base.dim != self.frame.subspace_dim:
            raise DimensionMismatch("base dimension does not match the frame")
        if self.k < 1:
            raise DimensionMismatch("cylinder codimension must be >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.frame.ambient_dim

    @property
    def k(self) -> int:
        return self.frame.ambient_dim - self.frame.subspace_dim


def base_membership(base: CylinderBase, z) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (closed, strict) base membership in E-coordinates, from one
    evaluation per base; the strict reading keeps ``INTERIOR_MARGIN`` off the
    boundary."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if isinstance(base, geom.Ball):
        dist = np.linalg.norm(z - base.center, axis=1)
        return dist <= base.radius, dist <= base.radius - INTERIOR_MARGIN
    if isinstance(base, geom.Polytope):
        eq = base.equations
        top = np.max(z @ eq[:, :-1].T + eq[:, -1], axis=1)
        return top <= 0.0, top <= -INTERIOR_MARGIN
    dots = z @ base.pole
    level = np.abs(dots) if base.antipodal else dots
    norm = np.linalg.norm(z, axis=1)
    cos_d = math.cos(base.delta)
    return ((norm <= 1.0) & (level >= cos_d),
            (norm <= 1.0 - INTERIOR_MARGIN) & (level >= cos_d + INTERIOR_MARGIN))


def contains(cyl: Cylinder, x, strict: bool = False) -> bool:
    """Whether x lies in the cylinder (strict = open interior)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != cyl.ambient_dim:
        raise DimensionMismatch("point dimension does not match the cylinder")
    closed, interior = base_membership(cyl.base, cyl.frame.coords(x))
    return bool((interior if strict else closed)[0])


def contains_points(cyl: Cylinder, pts, strict: bool = False) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != cyl.ambient_dim:
        raise DimensionMismatch("point dimension does not match the cylinder")
    closed, interior = base_membership(cyl.base, pts @ cyl.frame.columns)
    return interior if strict else closed


def base_volume(base: CylinderBase) -> float:
    """m-volume of the base region; cap bases use the closed form."""
    if isinstance(base, CapBase):
        sides = 2.0 if base.antipodal else 1.0
        return sides * specfn.cap_volume(base.dim, base.delta)
    return geom.volume(base)


def crv(body: geom.ConvexBody, cyl: Cylinder) -> float:
    """Cross-sectional volume of the cylinder relative to the body.

    Ratio of the base volume to the volume of the body's shadow on the
    cylinder's base subspace.
    """
    shadow = geom.project_body(body, cyl.frame)
    denom = geom.volume(shadow)
    if denom == math.inf:
        raise DomainError("projected body volume overflows")
    if not denom > 0.0:
        raise DegenerateProjection("projected body has numerically zero volume")
    return base_volume(cyl.base) / denom


def sum_crv(body: geom.ConvexBody, family) -> float:
    return float(sum(crv(body, c) for c in family))


def base_contained(body: geom.ConvexBody, cyl: Cylinder) -> bool:
    """Whether the base lies inside the body's shadow on the base subspace.

    Polytope bases check vertices exactly.  Disk bases are exact too: against
    a polytope shadow every facet needs a_i . c + rho |a_i| <= b_i, against a
    ball shadow |c - c0| + rho <= R, and against an ellipsoid shadow the
    maximum of its quadratic over the disk (the S-lemma dual bound of
    :func:`geom.quadratic_on_ball`) must be at most 1.  Cap bases inside the
    unit ball of E are contained by construction when the body is the unit
    ball; otherwise sampled boundary points of the cap are tested.
    """
    shadow = geom.project_body(body, cyl.frame)
    base = cyl.base
    if isinstance(base, geom.Polytope):
        return bool(np.all(geom.contains_points(shadow, base.vertices,
                                                tol=CONTAINMENT_TOL)))
    if isinstance(base, geom.Ball):
        if isinstance(shadow, geom.Ball):
            gap = float(np.linalg.norm(base.center - shadow.center))
            return gap + base.radius <= shadow.radius + CONTAINMENT_TOL
        if isinstance(shadow, geom.Ellipsoid):
            _, top = geom.quadratic_on_ball(shadow.shape, shadow.center,
                                            base.center, base.radius,
                                            maximize=True)
            return top <= 1.0 + CONTAINMENT_TOL
        eq = shadow.equations
        reach = eq[:, :-1] @ base.center + eq[:, -1] \
            + base.radius * np.linalg.norm(eq[:, :-1], axis=1)
        return bool(np.all(reach <= CONTAINMENT_TOL))
    if geom.is_unit_ball(body):
        return True
    pts = _cap_boundary_points(base, _boundary_directions(base.dim,
                                                          BOUNDARY_SAMPLES))
    return bool(np.all(geom.contains_points(shadow, pts, tol=CONTAINMENT_TOL)))


def _boundary_directions(m: int, n: int) -> np.ndarray:
    if m == 1:
        return np.array([[1.0], [-1.0]])
    rng = np.random.default_rng(1234)  # fixed stream: containment checks are deterministic
    return geom.uniform_sphere_points(m, n, rng)


def _cap_boundary_points(base: CapBase, dirs: np.ndarray) -> np.ndarray:
    # extreme points of a solid cap all lie on its spherical surface
    pole = base.pole
    pts = [pole[None, :], math.cos(base.delta) * pole[None, :]]
    tang = dirs - np.outer(dirs @ pole, pole)
    norms = np.linalg.norm(tang, axis=1, keepdims=True)
    keep = norms[:, 0] > 1e-12
    if np.any(keep):
        tang = tang[keep] / norms[keep]
        for a in np.linspace(0.0, base.delta, 8)[1:]:
            pts.append(math.cos(a) * pole + math.sin(a) * tang)
    out = np.vstack(pts)
    if base.antipodal:
        out = np.vstack([out, -out])
    return out


@dataclass(frozen=True, eq=False)
class RestrictedCylinder:
    """Membership and rejection sampling for the intersection cylinder ∩ body."""

    cylinder: Cylinder
    body: geom.ConvexBody

    def contains(self, x, strict: bool = False) -> bool:
        inside_body = bool(geom.contains_points(
            self.body, np.atleast_2d(x),
            tol=-INTERIOR_MARGIN if strict else 0.0)[0])
        return inside_body and contains(self.cylinder, x, strict=strict)

    def contains_points(self, pts, strict: bool = False) -> np.ndarray:
        tol = -INTERIOR_MARGIN if strict else 0.0
        return geom.contains_points(self.body, pts, tol=tol) & \
            contains_points(self.cylinder, pts, strict=strict)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = []
        got = 0
        proposed = 0
        while got < n:
            block = max(2 * (n - got), 2048)
            pts = geom.sample_in_body(self.body, block, rng)
            hits = pts[contains_points(self.cylinder, pts)]
            proposed += block
            out.append(hits[: n - got])
            got += len(hits[: n - got])
            if proposed >= MAX_PROPOSALS and got == 0:
                raise EmptyIntersection(
                    f"no intersection sample in {proposed} proposals")
        return np.vstack(out)


def restrict(cyl: Cylinder, body: geom.ConvexBody) -> RestrictedCylinder:
    """Sampler for the part of the cylinder inside the body."""
    return RestrictedCylinder(cyl, body)


def transform_cylinder(cyl: Cylinder, t: np.ndarray) -> Cylinder:
    """Image cylinder under an invertible linear map (polytope bases only).

    The complement subspace maps to T·H; the new base is the projection of the
    transformed base points onto the new base subspace.
    """
    if not isinstance(cyl.base, geom.Polytope):
        raise DomainError("only polytope-based cylinders transform exactly")
    t = np.asarray(t, dtype=float)
    h_cols = geom.complement(cyl.frame).columns
    new_h = geom.orthonormalize((t @ h_cols).T)
    new_e = geom.complement(new_h)
    base_pts = cyl.base.vertices @ cyl.frame.columns.T  # ambient base points
    new_base = (base_pts @ t.T) @ new_e.columns
    return Cylinder(new_e, geom.Polytope(new_base))


def cylinder_to_json(cyl: Cylinder) -> dict:
    base = cyl.base
    if isinstance(base, geom.Polytope):
        base_obj = {"kind": "polytope", "vertices": base.vertices.tolist()}
    elif isinstance(base, geom.Ball):
        base_obj = {"kind": "disk", "center": base.center.tolist(),
                    "radius": base.radius}
    else:
        base_obj = {"kind": "cap", "pole": base.pole.tolist(),
                    "delta": base.delta, "antipodal": base.antipodal}
    return {
        "k": cyl.k,
        "frame": {"columns": cyl.frame.columns.T.tolist()},
        "base": base_obj,
    }


def json_typed(value, kind: type, field: str):
    """``value`` when it has exactly the JSON type ``kind`` (int or bool), so
    a bool, float or string is never read as an int, nor a string as a bool."""
    if type(value) is not kind:
        raise DomainError(f"{field} must be a JSON {kind.__name__}, got {value!r}")
    return value


def cylinder_from_json(obj: dict) -> Cylinder:
    cols = np.asarray(obj["frame"]["columns"], dtype=float).T
    frame = geom.Frame(cols)
    b = obj["base"]
    kind = b["kind"]
    if kind == "polytope":
        base: CylinderBase = geom.Polytope(np.asarray(b["vertices"], dtype=float))
    elif kind == "disk":
        base = geom.Ball(np.asarray(b["center"], dtype=float), float(b["radius"]))
    elif kind == "cap":
        base = CapBase(np.asarray(b["pole"], dtype=float), float(b["delta"]),
                       json_typed(b.get("antipodal", True), bool, "cap antipodal"))
    else:
        raise DomainError(f"unknown base kind {kind!r}")
    cyl = Cylinder(frame, base)
    if cyl.k != json_typed(obj["k"], int, "cylinder k"):
        raise DimensionMismatch("codimension field disagrees with the frame shape")
    return cyl
