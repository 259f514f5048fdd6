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
from .errors import DegenerateProjection, DimensionMismatch, DomainError

INTERIOR_MARGIN = 1e-12  # strict-interior slack: tangent cylinders are a legal packing
CONTAINMENT_TOL = 1e-9   # slack of base-in-shadow and base-in-support-range checks
REACH_ROUNDING = 1e-12   # relative round-up of the closed-form disk-in-ellipsoid bound


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
        object.__setattr__(self, "pole", _checked_caps(
            pole.reshape(1, -1), self.delta).reshape(pole.shape))

    @property
    def dim(self) -> int:
        return self.pole.shape[0]


def _checked_caps(poles: np.ndarray, delta) -> np.ndarray:
    """The CapBase checks over an (N, m) pole stack and one angle or N angles
    in one pass; the rows normalized by sqrt(vecdot(p, p)), bit-identical to
    ``linalg.norm(p)``."""
    with np.errstate(over="ignore"):  # past ~1.3e154 the norm is inf and fails
        norm = np.sqrt(np.vecdot(poles, poles))
    if (np.abs(norm - 1.0) > 1e-9).any():
        raise DomainError("cap pole must be a unit vector")
    poles = geom._freeze(poles / norm[:, None])
    deltas = np.asarray(delta)
    if (bad := deltas[~((0.0 < deltas) & (deltas < math.pi / 2.0))]).size:
        raise DomainError(f"cap angle must lie in (0, pi/2), got {bad[0]}")
    return poles


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


def base_membership(base: CylinderBase, z, unit: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (closed, strict) base membership in E-coordinates, from one
    evaluation per base; the strict reading keeps ``INTERIOR_MARGIN`` off the
    boundary, times the body's ``unit`` but for cap bases (in the unit ball)."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if isinstance(base, geom.Ball):
        s = geom._radius_unit(base.radius)
        dist = np.linalg.norm((z - base.center) / s, axis=1)
        return dist <= base.radius / s, dist <= (base.radius - INTERIOR_MARGIN * unit) / s
    if isinstance(base, geom.Polytope):
        eq = base.equations
        top = np.max(z @ eq[:, :-1].T + eq[:, -1], axis=1)
        return top <= 0.0, top <= -INTERIOR_MARGIN * unit
    dots = z @ base.pole
    level = np.abs(dots) if base.antipodal else dots
    norm = np.linalg.norm(z, axis=1)
    cos_d = math.cos(base.delta)
    return ((norm <= 1.0) & (level >= cos_d),
            (norm <= 1.0 - INTERIOR_MARGIN) & (level >= cos_d + INTERIOR_MARGIN))


def base_volume(base: CylinderBase) -> float:
    """m-volume of the base region; cap bases use the closed form."""
    if isinstance(base, CapBase):
        sides = 2.0 if base.antipodal else 1.0
        return sides * specfn.cap_volume(base.dim, base.delta)
    return geom.volume(base)


def _frame_groups(family) -> list[list[int]]:
    """Cylinder indices grouped by bit-equal frame columns (whose squares sum
    to m, so equal bytes mean equal shapes), in order of first appearance."""
    groups: dict = {}
    for i, cyl in enumerate(family):
        groups.setdefault(cyl.frame.columns.tobytes(), []).append(i)
    return list(groups.values())


def _per_frame(family, value) -> list:
    """``value(i)`` for each cylinder, evaluated once per frame group at the
    group's first index i."""
    out = [None] * len(family)
    for group in _frame_groups(family):
        v = value(group[0])
        for i in group:
            out[i] = v
    return out


def crv(body: geom.ConvexBody, cyl: Cylinder) -> float:
    """Cross-sectional volume of the cylinder relative to the body: the ratio
    of the base volume to the volume of the body's shadow on the base
    subspace (the one-cylinder ``sum_crv``)."""
    return sum_crv(body, [cyl])


def sum_crv(body: geom.ConvexBody, family) -> float:
    """Sum of ``crv`` over the family: one shadow volume per distinct frame,
    the terms added in family order."""
    def shadow_volume(i):
        denom = geom.volume(geom.project_body(body, family[i].frame))
        if denom == math.inf:
            raise DomainError("projected body volume overflows")
        if not denom > 0.0:
            raise DegenerateProjection("projected body has numerically zero volume")
        return denom
    family = list(family)
    denom = _per_frame(family, shadow_volume)
    return float(sum(base_volume(c.base) / v for c, v in zip(family, denom)))


def base_contained(shadow: geom.ConvexBody, base: CylinderBase, unit: float) -> bool:
    """Whether the base lies inside the body's shadow on its base subspace
    (``geom.project_body``), both in base-subspace coordinates, within
    ``CONTAINMENT_TOL`` (times the body's ``unit`` where lengths compare).

    Exact for every base kind in polytope and ball shadows.  Polytope bases
    check vertices.  Disk and cap bases use their support function h: a
    polytope shadow needs h(a_i) + b_i <= 0 on every facet, a ball shadow
    (c, R) the base within R of c (a cap's farthest points lie on the unit
    sphere: 1 + |c|^2 + 2 h(-c) <= R^2), and an ellipsoid shadow the S-lemma
    bound of :func:`geom.quadratic_on_ball` over a disk.  A disk (b, rho) in
    an ellipsoid shadow (c, S) is first tried in closed form: the triangle
    inequality in the S-norm bounds the quadratic on the disk by
    (|b - c|_S + rho sqrt(lambda_max(S)))^2, and when that bound, rounded up
    by ``REACH_ROUNDING``, passes, so does the exact test.  A cap in an
    ellipsoid shadow raises ``DomainError``: a convex quadratic can peak on a
    cap at a local, non-global maximizer on the sphere.
    """
    tol = CONTAINMENT_TOL * (1.0 if isinstance(shadow, geom.Ellipsoid) else unit)
    if isinstance(base, geom.Polytope):
        return bool(np.all(geom.contains_points(shadow, base.vertices, tol=tol)))
    if isinstance(shadow, geom.Ellipsoid):
        if isinstance(base, CapBase):
            raise DomainError("cap-base containment in an ellipsoid shadow is "
                              "not decided exactly")
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: exact test
            g = base.center - shadow.center
            reach = (math.sqrt(max(float(g @ shadow.shape @ g), 0.0)) + base.radius
                     * math.sqrt(float(shadow.eigenvalues[-1])))
        if reach * reach * (1.0 + REACH_ROUNDING) <= 1.0 + tol:
            return True
        _, top = geom.quadratic_on_ball(shadow.shape, shadow.center,
                                        base.center, base.radius, maximize=True)
        return top <= 1.0 + tol
    if isinstance(shadow, geom.Ball):
        c, s = shadow.center, geom._radius_unit(shadow.radius)
        with np.errstate(over="ignore"):  # a far base or shadow reaches inf: outside
            if isinstance(base, geom.Ball):
                return float(np.linalg.norm((base.center - c) / s)) + base.radius / s \
                    <= (shadow.radius + tol) / s
            reach = math.sqrt(1.0 + float(c @ c) + 2.0 * float(cap_support(base, -c)[0]))
        return reach <= shadow.radius + tol
    eq = shadow.equations
    if isinstance(base, geom.Ball):
        reach = eq[:, :-1] @ base.center + eq[:, -1] \
            + base.radius * np.linalg.norm(eq[:, :-1], axis=1)
    else:
        reach = cap_support(base, eq[:, :-1]) + eq[:, -1]
    return bool(np.all(reach <= tol))


def cap_support(base: CapBase, a) -> np.ndarray:
    """Support function max <a, z> over the cap (with its mirror when
    antipodal) at each row a: |a| when a lies within delta of the pole, else
    the rim value cos(delta) a.p + sin(delta) |a - (a.p) p|."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    norms = np.linalg.norm(a, axis=1)
    dots = a @ base.pole
    tang = np.linalg.norm(a - np.outer(dots, base.pole), axis=1)
    if base.antipodal:  # the mirror cap reaches further along -p
        dots = np.abs(dots)
    h = math.cos(base.delta)
    return np.where(dots >= h * norms, norms, h * dots + math.sin(base.delta) * tang)


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


# per base kind, the JSON array that fixes its dimension and that array's rank
_BASE_ARRAY = {"polytope": ("vertices", 2), "disk": ("center", 1), "cap": ("pole", 1)}


def family_from_json(objs, d: int, k: int) -> list[Cylinder]:
    """An instance file's cylinders around a body of R^d, checked like a built
    cap family: each one's k field, (d - k, d) frame rows and base dimension
    d - k (``DimensionMismatch``), then all frames (F-contiguous, the rows'
    transpose) in one ``geom._checked_frames`` pass, all caps in one ``_checked_caps``."""
    m = d - k
    for i, obj in enumerate(objs):
        b = obj["base"]
        if b["kind"] not in _BASE_ARRAY:
            raise DomainError(f"unknown base kind {b['kind']!r}")
        field, rank = _BASE_ARRAY[b["kind"]]
        rows, shape = np.shape(obj["frame"]["columns"]), np.shape(b[field])
        if json_typed(obj["k"], int, "cylinder k") != k or rows != (m, d) \
                or len(shape) != rank or shape[-1] != m:
            raise DimensionMismatch(f"cylinder {i} is not of codimension {k} in R^{d}: k="
                                    f"{obj['k']}, frame rows {rows}, base {field} {shape}")
    cols = geom._checked_frames(geom.json_numbers(
        [obj["frame"]["columns"] for obj in objs], "frame columns").transpose(0, 2, 1))
    caps = [obj["base"] for obj in objs if obj["base"]["kind"] == "cap"]
    poles = geom.json_numbers([b["pole"] for b in caps], "cap pole")
    deltas = [geom.json_number(b["delta"], "cap delta") for b in caps]
    checked = iter(zip(_checked_caps(poles, deltas), deltas) if caps else ())

    def base(b):
        if b["kind"] == "polytope":
            return geom.Polytope(geom.json_numbers(b["vertices"], "base vertices"))
        if b["kind"] == "disk":
            return geom.Ball(geom.json_numbers(b["center"], "disk center"),
                             geom.json_number(b["radius"], "disk radius"))
        pole, delta = next(checked)
        return geom._unchecked(CapBase, pole=pole, delta=delta,
                               antipodal=json_typed(b.get("antipodal", True),
                                                    bool, "cap antipodal"))
    return [Cylinder(geom._unchecked(geom.Frame, columns=c), base(obj["base"]))
            for obj, c in zip(objs, cols)]
