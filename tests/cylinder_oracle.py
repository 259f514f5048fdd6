"""Reference oracle: an instance file's cylinders read one object at a time,
and the point membership of one cylinder.

``cylinder_from_json`` is the per-cylinder reader that came before
``cylpack.cylinders.family_from_json`` checked a file's family as one stack,
kept verbatim (one ``Frame`` and one base check per cylinder), so that tests
can require the stacked reader to build the same cylinders bit for bit.
``contains_points`` tests points against one cylinder through
``cylinders.base_membership``; no command reads it.
"""

import numpy as np

from cylpack import geom
from cylpack.cylinders import (CapBase, Cylinder, CylinderBase, base_membership,
                               json_typed)
from cylpack.errors import DimensionMismatch, DomainError


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


def contains_points(cyl: Cylinder, pts, strict: bool = False) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != cyl.ambient_dim:
        raise DimensionMismatch("point dimension does not match the cylinder")
    closed, interior = base_membership(cyl.base, pts @ cyl.frame.columns, 1.0)
    return interior if strict else closed
