"""Numerical laboratory for packings and coverings of convex bodies by
k-codimensional cylinders."""

from . import bounds, cappack, cylinders, densities, falconer, geom, \
    instances, multiplicity, specfn
from .bounds import BoundReport
from .cylinders import CapBase, Cylinder, crv
from .errors import CylpackError
from .falconer import DiskFamily
from .geom import Ball, Ellipsoid, Frame, Polytope
from .multiplicity import MultiplicityReport

__version__ = "0.1.0"

__all__ = [
    "Ball", "BoundReport", "CapBase", "Cylinder", "CylpackError", "DiskFamily",
    "Ellipsoid", "Frame", "MultiplicityReport", "Polytope",
    "bounds", "cappack", "crv", "cylinders", "densities", "falconer", "geom",
    "instances", "multiplicity", "specfn",
]
