"""Density measures on the unit ball with constant chord and section integrals.

Each function belongs to one of two measures and takes the dimension from its
input.  The chord density 1/sqrt(1-|x|^2) on the open unit ball (``density_at``,
``line_integral``, ``mu_of_cylinder``, ``mu_total_mass``) integrates to pi along
every full chord, independent of the offset.  The sphere-surface measure
(uniform surface measure of the unit sphere, viewed as a measure on R^d;
``plane_section_integral``, ``sphere_section_total``) assigns mass 2*pi to every
2-plane section meeting the open ball.  Both facts are exposed as quadrature
routines so that the identities can be validated rather than assumed.  Masses
are closed forms; their Monte Carlo cross-checks are test oracles
(``tests/density_oracle.py``).
"""

import math

import numpy as np

from . import cylinders, geom, specfn
from .errors import (
    ChordMissesBall,
    DimensionMismatch,
    DomainError,
    OnUnitSphere,
    PlaneMissesSphere,
)


def density_at(x) -> float:
    """Pointwise chord density 1/sqrt(1-|x|^2): 0 outside the unit ball,
    undefined on the unit sphere."""
    x = np.asarray(x, dtype=float)
    r2 = float(x @ x)
    if abs(r2 - 1.0) < 1e-12:
        raise OnUnitSphere("density is singular on the unit sphere; integrate instead")
    if r2 > 1.0:
        return 0.0
    return 1.0 / math.sqrt(1.0 - r2)


def line_integral(z, direction) -> float:
    """Chord integral of the density along {z + t*direction}, z orthogonal to
    the direction and |z| < 1.

    The integrable endpoint singularity is removed by the substitution
    t = a*sin(theta) with a the chord half-length; plain quadrature in t is
    deliberately not used.  The exact value is pi for every admissible offset.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    if abs(float(z @ u)) > 1e-9:
        raise DomainError("offset must be orthogonal to the chord direction")
    zn2 = float(z @ z)
    if zn2 >= (1.0 - 1e-9) ** 2:
        raise ChordMissesBall(f"offset norm {math.sqrt(zn2):.6f} too close to 1")
    a = math.sqrt(1.0 - zn2)

    def integrand(theta: float) -> float:
        x = z + (a * math.sin(theta)) * u
        s = 1.0 - float(x @ x)
        if s <= 1e-30:
            return 1.0  # analytic limit of a*cos(theta)*p(x) at the endpoints
        return a * math.cos(theta) / math.sqrt(s)

    from scipy import integrate

    value, _ = integrate.quad(integrand, -math.pi / 2.0, math.pi / 2.0,
                              epsabs=1e-10, epsrel=1e-10, limit=200)
    return value


def mu_of_cylinder(cyl: cylinders.Cylinder) -> float:
    """Chord-measure mass of a 1-codimensional cylinder clipped to the ball:
    pi times the base volume, the closed form obtained by integrating the
    constant chord integrals over the base."""
    if cyl.k != 1:
        raise DomainError(f"chord-measure masses need codimension 1, got k={cyl.k}")
    return math.pi * cylinders.base_volume(cyl.base)


def mu_total_mass(d: int) -> float:
    """Closed-form chord-measure mass of the unit ball: pi * omega_{d-1}."""
    return math.pi * specfn.unit_ball_volume(d - 1)


def plane_section_integral(plane: geom.Frame, z) -> float:
    """Mass the sphere-surface measure assigns to a 2-plane section.

    The plane is {embed-of-z + span(plane)} with z in the complement of the
    2-frame and |z| < 1.  The section is a circle of radius sqrt(1-|z|^2); the
    co-area weight of the sphere measure along it is 1/sqrt(1-|z|^2), and the
    quadrature below evaluates length times weight without assuming the
    closed-form answer 2*pi.
    """
    if plane.subspace_dim != 2:
        raise DimensionMismatch("plane must be a 2-frame")
    z = np.asarray(z, dtype=float)
    offset = z if z.shape[0] == plane.ambient_dim else geom.complement(plane).embed(z)
    if np.max(np.abs(plane.coords(offset))) > 1e-9:
        raise DomainError("offset must lie in the complement of the plane")
    zn2 = float(offset @ offset)
    if zn2 >= (1.0 - 1e-9) ** 2:
        raise PlaneMissesSphere(f"offset norm {math.sqrt(zn2):.6f} too close to 1")
    rho = math.sqrt(1.0 - zn2)
    h1, h2 = plane.columns.T

    def integrand(phi: float) -> float:
        y = offset + rho * (math.cos(phi) * h1 + math.sin(phi) * h2)
        off_plane = y - plane.embed(plane.coords(y))
        weight = 1.0 / math.sqrt(max(1.0 - float(off_plane @ off_plane), 1e-300))
        speed = rho  # |dy/dphi|
        return weight * speed

    from scipy import integrate

    value, _ = integrate.quad(integrand, 0.0, 2.0 * math.pi,
                              epsabs=1e-10, epsrel=1e-10, limit=200)
    return value


def sphere_section_total(d: int) -> float:
    """Total sphere-surface mass: the surface area of the unit sphere."""
    return d * specfn.unit_ball_volume(d)
