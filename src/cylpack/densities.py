"""Density measures on the unit ball with constant chord and section integrals.

Two measures are provided.  The chord density 1/sqrt(1-|x|^2) on the open unit
ball integrates to pi along every full chord, independent of the offset.  The
sphere-surface measure (uniform surface measure of the unit sphere, viewed as
a measure on R^d) assigns mass 2*pi to every 2-plane section meeting the open
ball.  Both facts are exposed as quadrature routines so that the identities can
be validated rather than assumed.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cylinders, geom, specfn
from .errors import (
    ChordMissesBall,
    DimensionMismatch,
    DomainError,
    OnUnitSphere,
    PlaneMissesSphere,
)

BALL_CHORD = "ball_chord"
SPHERE_SURFACE = "sphere_surface"


@dataclass(frozen=True)
class DensityMeasure:
    kind: str
    ambient_dim: int

    def __post_init__(self):
        if self.kind not in (BALL_CHORD, SPHERE_SURFACE):
            raise DomainError(f"unknown density kind {self.kind!r}")
        if self.ambient_dim < 2:
            raise DomainError("density measures need ambient dimension >= 2")


def ball_chord_density(d: int) -> DensityMeasure:
    return DensityMeasure(BALL_CHORD, d)


def sphere_surface_density(d: int) -> DensityMeasure:
    return DensityMeasure(SPHERE_SURFACE, d)


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo value with its standard error and provenance."""

    value: float
    stderr: float
    samples: int
    seed: int


def density_at(measure: DensityMeasure, x) -> float:
    """Pointwise density; defined off the unit sphere for the chord measure."""
    if measure.kind != BALL_CHORD:
        raise DomainError("the sphere-surface measure has no pointwise density")
    x = np.asarray(x, dtype=float)
    if x.shape[0] != measure.ambient_dim:
        raise DimensionMismatch("point dimension does not match the measure")
    r2 = float(x @ x)
    if abs(r2 - 1.0) < 1e-12:
        raise OnUnitSphere("density is singular on the unit sphere; integrate instead")
    if r2 > 1.0:
        return 0.0
    return 1.0 / math.sqrt(1.0 - r2)


def line_integral(measure: DensityMeasure, z, direction) -> float:
    """Chord integral of the density along {z + t*direction}, z orthogonal to
    the direction and |z| < 1.

    The integrable endpoint singularity is removed by the substitution
    t = a*sin(theta) with a the chord half-length; plain quadrature in t is
    deliberately not used.  The exact value is pi for every admissible offset.
    """
    if measure.kind != BALL_CHORD:
        raise DomainError("line integrals apply to the chord measure")
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


def mu_of_cylinder(measure: DensityMeasure, cyl: cylinders.Cylinder,
                   mc_samples: int = 0, seed: int = 0,
                   ) -> tuple[float, MCEstimate | None]:
    """Chord-measure mass of a 1-codimensional cylinder clipped to the ball.

    Returns pi times the base volume, the closed form obtained by integrating
    the constant chord integrals over the base.  With ``mc_samples`` > 0 an
    independent Monte Carlo estimate is attached: the measure is sampled
    exactly by projecting uniform points of the sphere one dimension up, so the
    estimate does not reuse the chord identity.
    """
    if measure.kind != BALL_CHORD:
        raise DomainError("cylinder masses apply to the chord measure")
    if cyl.k != 1:
        raise DomainError(f"chord-measure masses need codimension 1, got k={cyl.k}")
    d = measure.ambient_dim
    if cyl.ambient_dim != d:
        raise DimensionMismatch("cylinder dimension does not match the measure")
    exact = math.pi * cylinders.base_volume(cyl.base)
    estimate = None
    if mc_samples > 0:
        rng = np.random.default_rng(seed)
        lifted = geom.uniform_sphere_points(d + 1, mc_samples, rng)
        pts = lifted[:, :d]  # marginal density of uniform S^d is the chord density
        hits = cylinders.contains_points(cyl, pts)
        total = math.pi * specfn.unit_ball_volume(d - 1)
        p = float(np.mean(hits))
        estimate = MCEstimate(
            value=total * p,
            stderr=total * math.sqrt(max(p * (1.0 - p), 0.0) / mc_samples),
            samples=mc_samples, seed=seed)
    return exact, estimate


def mu_total_mass(d: int) -> float:
    """Closed-form chord-measure mass of the unit ball: pi * omega_{d-1}."""
    return math.pi * specfn.unit_ball_volume(d - 1)


def plane_section_integral(measure: DensityMeasure, plane: geom.Frame, z) -> float:
    """Mass the sphere-surface measure assigns to a 2-plane section.

    The plane is {embed-of-z + span(plane)} with z in the complement of the
    2-frame and |z| < 1.  The section is a circle of radius sqrt(1-|z|^2); the
    co-area weight of the sphere measure along it is 1/sqrt(1-|z|^2), and the
    quadrature below evaluates length times weight without assuming the
    closed-form answer 2*pi.
    """
    if measure.kind != SPHERE_SURFACE:
        raise DomainError("plane sections apply to the sphere-surface measure")
    d = measure.ambient_dim
    if plane.ambient_dim != d or plane.subspace_dim != 2:
        raise DimensionMismatch("plane must be a 2-frame in the measure's dimension")
    z = np.asarray(z, dtype=float)
    offset = z if z.shape[0] == d else geom.complement(plane).embed(z)
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
