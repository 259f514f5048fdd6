"""Monte Carlo references for ``cylpack.densities``: the total chord-measure
mass of the unit ball and the mass of a codimension-1 cylinder, against the
closed forms ``mu_total_mass`` and ``mu_of_cylinder``."""

import math
from dataclasses import dataclass

import numpy as np

from cylpack import cylinders, geom, specfn


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo value with its standard error and provenance."""

    value: float
    stderr: float
    samples: int
    seed: int


def mu_total_mass_mc(d: int, samples: int, seed: int) -> MCEstimate:
    """Uniform-rejection Monte Carlo estimate of the total chord-measure mass.

    Uniform points of the ball weighted by the density.  The weight has an
    integrable singularity, so the reported standard error is the empirical
    one; comparisons should use generous sigma bands.
    """
    rng = np.random.default_rng(seed)
    pts = geom._unit_ball_points(d, samples, rng)
    r2 = np.einsum("ij,ij->i", pts, pts)
    w = 1.0 / np.sqrt(np.maximum(1.0 - r2, 1e-300))
    ball_vol = specfn.unit_ball_volume(d)
    est = ball_vol * float(np.mean(w))
    stderr = ball_vol * float(np.std(w)) / math.sqrt(samples)
    return MCEstimate(est, stderr, samples, seed)


def mu_of_cylinder_mc(measure, cyl: cylinders.Cylinder, samples: int,
                      seed: int) -> MCEstimate:
    """Chord-measure mass of a cylinder clipped to the ball, sampled exactly
    by projecting uniform points of the sphere one dimension up, so the
    estimate does not reuse the chord identity."""
    d = measure.ambient_dim
    rng = np.random.default_rng(seed)
    lifted = geom.uniform_sphere_points(d + 1, samples, rng)
    pts = lifted[:, :d]  # marginal density of uniform S^d is the chord density
    hits = cylinders.contains_points(cyl, pts)
    total = math.pi * specfn.unit_ball_volume(d - 1)
    p = float(np.mean(hits))
    return MCEstimate(total * p,
                      total * math.sqrt(max(p * (1.0 - p), 0.0) / samples),
                      samples, seed)
