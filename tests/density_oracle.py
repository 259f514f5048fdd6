"""Monte Carlo reference for ``cylpack.densities``: the total chord-measure
mass of the unit ball, against the closed form ``mu_total_mass``."""

import math

import numpy as np

from cylpack import geom, specfn
from cylpack.densities import MCEstimate


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
