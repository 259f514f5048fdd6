"""Reference oracles for cap bases and cap packings: an explicit support
point, the sampled boundary that cap-base containment used to test, and the
cap packing report as it was built from cylinder objects.

``boundary_sample`` is the original sample, kept verbatim: 1024 directions
from a fixed stream, each giving seven rim-ward points on the cap's sphere,
plus the pole and the rim's centre.  Every point lies in the cap (up to
rounding of order 1e-12 where a direction nearly meets the pole), so the
largest <a, x> over the sample is a lower estimate of the support function
``cylpack.cylinders.cap_support`` computes exactly.

``packing_report`` is ``cappack.cap_packing_report`` on the object path:
the family built by ``cappack.build_cap_packing`` and its packing verdict
taken by ``multiplicity.decide``.
"""

import math

import numpy as np

from cylpack import cappack, geom, multiplicity, specfn
from cylpack.geom import uniform_sphere_points

BOUNDARY_SAMPLES = 1024


def _boundary_directions(m: int, n: int) -> np.ndarray:
    if m == 1:
        return np.array([[1.0], [-1.0]])
    rng = np.random.default_rng(1234)  # fixed stream: containment checks are deterministic
    return uniform_sphere_points(m, n, rng)


def boundary_sample(base) -> np.ndarray:
    # extreme points of a solid cap all lie on its spherical surface
    dirs = _boundary_directions(base.dim, BOUNDARY_SAMPLES)
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


def support_point(base, a) -> np.ndarray:
    """A point of the cap (or of its mirror, when antipodal and a points
    that way) where <a, .> peaks: a / |a| when a lies within delta of the
    pole, else the rim point in a's direction (the rim's centre when a is
    parallel to the pole)."""
    a = np.asarray(a, dtype=float)
    pole = base.pole if not base.antipodal or a @ base.pole >= 0 else -base.pole
    u = a / np.linalg.norm(a)
    if u @ pole >= math.cos(base.delta):
        return u
    tang = u - (u @ pole) * pole
    norm = np.linalg.norm(tang)
    # along -pole every rim point ties with the rim's centre
    side = tang / norm if norm > 1e-12 else np.zeros_like(u)
    return math.cos(base.delta) * pole + math.sin(base.delta) * side


def in_cap(base, z, tol: float = 1e-12) -> bool:
    """Closed cap membership with a rounding slack."""
    level = abs(z @ base.pole) if base.antipodal else z @ base.pole
    return bool(np.linalg.norm(z) <= 1.0 + tol and level >= math.cos(base.delta) - tol)


def packing_report(d: int, k: int, delta: float, seed: int = 0,
                   metric: str = cappack.PROJECTIVE,
                   packing_samples: int = 0) -> cappack.CapPackingReport:
    sep_set, family = cappack.build_cap_packing(d, k, delta, seed=seed, metric=metric)
    n = len(family)
    antipodal = sep_set.metric == cappack.PROJECTIVE
    sum_crv = n * (2.0 if antipodal else 1.0) \
        * specfn.spherical_cap_fraction(d - k + 2, delta)
    sigma_one = specfn.spherical_cap_fraction(d, 2.0 * delta)
    bound_anti = 1.0 / (2.0 * sigma_one)
    bound_one = 1.0 / sigma_one
    chain = cappack.chain_lower_bound(d, k, delta)
    threshold = cappack.closed_threshold(d, k, delta)
    packing = None
    if packing_samples > 0:
        ball = geom.Ball(np.zeros(d), 1.0)
        packing = multiplicity.decide(ball, family, 1, packing_samples, seed).report
    return cappack.CapPackingReport(
        d=d, k=k, delta=delta, metric=metric, antipodal_bases=antipodal,
        n_cylinders=n, separated_set_maximal=sep_set.maximal,
        covering_radius=sep_set.covering_radius,
        completion_rounds=sep_set.completion_rounds, sum_crv=sum_crv,
        count_lower_bound_antipodal=bound_anti,
        count_lower_bound_onesided=bound_one,
        count_bound_holds_antipodal=n >= bound_anti,
        count_bound_holds_onesided=n >= bound_one,
        chain_rhs=chain, chain_holds=sum_crv >= chain,
        threshold_without_constant=threshold,
        empirical_constant_ratio=sum_crv / threshold, seed=seed, packing=packing)
