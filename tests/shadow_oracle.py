"""Reference oracles: the direction search for the largest hyperplane shadow,
and Cauchy's surface-area formula by direction quadrature.

``max_hyperplane_projection`` below is the original search, kept verbatim: a
direction grid (an angle sweep in the plane, a Fibonacci spiral in R^3, a
seeded sphere sample above) followed by a shrinking pattern search.  Its
value is achieved, so it is a lower estimate of the maximum that
``cylpack.geom.max_hyperplane_projection`` computes exactly.
``cauchy_surface_area`` is the surface self-test the base-volume checker used
to run on every polytope.
"""

import math

import numpy as np

from cylpack import specfn
from cylpack.errors import UnsupportedDimension
from cylpack.geom import (
    ConvexBody,
    Frame,
    complement,
    hyperplane_shadow_volume,
    uniform_sphere_points,
)


def _direction_grid(d: int, grid: int, seed: int) -> np.ndarray:
    if d == 2:
        theta = np.linspace(0.0, math.pi, grid, endpoint=False)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if d == 3:
        # Fibonacci spiral covers the sphere nearly uniformly
        i = np.arange(grid) + 0.5
        phi = math.pi * (1.0 + math.sqrt(5.0)) * i
        z = 1.0 - 2.0 * i / grid
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(seed)
    return uniform_sphere_points(d, grid, rng)


def max_hyperplane_projection(body: ConvexBody, grid: int = 512,
                              refine_iters: int = 60, seed: int = 0,
                              ) -> tuple[np.ndarray, float]:
    """Approximate maximizer of the hyperplane-shadow volume.

    Direction-grid search followed by a shrinking pattern search; the returned
    value is guaranteed to be at least the best grid value.  Supported in
    dimensions 2 to 4 only.
    """
    d = body.dim
    if d < 2 or d > 4:
        raise UnsupportedDimension(f"hyperplane projection search supports d in 2..4, got {d}")
    dirs = _direction_grid(d, grid, seed)
    vals = np.array([hyperplane_shadow_volume(body, u) for u in dirs])
    best = int(np.argmax(vals))
    u, value = dirs[best].copy(), float(vals[best])
    step = 2.0 * math.pi / max(grid, 8)
    for _ in range(refine_iters):
        improved = False
        basis = complement(Frame(u[:, None])).columns.T
        for t in basis:
            for sgn in (1.0, -1.0):
                cand = u + sgn * step * t
                cand /= np.linalg.norm(cand)
                v = hyperplane_shadow_volume(body, cand)
                if v > value:
                    u, value = cand, v
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-9:
                break
    return u, value


def cauchy_surface_area(body: ConvexBody, n_dirs: int = 2048,
                        seed: int = 0) -> float:
    """Surface area via direction-quadrature of hyperplane shadow volumes.

    Averages shadow volumes over the sphere and multiplies by the sphere area
    over omega_{d-1}.  In the plane the quadrature is a trapezoid rule over
    angles; higher dimensions use a seeded uniform direction sample.
    """
    d = body.dim
    if d == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, n_dirs, endpoint=False)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        rng = np.random.default_rng(seed)
        dirs = uniform_sphere_points(d, n_dirs, rng)
    vals = [hyperplane_shadow_volume(body, u) for u in dirs]
    sphere_area = d * specfn.unit_ball_volume(d)
    return sphere_area * float(np.mean(vals)) / specfn.unit_ball_volume(d - 1)
