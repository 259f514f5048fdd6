"""Reference oracle: the secular bisection on numpy arrays.

``quadratic_on_ball`` below is ``cylpack.geom.quadratic_on_ball`` as it was
before its bisection moved to Python floats, kept verbatim: each step divides
the arrays ``pg / (p + mid)``.  The package's loop does the same IEEE
operations element by element, so tests require bit-equal points and dual
values.
"""

import math

import numpy as np

SECULAR_ITERS = 200


def quadratic_on_ball(shape, center, ball_center, radius: float,
                      maximize: bool = False) -> tuple[np.ndarray, float]:
    """Minimum (or maximum) of q(z) = (z - center)^T shape (z - center) over
    the ball |z - ball_center| <= radius, for positive-definite ``shape``.

    With p the eigenvalues of shape and g the eigen-coordinates of
    center - ball_center, the Lagrangian q + lam (|z - ball_center|^2 -
    radius^2) is stationary at y(lam) = p g / (p + lam) and has the dual value
    phi(lam) = lam (sum p g^2 / (p + lam) - radius^2).  By weak duality
    phi(lam) bounds min q from below for every lam >= 0 and max q from above
    for every lam < -max p (the S-lemma makes both bounds tight).  The secular
    equation |y(lam)| = radius is bisected from the side where y(lam) lies in
    the ball, down to adjacent doubles.  Returns (z, phi(lam)) at the final
    lam: z, the point of eigen-coordinates y(lam) about ball_center, lies in
    the ball, so phi <= min q <= q(z) for a minimum and max q <= phi for a
    maximum.  Centres near 1e154 apart overflow phi to +inf (no slice, no
    containment); where inf * 0 leaves phi or z undefined, the trivial
    bounds stand: phi = 0 for a minimum, +inf for a maximum, z = ball_center.
    """
    p, vecs = np.linalg.eigh(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        g = vecs.T @ (center - ball_center)
        pg = p * g
        gap = math.hypot(*g) / radius
        if maximize:
            # strictly below -max p, so a start with no top-eigenvector
            # component (the hard case) still has finite terms
            inside, outside = -p[-1] * (1.0 + gap) * (1.0 + 1e-12), -p[-1]
        elif gap <= 1.0:
            return center, 0.0
        else:
            inside, outside = p[-1] * gap, 0.0
        for _ in range(SECULAR_ITERS):
            mid = 0.5 * (inside + outside)
            if mid == inside or mid == outside:
                break
            if math.hypot(*(pg / (p + mid))) <= radius:
                inside = mid
            else:
                outside = mid
        y = pg / (p + inside)
        y *= min(1.0, radius / max(math.hypot(*y), np.finfo(float).tiny))
        dual = inside * (float(np.sum(pg * g / (p + inside))) - radius * radius)
        z = ball_center + vecs @ y
    if math.isnan(dual):
        dual = math.inf if maximize else 0.0
    if not np.all(np.isfinite(z)):
        z = ball_center
    return z, dual
