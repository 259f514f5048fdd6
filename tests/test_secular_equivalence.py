"""The secular bisection of ``geom.quadratic_on_ball`` on Python floats gives
the numpy-step loop's point and dual value bit for bit (``secular_oracle``),
minimum and maximum, over well- and ill-conditioned shapes, centres near the
1e154 overflow edge and past 1e300 (the inf and nan branches) and the hard
case of a centre on the ball centre."""

import numpy as np

import secular_oracle
from cylpack import geom

CASES = 5000


def _shape(rng, m: int) -> np.ndarray:
    """Symmetric positive definite, condition number up to 1e12."""
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eig = 10.0 ** rng.uniform(-6.0, 6.0, m) if rng.random() < 0.5 \
        else rng.uniform(0.1, 3.0, m)
    return (q * eig) @ q.T


def _case(rng):
    m = int(rng.integers(1, 5))
    shape = _shape(rng, m)
    ball_centre = rng.standard_normal(m)
    radius = float(rng.uniform(0.05, 3.0))
    kind = rng.integers(5)
    if kind == 0:  # the hard case
        centre = ball_centre.copy()
    elif kind in (1, 2):  # phi overflows past about 1e154, p g past 1e300
        exponent = rng.uniform(150, 155) if kind == 1 else rng.uniform(300, 308)
        centre = ball_centre + rng.standard_normal(m) * 10.0 ** exponent
    else:
        centre = ball_centre + rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 2)
    return shape, centre, ball_centre, radius


def _bits(z, dual) -> tuple[bytes, bytes]:
    return np.asarray(z, dtype=float).tobytes(), np.float64(dual).tobytes()


def test_python_float_bisection_matches_the_numpy_loop():
    rng = np.random.default_rng(20251019)
    seen = {"inf": 0, "undefined z": 0, "hard": 0}
    for _ in range(CASES):
        shape, centre, ball_centre, radius = _case(rng)
        for maximize in (False, True):
            got = geom.quadratic_on_ball(shape, centre, ball_centre, radius,
                                         maximize=maximize)
            want = secular_oracle.quadratic_on_ball(shape, centre, ball_centre,
                                                    radius, maximize=maximize)
            assert _bits(*got) == _bits(*want), (shape, centre, ball_centre,
                                                 radius, maximize)
            seen["inf"] += got[1] == np.inf
            hard = np.array_equal(centre, ball_centre)
            seen["undefined z"] += not hard and np.array_equal(got[0], ball_centre)
        seen["hard"] += hard
    # each branch was reached, not just drawn
    assert min(seen.values()) > 100, seen
