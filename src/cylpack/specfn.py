"""Closed forms for cos-power integrals and cap measures.

Every cap quantity is one regularized incomplete beta value (DLMF 8.17):

    integral of sin^n over (0, delta) = 1/2 B((n+1)/2, 1/2) I_{sin^2 delta}((n+1)/2, 1/2)

for delta in (0, pi/2].  The cos-power integral over the top delta-window,
solid cap volumes and spherical cap fractions all come from that one
evaluation (``_half_cap_ratio``).  Quadrature and the integration-by-parts
recurrence are test oracles (``tests/specfn_oracle.py``).
"""

import math

from .errors import DomainError

HALF_PI = math.pi / 2.0


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball in R^m; the 0-dimensional ball has volume 1."""
    if m < 0:
        raise DomainError(f"ball dimension must be >= 0, got {m}")
    from scipy import special

    return math.pi ** (m / 2.0) / special.gamma(m / 2.0 + 1.0)


def _check_angle(delta: float, closed_top: bool) -> None:
    top_ok = delta <= HALF_PI if closed_top else delta < HALF_PI
    if not (0.0 < delta and top_ok):
        rng = "(0, pi/2]" if closed_top else "(0, pi/2)"
        raise DomainError(f"angle must lie in {rng}, got {delta}")


def _half_cap_ratio(n: int, delta: float) -> float:
    """1/2 I_{sin^2 delta}((n+1)/2, 1/2): the share of the cos^n integral over
    (-pi/2, pi/2) that falls in the top delta-window."""
    from scipy import special

    return 0.5 * float(special.betainc((n + 1) / 2.0, 0.5, math.sin(delta) ** 2))


def cos_power_integral(n: int, delta: float) -> float:
    """Integral of cos^n(t) for t from pi/2 - delta to pi/2, in closed form:
    B((n+1)/2, 1/2) times ``_half_cap_ratio``."""
    if n < 0:
        raise DomainError(f"power must be >= 0, got {n}")
    _check_angle(delta, closed_top=True)
    from scipy import special

    return float(special.beta((n + 1) / 2.0, 0.5)) * _half_cap_ratio(n, delta)


def cos_power_bracket(n: int, delta: float) -> tuple[float, float]:
    """Two-sided bracket for the cos-power integral over the top delta-window.

    Returns (delta*sin(delta)^n / (e*(n+1)),  delta*sin(delta)^n); the integral
    itself always lies between the two.
    """
    if n < 1:
        raise DomainError(f"bracket requires power >= 1, got {n}")
    _check_angle(delta, closed_top=False)
    upper = delta * math.sin(delta) ** n
    lower = upper / (math.e * (n + 1))
    return lower, upper


def cap_volume(m: int, delta: float) -> float:
    """Volume of a one-sided solid cap of the unit ball in R^m.

    The cap is {z in B^m : <z, pole> >= cos(delta)}; by Fubini in the pole
    direction its volume is unit_ball_volume(m-1) * cos_power_integral(m, delta)
    = unit_ball_volume(m) * ``_half_cap_ratio``(m, delta).
    """
    if m < 1:
        raise DomainError(f"cap dimension must be >= 1, got {m}")
    _check_angle(delta, closed_top=True)
    return unit_ball_volume(m) * _half_cap_ratio(m, delta)


def spherical_cap_fraction(d: int, delta: float) -> float:
    """Normalized surface measure of a one-sided spherical cap of geodesic
    radius delta on the unit sphere of R^d: 1/2 I_{sin^2 delta}((d-1)/2, 1/2)."""
    if d < 2:
        raise DomainError(f"sphere dimension parameter must be >= 2, got {d}")
    _check_angle(delta, closed_top=True)
    return _half_cap_ratio(d - 2, delta)
