"""Closed forms and quadrature for cos-power integrals and cap measures.

Two independent evaluation paths are kept permanently for the cos-power
integral: adaptive quadrature and an integration-by-parts recurrence.  The
recurrence loses *relative* accuracy for tiny angles (the subtraction in the
parts formula cancels), but its *absolute* error stays near machine precision,
which is what the cross-checks assert.
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


def full_cos_power_integral(n: int) -> float:
    """Integral of cos^n over a full half-period (-pi/2, pi/2).

    Equals sqrt(pi) * Gamma((n+1)/2) / Gamma(n/2 + 1); for n >= 1 this is also
    the ratio of consecutive unit-ball volumes.
    """
    if n < 0:
        raise DomainError(f"power must be >= 0, got {n}")
    from scipy import special

    return math.sqrt(math.pi) * special.gamma((n + 1) / 2.0) / special.gamma(n / 2.0 + 1.0)


def _check_angle(delta: float, closed_top: bool) -> None:
    top_ok = delta <= HALF_PI if closed_top else delta < HALF_PI
    if not (0.0 < delta and top_ok):
        rng = "(0, pi/2]" if closed_top else "(0, pi/2)"
        raise DomainError(f"angle must lie in {rng}, got {delta}")


def cos_power_integral(n: int, delta: float) -> float:
    """Integral of cos^n(t) for t from pi/2 - delta to pi/2, by quadrature.

    Absolute error of the quadrature is kept below 1e-12; on this smooth
    integrand the relative error is near machine precision as well.
    """
    if n < 0:
        raise DomainError(f"power must be >= 0, got {n}")
    _check_angle(delta, closed_top=True)
    if n == 0:
        return delta
    from scipy import integrate

    value, _ = integrate.quad(
        lambda t: math.cos(t) ** n, HALF_PI - delta, HALF_PI,
        epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    return value


def cos_power_recurrence(n: int, delta: float) -> float:
    """Same integral via the integration-by-parts recurrence (oracle path).

    J_n = (n-1)/n * J_{n-2} - sin(delta)^(n-1) * cos(delta) / n,
    J_0 = delta, J_1 = 1 - cos(delta).
    """
    if n < 0:
        raise DomainError(f"power must be >= 0, got {n}")
    _check_angle(delta, closed_top=True)
    s, c = math.sin(delta), math.cos(delta)
    j_even = delta          # J_0
    j_odd = 1.0 - c         # J_1
    if n == 0:
        return j_even
    if n == 1:
        return j_odd
    value = j_odd if n % 2 else j_even
    for m in range(2 + (n % 2), n + 1, 2):
        value = (m - 1) / m * value - (s ** (m - 1)) * c / m
    return value


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
    direction its volume is unit_ball_volume(m-1) * cos_power_integral(m, delta).
    """
    if m < 1:
        raise DomainError(f"cap dimension must be >= 1, got {m}")
    _check_angle(delta, closed_top=True)
    return unit_ball_volume(m - 1) * cos_power_integral(m, delta)


def spherical_cap_fraction(d: int, delta: float, antipodal: bool = False,
                           form: str = "sin_power") -> float:
    """Normalized surface measure of a spherical cap of geodesic radius delta.

    ``form="sin_power"`` works for every d >= 2 and normalizes by the full
    cos-power integral.  ``form="ball_ratio"`` uses the ratio of unit-ball
    volumes (valid for d >= 3) and must agree with the general form where both
    apply.  With ``antipodal=True`` the antipodal pair of caps is measured,
    doubling the one-sided value.
    """
    if d < 2:
        raise DomainError(f"sphere dimension parameter must be >= 2, got {d}")
    _check_angle(delta, closed_top=True)
    top = cos_power_integral(d - 2, delta)
    if form == "sin_power":
        sigma = top / full_cos_power_integral(d - 2)
    elif form == "ball_ratio":
        if d < 3:
            raise DomainError("ball_ratio form requires d >= 3")
        sigma = top * unit_ball_volume(d - 3) / unit_ball_volume(d - 2)
    else:
        raise DomainError(f"unknown form {form!r}")
    return 2.0 * sigma if antipodal else sigma
