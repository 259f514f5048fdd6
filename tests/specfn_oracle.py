"""Reference evaluations of the cos-power integral J_n(delta), the integral of
cos^n over (pi/2 - delta, pi/2), which ``cylpack.specfn`` computes in closed
form from the incomplete beta function.

- ``cos_power_quad``: adaptive quadrature, absolute error below 1e-12;
- ``cos_power_recurrence``: the integration-by-parts recurrence, whose
  subtraction cancels at tiny angles (its absolute error stays near machine
  precision, its relative error does not);
- ``cos_power_exact``: the beta series in 60-digit decimal arithmetic, from
  the exact binary value of delta;
- ``cos_power_bracket``: the elementary two-sided bracket of J_n(delta).
"""

import math
from decimal import Decimal, localcontext

from scipy import integrate

from cylpack.errors import DomainError

HALF_PI = math.pi / 2.0
DIGITS = 60


def cos_power_quad(n: int, delta: float) -> float:
    value, _ = integrate.quad(
        lambda t: math.cos(t) ** n, HALF_PI - delta, HALF_PI,
        epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    return value


def cos_power_recurrence(n: int, delta: float) -> float:
    """J_n = (n-1)/n * J_{n-2} - sin(delta)^(n-1) * cos(delta) / n,
    J_0 = delta, J_1 = 1 - cos(delta)."""
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


def _sin(x: Decimal) -> Decimal:
    """Taylor series of sin at the context's precision."""
    term, total, k = x, x, 1
    while abs(term) > total.copy_abs() * Decimal(10) ** (-DIGITS - 5):
        term = -term * x * x / ((2 * k) * (2 * k + 1))
        total += term
        k += 1
    return total


def cos_power_exact(n: int, delta: float) -> float:
    """J_n(delta) = 1/2 B_x((n+1)/2, 1/2) with x = sin^2 delta, from
    B_x(a, 1/2) = x^a sum_k (1/2)_k / (k! (a + k)) x^k.

    The series converges for delta < pi/2 like x^k / k^(3/2); x^a is
    sin(delta)^(n+1), so no fractional power is taken.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        s = _sin(Decimal(delta))
        x = s * s
        a = Decimal(n + 1) / 2
        coef = Decimal(1)      # (1/2)_k / k! x^k
        total = Decimal(0)
        k = 0
        tiny = Decimal(10) ** (-DIGITS - 5)
        while True:
            term = coef / (a + k)
            total += term
            if term < total * tiny:
                break
            coef = coef * (Decimal(k) + Decimal("0.5")) / (k + 1) * x
            k += 1
        return float(s ** (n + 1) * total / 2)


def cos_power_bracket(n: int, delta: float) -> tuple[float, float]:
    """Two-sided bracket for the cos-power integral over the top delta-window.

    Returns (delta*sin(delta)^n / (e*(n+1)),  delta*sin(delta)^n); the integral
    itself always lies between the two.
    """
    if n < 1:
        raise DomainError(f"bracket requires power >= 1, got {n}")
    if not 0.0 < delta < HALF_PI:
        raise DomainError(f"angle must lie in (0, pi/2), got {delta}")
    upper = delta * math.sin(delta) ** n
    lower = upper / (math.e * (n + 1))
    return lower, upper
