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
TABLE_DIM = 40  # largest dimension whose ball volume keeps scipy.special's bits

# pi^(m/2) / scipy.special.gamma(m/2 + 1) for odd m = 1, 3, ..., 39
_ODD_BALL_VOLUMES = (
    2.0, 4.188790204786391, 5.263789013914324, 4.724765970331401,
    3.2985089027387064, 1.8841038793898999, 0.9106287547832829,
    0.38144328082330436, 0.140981106917139, 0.04662160103008853,
    0.013949150409020993, 0.003810656386852123, 0.0009577224088231723,
    0.000222872124721274, 4.8287822738917413e-05, 9.787139946737361e-06,
    1.8634670882621386e-06, 3.345288294108971e-07, 5.6808287183311744e-08,
    9.152230650159558e-09,
)


def unit_ball_volume(m: int) -> float:
    """Volume omega_m of the unit ball in R^m; the 0-dimensional ball has
    volume 1.

    Up to m = TABLE_DIM the value has the bits of pi^(m/2) / Gamma(m/2 + 1)
    from scipy.special: pi^(m/2) / (m/2)! for even m, a table for odd m.
    Past it, omega_m = omega_(m-2) 2 pi / m, which underflows to 0.0 from
    m = 453 on instead of overflowing pi^(m/2).
    """
    if m < 0:
        raise DomainError(f"ball dimension must be >= 0, got {m}")
    top = min(m, TABLE_DIM - (m % 2))
    if top % 2:
        value = _ODD_BALL_VOLUMES[top // 2]
    else:
        value = math.pi ** (top / 2.0) / math.factorial(top // 2)
    for j in range(top + 2, m + 1, 2):
        value = value * math.tau / j
    return value


def _check_angle(delta: float) -> None:
    if not 0.0 < delta <= HALF_PI:
        raise DomainError(f"angle must lie in (0, pi/2], got {delta}")


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
    _check_angle(delta)
    from scipy import special

    return float(special.beta((n + 1) / 2.0, 0.5)) * _half_cap_ratio(n, delta)


def cap_volume(m: int, delta: float) -> float:
    """Volume of a one-sided solid cap of the unit ball in R^m.

    The cap is {z in B^m : <z, pole> >= cos(delta)}; by Fubini in the pole
    direction its volume is unit_ball_volume(m-1) * cos_power_integral(m, delta)
    = unit_ball_volume(m) * ``_half_cap_ratio``(m, delta).
    """
    if m < 1:
        raise DomainError(f"cap dimension must be >= 1, got {m}")
    _check_angle(delta)
    return unit_ball_volume(m) * _half_cap_ratio(m, delta)


def spherical_cap_fraction(d: int, delta: float) -> float:
    """Normalized surface measure of a one-sided spherical cap of geodesic
    radius delta on the unit sphere of R^d: 1/2 I_{sin^2 delta}((d-1)/2, 1/2)."""
    if d < 2:
        raise DomainError(f"sphere dimension parameter must be >= 2, got {d}")
    _check_angle(delta)
    return _half_cap_ratio(d - 2, delta)
