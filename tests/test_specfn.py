import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specfn_oracle
from cylpack import geom, specfn
from cylpack.errors import DomainError

HALF_PI = math.pi / 2.0


def test_unit_ball_volumes():
    assert specfn.unit_ball_volume(0) == 1.0
    assert specfn.unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
    assert specfn.unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-14)
    assert specfn.unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, abs=1e-14)
    with pytest.raises(DomainError):
        specfn.unit_ball_volume(-1)


def test_full_cos_power_matches_ball_volume_ratio():
    # omega_n = omega_{n-1} * integral of cos^n over the half-period, which is
    # twice the top window at delta = pi/2
    for n in range(1, 12):
        ratio = specfn.unit_ball_volume(n) / specfn.unit_ball_volume(n - 1)
        assert 2.0 * specfn.cos_power_integral(n, HALF_PI) == pytest.approx(
            ratio, rel=1e-13)


def test_cos_power_integral_trivial_cases():
    assert specfn.cos_power_integral(0, 0.5) == pytest.approx(0.5, abs=1e-13)
    assert specfn.cos_power_integral(1, math.pi / 3) == pytest.approx(0.5, abs=1e-13)
    # antiderivative of cos^2 is t/2 + sin(2t)/4
    want = 0.35 - math.sin(1.4) / 4.0
    assert specfn.cos_power_integral(2, 0.7) == pytest.approx(want, abs=1e-13)


def test_quadrature_vs_recurrence_absolute_agreement():
    # the closed form against both oracle paths
    for n in range(0, 61):
        for delta in (0.01, 0.2, 0.7, 1.2, 1.5):
            c = specfn.cos_power_integral(n, delta)
            q = specfn_oracle.cos_power_quad(n, delta)
            r = specfn_oracle.cos_power_recurrence(n, delta)
            assert abs(c - q) <= 1e-10 and abs(c - r) <= 1e-10, (n, delta, c, q, r)


def test_closed_form_matches_decimal_oracle():
    # relative error against the 60-digit beta series, down to delta = 1e-6
    # where quadrature errs by ~4e-9 and the recurrence cancels
    deltas = [1e-6, 1e-4, 1e-2] + [0.1 * i for i in range(1, 13)]
    for delta in deltas:
        for n in range(0, 40):
            want = specfn_oracle.cos_power_exact(n, delta)
            got = specfn.cos_power_integral(n, delta)
            assert abs(got - want) <= 1e-13 * want, (n, delta, got, want)


def test_cos_power_monotone_in_power():
    vals = [specfn.cos_power_integral(n, 0.9) for n in range(0, 20)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 0.9 + 1e-15 for v in vals[1:])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(min_value=1, max_value=30),
       delta=st.floats(min_value=0.01, max_value=1.5))
def test_bracket_contains_integral(n, delta):
    lower, upper = specfn_oracle.cos_power_bracket(n, delta)
    val = specfn.cos_power_integral(n, delta)
    assert lower <= val <= upper


def test_bracket_beta_choice_is_admissible():
    # (1 - beta) * beta^n >= 1/(e (n+1)) for beta = n/(n+1)
    for n in range(1, 51):
        beta = n / (n + 1)
        assert (1 - beta) * beta**n >= 1.0 / (math.e * (n + 1))


def test_bracket_domain():
    with pytest.raises(DomainError):
        specfn_oracle.cos_power_bracket(0, 0.5)
    with pytest.raises(DomainError):
        specfn_oracle.cos_power_bracket(3, HALF_PI)


def test_cap_volume_segment_case():
    for delta in (0.2, 0.9, 1.4):
        assert specfn.cap_volume(1, delta) == pytest.approx(1 - math.cos(delta),
                                                            abs=1e-12)


def test_cap_volume_half_disk_limit():
    assert specfn.cap_volume(2, HALF_PI - 1e-9) == pytest.approx(math.pi / 2,
                                                                 abs=1e-7)


def test_cap_volume_hemisphere_additivity():
    # at delta = pi/2 the cap is a half ball in every dimension
    for m in range(1, 8):
        assert 2.0 * specfn.cap_volume(m, HALF_PI) == pytest.approx(
            specfn.unit_ball_volume(m), abs=1e-9)


def test_cap_volume_monte_carlo_oracle():
    m, delta, n = 3, 0.4, 1_000_000
    rng = np.random.default_rng(99)
    pts = geom._unit_ball_points(m, n, rng)
    p = float(np.mean(pts[:, 0] >= math.cos(delta)))
    est = specfn.unit_ball_volume(m) * p
    sigma = specfn.unit_ball_volume(m) * math.sqrt(p * (1 - p) / n)
    assert abs(specfn.cap_volume(m, delta) - est) <= 3 * sigma


def test_spherical_cap_fraction_arc_case():
    for delta in (0.3, 1.0, 1.5):
        assert specfn.spherical_cap_fraction(2, delta) == pytest.approx(
            delta / math.pi, rel=1e-12)


def test_spherical_cap_fraction_hemisphere():
    for d in range(2, 8):
        assert specfn.spherical_cap_fraction(d, HALF_PI) == pytest.approx(
            0.5, abs=1e-12)


def test_spherical_cap_fraction_antipodal_doubles():
    # an antipodal pair of caps measures twice the one-sided fraction
    d, delta, n = 5, 0.4, 400_000
    rng = np.random.default_rng(11)
    pts = geom.uniform_sphere_points(d, n, rng)
    p = float(np.mean(np.abs(pts[:, 0]) >= math.cos(delta)))
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(2.0 * specfn.spherical_cap_fraction(d, delta) - p) <= 3 * sigma


def test_spherical_cap_fraction_forms_agree():
    # the sphere's normalization omega_{d-2}/omega_{d-3} (valid for d >= 3)
    for d in range(4, 9):
        for delta in (0.2, 0.6, 1.1):
            a = specfn.spherical_cap_fraction(d, delta)
            b = specfn_oracle.cos_power_quad(d - 2, delta) \
                * specfn.unit_ball_volume(d - 3) / specfn.unit_ball_volume(d - 2)
            assert a == pytest.approx(b, rel=1e-11)


def test_spherical_cap_fraction_monte_carlo_oracle():
    d, delta, n = 5, 0.6, 400_000
    rng = np.random.default_rng(7)
    pts = geom.uniform_sphere_points(d, n, rng)
    p = float(np.mean(pts[:, 0] >= math.cos(delta)))
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(specfn.spherical_cap_fraction(d, delta) - p) <= 3 * sigma


def test_spherical_cap_fraction_monotonicity():
    deltas = np.linspace(0.1, 1.5, 15)
    for d in range(2, 7):
        vals = [specfn.spherical_cap_fraction(d, t) for t in deltas]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    for delta in (0.3, 0.8, 1.2):
        vals = [specfn.spherical_cap_fraction(d, delta) for d in range(2, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_domain_errors():
    with pytest.raises(DomainError):
        specfn.cos_power_integral(2, 0.0)
    with pytest.raises(DomainError):
        specfn.cos_power_integral(2, HALF_PI + 0.1)
    with pytest.raises(DomainError):
        specfn.cos_power_integral(-1, 0.3)
    with pytest.raises(DomainError):
        specfn.cap_volume(0, 0.3)
    with pytest.raises(DomainError):
        specfn.spherical_cap_fraction(1, 0.3)
    with pytest.raises(DomainError):
        specfn.spherical_cap_fraction(3, HALF_PI + 0.1)
