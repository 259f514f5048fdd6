import dataclasses
import math
import warnings

import numpy as np
import pytest

import sepset_oracle
import specfn_oracle
from cylpack import cappack, cylinders, geom, multiplicity, specfn
from cylpack.errors import DomainError


def test_circle_set_strict_separation_caps_at_three():
    # strict pairwise gaps > pi/2 on the circle force at most three points
    # (the gaps around n points sum to 2*pi), and maximality forbids fewer
    out = cappack.build_separated_set(2, math.pi / 2 - 1e-9, metric=cappack.GEODESIC,
                                      seed=5)
    assert len(out) == 3
    assert sepset_oracle.check_separation(out)


def test_counting_bound_from_maximality_d3():
    # maximal geodesic sets are at least as large as the inverse cap fraction
    two_delta = math.pi / 3
    out = cappack.build_separated_set(3, two_delta, metric=cappack.GEODESIC,
                                      seed=6)
    sigma = specfn.spherical_cap_fraction(3, two_delta)
    assert out.maximal
    assert len(out) >= 1.0 / sigma


def test_projective_metric_forbids_antipodes():
    out = cappack.build_separated_set(3, 0.8, metric=cappack.PROJECTIVE, seed=2)
    dots = np.abs(out.points @ out.points.T)
    np.fill_diagonal(dots, 0.0)
    assert np.max(dots) < math.cos(0.8)


def test_separated_set_maximality_probe():
    out = cappack.build_separated_set(3, 0.7, seed=4)
    assert out.maximal
    probes = geom.uniform_sphere_points(3, 50_000, np.random.default_rng(123))
    level = np.abs(probes @ out.points.T)
    assert np.min(np.max(level, axis=1)) >= math.cos(0.7)


def test_separated_set_deterministic():
    a = cappack.build_separated_set(4, 0.5, seed=11)
    b = cappack.build_separated_set(4, 0.5, seed=11)
    assert np.array_equal(a.points, b.points)


def test_set_cache_is_bounded_and_shared():
    a = cappack.build_separated_set(3, 0.8, seed=1)
    assert cappack.build_separated_set(3, 0.8, metric=cappack.PROJECTIVE,
                                       seed=1) is a
    for seed in range(2, 2 + cappack.SET_CACHE_SIZE):
        cappack.build_separated_set(3, 0.8, seed=seed)
    assert cappack._cached_set.cache_info().currsize == cappack.SET_CACHE_SIZE
    b = cappack.build_separated_set(3, 0.8, seed=1)
    assert b is not a and np.array_equal(a.points, b.points)


def test_pairwise_caps_disjoint_exactly():
    # separation beyond 2 delta makes |<y, x_i>| >= cos(delta) mutually
    # exclusive: membership cosines certify empty intersections
    delta = 0.3
    out = cappack.build_separated_set(4, 2 * delta, seed=7)
    pts = out.points
    rng = np.random.default_rng(0)
    sphere = geom.uniform_sphere_points(4, 30_000, rng)
    level = np.abs(sphere @ pts.T) >= math.cos(delta)
    assert np.max(np.sum(level, axis=1)) <= 1


def test_build_cap_family_frames_contain_pole():
    out = cappack.build_separated_set(4, 0.6, seed=1)
    fam = cappack.build_cap_family(out, 2)
    assert len(fam) == len(out)
    # the cap radius is half the set's separation, bit for bit
    assert {cyl.base.delta for cyl in fam} == {out.separation / 2} == {0.3}
    for x, cyl in zip(out.points, fam):
        pole = cyl.frame.coords(x)
        assert pole[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pole[1:], 0.0, atol=1e-12)
        assert np.allclose(cyl.frame.embed(pole), x, atol=1e-12)


def test_cap_cylinder_slice_maximum_value():
    # the restricted cap cylinder's thickest complement-slice sits at
    # cos(delta) * pole and has k-volume sin(delta)^k * omega_k
    d, k, delta = 4, 1, 0.35
    ball = geom.Ball(np.zeros(d), 1.0)
    x = np.eye(d)[0]
    out = cappack.SeparatedSet(points=np.array([x]), separation=2 * delta,
                               metric=cappack.PROJECTIVE, maximal=False, seed=0)
    fam = cappack.build_cap_family(out, k)
    h_frame = geom.complement(fam[0].frame)
    val = geom.affine_slice_volume(ball, h_frame, math.cos(delta) * x)
    want = math.sin(delta) ** k * specfn.unit_ball_volume(k)
    assert val == pytest.approx(want, rel=1e-12)
    # and it really is the maximum over offsets along the pole
    others = [geom.affine_slice_volume(ball, h_frame, t * x)
              for t in np.linspace(math.cos(delta), 1.0, 30)]
    assert max(others) <= val + 1e-12


def test_two_point_family_packs():
    pts = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    out = cappack.SeparatedSet(points=pts, separation=0.6,
                               metric=cappack.PROJECTIVE, maximal=False, seed=0)
    fam = cappack.build_cap_family(out, 1)
    ball = geom.Ball(np.zeros(4), 1.0)
    rep = multiplicity.estimate_multiplicity(ball, fam, 20_000, seed=1)
    assert rep.max_mult == 1


def test_sum_crv_closed_form_matches_crv():
    # the report's one incomplete beta value against the crv of every cylinder
    for metric in (cappack.PROJECTIVE, cappack.GEODESIC):
        rep = cappack.cap_packing_report(5, 2, 0.3, seed=3, metric=metric)
        _, fam = cappack.build_cap_packing(5, 2, 0.3, seed=3, metric=metric)
        direct = cylinders.sum_crv(geom.Ball(np.zeros(5), 1.0), fam)
        assert direct == pytest.approx(rep.sum_crv, rel=1e-12)


@pytest.mark.parametrize("d,delta", [(4, 0.2), (4, 0.3), (5, 0.3), (6, 0.3)])
def test_sum_crv_is_one_cap_fraction_per_cylinder(d, delta):
    # bit for bit: N * sides * (1/2) I_{sin^2 delta}((m+1)/2, 1/2), m = d - k,
    # which is the surface cap fraction of S^(m+1)
    for k in range(1, d):
        for metric, sides in ((cappack.PROJECTIVE, 2.0), (cappack.GEODESIC, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # k = d - 1 warns
                rep = cappack.cap_packing_report(d, k, delta, seed=1, metric=metric)
            want = rep.n_cylinders * sides \
                * specfn.spherical_cap_fraction(d - k + 2, delta)
            assert rep.sum_crv == want, (k, metric)


def test_report_chain_and_count_bound():
    rep = cappack.cap_packing_report(4, 1, 0.3, seed=1, packing_samples=20_000)
    assert rep.packing.max_mult == 1
    assert rep.n_cylinders >= rep.count_lower_bound_antipodal
    assert rep.count_bound_holds_antipodal
    assert rep.sum_crv >= rep.chain_rhs
    assert rep.chain_holds
    assert rep.empirical_constant_ratio > 0
    js = rep.to_json()
    assert js["n_cylinders"] == rep.n_cylinders
    assert js["packing"]["max_mult"] == 1


def test_report_geodesic_mode_consistent():
    # geodesic separation pairs with one-sided caps; the one-sided counting
    # bound is then guaranteed on top of the antipodal one, and the family
    # still packs (near-antipodal pairs get opposite one-sided caps)
    rep = cappack.cap_packing_report(4, 1, 0.25, seed=2,
                                     metric=cappack.GEODESIC,
                                     packing_samples=20_000)
    assert not rep.antipodal_bases
    assert rep.count_bound_holds_onesided
    assert rep.chain_holds
    assert rep.packing.max_mult == 1


def test_chain_respects_bracket_substitution():
    # swapping the integrals for their bracket endpoints weakens the chain in
    # the stated direction, so the weakened bound must still hold
    d, k, delta = 5, 2, 0.25
    rep = cappack.cap_packing_report(d, k, delta, seed=5)
    lo_top, _ = specfn_oracle.cos_power_bracket(d - k, delta)
    _, hi_bottom = specfn_oracle.cos_power_bracket(d - 2, 2 * delta)
    weakened = rep.chain_rhs * lo_top / specfn.cos_power_integral(d - k, delta) \
        * specfn.cos_power_integral(d - 2, 2 * delta) / hi_bottom
    assert weakened <= rep.chain_rhs + 1e-15
    assert rep.sum_crv >= weakened


def test_degenerate_codimension_warns():
    out = cappack.build_separated_set(4, 0.6, seed=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fam = cappack.build_cap_family(out, 3)
    assert any("degenerates" in str(w.message) for w in caught)
    assert fam[0].frame.subspace_dim == 1


def test_domain_errors():
    with pytest.raises(DomainError):
        cappack.build_separated_set(1, 0.3)
    with pytest.raises(DomainError):
        cappack.build_separated_set(3, 2.0)
    with pytest.raises(DomainError):
        cappack.cap_packing_report(3, 1, 0.2)
    with pytest.raises(DomainError):
        cappack.cap_packing_report(4, 1, 1.0)
    # one check of the construction's domain, before anything is built
    for d, k, delta in [(3, 1, 0.2), (4, 1, 0.8), (4, 1, math.pi / 4), (4, 0, 0.3),
                        (4, 4, 0.3), (4, 1, 0.0), (4, 1, math.nan)]:
        with pytest.raises(DomainError):
            cappack.build_cap_packing(d, k, delta)
    # a family reads its cap radius from the set, and the cap check bounds it
    out = cappack.build_separated_set(4, 0.6, seed=0)
    for k in (0, 4):
        with pytest.raises(DomainError, match="codimension"):
            cappack.build_cap_family(out, k)
    wide = dataclasses.replace(out, separation=math.pi)
    with pytest.raises(DomainError, match="cap angle must lie in"):
        cappack.build_cap_family(wide, 1)
