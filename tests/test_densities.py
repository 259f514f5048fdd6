import math

import numpy as np
import pytest

import density_oracle
from cylpack import cylinders, densities, geom, instances, specfn
from cylpack.errors import (
    ChordMissesBall,
    DomainError,
    OnUnitSphere,
    PlaneMissesSphere,
)
from conftest import random_frame


def test_density_pointwise():
    m = densities.ball_chord_density(3)
    assert densities.density_at(m, np.zeros(3)) == 1.0
    x = np.array([0.8, 0.0, 0.0])
    assert densities.density_at(m, x) == pytest.approx(1 / 0.6, rel=1e-14)
    assert densities.density_at(m, np.array([1.2, 0.0, 0.0])) == 0.0
    with pytest.raises(OnUnitSphere):
        densities.density_at(m, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        densities.density_at(densities.sphere_surface_density(3), np.zeros(3))


def test_line_integral_diameter():
    m = densities.ball_chord_density(2)
    val = densities.line_integral(m, np.zeros(2), np.array([1.0, 0.0]))
    assert val == pytest.approx(math.pi, abs=1e-9)


def test_line_integral_offset_independent():
    m = densities.ball_chord_density(3)
    u = np.array([0.0, 0.0, 1.0])
    for r in (0.0, 0.5, 0.9):
        z = np.array([r, 0.0, 0.0])
        assert densities.line_integral(m, z, u) == pytest.approx(math.pi, abs=1e-8)


def test_line_integral_near_boundary():
    m = densities.ball_chord_density(2)
    z = np.array([0.999, 0.0])
    val = densities.line_integral(m, z, np.array([0.0, 1.0]))
    assert val == pytest.approx(math.pi, abs=1e-6)


def test_line_integral_random_offsets(rng):
    for d in (2, 3, 4, 5):
        m = densities.ball_chord_density(d)
        for _ in range(25):
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            comp = geom.complement(geom.Frame(u[:, None]))
            z = comp.embed(rng.uniform(-0.6, 0.6, d - 1))
            if np.linalg.norm(z) > 0.98:
                continue
            assert densities.line_integral(m, z, u) == pytest.approx(
                math.pi, abs=1e-6)


def test_line_integral_requires_interior_offset():
    m = densities.ball_chord_density(2)
    with pytest.raises(ChordMissesBall):
        densities.line_integral(m, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_mu_full_ball_cylinder():
    d = 3
    m = densities.ball_chord_density(d)
    frame = geom.orthonormalize(np.eye(d)[:2])
    full = cylinders.Cylinder(frame, geom.Ball(np.zeros(2), 1.0))
    exact = densities.mu_of_cylinder(m, full)
    assert exact == pytest.approx(densities.mu_total_mass(d), rel=1e-14)


def test_mu_strip_in_disk():
    m = densities.ball_chord_density(2)
    frame = geom.Frame(np.array([[1.0], [0.0]]))
    strip = cylinders.Cylinder(
        frame, geom.Polytope(np.array([[-0.5], [0.5]])))
    exact = densities.mu_of_cylinder(m, strip)
    assert exact == pytest.approx(math.pi, rel=1e-14)


def test_mu_disk_cylinder_mc_cross_check():
    d = 3
    m = densities.ball_chord_density(d)
    frame = geom.orthonormalize(np.eye(d)[:2])
    cyl = cylinders.Cylinder(frame, geom.Ball(np.zeros(2), 0.5))
    exact = densities.mu_of_cylinder(m, cyl)
    est = density_oracle.mu_of_cylinder_mc(m, cyl, samples=300_000, seed=4)
    assert exact == pytest.approx(math.pi * math.pi / 4, rel=1e-14)
    assert abs(est.value - exact) <= 3 * est.stderr


def test_mu_additivity_on_packings():
    # disjoint-interior codimension-1 cylinders cannot out-mass the ball
    d = 3
    ball = geom.Ball(np.zeros(d), 1.0)
    family = instances.random_base_packing(ball, 1, 5, 1, seed=13)
    m = densities.ball_chord_density(d)
    total = sum(densities.mu_of_cylinder(m, c) for c in family)
    assert total <= densities.mu_total_mass(d) + 1e-12


def test_total_mass_mc():
    for d in (2, 3, 4, 5):
        est = density_oracle.mu_total_mass_mc(d, samples=400_000, seed=21)
        want = densities.mu_total_mass(d)
        assert abs(est.value - want) <= 3 * est.stderr


def test_plane_section_great_circle():
    m = densities.sphere_surface_density(3)
    plane = geom.orthonormalize(np.eye(3)[:2])
    val = densities.plane_section_integral(m, plane, np.zeros(3))
    assert val == pytest.approx(2 * math.pi, abs=1e-9)


def test_plane_section_offset():
    m = densities.sphere_surface_density(3)
    plane = geom.orthonormalize(np.eye(3)[:2])
    val = densities.plane_section_integral(m, plane, np.array([0, 0, 0.6]))
    assert val == pytest.approx(2 * math.pi, abs=1e-9)


def test_plane_section_random_offsets(rng):
    for d in (3, 4, 5):
        m = densities.sphere_surface_density(d)
        for _ in range(20):
            plane = random_frame(d, 2, rng)
            comp = geom.complement(plane)
            z = comp.embed(rng.uniform(-0.5, 0.5, d - 2))
            if np.linalg.norm(z) > 0.95:
                continue
            val = densities.plane_section_integral(m, plane, z)
            assert val == pytest.approx(2 * math.pi, abs=1e-6)


def test_plane_section_requires_interior_offset():
    m = densities.sphere_surface_density(3)
    plane = geom.orthonormalize(np.eye(3)[:2])
    with pytest.raises(PlaneMissesSphere):
        densities.plane_section_integral(m, plane, np.array([0, 0, 1.0]))


def test_sphere_section_total_identity():
    # disintegrating the sphere measure over 2-plane sections: the constant
    # section mass times the shadow volume recovers the full surface area
    for d in (3, 4, 5):
        assert 2 * math.pi * specfn.unit_ball_volume(d - 2) == pytest.approx(
            densities.sphere_section_total(d), rel=1e-12)


def test_mu_of_cylinder_requires_codim_one():
    m = densities.ball_chord_density(4)
    frame = geom.orthonormalize(np.eye(4)[:2])
    cyl = cylinders.Cylinder(frame, geom.Ball(np.zeros(2), 0.5))
    with pytest.raises(DomainError):
        densities.mu_of_cylinder(m, cyl)
