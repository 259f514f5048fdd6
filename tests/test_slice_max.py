"""Brackets of translated-slice maxima: lo is an achieved slice, hi bounds the
maximum, and the grid search never finds more than hi."""

import math

import numpy as np
import pytest

from cylpack import bounds, cli, cylinders, geom, instances, specfn

CLOSED_FORMS = ("ellipsoid", "difference-body", "piecewise-polynomial")


def _check_bracket(body, slice_frame, offsets_frame, base, out, monkeypatch):
    assert out.lo == geom.affine_slice_volume(
        body, slice_frame, offsets_frame.embed(out.offset))
    if base is not None:  # inside the base, up to the rounding of its ends
        scale = 1e-15 * (1.0 + np.max(np.abs(out.offset)))
        assert cylinders.base_membership(
            cylinders.DiskBase(base.center, base.radius + scale)
            if isinstance(base, cylinders.DiskBase) else base,
            np.asarray(out.offset))[0]
    assert out.lo <= out.hi
    if out.method in CLOSED_FORMS:
        assert out.hi - out.lo <= 1e-9 * out.hi
    else:
        assert out.lo == out.hi
    # the search's estimate, with its stability band lifted, stays below hi
    monkeypatch.setattr(bounds, "SLICE_INSTABILITY_BAND", math.inf)
    grid = bounds._grid_search(body, slice_frame, offsets_frame, base)
    assert grid.hi <= out.hi * (1 + 1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_polytope_bracket_every_k(d, monkeypatch):
    gen = np.random.default_rng(700 + d)
    for _ in range(4):
        poly = instances.random_polytope(d, gen)
        for k in range(1, d):
            frame = geom.orthonormalize(gen.standard_normal((k, d)))
            comp = geom.complement(frame)
            out = bounds.max_translate_slice(poly, comp)
            want = ("difference-body" if d - k == 1 else
                    "piecewise-polynomial" if k == 1 else "grid")
            assert out.method == want
            _check_bracket(poly, comp, geom.complement(comp), None, out,
                           monkeypatch)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_ellipsoid_disk_bases(d, monkeypatch):
    gen = np.random.default_rng(720 + d)
    for k in range(1, d):
        body = instances.random_ellipsoid(d, gen)
        for cyl in instances.random_base_packing(body, k, 2, 1, seed=k):
            h_frame = geom.complement(cyl.frame)
            out = bounds.max_translate_slice(body, h_frame, base=cyl.base,
                                             offsets_frame=cyl.frame)
            assert out.method == "ellipsoid"
            _check_bracket(body, h_frame, cyl.frame, cyl.base, out, monkeypatch)
            free = bounds.max_translate_slice(body, h_frame)
            assert out.hi <= free.hi


def test_centred_ball_chord_is_the_diameter():
    ball = geom.Ball(np.zeros(4), 1.7)
    frame = geom.orthonormalize(np.random.default_rng(3).standard_normal((1, 4)))
    out = bounds.max_translate_slice(ball, frame)
    assert out.lo <= 3.4 <= out.hi
    assert out.hi == pytest.approx(3.4, rel=2e-12)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_box_axis_chord_is_the_side(axis):
    sides = (2.0, 0.7, 1.3)
    box = geom.Polytope(np.array(
        [[x, y, z] for x in (0, 2) for y in (0, 0.7) for z in (0, 1.3)], float))
    out = bounds.max_translate_slice(box, geom.Frame(np.eye(3)[:, axis:axis + 1]))
    assert out.method == "difference-body"
    assert out.lo == pytest.approx(sides[axis], rel=1e-15)
    assert out.lo <= sides[axis] * (1 + 1e-15) and out.hi >= sides[axis]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_unit_ball_off_centre_disk_base(m):
    d = m + 3
    gen = np.random.default_rng(m)
    cyl_frame = geom.orthonormalize(gen.standard_normal((3, d)))
    centre = np.array([0.6, -0.3, 0.2])
    rho = 0.25
    ball = geom.Ball(np.zeros(d), 1.0)
    out = bounds.max_translate_slice(ball, geom.complement(cyl_frame),
                                     base=cylinders.DiskBase(centre, rho),
                                     offsets_frame=cyl_frame)
    near = np.linalg.norm(centre) - rho
    want = specfn.unit_ball_volume(m) * (1.0 - near**2) ** (m / 2.0)
    assert out.method == "ellipsoid"
    assert out.lo == pytest.approx(want, rel=1e-12)
    assert out.hi >= want


def test_disk_outside_the_shadow_gives_empty_slices():
    ball = geom.Ball(np.zeros(3), 1.0)
    frame = geom.orthonormalize(np.eye(3)[:2])
    out = bounds.max_translate_slice(ball, geom.complement(frame),
                                     base=cylinders.DiskBase(np.array([3.0, 0.0]), 0.5),
                                     offsets_frame=frame)
    assert out.lo == out.hi == 0.0


def test_quadratic_on_ball_brackets(rng):
    for _ in range(50):
        m = int(rng.integers(1, 5))
        a = rng.standard_normal((m, m))
        shape = a @ a.T + 0.1 * np.eye(m)
        centre = rng.standard_normal(m)
        ball_centre = rng.standard_normal(m)
        radius = float(rng.uniform(0.1, 2.0))
        dirs = geom.uniform_sphere_points(m, 4000, rng)
        pts = ball_centre + radius * dirs * rng.random((4000, 1)) ** (1 / m)
        pts = np.vstack([pts, ball_centre + radius * dirs])
        vals = np.einsum("ij,jk,ik->i", pts - centre, shape, pts - centre)
        z, dual = geom.quadratic_on_ball(shape, centre, ball_centre, radius)
        assert np.linalg.norm(z - ball_centre) <= radius * (1 + 1e-12)
        primal = float((z - centre) @ shape @ (z - centre))
        # the dual bound holds up to rounding, and the gap is rounding only
        assert dual <= primal * (1 + 1e-12) + 1e-300
        assert primal <= vals.min() * (1 + 1e-12)
        assert primal - dual <= 1e-12 * max(primal, 1.0)
        _, dual = geom.quadratic_on_ball(shape, centre, ball_centre, radius,
                                         maximize=True)
        assert vals.max() <= dual * (1 + 1e-12)
        assert dual <= vals.max() * (1 + 0.05)


def test_quadratic_on_ball_hard_case():
    # centred on the shadow: no gradient along the top eigenvector
    shape = np.diag([1.0, 4.0])
    _, dual = geom.quadratic_on_ball(shape, np.zeros(2), np.zeros(2), 0.5,
                                     maximize=True)
    assert dual == pytest.approx(4.0 * 0.25, rel=1e-11)
    assert dual >= 1.0


def test_cli_d5_packing_that_broke_the_search(tmp_path):
    # the grid search raised SliceEstimateUnstable (6.9%) on this instance
    inst = tmp_path / "pack5.json"
    assert cli.main(["construct", "--kind", "packing", "--dim", "5", "--k", "3",
                     "--seed", "330005", "--out", str(inst)]) == 0
    report = tmp_path / "report.json"
    assert cli.main(["verify", str(inst), "--samples", "10000",
                     "--seed", "682558", "--out", str(report)]) == 0
    text = report.read_text()
    assert "body ellipsoid, restricted ellipsoid" in text
