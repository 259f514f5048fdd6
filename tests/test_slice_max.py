"""Brackets of translated-slice maxima: lo is an achieved slice inside the
base, hi bounds the maximum, and neither the grid-search oracle nor a dense
scan of the offsets finds more than hi."""

import itertools
import math

import numpy as np
import pytest

import slicemax_oracle
from cylpack import bounds, cli, cylinders, geom, instances, specfn
from cylpack.errors import DomainError

CLOSED_FORMS = ("ellipsoid", "difference-body", "piecewise-polynomial")


def _inside(base, z, tol: float = 0.0) -> bool:
    """Base membership of z, loosened by tol for the rounding of its ends."""
    z = np.asarray(z, dtype=float)
    if isinstance(base, cylinders.DiskBase):
        return bool(np.linalg.norm(z - base.center) <= base.radius + tol)
    if isinstance(base, cylinders.CapBase):
        return bool(np.linalg.norm(z) <= 1.0 + tol
                    and z @ base.pole >= math.cos(base.delta) - tol)
    return bool(geom.contains_points(base._poly, z, tol=tol)[0])


def _check_bracket(body, slice_frame, offsets_frame, base, out, monkeypatch):
    assert out.lo == geom.affine_slice_volume(
        body, slice_frame, offsets_frame.embed(out.offset))
    if base is not None:  # inside the base, up to the rounding of its ends
        assert _inside(base, out.offset,
                       1e-15 * (1.0 + np.max(np.abs(out.offset))))
    assert out.lo <= out.hi
    if out.method in CLOSED_FORMS:
        assert out.hi - out.lo <= 1e-9 * out.hi
    else:
        assert out.method == "concave-search"
        assert out.hi - out.lo <= bounds.SLICE_GAP * out.hi
    # the grid search's estimate, with its stability band lifted, stays below hi
    monkeypatch.setattr(slicemax_oracle, "SLICE_INSTABILITY_BAND", math.inf)
    grid = slicemax_oracle._grid_search(body, slice_frame, offsets_frame, base)
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
                    "piecewise-polynomial" if k == 1 else "concave-search")
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


def _scan(body, slice_frame, offsets_frame, base, centre) -> float:
    """Largest slice over a dense grid of the offsets in shadow ∩ base, and
    over a small stencil around ``centre``."""
    shadow = geom.project_body(body, offsets_frame)
    lo, hi = geom.bounding_box(shadow)
    n = len(lo)
    axes = [np.linspace(a, b, {1: 201, 2: 25, 3: 9}[n]) for a, b in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    stencil = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))
    pts = np.vstack([grid, np.asarray(centre) + 1e-3 * (hi - lo) * stencil])
    keep = geom.contains_points(shadow, pts)
    if base is not None:
        keep &= cylinders.base_membership(base, pts)[0]
    return max((geom.affine_slice_volume(body, slice_frame, offsets_frame.embed(z))
                for z in pts[keep]), default=0.0)


def _one_sided_cap(n: int, gen) -> cylinders.CapBase:
    pole = gen.standard_normal(n)
    return cylinders.CapBase(pole / np.linalg.norm(pole), 0.6, antipodal=False)


def _cases(body, gen, kinds):
    """(slice frame, offsets frame, base) per codimension k and base kind."""
    d = body.dim
    for k in range(1, d):
        for kind in kinds:
            if kind is None:
                frame = geom.orthonormalize(gen.standard_normal((k, d)))
                yield geom.complement(frame), frame, None
            elif kind == "cap":
                frame = geom.orthonormalize(gen.standard_normal((d - k, d)))
                yield geom.complement(frame), frame, _one_sided_cap(d - k, gen)
            else:
                cyl = instances.random_base_packing(
                    body, k, 1, 1, seed=int(gen.integers(1 << 20)),
                    base_kind=kind)[0]
                yield geom.complement(cyl.frame), cyl.frame, cyl.base


@pytest.mark.parametrize("d", [3, 4])
def test_polytope_brackets_hold_over_every_base(d, monkeypatch):
    gen = np.random.default_rng(740 + d)
    # doubled, the shadows hold most of the unit ball, where cap bases live
    poly = geom.Polytope(2.0 * instances.random_polytope(d, gen).vertices)
    for slice_frame, offsets_frame, base in _cases(
            poly, gen, (None, "disk", "box", "cap")):
        out = bounds.max_translate_slice(poly, slice_frame, base=base,
                                         offsets_frame=offsets_frame)
        if base is not None:
            assert out.method == "concave-search"
        _check_bracket(poly, slice_frame, offsets_frame, base, out, monkeypatch)
        assert _scan(poly, slice_frame, offsets_frame, base, out.offset) <= out.hi


@pytest.mark.parametrize("d", [3, 4])
def test_ellipsoid_brackets_hold_over_box_and_cap_bases(d, monkeypatch):
    gen = np.random.default_rng(760 + d)
    body = instances.random_ellipsoid(d, gen)
    for slice_frame, offsets_frame, base in _cases(body, gen, ("box", "cap")):
        out = bounds.max_translate_slice(body, slice_frame, base=base,
                                         offsets_frame=offsets_frame)
        assert out.method == ("ellipsoid" if isinstance(base, cylinders.CapBase)
                              else "concave-search")
        _check_bracket(body, slice_frame, offsets_frame, base, out, monkeypatch)
        assert _scan(body, slice_frame, offsets_frame, base, out.offset) <= out.hi


def test_restricted_polytope_maximum_inside_a_disk_base():
    # the grid search reported 0.891160 here, below a slice at an offset
    # strictly inside the disk (0.902475)
    poly = instances.random_polytope(4, np.random.default_rng(10))
    cyl = instances.random_base_packing(poly, 2, 2, 1, seed=10)[1]
    out = bounds.max_translate_slice(poly, geom.complement(cyl.frame),
                                     base=cyl.base, offsets_frame=cyl.frame)
    assert out.method == "concave-search"
    assert out.hi >= 0.90247
    assert _inside(cyl.base, out.offset)


def test_cap_base_closed_form_on_the_unit_ball():
    # the thickest chord over a one-sided cap sits on its rim: 2 sin(delta)
    gen = np.random.default_rng(4)
    ball = geom.Ball(np.zeros(4), 1.0)
    frame = geom.orthonormalize(gen.standard_normal((3, 4)))
    cap = _one_sided_cap(3, gen)
    out = bounds.max_translate_slice(ball, geom.complement(frame), base=cap,
                                     offsets_frame=frame)
    assert out.method == "ellipsoid"
    assert out.lo == pytest.approx(2.0 * math.sin(cap.delta), rel=1e-12)
    assert out.hi >= 2.0 * math.sin(cap.delta)
    # a ball whose shadow centre lies in the cap: the central chord, 2
    moved = geom.Ball(frame.embed(0.95 * cap.pole), 1.0)
    out = bounds.max_translate_slice(moved, geom.complement(frame), base=cap,
                                     offsets_frame=frame)
    assert out.lo == pytest.approx(2.0, rel=1e-15)
    assert out.lo <= 2.0 * (1 + 1e-15) <= out.hi


def test_antipodal_cap_base_is_out_of_domain():
    ball = geom.Ball(np.zeros(4), 1.0)
    frame = geom.orthonormalize(np.eye(4)[:3])
    cap = cylinders.CapBase(np.array([1.0, 0.0, 0.0]), 0.3, antipodal=True)
    with pytest.raises(DomainError, match="antipodal"):
        bounds.max_translate_slice(ball, geom.complement(frame), base=cap,
                                   offsets_frame=frame)
