import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylpack import cylinders, geom
from cylpack.errors import (
    DegenerateBody,
    DegenerateProjection,
    DimensionMismatch,
    DomainError,
)
import cap_oracle
import cylinder_oracle
from conftest import random_frame, random_spd, transform_body


def contained(body, cyl) -> bool:
    return cylinders.base_contained(geom.project_body(body, cyl.frame), cyl.base, body.unit)


def vertical_strip(width: float, center: float = 0.0) -> cylinders.Cylinder:
    """|x1 - center| <= width/2 in the plane (k = 1)."""
    frame = geom.Frame(np.array([[1.0], [0.0]]))
    base = geom.Polytope(np.array([[center - width / 2],
                                   [center + width / 2]]))
    return cylinders.Cylinder(frame, base)


def test_contains_strip():
    strip = vertical_strip(1.0)
    assert cylinder_oracle.contains_points(strip, [0.3, 7.0])[0]
    assert not cylinder_oracle.contains_points(strip, [0.6, 0.0])[0]


def test_contains_is_invariant_along_complement():
    strip = vertical_strip(1.0)
    h = geom.complement(strip.frame).columns[:, 0]
    x = np.array([0.2, -0.4])
    for t in (-25.0, -1.0, 3.0, 1e4):
        assert cylinder_oracle.contains_points(strip, x + t * h)[0] \
            == cylinder_oracle.contains_points(strip, x)[0]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000))
def test_contains_h_invariance_random(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    k = int(rng.integers(1, d))
    frame = geom.orthonormalize(rng.standard_normal((d - k, d)))
    base = geom.Ball(rng.uniform(-0.3, 0.3, d - k), 0.5)
    cyl = cylinders.Cylinder(frame, base)
    comp = geom.complement(frame)
    x = rng.uniform(-1, 1, d)
    shift = comp.embed(rng.uniform(-5, 5, k))
    assert cylinder_oracle.contains_points(cyl, x)[0] \
        == cylinder_oracle.contains_points(cyl, x + shift)[0]


def test_cap_cylinder_membership():
    # cap around e1 inside the xy-plane of R^3; the z-direction is free
    frame = geom.orthonormalize(np.eye(3)[:2])
    cap = cylinders.CapBase(np.array([1.0, 0.0]), math.pi / 6)
    cyl = cylinders.Cylinder(frame, cap)
    x = 10.0 * np.eye(3)[2] + 0.9 * np.eye(3)[0]
    z = frame.coords(x)
    want = abs(z @ cap.pole) >= math.cos(math.pi / 6) and np.linalg.norm(z) <= 1
    assert cylinder_oracle.contains_points(cyl, x)[0] == want
    assert want  # 0.9 >= cos(pi/6) ~ 0.866


def _membership_by_reading(base, z, tol):
    """One reading of base membership, spelled out: ``tol`` 0 is the closed
    base, ``-INTERIOR_MARGIN`` the strict one."""
    if isinstance(base, geom.Ball):
        return np.linalg.norm(z - base.center, axis=1) <= base.radius + tol
    if isinstance(base, geom.Polytope):
        return geom.contains_points(base, z, tol=tol)
    level = z @ base.pole
    level = np.abs(level) if base.antipodal else level
    return ((np.linalg.norm(z, axis=1) <= 1.0 + tol)
            & (level >= math.cos(base.delta) - tol))


def test_base_membership_pair_is_both_readings(rng):
    eps = cylinders.INTERIOR_MARGIN
    delta = math.pi / 5
    c = math.cos(delta)
    bases = {
        "disk": (geom.Ball(np.array([0.25, -0.5]), 0.75),
                 [[1.0, -0.5], [0.25, 0.25], [1.0 - eps, -0.5], [0.25, 0.25 - eps],
                  [-0.5 + eps, -0.5]]),
        "polytope": (geom.Polytope(np.array([[0.0, 0.0], [1.0, 0.0],
                                             [1.0, 1.0], [0.0, 1.0]])),
                     [[1.0, 0.5], [0.5, 0.0], [1.0 - eps, 0.5], [0.5, eps],
                      [eps, 1.0 - eps], [0.0, 0.0]]),
        "cap": (cylinders.CapBase(np.array([1.0, 0.0]), delta, antipodal=False),
                [[1.0, 0.0], [c, 0.1], [c + eps, 0.1], [1.0 - eps, 0.0],
                 [-1.0, 0.0]]),
        "antipodal-cap": (cylinders.CapBase(np.array([1.0, 0.0]), delta),
                          [[-1.0, 0.0], [-c, 0.1], [-c - eps, 0.1],
                           [eps - 1.0, 0.0], [c + eps, 0.2]]),
    }
    for name, (base, edge) in bases.items():
        z = np.vstack([edge, rng.uniform(-1.2, 1.2, (500, 2))])
        closed, strict = cylinders.base_membership(base, z, 1.0)
        assert np.array_equal(closed, _membership_by_reading(base, z, 0.0)), name
        assert np.array_equal(strict, _membership_by_reading(base, z, -eps)), name
        # the edge points sit on the boundary or one margin inside it, where
        # the two readings part
        assert np.any(closed[:len(edge)] & ~strict[:len(edge)]), name


def test_crv_ball_disk_cylinder():
    ball = geom.Ball(np.zeros(3), 1.0)
    frame = geom.orthonormalize(np.eye(3)[:2])
    cyl = cylinders.Cylinder(frame, geom.Ball(np.zeros(2), 0.5))
    assert cylinders.crv(ball, cyl) == pytest.approx(0.25, abs=1e-14)


def test_crv_plank_in_disk():
    ball = geom.Ball(np.zeros(2), 1.0)
    for w in (0.3, 1.0, 1.7):
        assert cylinders.crv(ball, vertical_strip(w)) == pytest.approx(
            w / 2.0, abs=1e-14)


def transform_cylinder(cyl, t):
    """Image cylinder under an invertible linear map (polytope bases only).

    The complement subspace maps to T·H; the new base is the projection of the
    transformed base points onto the new base subspace.
    """
    h_cols = geom.complement(cyl.frame).columns
    new_h = geom.orthonormalize((t @ h_cols).T)
    new_e = geom.complement(new_h)
    base_pts = cyl.base.vertices @ cyl.frame.columns.T  # ambient base points
    new_base = (base_pts @ t.T) @ new_e.columns
    return cylinders.Cylinder(new_e, geom.Polytope(new_base))


def test_crv_affine_invariance(rng):
    # crv is unchanged when one invertible map moves both the body and the cylinder
    for d in (2, 3, 4):
        t = rng.standard_normal((d, d)) + 2.5 * np.eye(d)
        body = geom.Ball(np.zeros(d), 1.0)
        k = int(rng.integers(1, d))
        frame = random_frame(d, d - k, rng)
        m = d - k
        verts = rng.uniform(-0.4, 0.4, size=(m + 2, m))
        try:
            base = geom.Polytope(verts)
            cyl = cylinders.Cylinder(frame, base)
            v1 = cylinders.crv(body, cyl)
        except Exception:
            continue
        v2 = cylinders.crv(transform_body(body, t),
                           transform_cylinder(cyl, t))
        assert v2 == pytest.approx(v1, rel=1e-9)


def test_crv_in_unit_interval_when_contained(rng):
    body = geom.Ellipsoid(np.zeros(3), random_spd(3, rng))
    for _ in range(10):
        frame = random_frame(3, 2, rng)
        shadow = geom.project_body(body, frame)
        r_in = 1.0 / math.sqrt(float(np.linalg.eigvalsh(shadow.shape)[-1]))
        base = geom.Ball(shadow.center, 0.8 * r_in)
        cyl = cylinders.Cylinder(frame, base)
        assert contained(body, cyl)
        assert 0.0 < cylinders.crv(body, cyl) <= 1.0 + 1e-12


def test_crv_degenerate_projection():
    # eigenvalues this extreme overflow the shadow's volume determinant,
    # which must surface as the dedicated error, not a silent 0 or inf ratio
    spiky = geom.Ellipsoid(np.zeros(3), np.diag([1e200, 1e200, 1e200]))
    frame = geom.orthonormalize(np.eye(3)[:2])
    cyl = cylinders.Cylinder(frame, geom.Ball(np.zeros(2), 1e-200))
    with pytest.raises(DegenerateProjection):
        cylinders.crv(spiky, cyl)


def test_base_volume_closed_forms():
    disk = geom.Ball(np.zeros(2), 0.5)
    assert cylinders.base_volume(disk) == pytest.approx(math.pi / 4, rel=1e-14)
    seg = geom.Polytope(np.array([[0.1], [0.9]]))
    assert cylinders.base_volume(seg) == pytest.approx(0.8, abs=1e-14)
    cap1 = cylinders.CapBase(np.array([1.0, 0.0, 0.0]), 0.4, antipodal=False)
    cap2 = cylinders.CapBase(np.array([1.0, 0.0, 0.0]), 0.4, antipodal=True)
    assert cylinders.base_volume(cap2) == pytest.approx(
        2 * cylinders.base_volume(cap1), rel=1e-14)


def test_base_contained_strips():
    ball = geom.Ball(np.zeros(2), 1.0)
    assert contained(ball, vertical_strip(1.0))
    assert not contained(ball, vertical_strip(3.0))


def test_base_contained_cap_in_unit_ball():
    ball = geom.Ball(np.zeros(4), 1.0)
    frame = geom.orthonormalize(np.eye(4)[:3])
    cap = cylinders.CapBase(np.array([0.0, 1.0, 0.0]), 0.7)
    assert contained(ball, cylinders.Cylinder(frame, cap))


def test_base_contained_disk_in_ellipse(rng):
    ell = geom.Ellipsoid(np.zeros(3), np.diag([1.0, 4.0, 0.25]))
    frame = geom.orthonormalize(np.eye(3)[:2])
    shadow = geom.project_body(ell, frame)
    r_in = 1.0 / math.sqrt(float(np.linalg.eigvalsh(shadow.shape)[-1]))
    ok = cylinders.Cylinder(frame, geom.Ball(np.zeros(2), 0.9 * r_in))
    too_big = cylinders.Cylinder(frame, geom.Ball(np.zeros(2), 1.4 * r_in))
    assert contained(ell, ok)
    assert not contained(ell, too_big)


def _disks_at_the_shadow_boundary(body, frame, gen, n=200):
    """n (centre, radius) disks inside the shadow that touch its boundary."""
    shadow = geom.project_body(body, frame)
    out = []
    while len(out) < n:
        if isinstance(shadow, geom.Ball):
            c = shadow.center + 0.8 * shadow.radius * gen.uniform(-1, 1, 3) / math.sqrt(3)
            r = shadow.radius - float(np.linalg.norm(c - shadow.center))
        elif isinstance(shadow, geom.Ellipsoid):
            # a ball tangent inside at a boundary point x stays inside when its
            # radius is below the least curvature radius a_min^2 / a_max
            p, vecs = np.linalg.eigh(shadow.shape)
            axes = 1.0 / np.sqrt(p)
            w = gen.standard_normal(3)
            x = shadow.center + vecs @ (axes * (vecs.T @ (w / np.linalg.norm(w))))
            normal = shadow.shape @ (x - shadow.center)
            r = gen.uniform(0.2, 0.9) * axes.min() ** 2 / axes.max()
            c = x - r * normal / np.linalg.norm(normal)
        else:
            c = gen.dirichlet(np.ones(len(shadow.vertices))) @ shadow.vertices
            eq = shadow.equations
            r = float(np.min(-(eq[:, :-1] @ c + eq[:, -1])))
        if r > 2e-3:
            out.append((c, r))
    return out


@pytest.mark.parametrize("kind", ["ball", "ellipsoid", "polytope"])
def test_base_contained_disks_exact(kind):
    # base space of dimension 3, where sampled boundary points missed
    # protrusions of 5e-4
    gen = np.random.default_rng(55)
    if kind == "ball":
        body = geom.Ball(gen.uniform(-0.2, 0.2, 5), 1.3)
    elif kind == "ellipsoid":
        body = geom.Ellipsoid(gen.uniform(-0.2, 0.2, 5), random_spd(5, gen))
    else:
        body = geom.Polytope(gen.standard_normal((12, 5)))
    frame = random_frame(5, 3, gen)
    for c, r in _disks_at_the_shadow_boundary(body, frame, gen):
        inset = cylinders.Cylinder(frame, geom.Ball(c, r - 5e-4))
        out = cylinders.Cylinder(frame, geom.Ball(c, r + 5e-4))
        assert contained(body, inset)
        assert not contained(body, out)


def _random_cap(m: int, gen, antipodal: bool) -> cylinders.CapBase:
    pole = gen.standard_normal(m)
    return cylinders.CapBase(pole / np.linalg.norm(pole), gen.uniform(0.1, 1.2),
                             antipodal=antipodal)


def _caps_at_the_shadow_boundary(kind, frame, gen, antipodal, n=40):
    """n (cap, inset body, outset body, witness): the cap lies in the inset
    body's shadow, and the witness, a point of the cap, leaves the outset
    body's shadow by a margin of order 1e-3."""
    out = []
    while len(out) < n:
        cap = _random_cap(3, gen, antipodal)
        if kind == "ball":
            # the cap point farthest from the shadow's centre c peaks <-c, .>
            center = gen.uniform(-0.5, 0.5, 5)
            c = frame.coords(center)
            witness = cap_oracle.support_point(cap, -c)
            reach = float(np.linalg.norm(witness - c))
            inset, outset = (geom.Ball(center, reach + s) for s in (5e-4, -5e-4))
        else:
            # scaling a shadow about an interior origin scales its offsets b_i:
            # the cap fits exactly from s* = max_i h(a_i) / -b_i on
            verts = gen.standard_normal((12, 5))
            verts -= verts.mean(axis=0)
            eq = geom.project_body(geom.Polytope(verts), frame).equations
            points = [cap_oracle.support_point(cap, a) for a in eq[:, :-1]]
            ratios = [a @ z / -b for a, b, z in zip(eq[:, :-1], eq[:, -1], points)]
            tight = int(np.argmax(ratios))
            witness = points[tight]
            inset, outset = (geom.Polytope(ratios[tight] * s * verts)
                             for s in (1.001, 0.999))
        out.append((cap, inset, outset, witness))
    return out


@pytest.mark.parametrize("antipodal", [False, True], ids=["one-sided", "antipodal"])
@pytest.mark.parametrize("kind", ["ball", "polytope"])
def test_base_contained_caps_exact(kind, antipodal):
    gen = np.random.default_rng(56)
    frame = random_frame(5, 3, gen)
    for cap, inset, outset, witness in _caps_at_the_shadow_boundary(
            kind, frame, gen, antipodal):
        cyl = cylinders.Cylinder(frame, cap)
        assert cap_oracle.in_cap(cap, witness)
        assert not geom.contains_points(geom.project_body(outset, frame), witness)[0]
        assert np.all(geom.contains_points(geom.project_body(inset, frame),
                                           cap_oracle.boundary_sample(cap)))
        assert contained(inset, cyl)
        assert not contained(outset, cyl)


def _exact_calls(monkeypatch) -> list:
    calls = []
    exact = geom.quadratic_on_ball

    def counted(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    monkeypatch.setattr(geom, "quadratic_on_ball", counted)
    return calls


@pytest.mark.parametrize("radius,inside", [(0.06, True), (0.12, False)])
def test_disk_the_bound_cannot_accept_takes_the_exact_test(monkeypatch, radius, inside):
    # semi-axes 1 and 0.1, rotated; the disk sits off the axes, where the
    # triangle-inequality bound (0.5 + 10 rho)^2 exceeds 1 for both radii
    rot = np.array([[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]])
    shadow = geom.Ellipsoid(np.array([0.2, -0.1]), rot @ np.diag([1.0, 100.0]) @ rot.T)
    disk = geom.Ball(shadow.center + rot @ np.array([0.5, 0.0]), radius)
    calls = _exact_calls(monkeypatch)
    assert cylinders.base_contained(shadow, disk, 1.0) is inside
    assert len(calls) == 1


def test_disks_the_bound_accepts_are_contained(monkeypatch):
    gen = np.random.default_rng(29)
    calls = _exact_calls(monkeypatch)
    accepted = 0
    for _ in range(400):
        m = int(gen.integers(1, 5))
        shadow = geom.Ellipsoid(gen.uniform(-1, 1, m), random_spd(m, gen, (0.3, 2.0)))
        disk = geom.Ball(shadow.center + gen.uniform(-0.6, 0.6, m), gen.uniform(0.01, 0.6))
        calls.clear()
        if cylinders.base_contained(shadow, disk, 1.0) and not calls:
            accepted += 1
            _, top = geom.quadratic_on_ball(shadow.shape, shadow.center, disk.center,
                                            disk.radius, maximize=True)
            assert top <= 1.0 + cylinders.CONTAINMENT_TOL
    assert accepted > 40


def test_base_contained_cap_in_ellipsoid_raises():
    ell = geom.Ellipsoid(np.zeros(3), np.diag([0.25, 0.5, 1.0]))
    frame = geom.orthonormalize(np.eye(3)[:2])
    cap = cylinders.CapBase(np.array([1.0, 0.0]), 0.3, antipodal=False)
    with pytest.raises(DomainError):
        contained(ell, cylinders.Cylinder(frame, cap))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(1, 5), antipodal=st.booleans(),
       delta=st.floats(0.05, 1.5), seed=st.integers(0, 2**32 - 1))
def test_cap_support_is_attained_and_tops_the_boundary_sample(m, antipodal,
                                                              delta, seed):
    gen = np.random.default_rng(seed)
    pole = gen.standard_normal(m)
    cap = cylinders.CapBase(pole / np.linalg.norm(pole), delta, antipodal)
    dirs = np.vstack([gen.standard_normal((40, m)) * gen.uniform(0.1, 10.0, (40, 1)),
                      cap.pole, -cap.pole])
    top = cylinders.cap_support(cap, dirs)
    scale = 1e-12 * np.linalg.norm(dirs, axis=1)
    for a, t, eps in zip(dirs, top, scale):
        z = cap_oracle.support_point(cap, a)
        assert cap_oracle.in_cap(cap, z)
        assert abs(t - a @ z) <= eps
    # sample points nearly along the pole leave the cap by rounding
    sampled = np.max(cap_oracle.boundary_sample(cap) @ dirs.T, axis=0)
    assert np.all(sampled <= top + 1e3 * scale)


def test_restrict_lens_area_against_segment_formula(rng):
    ball = geom.Ball(np.zeros(2), 1.0)
    w = 0.8
    strip = vertical_strip(w)
    n = 200_000
    pts = geom.sample_in_body(ball, n, rng)
    hits = cylinder_oracle.contains_points(strip, pts) & geom.contains_points(ball, pts)
    p = float(np.mean(hits))
    est = math.pi * p
    sigma = math.pi * math.sqrt(p * (1 - p) / n)
    a = w / 2.0
    want = 2.0 * (a * math.sqrt(1 - a * a) + math.asin(a))
    assert abs(est - want) <= 3 * sigma


def test_restrict_whole_ball_cylinder(rng):
    ball = geom.Ball(np.zeros(3), 1.0)
    frame = geom.orthonormalize(np.eye(3)[:2])
    cyl = cylinders.Cylinder(frame, geom.Ball(np.zeros(2), 1.0))
    pts = geom.sample_in_body(ball, 2000, rng)
    assert np.all(cylinder_oracle.contains_points(cyl, pts)
                  & geom.contains_points(ball, pts))


def test_restrict_disjoint_strips(rng):
    ball = geom.Ball(np.zeros(2), 1.0)
    pts = geom.sample_in_body(ball, 20_000, rng)
    inside = geom.contains_points(ball, pts, tol=-cylinders.INTERIOR_MARGIN)
    both = inside & cylinder_oracle.contains_points(vertical_strip(0.4, -0.5), pts,
                                              strict=True) \
        & cylinder_oracle.contains_points(vertical_strip(0.4, +0.5), pts, strict=True)
    assert not np.any(both)


def test_cylinder_json_roundtrip_bit_exact(rng):
    frame = random_frame(4, 2, rng)
    bases = [
        geom.Ball(rng.uniform(-0.5, 0.5, 2), 0.37),
        geom.Polytope(rng.uniform(-1, 1, (4, 2))),
        cylinders.CapBase(np.array([0.6, 0.8]), 0.55, antipodal=False),
    ]
    for base in bases:
        cyl = cylinders.Cylinder(frame, base)
        blob = json.dumps(cylinders.cylinder_to_json(cyl), sort_keys=True)
        back, = cylinders.family_from_json([json.loads(blob)], 4, 2)
        assert np.array_equal(back.frame.columns, cyl.frame.columns)
        blob2 = json.dumps(cylinders.cylinder_to_json(back), sort_keys=True)
        assert blob == blob2
        assert back.k == cyl.k


def test_cylinder_validation():
    with pytest.raises(DimensionMismatch):
        cylinders.Cylinder(geom.orthonormalize(np.eye(3)),
                           geom.Ball(np.zeros(3), 1.0))  # k = 0
    with pytest.raises(DomainError):
        cylinders.CapBase(np.array([1.0, 0.0]), 2.0)
    with pytest.raises(DegenerateBody):  # a disk base is a geom.Ball
        geom.Ball(np.zeros(2), -1.0)
    with pytest.raises(DimensionMismatch):
        cylinder_oracle.contains_points(vertical_strip(1.0), [0.0, 0.0, 0.0])
