"""Verdicts do not depend on the scale of an instance.

Every non-cap construct kind of ``CONSTRUCT_KINDS`` at seed 1, and its
r - 1 and r + 1 mutations, is scaled by 2**e for e in (-40, -20, 20, 40).
A power of two scales every coordinate exactly, so each scaled file must give
the unscaled run's exit code, certificate and per-report verdicts.  Scaled
far enough for squared lengths or volumes to leave double precision, a file
keeps its exit code and certificate or exits 2 with an error object.  Cap
bases live in the unit ball and do not scale.  The lhs and rhs themselves are
not compared: crv sums of ellipsoid files differ in their last bits.
"""

import contextlib
import dataclasses
import io
import itertools
import json

import numpy as np
import pytest

from cylpack import bounds, cli, cylinders, geom, instances
from conftest import CONSTRUCT_KINDS

SCALES = [2.0 ** e for e in (-40, -20, 20, 40)]
SCALED_KINDS = [name for name in CONSTRUCT_KINDS if name != "cap"]


def _scaled(obj: dict, s: float) -> dict:
    """The instance object with every length multiplied by s."""
    obj = json.loads(json.dumps(obj))
    if obj["kind"] == instances.KIND_DISK_PLANKS:
        for disk in obj["disks"]:
            disk["center"] = [x * s for x in disk["center"]]
            disk["radius"] *= s
        for p in obj["planks"]:
            p["interval"] = [x * s for x in p["interval"]]
        return obj
    body = obj["body"]
    if body["type"] == "polytope":
        body["vertices"] = (np.array(body["vertices"]) * s).tolist()
    else:
        body["center"] = [x * s for x in body["center"]]
        if body["type"] == "ball":
            body["radius"] *= s
        else:
            body["shape"] = (np.array(body["shape"]) / (s * s)).tolist()
    for cyl in obj["cylinders"]:
        base = cyl["base"]
        if base["kind"] == "polytope":
            base["vertices"] = (np.array(base["vertices"]) * s).tolist()
        else:
            base["center"] = [x * s for x in base["center"]]
            base["radius"] *= s
    return obj


def test_unit_is_one_from_one_half_on_and_else_the_size_power_of_two():
    for size, unit in ((0.0, 1.0), (0.5, 1.0), (3.0, 1.0), (2.0 ** 40, 1.0),
                       (0.49, 0.5), (0.7 * 2.0 ** -40, 2.0 ** -40)):
        assert geom.length_unit(size) == unit, size
    # a body's unit reads its largest |coordinate|, through its bounding box
    square = np.array([[-0.6, -0.6], [0.6, -0.6], [0.6, 0.6], [-0.6, 0.6]])
    for s in SCALES:
        assert geom.Polytope(square * s).unit == geom.length_unit(0.6 * s)
        assert geom.Ball(np.array([0.5 * s, 0.0]), 0.1 * s).unit == geom.length_unit(0.6 * s)
        assert geom.Ellipsoid(np.zeros(2), np.diag([1.0, 4.0]) / (0.36 * s * s)).unit \
            == geom.length_unit(0.6 * s)


def _verify(path) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", str(path)])
    return code, json.loads(buf.getvalue())


def _verdict(obj: dict, path) -> tuple:
    """(exit code, certificate, per-report passed) of ``verify`` on obj."""
    instances.dump_json(obj, path)
    code, out = _verify(path)
    mult = out["multiplicity"]
    return (code, None if mult is None else mult["certificate"],
            [rep["passed"] for rep in out["reports"]])


@pytest.mark.parametrize("name", SCALED_KINDS)
def test_scaled_files_keep_their_verdicts(tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert cli.main(["construct", *CONSTRUCT_KINDS[name], "--seed", "1",
                     "--out", str(path)]) == 0
    original = instances.load_json(path)
    for shift in (-1, 0, 1):
        obj = dict(original, r=original["r"] + shift)
        if obj["r"] < 1:
            continue
        want = _verdict(obj, tmp_path / "unscaled.json")
        assert want[0] == (0 if shift == 0 or shift == 1 and name != "cover" else 1)
        for s in SCALES:
            assert _verdict(_scaled(obj, s), tmp_path / "scaled.json") == want, (shift, s)


def _constructed(tmp_path, args) -> dict:
    path = tmp_path / "constructed.json"
    assert cli.main(["construct", *args, "--seed", "1", "--out", str(path)]) == 0
    return instances.load_json(path)


def _far_verdicts(tmp_path, original: dict, exponents):
    """An instance and its r - 1 and r + 1 mutations, each scaled by 2**e
    for e in exponents where the scaled file stays finite: each run gives
    the unscaled exit code and certificate, or exits 2 with an error object;
    an exit 1 carries a witness, and no run ends in a traceback."""
    path = tmp_path / "far.json"
    for shift in (-1, 0, 1):
        obj = dict(original, r=original["r"] + shift)
        if obj["r"] < 1:
            continue
        instances.dump_json(obj, path)
        code, out = _verify(path)
        want = (code, out["multiplicity"]["certificate"])
        for e in exponents:
            scaled = _scaled(obj, 2.0 ** e)
            try:
                json.dumps(scaled, allow_nan=False)
            except ValueError:
                continue
            instances.dump_json(scaled, path)
            code, out = _verify(path)
            if code == 2:
                assert list(out) == ["error"], (shift, e)
                continue
            mult = out["multiplicity"]
            assert (code, mult["certificate"]) == want, (shift, e)
            assert code == 0 or mult["witness"] is not None, (shift, e)


# ellipsoid files whose shadow volumes overflow or underflow at 2**300 and 2**-300
FAR_KINDS = {name: CONSTRUCT_KINDS[name] for name in ("pack3", "pack4", "pack5", "cover")}
FAR_KINDS["cover_k1"] = ["--kind", "covering", "--dim", "3", "--k", "1"]


@pytest.mark.parametrize("name", FAR_KINDS)
def test_far_scaled_ellipsoid_files_end_in_a_verdict_or_an_error(tmp_path, name):
    _far_verdicts(tmp_path, _constructed(tmp_path, FAR_KINDS[name]), (300, -300))


# ball, disk-hull and polygon files, whose squared lengths overflow or
# underflow at 2**600 and 2**-600; the d = 4 plank partition's restricted
# slice maxima search its ball shadow
FARTHER_KINDS = {name: CONSTRUCT_KINDS[name] for name in ("plank", "ns", "strips")}
FARTHER_KINDS["plank4"] = ["--kind", "plank-partition", "--dim", "4", "--n", "5", "--r", "2"]


@pytest.mark.parametrize("name", FARTHER_KINDS)
def test_farther_scaled_files_keep_their_verdict_or_exit_2(tmp_path, name):
    _far_verdicts(tmp_path, _constructed(tmp_path, FARTHER_KINDS[name]),
                  (600, -600, 1000, -1000))


def test_farther_scaled_disk_bases_in_a_ball_keep_their_verdict_or_exit_2(tmp_path):
    # two disjoint disk bases in one frame of a ball: their membership and
    # their containment in the ball's shadow read distances, whose squares
    # overflow or underflow unless read in the power of two at the radius
    frame = geom.Frame(np.eye(3)[:, :2])
    family = [cylinders.Cylinder(frame, geom.Ball(np.array([c, 0.0]), 0.3))
              for c in (-0.4, 0.4)]
    original = instances.packing_instance(geom.Ball(np.zeros(3), 1.0), family, 1, {})
    _far_verdicts(tmp_path, original, (600, -600, 1000, -1000))


@pytest.mark.parametrize("scale", [1.0, 1e-10, 2.0 ** -40])
def test_strip_outside_the_body_fails_at_every_scale(tmp_path, scale):
    # strip 0 moved out by four body diameters lies outside the body's shadow
    path = tmp_path / "strips.json"
    assert cli.main(["construct", *CONSTRUCT_KINDS["strips"], "--seed", "1",
                     "--out", str(path)]) == 0
    obj = _scaled(instances.load_json(path), scale)
    vertices = np.array(obj["body"]["vertices"])
    diameter = np.max(np.linalg.norm(vertices[:, None] - vertices[None, :], axis=2))
    base = obj["cylinders"][0]["base"]
    base["vertices"] = (np.array(base["vertices"]) + 4.0 * diameter).tolist()
    instances.dump_json(obj, path)
    code, out = _verify(path)
    assert code == 1 and out["reports"] == []
    assert out["multiplicity"]["reason"] == "base 0 is not contained in the body shadow"


def test_fubini_on_a_halved_slice_fails_at_every_scale(monkeypatch):
    # on a box and an axis frame Fubini's lower bound is an equality, so a
    # slice estimate half the true maximum misses it by half the volume: the
    # tolerance scales with the body's unit^d, so a box shrunk by 2^-40
    # cannot pass on an absolute slack
    real = bounds.max_translate_slice
    monkeypatch.setattr(bounds, "max_translate_slice", lambda *args, **kwargs: (
        dataclasses.replace(top := real(*args, **kwargs), lo=top.lo / 2.0)))
    vertices = np.array(list(itertools.product((-1.0, 1.0), repeat=3))) * [1.0, 0.7, 0.6]
    frame = geom.orthonormalize(np.eye(3)[:1])
    for scale in (1.0, 2.0 ** -40):
        poly = geom.Polytope(vertices * scale)
        upper, lower = bounds.check_rogers_shephard(poly, frame)
        assert upper.passed and not lower.passed, scale
        assert lower.tolerance == bounds.EXACT_TOL * poly.unit ** 3, scale
