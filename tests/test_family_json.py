"""An instance file's family is read as one stack, like a built cap family.

- ``cylinders.family_from_json`` builds, for every construct kind at seeds
  1-3, a one-sided cap file and a polytope-base file, the cylinders of the
  one-object-at-a-time reader (``cylinder_oracle.cylinder_from_json``) bit for
  bit: frame bytes, strides and contiguity, and every base field;
- a cap file's frames and caps are each checked in one pass;
- a file with one fault exits 2 at ``validate`` in ``verify`` and ``bounds``,
  with the error the per-object reader raised, except the shape faults (a
  cylinder k other than the instance's, a frame of the wrong shape, a pole of
  the wrong length), which the shape check names.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math

import numpy as np
import pytest

import cylinder_oracle
from conftest import box_bases, construct_all
from cylpack import cli, cylinders, geom, instances


def _assert_same_array(a, b):
    assert type(a) is type(b) is np.ndarray
    assert a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
    assert a.tobytes() == b.tobytes()
    assert a.flags.c_contiguous == b.flags.c_contiguous
    assert a.flags.f_contiguous == b.flags.f_contiguous
    assert not a.flags.writeable and not b.flags.writeable


def _assert_same_cylinder(cyl, ref):
    _assert_same_array(cyl.frame.columns, ref.frame.columns)
    assert type(cyl.base) is type(ref.base)
    for field in dataclasses.fields(ref.base):
        got, want = getattr(cyl.base, field.name), getattr(ref.base, field.name)
        if isinstance(want, np.ndarray):
            _assert_same_array(got, want)
        else:
            assert type(got) is type(want) and got == want, field.name


def _one_sided_caps_k3():
    # two-dimensional one-sided cap bases in R^5: k = 3, "antipodal": false
    rng = np.random.default_rng(5)
    family = []
    for _ in range(6):
        pole = rng.standard_normal(2)
        family.append(cylinders.Cylinder(
            geom.orthonormalize(rng.standard_normal((2, 5))),
            cylinders.CapBase(pole / np.linalg.norm(pole), 0.2, antipodal=False)))
    return instances.packing_instance(instances.unit_ball(5), family, 1, {})


def _polytope_bases():
    ball = instances.unit_ball(3)
    family = box_bases(instances.random_base_packing(ball, 1, 3, 2, seed=4))
    return instances.packing_instance(ball, family, 2, {})


def _files(tmp_path):
    objs = {}
    for seed in (1, 2, 3):
        (tmp_path / str(seed)).mkdir()
        for name, path in construct_all(tmp_path / str(seed), seed).items():
            if name != "ns":  # a disk-plank file holds no cylinders
                objs[f"{name}-{seed}"] = instances.load_json(path)
    objs["one-sided-caps-k3"] = _one_sided_caps_k3()
    objs["polytope-bases"] = _polytope_bases()
    # the files as written, read back through JSON
    return {name: json.loads(json.dumps(obj)) for name, obj in objs.items()}


def test_family_matches_the_per_object_reader(tmp_path):
    files = _files(tmp_path)
    assert files["one-sided-caps-k3"]["k"] == 3
    assert not files["one-sided-caps-k3"]["cylinders"][0]["base"]["antipodal"]
    for name, obj in files.items():
        family = instances.parse_instance(obj)["family"]
        refs = [cylinder_oracle.cylinder_from_json(c) for c in obj["cylinders"]]
        assert len(family) == len(refs) > 0, name
        for cyl, ref in zip(family, refs):
            _assert_same_cylinder(cyl, ref)


def _cap_file(tmp_path):
    path = tmp_path / "cap.json"
    assert cli.main(["construct", "--kind", "cap", "--dim", "4", "--k", "1",
                     "--delta", "0.3", "--seed", "1", "--out", str(path)]) == 0
    return instances.load_json(path)


def test_cap_file_is_checked_once_per_stack(tmp_path, monkeypatch):
    obj = _cap_file(tmp_path)
    calls = []

    def counted(module, name):
        check = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda stack, *a: calls.append((name, len(stack)))
                            or check(stack, *a))

    counted(geom, "_checked_frames")
    counted(cylinders, "_checked_caps")
    family = instances.parse_instance(obj)["family"]
    assert len(family) == 34
    assert calls == [("_checked_frames", 34), ("_checked_caps", 34)]


def _cap_17(mutate):
    def fault(obj):
        mutate(obj["cylinders"][17])
    return fault


def _shape_fault(k, frame_rows, pole):
    return ("DimensionMismatch", f"cylinder 17 is not of codimension 1 in R^4: "
            f"k={k}, frame rows {frame_rows}, base pole {pole}")


SINGLE_FAULTS = {
    "non-unit-pole": (_cap_17(lambda c: c["base"].update(
        pole=[2.0 * x for x in c["base"]["pole"]])),
        ("DomainError", "cap pole must be a unit vector")),
    "delta-past-pi/2": (_cap_17(lambda c: c["base"].update(delta=1.6)),
                        ("DomainError", "cap angle must lie in (0, pi/2), got 1.6")),
    "delta-nan": (_cap_17(lambda c: c["base"].update(delta=math.nan)),
                  ("DomainError", "cap angle must lie in (0, pi/2), got nan")),
    "antipodal-string": (_cap_17(lambda c: c["base"].update(antipodal="false")),
                         ("DomainError",
                          "cap antipodal must be a JSON bool, got 'false'")),
    "k-not-int": (_cap_17(lambda c: c.update(k=1.0)),
                  ("DomainError", "cylinder k must be a JSON int, got 1.0")),
    "non-orthogonal-frame": (_cap_17(lambda c: c["frame"].update(
        columns=[c["frame"]["columns"][0]] * 3)),
        ("DimensionMismatch", "frame columns must be pairwise orthogonal")),
    "unknown-base-kind": (_cap_17(lambda c: c["base"].update(kind="sphere")),
                          ("DomainError", "unknown base kind 'sphere'")),
    # the shape faults: the per-object reader said "codimension field
    # disagrees with the frame shape" for the first and "base dimension does
    # not match the frame" for the other two
    "cylinder-k-differs": (_cap_17(lambda c: c.update(k=2)),
                           _shape_fault(2, (3, 4), (3,))),
    "frame-wrong-shape": (_cap_17(lambda c: c["frame"].update(
        columns=c["frame"]["columns"][:2])), _shape_fault(1, (2, 4), (3,))),
    "pole-wrong-length": (_cap_17(lambda c: c["base"].update(
        pole=c["base"]["pole"] + [0.0])), _shape_fault(1, (3, 4), (4,))),
}


@pytest.mark.parametrize("name", sorted(SINGLE_FAULTS))
def test_single_fault_cap_file_exits_2(tmp_path, name):
    mutate, (error, message) = SINGLE_FAULTS[name]
    obj = copy.deepcopy(_cap_file(tmp_path))
    mutate(obj)
    path = tmp_path / "fault.json"
    instances.dump_json(obj, path)
    for command in ("verify", "bounds"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main([command, str(path)]) == 2, command
        assert json.loads(stdout.getvalue()) == {"error": {
            "stage": "validate", "type": error, "message": message}}, command
