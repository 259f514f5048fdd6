"""scipy loads on first use: importing cylpack pulls in numpy only, verifying
an instance of any construct kind needs neither scipy.integrate nor
scipy.optimize, verifying one of any kind but cap loads no scipy submodule
at all (cap loads scipy.special, for betainc), and geom still serves the
scipy names that callers and the benchmark tracer look up."""

import importlib
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import cylpack
from conftest import construct_all
from cylpack import cli, geom

SCIPY_SUBMODULES = ("scipy.spatial", "scipy.optimize", "scipy.integrate",
                    "scipy.special", "scipy.linalg")


def test_import_loads_no_scipy_submodule():
    src = os.path.dirname(os.path.dirname(cylpack.__file__))
    code = ("import sys, cylpack, cylpack.cli; "
            f"print(sorted(m for m in {SCIPY_SUBMODULES!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def _verify_in_turn(paths: dict) -> dict:
    """{name: scipy submodules loaded} after each ``verify`` of one fresh
    interpreter that verifies the files in order."""
    src = os.path.dirname(os.path.dirname(cylpack.__file__))
    code = ("import sys; from cylpack import cli\n"
            f"for name, path in {[(k, str(p)) for k, p in paths.items()]!r}:\n"
            "    cli.main(['verify', path, '--out', path + '.report'])\n"
            f"    print(name, *sorted(m for m in {SCIPY_SUBMODULES!r} if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    loaded = {line.split()[0]: line.split()[1:] for line in out.strip().splitlines()}
    assert list(loaded) == list(paths)
    return loaded


def test_verify_loads_neither_integrate_nor_optimize(tmp_path):
    for name, mods in _verify_in_turn(construct_all(tmp_path, seed=1)).items():
        assert "scipy.integrate" not in mods and "scipy.optimize" not in mods, name


def test_verify_of_every_kind_but_cap_loads_no_scipy_submodule(tmp_path):
    # ball volumes are closed forms and planar hulls a monotone chain, so
    # only cap's betainc loads scipy.special; cap runs last
    paths = construct_all(tmp_path, seed=1)
    cover1 = tmp_path / "cover1.json"
    assert cli.main(["construct", "--kind", "covering", "--dim", "3", "--k", "1",
                     "--seed", "1", "--out", str(cover1)]) == 0
    paths["cover1"] = cover1
    paths["cap"] = paths.pop("cap")
    loaded = _verify_in_turn(paths)
    assert loaded.pop("cap") == ["scipy.special"]
    assert loaded == {name: [] for name in loaded}


@pytest.mark.parametrize("module, name", [
    ("scipy.spatial", "ConvexHull"), ("scipy.spatial", "QhullError"),
    ("scipy.spatial", "HalfspaceIntersection"), ("scipy.optimize", "linprog")])
def test_geom_serves_scipy_names(module, name):
    assert getattr(geom, name) is getattr(importlib.import_module(module), name)


def test_geom_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        geom.no_such_name
    assert not hasattr(geom, "no_such_name")


def test_replaced_convex_hull_is_the_one_called(monkeypatch):
    real = geom.ConvexHull
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(geom, "ConvexHull", counting)
    cube = geom.Polytope(np.array(list(itertools.product((0.0, 1.0), repeat=4))))
    assert len(calls) == 1
    length, _ = geom.longest_chord(cube, np.array([1.0, 0.0, 0.0, 0.0]))
    assert length == pytest.approx(1.0) and len(calls) == 2
    # a 3-d slice takes its volume from qhull; a 2-d one is a polygon area
    flat = geom.orthonormalize(np.eye(4)[:3])
    volume = geom.affine_slice_volume(cube, flat, np.full(4, 0.5))
    assert volume == pytest.approx(1.0) and len(calls) == 3
    plane = geom.orthonormalize(np.eye(4)[:2])
    area = geom.affine_slice_volume(cube, plane, np.full(4, 0.5))
    assert area == pytest.approx(1.0) and len(calls) == 3
