"""scipy loads on first use: importing cylpack pulls in numpy only, and geom
still serves the scipy names that callers and the benchmark tracer look up."""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import cylpack
from cylpack import geom

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
    cube = geom.Polytope(np.array([[x, y, z] for x in (0.0, 1.0)
                                   for y in (0.0, 1.0) for z in (0.0, 1.0)]))
    assert len(calls) == 1
    length, _ = geom.longest_chord(cube, np.array([1.0, 0.0, 0.0]))
    assert length == pytest.approx(1.0) and len(calls) == 2
    plane = geom.orthonormalize([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    area = geom.affine_slice_volume(cube, plane, np.array([0.5, 0.5, 0.5]))
    assert area == pytest.approx(1.0) and len(calls) == 3
