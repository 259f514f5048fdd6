"""Fuzzing of constructed instance files through ``cylpack verify``.

One number of a valid instance file is replaced: a non-finite value must be
rejected as unusable input (exit 2); any finite value must end in one of the
documented exit codes, never in an uncaught exception; the overflow edge
1.34e154 (the least double whose square overflows) also without a warning.
The ``meta`` block is provenance that verification never reads, so its
numbers are left alone.
"""

import contextlib
import copy
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylpack import cli
from conftest import CONSTRUCT_KINDS, construct_all

FUZZ = settings(max_examples=30, deadline=None, derandomize=True)
OVERFLOW_EDGE = 1.3407807929942597e+154


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, {name: json.loads(path.read_text())
                  for name, path in construct_all(root, seed=1).items()}


def _numeric_leaves(obj, path=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            yield path
        return
    for key, val in items:
        if key != "meta":
            yield from _numeric_leaves(val, path + (key,))


def _replaced(obj, path, value):
    obj = copy.deepcopy(obj)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def _verify(root, obj) -> int:
    inst = root / "fuzzed.json"
    inst.write_text(json.dumps(obj))
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["verify", str(inst), "--samples", "1000"])


def _verify_with(fixtures, data, value) -> int:
    root, objs = fixtures
    name = data.draw(st.sampled_from(sorted(objs)), label="kind")
    path = data.draw(st.sampled_from(list(_numeric_leaves(objs[name]))),
                     label="leaf")
    return _verify(root, _replaced(objs[name], path, value))


@FUZZ
@given(data=st.data(), value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_nonfinite_field_exits_2(fixtures, data, value):
    assert _verify_with(fixtures, data, value) == 2


@FUZZ
@given(data=st.data(),
       value=st.floats(allow_nan=False, allow_infinity=False))
def test_finite_perturbation_exits_with_a_documented_code(fixtures, data, value):
    assert _verify_with(fixtures, data, value) in (0, 1, 2)


@pytest.mark.parametrize("name", sorted(CONSTRUCT_KINDS))
def test_overflow_edge_exits_quietly_with_a_documented_code(fixtures, name):
    # the least double whose square overflows, in each field of the file (the
    # first entry of every list): no RuntimeWarning, no uncaught exception
    root, objs = fixtures
    for path in _numeric_leaves(objs[name]):
        if any(isinstance(key, int) and key for key in path):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = _verify(root, _replaced(objs[name], path, OVERFLOW_EDGE))
        assert code in (0, 1, 2), path
