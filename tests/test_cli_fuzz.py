"""Fuzzing of constructed instance files through ``cylpack verify``.

One number of a valid instance file is replaced: a non-finite value must be
rejected as unusable input (exit 2); any finite value must end in one of the
documented exit codes, never in an uncaught exception, with exit 2 exactly
when stdout is an error object and exit 1 a report with "passed": false; the
far ends of the doubles (1.34e154, whose square overflows, the largest double
and the least subnormal) also without a warning.
The ``meta`` block is provenance that verification never reads, so its
numbers are left alone.
"""

import contextlib
import copy
import io
import json
import math
import sys
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


def _verify(root, obj) -> tuple[int, dict]:
    """(exit code, stdout document) of one verify run."""
    inst = root / "fuzzed.json"
    inst.write_text(json.dumps(obj))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["verify", str(inst), "--samples", "1000"])
    return code, json.loads(stdout.getvalue())


def _verify_with(fixtures, data, value) -> tuple[int, dict]:
    root, objs = fixtures
    name = data.draw(st.sampled_from(sorted(objs)), label="kind")
    path = data.draw(st.sampled_from(list(_numeric_leaves(objs[name]))),
                     label="leaf")
    return _verify(root, _replaced(objs[name], path, value))


@FUZZ
@given(data=st.data(), value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_nonfinite_field_exits_2(fixtures, data, value):
    assert _verify_with(fixtures, data, value)[0] == 2


@FUZZ
@given(data=st.data(),
       value=st.floats(allow_nan=False, allow_infinity=False))
def test_finite_perturbation_exits_with_a_documented_code(fixtures, data, value):
    # exit 2 exactly when stdout is an error object; exit 1 is a failed verdict
    code, out = _verify_with(fixtures, data, value)
    assert code in (0, 1, 2)
    assert (code == 2) == (list(out) == ["error"])
    if code != 2:
        assert out["passed"] is (code == 0)


# the far ends of the doubles: the least double whose square overflows, the
# largest double and the least subnormal (the first keeps its bare kind ids)
EDGES = [pytest.param(name, value, id=name if tag is None else f"{name}-{tag}")
         for name in sorted(CONSTRUCT_KINDS)
         for value, tag in ((OVERFLOW_EDGE, None), (sys.float_info.max, "max"),
                            (5e-324, "subnormal"))]


@pytest.mark.parametrize("name, value", EDGES)
def test_overflow_edge_exits_quietly_with_a_documented_code(fixtures, name,
                                                            value):
    # the value in each field of the file (the first entry of every list):
    # no RuntimeWarning, no uncaught exception
    root, objs = fixtures
    for path in _numeric_leaves(objs[name]):
        if any(isinstance(key, int) and key for key in path):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = _verify(root, _replaced(objs[name], path, value))
        assert code in (0, 1, 2), path
