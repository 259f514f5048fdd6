"""Family work that depends on the frame alone runs once per distinct frame.

A body projects its shadow (``geom.project_body``) once per group of
bit-equal frames, whoever asks: the packing containment pass of
``multiplicity.decide``, ``sum_crv`` and the restricted slice maxima of the
general bound share it.  The counts below are of shadows actually computed
(``geom._project``, the cache miss), not of ``project_body`` calls.  The
grouped ``sum_crv`` keeps the bytes of adding one ``crv`` per cylinder.
"""

import warnings

import pytest

from conftest import CONSTRUCT_KINDS, construct_all, inscribed_hull
from cylpack import cli, cylinders, geom, instances, multiplicity


def _instances(tmp_path, seed: int) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        paths = construct_all(tmp_path, seed)
    return {name: instances.parse_instance(instances.load_json(path))
            for name, path in paths.items()}


def _body_family(inst):
    if inst["kind"] == instances.KIND_DISK_PLANKS:
        return inscribed_hull(inst["disk_family"]), inst["planks"]
    return inst["body"], inst["family"]


@pytest.mark.parametrize("name", ["pack3", "pack5"])
def test_shadows_are_projected_once_per_frame(tmp_path, monkeypatch, name):
    inst = _instances(tmp_path, 1)[name]
    body, family = inst["body"], inst["family"]
    frames = {cyl.frame.columns.tobytes() for cyl in family}
    assert len(frames) < len(family)
    calls = []
    project = geom._project
    monkeypatch.setattr(geom, "_project",
                        lambda b, frame: calls.append(frame) or project(b, frame))
    assert multiplicity.decide(body, family, inst["r"], 1000, 0).ok
    assert {f.columns.tobytes() for f in calls} == frames
    assert len(calls) == len(frames)
    calls.clear()
    cylinders.sum_crv(body, family)
    assert calls == []  # the body kept the shadows decide projected
    fresh = geom.body_from_json(geom.body_to_json(body))
    cylinders.sum_crv(fresh, family)
    assert {f.columns.tobytes() for f in calls} == frames
    assert len(calls) == len(frames)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sum_crv_is_the_sum_of_crv_bit_for_bit(tmp_path, seed):
    for name, inst in _instances(tmp_path, seed).items():
        body, family = _body_family(inst)
        terms = float(sum(cylinders.crv(body, c) for c in family))
        assert cylinders.sum_crv(body, family).hex() == terms.hex(), name


@pytest.mark.parametrize("name,shadows,exact", [
    ("pack5", 2, 5),   # the shared shadow and the body's own slice maximum
    ("pack3", 2, 0),   # two frame groups; every disk base accepted in closed form
    ("pack4", 1, 0),
    ("cap", 34, 0),    # one frame per cap
])
def test_verify_shares_one_shadow_per_frame_group(tmp_path, monkeypatch, capsys,
                                                  name, shadows, exact):
    path = tmp_path / f"{name}.json"
    assert cli.main(["construct", *CONSTRUCT_KINDS[name], "--seed", "1",
                     "--out", str(path)]) == 0
    calls = {"_project": 0, "quadratic_on_ball": 0}
    for attr in calls:
        real = getattr(geom, attr)

        def counted(*args, _attr=attr, _real=real, **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(geom, attr, counted)
    assert cli.main(["verify", str(path)]) == 0
    assert calls == {"_project": shadows, "quadratic_on_ball": exact}
    capsys.readouterr()
