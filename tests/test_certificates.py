"""Structural certificates of the packing and covering hypotheses.

``multiplicity.decide`` reads multiplicity bounds off a family's structure
before it samples: pole separation for cap cylinders (``_cap_certificate``),
layer depth for every other construct kind (``_layer_certificate``), each
None where it does not apply.  The sampler (``estimate_multiplicity``),
which no longer runs on these families, serves as the oracle: it must never
see a count beyond a certified bound.  Refutations carry witnesses that ``geom`` places in the body, and
certified reports do not depend on the sample count or seed.
"""

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylinder_oracle
import sepset_oracle
from cylpack import cappack, cli, cylinders, geom, instances, multiplicity

SEEDS = (1, 2, 3, 4)
# construct kinds with their hypothesis reading; the ns-family is exact on
# its own (falconer.check_disk_planks)
KINDS = {
    "plank": (["--kind", "plank-partition", "--dim", "2", "--n", "5", "--r", "2"], False),
    "plank3": (["--kind", "plank-partition", "--dim", "3", "--n", "4"], False),
    "pack3": (["--kind", "packing", "--dim", "3", "--k", "1", "--r", "2"], False),
    "pack4": (["--kind", "packing", "--dim", "4", "--k", "2"], False),
    "pack5": (["--kind", "packing", "--dim", "5", "--k", "3", "--r", "3"], False),
    "pack1d": (["--kind", "packing", "--dim", "3", "--k", "2", "--r", "2"], False),
    "cover": (["--kind", "covering", "--dim", "3", "--k", "2"], True),
    "cover2": (["--kind", "covering", "--dim", "3", "--k", "2", "--r", "2"], True),
    "strips": (["--kind", "polygon-strips", "--n", "3", "--r", "2"], False),
    "cap": (["--kind", "cap", "--dim", "4", "--k", "1", "--delta", "0.3"], False),
    "cap2": (["--kind", "cap", "--dim", "5", "--k", "2", "--delta", "0.3"], False),
}


def _construct(tmp_path, name, seed):
    args, _ = KINDS[name]
    path = tmp_path / f"{name}{seed}.json"
    assert cli.main(["construct", *args, "--seed", str(seed), "--out", str(path)]) == 0
    return path, instances.parse_instance(instances.load_json(path))


def _verify(path, samples, seed, capsys):
    code = cli.main(["verify", str(path), "--samples", str(samples),
                     "--seed", str(seed)])
    return code, capsys.readouterr().out


def _counts(family, x):
    strict = sum(cylinder_oracle.contains_points(c, x, strict=True)[0] for c in family)
    closed = sum(cylinder_oracle.contains_points(c, x)[0] for c in family)
    return strict, closed


# --- the cap certificate's premise ------------------------------------------------

def _points_of_cap_cylinder(cyl, n, rng):
    """n points of the cylinder inside the unit ball: s (cos t q + sin t v)
    in the base, t < delta and s >= cos(delta) / cos(t), plus a complement
    part of norm at most sqrt(1 - s^2)."""
    frame, base = cyl.frame, cyl.base
    d, m = frame.columns.shape
    t = rng.uniform(0.0, base.delta, n)
    s = rng.uniform(math.cos(base.delta) / np.cos(t), 1.0)
    v = rng.standard_normal((n, m))
    v -= np.outer(v @ base.pole, base.pole)
    v /= np.maximum(np.linalg.norm(v, axis=1), 1e-300)[:, None]
    z = s[:, None] * (np.cos(t)[:, None] * base.pole + np.sin(t)[:, None] * v)
    if base.antipodal:
        z *= rng.choice([-1.0, 1.0], n)[:, None]
    comp = geom.complement(frame).columns if m < d else np.zeros((d, 1))
    w = rng.standard_normal((n, comp.shape[1]))
    w *= (np.sqrt(1.0 - s * s) * rng.random(n) / np.maximum(
        np.linalg.norm(w, axis=1), 1e-300))[:, None]
    return z @ frame.columns.T + w @ comp.T


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31), d=st.integers(3, 7), delta=st.floats(0.05, 1.5),
       antipodal=st.booleans(), data=st.data())
def test_cap_cylinder_points_lie_near_the_pole(seed, d, delta, antipodal, data):
    # |x.p| = |(F^T x).q| >= cos(delta), so a point of the unit ball in the
    # cylinder lies within delta of the pole (of its line, when antipodal)
    m = data.draw(st.integers(1, d - 1), label="m")
    rng = np.random.default_rng(seed)
    frame = geom.orthonormalize(rng.standard_normal((m, d)))
    pole = rng.standard_normal(m)
    cyl = cylinders.Cylinder(frame, cylinders.CapBase(pole / np.linalg.norm(pole),
                                                      delta, antipodal))
    pts = np.vstack([geom.sample_in_body(geom.Ball(np.zeros(d), 1.0), 2000, rng),
                     _points_of_cap_cylinder(cyl, 2000, rng)])
    inside = pts[cylinder_oracle.contains_points(cyl, pts)]
    assert len(inside) >= 1000
    level = inside @ frame.embed(cyl.base.pole)
    if antipodal:
        level = np.abs(level)
    tol = 64 * d * 2.0**-53
    assert np.all(np.linalg.norm(inside, axis=1) <= 1.0 + tol)
    assert np.all(level >= math.cos(delta) - tol)


# --- every construct kind is certified, and the sampler agrees --------------------

@pytest.mark.parametrize("name", sorted(KINDS))
def test_constructed_families_are_certified(tmp_path, name):
    covering = KINDS[name][1]
    for seed in SEEDS:
        _, inst = _construct(tmp_path, name, seed)
        body, family, r = inst["body"], inst["family"], inst["r"]
        cert = (multiplicity._cap_certificate(body, family)
                or multiplicity._layer_certificate(body, family))
        assert cert is not None and cert.samples == 0 and cert.seed is None
        verdict = multiplicity.decide(body, family, r, 4000, seed, covering)
        assert verdict.ok and verdict.report == cert
        oracle = multiplicity.estimate_multiplicity(body, family, 4000, seed)
        assert oracle.max_mult <= cert.max_mult
        if covering:
            assert cert.min_mult >= r and oracle.min_mult >= cert.min_mult
        else:
            assert cert.max_mult <= r
        if cert.witness_max is not None:  # it attains the bound inside the body
            x = np.array(cert.witness_max)
            assert geom.contains_points(body, x)[0]
            assert _counts(family, x)[0] == cert.max_mult


STEPS = ("_cap_certificate", "_layer_certificate", "_sweep_certificate",
         "estimate_multiplicity")


@pytest.mark.parametrize("covering", [False, True])
def test_decide_tries_each_step_in_turn(monkeypatch, covering):
    # with every certificate left open, decide runs pole separation, layer
    # depth, the sweep (packings only) and the sampler, in that order, and
    # the sampled report stands
    ball = geom.Ball(np.zeros(2), 1.0)
    family = instances.plank_partition(ball, 3)
    order = []
    for name in STEPS:
        real = getattr(multiplicity, name)
        monkeypatch.setattr(multiplicity, name, lambda *args, _name=name, _real=real: (
            order.append(_name) or (_real(*args) if _name == STEPS[-1] else None)))
    verdict = multiplicity.decide(ball, family, 2, 2000, 1, covering)
    assert order == [name for name in STEPS if not covering or name != "_sweep_certificate"]
    assert verdict.report.samples == 2000 and verdict.report.certificate is None


def test_certificate_names():
    ball = geom.Ball(np.zeros(4), 1.0)
    _, caps = cappack.build_cap_packing(4, 1, 0.3, seed=1)
    planks = instances.plank_partition(ball, 3)
    assert multiplicity._cap_certificate(ball, caps).certificate == "pole-separation"
    assert multiplicity._layer_certificate(ball, planks).certificate == "layer-depth"
    # each step is None where it does not apply; mixed families sample
    for family in (planks, [*caps, *planks], []):
        assert multiplicity._cap_certificate(ball, family) is None
    for family in (caps, [*caps, *planks]):
        assert multiplicity._layer_certificate(ball, family) is None
    box = geom.Polytope(np.array(list(itertools.product((-1.0, 1.0), repeat=4))))
    assert multiplicity._cap_certificate(box, caps) is None


def test_cap_report_is_certified_whatever_the_sample_count():
    reports = [cappack.cap_packing_report(4, 2, 0.3, seed=5, packing_samples=n)
               for n in (1000, 20_000)]
    assert reports[0] == reports[1]
    packing = reports[0].packing
    assert packing.certificate == "pole-separation" and packing.samples == 0
    assert packing.max_mult == 1 and packing.violation_fraction_ucb is None
    assert geom.contains_points(geom.Ball(np.zeros(4), 1.0), packing.witness_max)[0]


# --- exact refutations -----------------------------------------------------------

# single-layer families: the certificate is exact and finds the witness itself
@pytest.mark.parametrize("name, shift", [("plank", -1), ("cover", 1)])
def test_mutations_are_refuted_with_a_witness_in_the_body(tmp_path, capsys, name, shift):
    covering = KINDS[name][1]
    for seed in SEEDS:
        path, inst = _construct(tmp_path, name, seed)
        obj = instances.load_json(path)
        obj["r"] += shift
        instances.dump_json(obj, path)
        code, out = _verify(path, 2000, 3, capsys)
        assert code == 1
        assert (code, out) == _verify(path, 50_000, 91, capsys)  # byte-identical
        mult = json.loads(out)["multiplicity"]
        assert mult["certificate"] == "layer-depth" and mult["samples"] == 0
        x = np.array(mult["witness"])
        assert geom.contains_points(inst["body"], x)[0]
        strict, closed = _counts(inst["family"], x)
        if covering:
            assert closed == mult["min_mult"] < obj["r"]
        else:
            assert strict == mult["max_mult"] > obj["r"]


def test_certified_passes_ignore_samples_and_seed(tmp_path, capsys):
    for name in ("plank", "cap", "strips"):
        path, _ = _construct(tmp_path, name, 2)
        first = _verify(path, 2000, 1, capsys)
        assert first[0] == 0 and first == _verify(path, 30_000, 17, capsys)


# --- what the certificates leave to the sampler --------------------------------------

def _cap_cylinder(pole, delta, rng):
    """A cap cylinder of R^4 (k = 1) with its pole as the first frame column."""
    frame = geom.orthonormalize(np.vstack([pole, rng.standard_normal((2, 4))]))
    return cylinders.Cylinder(frame, cylinders.CapBase(frame.coords(pole), delta))


def test_overlapping_cap_file_falls_back_and_fails(tmp_path, capsys):
    path, inst = _construct(tmp_path, "cap", 1)
    obj = instances.load_json(path)
    # cylinder 1 takes cylinder 0's frame with its pole turned by delta < 2 delta
    delta = obj["cylinders"][0]["base"]["delta"]
    obj["cylinders"][1]["frame"] = obj["cylinders"][0]["frame"]
    obj["cylinders"][1]["base"]["pole"] = [math.cos(delta), math.sin(delta), 0.0]
    instances.dump_json(obj, path)
    family = instances.parse_instance(obj)["family"]
    cert = multiplicity._cap_certificate(inst["body"], family)
    assert cert.max_mult > 1 and cert.witness_max is None  # not settled
    code, out = _verify(path, 20_000, 1, capsys)
    mult = json.loads(out)["multiplicity"]
    assert code == 1 and mult["certificate"] is None and mult["samples"] == 20_000
    x = np.array(mult["witness"])
    assert geom.contains_points(inst["body"], x)[0]
    assert _counts(family, x)[0] == mult["max_mult"] >= 2


@pytest.mark.parametrize("below, certified", [(1e-15, False), (1e-9, True)])
def test_pole_pairs_within_the_margin_are_not_certified(below, certified):
    # two poles whose level lies `below` cos(2 delta); the margin is 64 d 2**-53
    delta = 0.3
    level = math.cos(2 * delta) - below
    poles = np.array([[1.0, 0.0, 0.0, 0.0], [level, math.sqrt(1 - level**2), 0.0, 0.0]])
    rng = np.random.default_rng(0)
    family = [_cap_cylinder(p, delta, rng) for p in poles]
    cert = multiplicity._cap_certificate(geom.Ball(np.zeros(4), 1.0), family)
    assert (cert.max_mult == 1) == certified
    sep_set = cappack.SeparatedSet(poles, 2 * delta, cappack.PROJECTIVE, True, 0)
    assert sepset_oracle.check_separation(sep_set) == certified


def test_polytope_base_covering_is_sampled_unchanged(tmp_path):
    path = tmp_path / "boxes.json"
    assert cli.main(["construct", "--kind", "covering", "--dim", "3", "--k", "1",
                     "--seed", "2", "--out", str(path)]) == 0
    inst = instances.parse_instance(instances.load_json(path))
    body, family = inst["body"], inst["family"]
    assert multiplicity._cap_certificate(body, family) is None
    assert multiplicity._layer_certificate(body, family) is None
    verdict = multiplicity.decide(body, family, 1, 5000, seed=4, covering=True)
    sampled = multiplicity.estimate_multiplicity(body, family, 5000, seed=4)
    assert verdict.ok and verdict.report.certificate is None
    ucb = verdict.report.violation_fraction_ucb
    assert ucb == math.log(1 / 0.05) / 5000  # about 3 / n
    assert verdict.report == dataclasses.replace(sampled, violation_fraction_ucb=ucb)
    failed = multiplicity.decide(body, family, 2, 5000, seed=4, covering=True)
    assert not failed.ok and failed.report.violation_fraction_ucb is None


def test_disk_bases_that_overlap_are_bounded_not_refuted():
    # two overlapping disks in one frame: depth bound 2, no witness, so a
    # 1-fold packing check samples and finds the overlap
    ball = geom.Ball(np.zeros(3), 1.0)
    frame = geom.orthonormalize(np.eye(3)[:2])
    family = [cylinders.Cylinder(frame, geom.Ball(np.array([c, 0.0]), 0.3))
              for c in (-0.2, 0.2)]
    cert = multiplicity._layer_certificate(ball, family)
    assert cert.max_mult == 2 and cert.min_mult is None and cert.witness_max is None
    verdict = multiplicity.decide(ball, family, 1, 4000, seed=1)
    assert not verdict.ok and verdict.report.samples == 4000


def test_layer_depth_of_many_disks_keeps_memory_flat():
    # 4000 disjoint disks in one frame, and one more over a grid point: the
    # depth pairs are formed in row blocks, not as one n x n x m array
    # (a peak of about 770 MB at n = 4000)
    ball = geom.Ball(np.zeros(3), 1.0)
    frame = geom.orthonormalize(np.eye(3)[:2])
    grid = np.linspace(-0.6, 0.6, 64)
    centers = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)[:4000]
    radius = 0.4 * (grid[1] - grid[0])
    family = [cylinders.Cylinder(frame, geom.Ball(c, radius)) for c in centers]
    tracemalloc.start()
    try:
        cert = multiplicity._layer_certificate(ball, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.certificate == multiplicity.LAYER_CERTIFICATE and cert.max_mult == 1
    assert peak < 16 << 20, peak
    overlap = cylinders.Cylinder(frame, geom.Ball(centers[-1], radius))
    assert multiplicity._layer_certificate(ball, family + [overlap]).max_mult == 2
