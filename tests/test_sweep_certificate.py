"""The arrangement sweep certifies planar strip packings in disk and polygon
bodies, the step ``multiplicity.decide`` runs after layer-depth and before
sampling.

Its count equals the per-line loop's (``falconer_oracle``) on a polygon
given as its vertices with radius 0 and on a disk given as one disk, and is
never below a sampled ``max_mult``.  A failing count stands only with a
witness that ``multiplicity_counts`` confirms in the body; otherwise the
sampler decides.  Coverings never reach the sweep, so a sampled polygon
covering keeps its bytes.
"""

import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest

import falconer_oracle
from conftest import CONSTRUCT_KINDS
from cylpack import cli, falconer, geom, instances, multiplicity

# sha256 of the sampled polygon covering's verify output, as before the sweep
PINNED_COVERING = "02500e1a45ba179662febcf8ee5af7a1ed8d95c8cfdca84d11a67eb829857705"


def _verify(path, *flags) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", str(path), *flags])
    return code, buf.getvalue()


def _region(body) -> falconer.DiskFamily:
    """The body as the disk family whose hull it is: a polygon's vertices
    with radius 0, or the one disk of a ball."""
    if isinstance(body, geom.Ball):
        return falconer.DiskFamily(body.center[None], [body.radius])
    return falconer.DiskFamily(body.vertices, np.zeros(len(body.vertices)))


def _overlapping_strips(body, gen, n) -> list:
    """n strips with random normals and random intervals inside the body's
    projected range; they overlap freely."""
    strips = []
    for _ in range(n):
        theta = gen.uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(theta), math.sin(theta)])
        a, b = np.sort(gen.uniform(-geom.support(body, -u), geom.support(body, u), 2))
        strips.append(falconer.plank(u, float(a), float(b)))
    return strips


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_strips_checked_at_r_minus_1_are_certified(tmp_path, seed):
    # the two crossing layers of a polygon-strips file overlap: the sweep
    # fails them with a witness in two strips, whatever --samples and --seed
    path = tmp_path / "strips.json"
    assert cli.main(["construct", *CONSTRUCT_KINDS["strips"], "--seed", str(seed),
                     "--out", str(path)]) == 0
    obj = instances.load_json(path)
    obj["r"] -= 1
    instances.dump_json(obj, path)
    code, out = _verify(path)
    assert code == 1
    for flags in (["--samples", "1000", "--seed", "7"], ["--samples", "20000"]):
        assert _verify(path, *flags) == (code, out), flags
    mult = json.loads(out)["multiplicity"]
    assert mult["certificate"] == multiplicity.SWEEP_CERTIFICATE
    assert mult["samples"] == 0 and mult["seed"] is None
    inst = instances.parse_instance(obj)
    witness = np.array([mult["witness"]])
    assert geom.contains_points(inst["body"], witness)[0]
    strict, _ = multiplicity.multiplicity_counts(inst["body"], inst["family"], witness)
    assert strict[0] == mult["max_mult"] == 2


def test_crossing_layers_in_a_disk_fail_with_the_sweep_witness():
    # layer-depth bounds two crossing layers by 2 with no witness; the sweep
    # finds the cell where they cross
    disk = geom.Ball(np.array([0.3, -0.2]), 1.5)
    family = instances.random_strip_packing(disk, 3, 2, seed=4)
    verdict = multiplicity.decide(disk, family, 1, 2000, 0)
    assert not verdict.ok and verdict.reason == "interior multiplicity 2 exceeds r=1"
    assert verdict.report.certificate == multiplicity.SWEEP_CERTIFICATE
    assert verdict.report.samples == 0
    strict, _ = multiplicity.multiplicity_counts(disk, family, np.array([verdict.witness]))
    assert strict[0] == 2
    assert multiplicity.decide(disk, family, 2, 2000, 0).report.certificate \
        == multiplicity.LAYER_CERTIFICATE


@pytest.mark.parametrize("kind", ["polygon", "disk"])
def test_sweep_matches_the_loop_on_body_regions(kind):
    for seed in range(40):
        gen = np.random.default_rng(seed)
        if kind == "polygon":
            body = instances.random_polygon(gen)
        else:
            body = geom.Ball(gen.uniform(-1.0, 1.0, 2), gen.uniform(0.2, 2.0))
        region = _region(body)
        for family in (instances.random_strip_packing(body, 2 + seed % 3, 1 + seed % 3, seed),
                       _overlapping_strips(body, gen, 3 + seed % 4)):
            report = multiplicity._sweep_certificate(body, family)
            want, _ = falconer_oracle.exact_plank_multiplicity(region, family)
            assert report.max_mult == want, seed
            sampled = multiplicity.estimate_multiplicity(body, family, 2000, seed)
            assert sampled.max_mult <= report.max_mult, seed
            if report.witness_max is not None:
                strict, _ = multiplicity.multiplicity_counts(
                    body, family, np.array([report.witness_max]))
                assert strict[0] == report.max_mult, seed


def test_an_unconfirmed_sweep_count_leaves_the_verdict_to_the_sampler():
    # two strips that overlap by 1.5e-12: their lines lie farther apart than
    # ON_LINE, so the open count is 2, but the sliver is too thin for a
    # point 1e-12 (the strict-interior margin) inside both, so there is no
    # witness, and the sampler passes the 1-fold packing
    square = geom.Polytope(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    family = [falconer.plank([1.0, 0.0], 0.1, 0.5),
              falconer.plank([1.0, 0.0], 0.5 - 1.5e-12, 0.9)]
    report = multiplicity._sweep_certificate(square, family)
    assert report.max_mult == 2 and report.witness_max is None
    verdict = multiplicity.decide(square, family, 1, 2000, 0)
    assert verdict.ok and verdict.report.certificate is None
    assert verdict.report.samples == 2000 and verdict.report.max_mult == 1


def test_polygon_covering_keeps_its_bytes_and_never_sweeps(tmp_path, monkeypatch):
    # strips leave gaps in the polygon, so no certificate decides the
    # covering, and its sampled report keeps its bytes
    polygon = instances.random_polygon(np.random.default_rng(5))
    family = instances.random_strip_packing(polygon, 3, 2, seed=5)
    path = tmp_path / "cover.json"
    instances.dump_json(instances.covering_instance(polygon, family, 1, {}), path)
    sweeps = []
    real = multiplicity.exact_plank_multiplicity
    monkeypatch.setattr(multiplicity, "exact_plank_multiplicity",
                        lambda *args: sweeps.append(args) or real(*args))
    code, out = _verify(path, "--samples", "2000")
    assert code == 1 and json.loads(out)["multiplicity"]["samples"] == 2000
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_COVERING
    assert sweeps == []
