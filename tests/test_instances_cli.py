import itertools
import json
import math
import warnings

import numpy as np
import pytest

from cylpack import cli, cylinders, falconer, geom, instances, multiplicity
import falconer_oracle
from conftest import CONSTRUCT_KINDS, construct_all


# --- generators ----------------------------------------------------------------

def test_plank_partition_is_packing_and_covering():
    ball = geom.Ball(np.zeros(2), 1.0)
    fam = instances.plank_partition(ball, 5, r=2)
    assert multiplicity.verify_packing(ball, fam, 2, 4000, seed=1).ok
    assert multiplicity.verify_covering(ball, fam, 2, 4000, seed=1).ok
    assert cylinders.sum_crv(ball, fam) == pytest.approx(2.0, abs=1e-12)


def test_random_base_packing_valid(rng):
    for seed in range(6):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(d, 3)))
        body = instances.random_ellipsoid(d, np.random.default_rng(seed))
        r = int(rng.integers(1, 4))
        fam = instances.random_base_packing(body, k, 3, r, seed=seed)
        assert len(fam) == 3 * r
        res = multiplicity.verify_packing(body, fam, r, 3000, seed=seed)
        assert res.ok, res.reason
        assert cylinders.sum_crv(body, fam) <= r + 1e-12


def test_random_box_covering_valid(rng):
    for seed in range(4):
        d = int(rng.integers(2, 5))
        k = d - 1 if d <= 3 else int(rng.integers(d - 2, d))
        body = instances.random_ellipsoid(d, np.random.default_rng(seed + 7))
        fam = instances.random_box_covering(body, k, 2, seed=seed)
        res = multiplicity.verify_covering(body, fam, 2, 3000, seed=seed)
        assert res.ok, res.reason


def test_random_strip_packing_valid():
    poly = instances.random_polygon(np.random.default_rng(5))
    fam = instances.random_strip_packing(poly, 4, 2, seed=5)
    assert multiplicity.verify_packing(poly, fam, 2, 3000, seed=5).ok


def test_random_ns_family_is_ns():
    fam = instances.random_ns_family(4, seed=3)
    separable, _ = falconer.is_separable(fam)
    assert not separable
    assert len(fam) == 4


def test_instance_json_roundtrip(tmp_path):
    ball = geom.Ball(np.zeros(3), 1.0)
    fam = instances.plank_partition(ball, 3)
    obj = instances.packing_instance(ball, fam, 1, {"generator": "test", "seed": 0})
    path = tmp_path / "inst.json"
    instances.dump_json(obj, path)
    back = instances.parse_instance(instances.load_json(path))
    assert back["kind"] == instances.KIND_PACKING
    assert back["r"] == 1
    assert len(back["family"]) == 3
    assert json.dumps(instances.packing_instance(
        back["body"], back["family"], back["r"], {"generator": "test", "seed": 0}),
        sort_keys=True) == json.dumps(obj, sort_keys=True)


def test_parse_rejects_bad_schema():
    with pytest.raises(Exception):
        instances.parse_instance({"schema_version": 99, "kind": "nope"})


# --- CLI ------------------------------------------------------------------------

def test_cli_verify_partition_exit0(tmp_path, capsys):
    inst = tmp_path / "part.json"
    rc = cli.main(["construct", "--kind", "plank-partition", "--dim", "2",
                   "--n", "5", "--out", str(inst)])
    assert rc == 0
    rc = cli.main(["verify", str(inst), "--samples", "3000"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["passed"]
    assert out["reports"][0]["theorem_id"] == "packing_upper_ellipsoid"


def test_cli_verify_overpacked_exit1(tmp_path, capsys):
    ball = geom.Ball(np.zeros(2), 1.0)
    fam = instances.plank_partition(ball, 3)
    fam.append(fam[0])  # duplicate strip: no longer a 1-fold packing
    obj = instances.packing_instance(ball, fam, 1, {"generator": "dup", "seed": 0})
    inst = tmp_path / "dup.json"
    instances.dump_json(obj, inst)
    rc = cli.main(["verify", str(inst), "--samples", "3000"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert not out["passed"]
    assert out["multiplicity"]["witness"] is not None


def test_cli_overpacked_disk_planks_report_their_witness(tmp_path, capsys):
    inst = tmp_path / "ns.json"
    assert cli.main(["construct", "--kind", "ns-family", "--n", "4", "--r", "2",
                     "--seed", "1", "--out", str(inst)]) == 0
    obj = instances.load_json(inst)
    obj["r"] -= 1
    instances.dump_json(obj, inst)
    parsed = instances.parse_instance(obj)
    capsys.readouterr()
    assert cli.main(["verify", str(inst)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is False and out["reports"] == []
    mult = out["multiplicity"]
    assert mult["max_mult"] > obj["r"]
    assert "exceeds" in mult["reason"]
    # the sweep's witness lies in the hull and in max_mult open planks
    point = np.array(mult["witness"])
    theta = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)
    family = parsed["disk_family"]
    assert all(u @ point <= family.support(u) + 1e-12
               for u in np.column_stack([np.cos(theta), np.sin(theta)]))
    assert sum(p.a < p.u @ point < p.b for p in parsed["planks"]) \
        == mult["max_mult"]
    assert cli.main(["bounds", str(inst)]) == 1
    assert json.loads(capsys.readouterr().out) == {"reports": []}


def test_cli_verify_malformed_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["verify", str(bad)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 2 and "error" in out


def _set_nan_center(obj):
    obj["body"]["center"][0] = float("nan")


def _set_inf_disk_radius(obj):
    obj["cylinders"][0]["base"]["radius"] = float("inf")


def _set_r(value):
    def mutate(obj):
        obj["r"] = value
    return mutate


def _set_k(obj):
    obj["k"] = 7  # the cylinders keep codimension 2


def _ball_packing(tmp_path):
    ball = geom.Ball(np.zeros(3), 1.0)
    fam = instances.random_base_packing(ball, 1, 2, 1, seed=0, base_kind="disk")
    return instances.packing_instance(ball, fam, 1, {"generator": "test", "seed": 0})


def _ellipsoid_packing(tmp_path):
    path = tmp_path / "pack4.json"
    assert cli.main(["construct", "--kind", "packing", "--dim", "4", "--k", "2",
                     "--seed", "3", "--out", str(path)]) == 0
    return instances.load_json(path)


def _set_instance_k(value):
    def mutate(obj):
        obj["k"] = value
    return mutate


def _set_cylinder_k(value):
    def mutate(obj):
        obj["cylinders"][0]["k"] = value
    return mutate


def _set_antipodal(value):
    def mutate(obj):
        for cyl in obj["cylinders"]:
            cyl["base"]["antipodal"] = value
    return mutate


def _plank_partition(tmp_path):
    # the r = 2 partition covers every point twice: r read as 1 fails, as 2 passes
    path = tmp_path / "plank.json"
    assert cli.main(["construct", *CONSTRUCT_KINDS["plank"], "--seed", "1",
                     "--out", str(path)]) == 0
    return instances.load_json(path)


def _one_sided_caps(tmp_path):
    ball = geom.Ball(np.zeros(2), 1.0)
    frame = geom.Frame(np.array([[1.0], [0.0]]))
    caps = [cylinders.Cylinder(frame, cylinders.CapBase(np.array([s]), 0.5,
                                                        antipodal=False))
            for s in (1.0, -1.0)]
    return instances.packing_instance(ball, caps, 1, {"generator": "test", "seed": 0})


@pytest.mark.parametrize("build,mutate",
                         [(_ball_packing, _set_nan_center),
                          (_ball_packing, _set_inf_disk_radius),
                          (_ball_packing, _set_r(0)), (_ball_packing, _set_r(-3)),
                          (_ball_packing, _set_r(math.inf)),
                          (_ball_packing, _set_r(1e300)),
                          (_ellipsoid_packing, _set_k),
                          (_plank_partition, _set_r(1.9)),
                          (_plank_partition, _set_r(2.5)),
                          (_plank_partition, _set_r(True)),
                          (_plank_partition, _set_r("2")),
                          (_plank_partition, _set_instance_k(1.5)),
                          (_plank_partition, _set_cylinder_k(1.0)),
                          (_one_sided_caps, _set_antipodal("false"))],
                         ids=["nan-center", "inf-disk-radius", "r=0", "r=-3",
                              "r=inf", "r=1e300", "k=7", "r=1.9", "r=2.5",
                              "r=true", "r='2'", "k=1.5", "cylinder-k=1.0",
                              "antipodal='false'"])
def test_cli_verify_invalid_fields_exit2(tmp_path, capsys, build, mutate):
    obj = build(tmp_path)
    mutate(obj)
    inst = tmp_path / "bad.json"
    instances.dump_json(obj, inst)
    rc = cli.main(["verify", str(inst), "--samples", "2000"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 2 and "error" in out


def _add_disk_center_component(obj):
    obj["disks"][0]["center"].append(0.5)


def _drop_plank_normal_component(obj):
    obj["planks"][0]["u"] = obj["planks"][0]["u"][:1]


@pytest.mark.parametrize("command", ["falconer", "verify"])
@pytest.mark.parametrize("mutate,field,count",
                         [(_add_disk_center_component, "disk center", 3),
                          (_drop_plank_normal_component, "plank normal", 1)],
                         ids=["3-component-center", "1-component-normal"])
def test_cli_ns_family_wrong_vector_length_exit2(tmp_path, capsys, command,
                                                 mutate, field, count):
    inst = tmp_path / "ns.json"
    assert cli.main(["construct", "--kind", "ns-family", "--n", "4", "--r", "2",
                     "--seed", "5", "--out", str(inst)]) == 0
    obj = instances.load_json(inst)
    mutate(obj)
    instances.dump_json(obj, inst)
    rc = cli.main([command, str(inst)])
    err = json.loads(capsys.readouterr().out)["error"]
    assert rc == 2
    assert err["type"] == "DimensionMismatch"
    assert field in err["message"] and f"got {count}" in err["message"]


def _set_infinite_plank_offset(obj):
    obj["planks"][0]["interval"][0] = -math.inf


def _set_huge_disk_radius(obj):
    obj["disks"][0]["radius"] = 1e200  # its hull overflows double precision


@pytest.mark.parametrize("mutate", [_set_infinite_plank_offset,
                                    _set_huge_disk_radius],
                         ids=["inf-plank-offset", "huge-disk-radius"])
def test_cli_ns_family_unusable_numbers_exit2(tmp_path, capsys, mutate):
    inst = tmp_path / "ns.json"
    assert cli.main(["construct", "--kind", "ns-family", "--n", "4", "--r", "2",
                     "--seed", "5", "--out", str(inst)]) == 0
    obj = instances.load_json(inst)
    mutate(obj)
    instances.dump_json(obj, inst)
    rc = cli.main(["verify", str(inst), "--samples", "2000"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "DomainError"


def _ns_huge_disk_radius(tmp_path):
    path = tmp_path / "ns.json"
    assert cli.main(["construct", "--kind", "ns-family", "--n", "4", "--r", "2",
                     "--seed", "5", "--out", str(path)]) == 0
    obj = instances.load_json(path)
    _set_huge_disk_radius(obj)
    instances.dump_json(obj, path)
    return path


def _antipodal_caps_k3(tmp_path):
    # antipodal caps make the restricted cylinders of the general bound non-convex
    path = tmp_path / "cap.json"
    assert cli.main(["construct", "--kind", "cap", "--dim", "5", "--k", "3",
                     "--delta", "0.3", "--seed", "2", "--out", str(path)]) == 0
    return path


def _polytope_d5_k1(tmp_path):
    # the largest hyperplane shadow of a polytope is computed for d <= 4 only
    cube = geom.Polytope(np.array(list(itertools.product((0.0, 1.0), repeat=5))))
    base = cylinders.DiskBase(np.full(4, 0.5), 0.2)
    family = [cylinders.Cylinder(geom.Frame(np.eye(5)[:, :4]), base)]
    path = tmp_path / "cube5.json"
    instances.dump_json(instances.packing_instance(cube, family, 1, {}), path)
    return path


def _cap_huge_body_radius(tmp_path):
    # the shadow volume of a ball of radius 1.34e154 overflows to +inf
    path = tmp_path / "cap.json"
    assert cli.main(["construct", "--kind", "cap", "--dim", "4", "--k", "1",
                     "--seed", "1", "--out", str(path)]) == 0
    obj = instances.load_json(path)
    obj["body"]["radius"] = 1.3407807929942597e+154
    instances.dump_json(obj, path)
    return path


@pytest.mark.parametrize("command", ["verify", "bounds", "falconer"])
@pytest.mark.parametrize("make", [_ns_huge_disk_radius, _antipodal_caps_k3,
                                  _polytope_d5_k1, _cap_huge_body_radius],
                         ids=["huge-disk-radius", "antipodal-caps-k3",
                              "polytope-d5-k1", "cap-huge-body-radius"])
def test_cli_out_of_domain_instance_exits_2(tmp_path, capsys, command, make):
    inst = make(tmp_path)
    capsys.readouterr()
    assert cli.main([command, str(inst)]) == 2
    # bounds prints the error object first, then the (empty) table
    err = json.JSONDecoder().raw_decode(capsys.readouterr().out)[0]["error"]
    if command != "falconer" or make is _ns_huge_disk_radius:
        assert err["type"] in ("DomainError", "UnsupportedDimension")


def test_cli_bounds_exit_2_outranks_a_failed_check(tmp_path, capsys):
    files = construct_all(tmp_path, seed=1)
    overpacked = tmp_path / "overpacked.json"
    obj = instances.load_json(files["strips"])
    obj["r"] -= 1
    instances.dump_json(obj, overpacked)
    unusable = _polytope_d5_k1(tmp_path)
    assert cli.main(["bounds", str(files["plank"]), str(overpacked),
                     "--samples", "2000"]) == 1
    assert cli.main(["bounds", str(files["plank"]), str(overpacked),
                     str(unusable), "--samples", "2000"]) == 2


def test_cli_ns_family_far_disk_is_separable_without_overflow(tmp_path, capsys):
    # centres 1e300 apart: their squared distance overflows, their distance not
    inst = tmp_path / "ns.json"
    assert cli.main(["construct", "--kind", "ns-family", "--n", "4", "--r", "2",
                     "--seed", "5", "--out", str(inst)]) == 0
    obj = instances.load_json(inst)
    obj["disks"][0]["center"][0] = 1e300
    instances.dump_json(obj, inst)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["verify", str(inst)])
        family = instances.parse_instance(instances.load_json(inst))["disk_family"]
        separable, line = falconer.is_separable(family)
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "NotNS"
    assert separable
    u = np.asarray(line.u)
    clear = np.abs(family.centers @ u - line.offset) - family.radii
    side = family.centers @ u - line.offset > 0
    assert np.all(clear > 0) and side.any() and (~side).any()


def test_cli_construct_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        rc = cli.main(["construct", "--kind", "cap", "--dim", "4", "--k", "1",
                       "--delta", "0.3", "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_construct_rejects_bad_params(tmp_path, capsys):
    rc = cli.main(["construct", "--kind", "cap", "--dim", "3", "--out",
                   str(tmp_path / "x.json")])
    out = json.loads(capsys.readouterr().out)
    assert rc == 2 and "error" in out


def test_cli_bounds_table(tmp_path, capsys):
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    cli.main(["construct", "--kind", "plank-partition", "--dim", "2", "--n",
              "4", "--out", str(p1)])
    cli.main(["construct", "--kind", "covering", "--dim", "2", "--k", "1",
              "--seed", "3", "--out", str(p2)])
    out_csv = tmp_path / "table.csv"
    rc = cli.main(["bounds", str(p1), str(p2), "--samples", "3000",
                   "--format", "csv", "--out", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("theorem_id")
    assert len(lines) == 3
    # filter leaves a single row
    rc = cli.main(["bounds", str(p1), str(p2), "--samples", "3000",
                   "--theorem", "covering", "--format", "csv"])
    text = capsys.readouterr().out
    assert rc == 0 and len(text.strip().splitlines()) == 2


def test_cli_bounds_thread_count_does_not_change_output(tmp_path, monkeypatch):
    paths = []
    for i, kind in enumerate(["plank-partition", "covering"]):
        path = tmp_path / f"i{i}.json"
        cli.main(["construct", "--kind", kind, "--dim", "2", "--k", "1",
                  "--n", "4", "--seed", str(i), "--out", str(path)])
        paths.append(str(path))
    outs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("CYLPACK_THREADS", threads)
        out = tmp_path / f"t{threads}.csv"
        rc = cli.main(["bounds", *paths, "--samples", "3000",
                       "--format", "csv", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_bounds_no_instances_exit2(capsys):
    rc = cli.main(["bounds"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 2 and "error" in out


def test_cli_bounds_full_fixture_suite(tmp_path, capsys):
    fixtures = {
        "part": ["construct", "--kind", "plank-partition", "--dim", "2",
                 "--n", "4"],
        "pack": ["construct", "--kind", "packing", "--dim", "3", "--k", "1",
                 "--r", "2", "--seed", "5"],
        "cover": ["construct", "--kind", "covering", "--dim", "2", "--k", "1",
                  "--seed", "5"],
        "strips": ["construct", "--kind", "polygon-strips", "--n", "3",
                   "--r", "2", "--seed", "5"],
        "ns": ["construct", "--kind", "ns-family", "--n", "4", "--r", "2",
               "--seed", "5"],
    }
    paths = []
    for name, cmd in fixtures.items():
        path = tmp_path / f"{name}.json"
        assert cli.main(cmd + ["--out", str(path)]) == 0
        paths.append(str(path))
    rc = cli.main(["bounds", *paths, "--samples", "3000", "--format", "csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    rows = lines[1:]
    assert len(rows) >= 8
    assert all(",True," in row for row in rows)


def test_cli_falconer_svg(tmp_path, capsys):
    inst = tmp_path / "ns.json"
    rc = cli.main(["construct", "--kind", "ns-family", "--n", "4", "--seed",
                   "3", "--r", "2", "--out", str(inst)])
    assert rc == 0
    svg = tmp_path / "fam.svg"
    rc = cli.main(["falconer", str(inst), "--svg", str(svg)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert not out["separable"]
    assert svg.read_text().startswith("<svg")
    assert any(r["theorem_id"] == "plank_width_sum" for r in out["reports"])


def test_cli_verify_polygon_strips(tmp_path, capsys):
    inst = tmp_path / "strips.json"
    rc = cli.main(["construct", "--kind", "polygon-strips", "--n", "3",
                   "--r", "2", "--seed", "11", "--out", str(inst)])
    assert rc == 0
    rc = cli.main(["verify", str(inst), "--samples", "3000"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["passed"]
    assert out["reports"][0]["theorem_id"] == "plank_base_volume"


def test_cli_verify_cap_family(tmp_path, capsys):
    inst = tmp_path / "cap.json"
    rc = cli.main(["construct", "--kind", "cap", "--dim", "4", "--k", "2",
                   "--delta", "0.3", "--seed", "2", "--out", str(inst)])
    assert rc == 0
    rc = cli.main(["verify", str(inst), "--samples", "5000"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["passed"]
    assert out["multiplicity"]["max_mult"] == 1
    rc = cli.main(["verify", str(inst), "--samples", "999"])
    capsys.readouterr()
    assert rc == 2  # below the sampler's documented minimum: usage error


def test_cli_verify_deterministic_output(tmp_path):
    inst = tmp_path / "part.json"
    cli.main(["construct", "--kind", "plank-partition", "--dim", "2", "--n",
              "4", "--out", str(inst)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli.main(["verify", str(inst), "--samples", "3000", "--out", str(r1)])
    cli.main(["verify", str(inst), "--samples", "3000", "--out", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_samples_each_instance_once(tmp_path, monkeypatch, capsys):
    files = construct_all(tmp_path, seed=4)
    paths = [str(p) for p in files.values()]
    overpacked = tmp_path / "overpacked.json"
    obj = instances.load_json(files["plank"])
    obj["r"] = 1
    instances.dump_json(obj, overpacked)
    calls = []
    real = multiplicity.estimate_multiplicity

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(multiplicity, "estimate_multiplicity", counting)
    sampled = [str(p) for name, p in files.items() if name != "ns"] + [str(overpacked)]
    for path in sampled:
        calls.clear()
        cli.main(["verify", path, "--samples", "2000"])
        assert len(calls) == 1, path
    calls.clear()
    assert cli.main(["bounds", *paths, str(overpacked), "--samples", "2000"]) == 1
    assert len(calls) == len(sampled)
    calls.clear()
    cli.main(["verify", str(files["ns"]), "--samples", "2000"])
    assert calls == []
    capsys.readouterr()


def _count_calls(monkeypatch, module, names) -> dict:
    """{name: list of calls}, filled as the module's functions are called."""
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(module, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name].append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_cli_verifies_disk_planks_in_one_pass(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "ns.json"
    assert cli.main(["construct", *CONSTRUCT_KINDS["ns"], "--seed", "1",
                     "--out", str(inst)]) == 0
    calls = _count_calls(monkeypatch, falconer,
                         ["exact_plank_multiplicity", "_hull_polygon",
                          "circumradius", "is_separable"])
    assert cli.main(["verify", str(inst)]) == 0
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 1)
    capsys.readouterr()


def test_cli_tests_each_base_once_per_sample_block(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "plank.json"
    assert cli.main(["construct", *CONSTRUCT_KINDS["plank"], "--seed", "1",
                     "--out", str(inst)]) == 0
    calls = _count_calls(monkeypatch, cylinders, ["base_membership"])
    # 10 strip cylinders and 2 sample blocks: one call per cylinder and block
    assert cli.main(["verify", str(inst), "--samples", "10000"]) == 0
    assert len(instances.load_json(inst)["cylinders"]) == 10
    assert len(calls["base_membership"]) == 20
    capsys.readouterr()


def test_cli_falconer_reports_a_failed_packing_like_verify(tmp_path, capsys):
    inst = tmp_path / "ns.json"
    assert cli.main(["construct", *CONSTRUCT_KINDS["ns"], "--seed", "1",
                     "--out", str(inst)]) == 0
    obj = instances.load_json(inst)
    obj["r"] -= 1
    instances.dump_json(obj, inst)
    parsed = instances.parse_instance(obj)
    capsys.readouterr()
    assert cli.main(["falconer", str(inst)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert "error" not in out and out["reports"] == [] and not out["separable"]
    assert cli.main(["verify", str(inst)]) == 1
    assert json.loads(capsys.readouterr().out)["multiplicity"] == out["multiplicity"]
    mult = out["multiplicity"]
    assert mult["max_mult"] == 2 and "exceeds r=1" in mult["reason"]
    point = np.array(mult["witness"])
    assert falconer_oracle.certainly_in_hull(parsed["disk_family"], point)[0]
    assert falconer_oracle.open_counts(parsed["planks"], point)[0] == 2


def test_cli_ns_family_draws_no_sample(tmp_path, monkeypatch, capsys):
    # ns-family checks are exact on the hull, so --samples and --seed are unread
    paths = []
    for seed in (4, 5):
        path = tmp_path / f"ns{seed}.json"
        assert cli.main(["construct", *CONSTRUCT_KINDS["ns"], "--seed", str(seed),
                         "--out", str(path)]) == 0
        paths.append(str(path))
    real = geom.sample_in_body
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(geom, "sample_in_body", counting)
    for argv in (["verify", paths[0]], ["bounds", *paths]):
        assert cli.main(argv) == 0
        want = capsys.readouterr().out
        assert cli.main([*argv, "--samples", "50", "--seed", "9"]) == 0
        assert capsys.readouterr().out == want
    assert calls == []


def test_cli_reports_leave_out_evidence(tmp_path, capsys):
    files = construct_all(tmp_path, seed=4)
    paths = [str(p) for p in files.values()]
    for name, path in files.items():
        assert cli.main(["verify", str(path), "--samples", "2000"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reports"]
        assert all("evidence" not in rep for rep in out["reports"])
        if name != "ns":
            assert out["multiplicity"]["samples"] == 2000
    assert cli.main(["bounds", *paths, "--samples", "2000"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert len(reports) >= len(paths)
    assert all("evidence" not in rep for rep in reports)
