import contextlib
import hashlib
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from cylpack import cli, cylinders, falconer, geom, instances, multiplicity
import falconer_oracle
from conftest import CONSTRUCT_KINDS, box_bases, construct_all


# --- generators ----------------------------------------------------------------

def test_plank_partition_is_packing_and_covering():
    ball = geom.Ball(np.zeros(2), 1.0)
    fam = instances.plank_partition(ball, 5, r=2)
    assert multiplicity.decide(ball, fam, 2, 4000, seed=1).ok
    assert multiplicity.decide(ball, fam, 2, 4000, seed=1, covering=True).ok
    assert cylinders.sum_crv(ball, fam) == pytest.approx(2.0, abs=1e-12)


def test_random_base_packing_valid(rng):
    for seed in range(6):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, min(d, 3)))
        body = instances.random_ellipsoid(d, np.random.default_rng(seed))
        r = int(rng.integers(1, 4))
        fam = instances.random_base_packing(body, k, 3, r, seed=seed)
        assert len(fam) == 3 * r
        res = multiplicity.decide(body, fam, r, 3000, seed=seed)
        assert res.ok, res.reason
        assert cylinders.sum_crv(body, fam) <= r + 1e-12


def test_random_box_covering_valid(rng):
    for seed in range(4):
        d = int(rng.integers(2, 5))
        k = d - 1 if d <= 3 else int(rng.integers(d - 2, d))
        body = instances.random_ellipsoid(d, np.random.default_rng(seed + 7))
        fam = instances.random_box_covering(body, k, 2, seed=seed)
        res = multiplicity.decide(body, fam, 2, 3000, seed=seed, covering=True)
        assert res.ok, res.reason


def test_random_strip_packing_valid():
    poly = instances.random_polygon(np.random.default_rng(5))
    fam = instances.random_strip_packing(poly, 4, 2, seed=5)
    assert multiplicity.decide(poly, fam, 2, 3000, seed=5).ok


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
    assert all(u @ point <= falconer_oracle.support(family, u) + 1e-12
               for u in np.column_stack([np.cos(theta), np.sin(theta)]))
    assert falconer_oracle.open_counts(parsed["planks"], point)[0] == mult["max_mult"]
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
    fam = instances.random_base_packing(ball, 1, 2, 1, seed=0)
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


def _box_packing(tmp_path):
    ball = geom.Ball(np.zeros(3), 1.0)
    fam = box_bases(instances.random_base_packing(ball, 1, 2, 1, seed=0))
    return instances.packing_instance(ball, fam, 1, {"generator": "test", "seed": 0})


def _set_base_vertices(vertices):
    def mutate(obj):
        obj["cylinders"][0]["base"]["vertices"] = vertices
    return mutate


def _one_sided_caps(tmp_path):
    ball = geom.Ball(np.zeros(2), 1.0)
    frame = geom.Frame(np.array([[1.0], [0.0]]))
    caps = [cylinders.Cylinder(frame, cylinders.CapBase(np.array([s]), 0.5,
                                                        antipodal=False))
            for s in (1.0, -1.0)]
    return instances.packing_instance(ball, caps, 1, {"generator": "test", "seed": 0})


def _drop_cylinders(obj):
    obj["cylinders"] = []


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
                          (_plank_partition, _set_base_vertices([[0.1], [0.1]])),
                          (_box_packing, _set_base_vertices(
                              [[0.0, 0.0], [0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])),
                          (_one_sided_caps, _set_antipodal("false")),
                          (_ball_packing, _drop_cylinders),
                          (_plank_partition, _drop_cylinders)],
                         ids=["nan-center", "inf-disk-radius", "r=0", "r=-3",
                              "r=inf", "r=1e300", "k=7", "r=1.9", "r=2.5",
                              "r=true", "r='2'", "k=1.5", "cylinder-k=1.0",
                              "zero-length-interval", "collinear-box",
                              "antipodal='false'", "no-cylinders-ball",
                              "no-cylinders-plank"])
def test_cli_verify_invalid_fields_exit2(tmp_path, capsys, build, mutate):
    obj = build(tmp_path)
    mutate(obj)
    inst = tmp_path / "bad.json"
    instances.dump_json(obj, inst)
    rc = cli.main(["verify", str(inst), "--samples", "2000"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 2 and out["error"]["stage"] == "validate"


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
    base = geom.Ball(np.full(4, 0.5), 0.2)
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
    out = json.loads(capsys.readouterr().out)
    if command == "bounds":  # one document: the error beside the empty table
        assert out["reports"] == [] and len(out["errors"]) == 1
        err = out["errors"][0]
    else:
        err = out["error"]
    if command != "falconer" or make is _ns_huge_disk_radius:
        assert err["type"] in ("DomainError", "UnsupportedDimension")


def test_cli_bounds_writes_one_document(tmp_path, capsys):
    # an instance that parses but cannot be checked is listed under errors
    files = {name: tmp_path / f"{name}.json" for name in ("plank", "strips")}
    for name, path in files.items():
        assert cli.main(["construct", *CONSTRUCT_KINDS[name], "--seed", "1",
                         "--out", str(path)]) == 0
    unusable = _antipodal_caps_k3(tmp_path)
    capsys.readouterr()
    assert cli.main(["bounds", str(files["plank"]), str(unusable),
                     str(files["strips"]), "--samples", "2000"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert [e["stage"] for e in out["errors"]] == ["bounds:cap.json"]
    assert out["errors"][0]["type"] == "DomainError"
    assert [r["theorem_id"] for r in out["reports"]] == ["packing_upper_ellipsoid",
                                                         "plank_base_volume"]
    # a CSV table cannot hold them: they go to stderr as one object
    assert cli.main(["bounds", str(files["plank"]), str(unusable),
                     "--samples", "2000", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].startswith("packing_upper_ellipsoid,")
    assert json.loads(captured.err) == {"errors": out["errors"]}
    # error-free tables have no errors key
    assert cli.main(["bounds", str(files["plank"]), "--samples", "2000"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"reports"}


def test_cli_bounds_stops_at_an_unparsable_file(tmp_path, capsys):
    good, bad = tmp_path / "plank.json", tmp_path / "bad.json"
    assert cli.main(["construct", *CONSTRUCT_KINDS["plank"], "--out", str(good)]) == 0
    bad.write_text("{")
    capsys.readouterr()
    assert cli.main(["bounds", str(good), str(bad)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["error"] and out["error"]["stage"] == "parse"
    assert out["error"]["type"] == "JSONDecodeError"


def test_cli_failed_disk_planks_report_like_a_failed_packing(tmp_path, capsys):
    # r - 1 fails both the ns-family and the r = 2 plank partition
    files, mults = {name: tmp_path / f"{name}.json" for name in ("ns", "plank")}, {}
    for name, path in files.items():
        assert cli.main(["construct", *CONSTRUCT_KINDS[name], "--seed", "1",
                         "--out", str(path)]) == 0
        obj = instances.load_json(path)
        obj["r"] -= 1
        instances.dump_json(obj, path)
        capsys.readouterr()
        assert cli.main(["verify", str(path)]) == 1
        mults[name] = json.loads(capsys.readouterr().out)["multiplicity"]
    ns, plank = mults["ns"], mults["plank"]
    assert set(ns) == set(plank)
    assert (ns["certificate"], plank["certificate"]) == ("arrangement-sweep",
                                                         "layer-depth")
    assert ns["samples"] == 0 and ns["seed"] is None
    assert ns["reason"] == "interior multiplicity 2 exceeds r=1" == plank["reason"]
    assert ns["witness"] == ns["witness_max"]
    family = instances.parse_instance(instances.load_json(files["ns"]))["disk_family"]
    assert falconer_oracle.certainly_in_hull(family, ns["witness"])[0]


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
    assert rc == 2  # an error object, like every instance outside a check's domain
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "NotNS"
    assert cli.main(["bounds", str(inst)]) == 2
    table = json.loads(capsys.readouterr().out)
    assert table["reports"] == [] and table["errors"][0]["type"] == "NotNS"
    assert separable
    u = np.asarray(line.u)
    clear = np.abs(family.centers @ u - line.offset) - family.radii
    side = family.centers @ u - line.offset > 0
    assert np.all(clear > 0) and side.any() and (~side).any()


def _pack4_cylinders_around_pack3_body(tmp_path):
    # cylinders of R^4 (k = 2) around a body of R^3
    paths = {}
    for name in ("pack3", "pack4"):
        paths[name] = tmp_path / f"{name}.json"
        assert cli.main(["construct", *CONSTRUCT_KINDS[name], "--seed", "1",
                         "--out", str(paths[name])]) == 0
    obj = instances.load_json(paths["pack4"])
    obj["body"] = instances.load_json(paths["pack3"])["body"]
    mixed = tmp_path / "mixed.json"
    instances.dump_json(obj, mixed)
    return mixed, paths["pack3"]


MIXED_DIMENSION_ERROR = {
    "stage": "validate", "type": "DimensionMismatch",
    "message": "cylinder 0 is not of codimension 2 in R^3: k=2, frame rows (2, 4), "
               "base center (2,)"}


def test_cli_verify_cylinders_and_body_in_different_dimensions_exit_2(tmp_path,
                                                                      capsys):
    mixed, _ = _pack4_cylinders_around_pack3_body(tmp_path)
    capsys.readouterr()
    assert cli.main(["verify", str(mixed)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": MIXED_DIMENSION_ERROR}


def test_cli_bounds_cylinders_and_body_in_different_dimensions_exit_2(tmp_path,
                                                                      capsys):
    # a file that fails to validate ends the run with its error object alone
    mixed, pack3 = _pack4_cylinders_around_pack3_body(tmp_path)
    capsys.readouterr()
    assert cli.main(["bounds", str(pack3), str(mixed)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": MIXED_DIMENSION_ERROR}


def test_cli_construct_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        rc = cli.main(["construct", "--kind", "cap", "--dim", "4", "--k", "1",
                       "--delta", "0.3", "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


KINDS_READING_N = ("plank", "pack3", "strips", "ns")  # fixtures whose kind reads --n
KINDS_READING_DIM = ("plank", "pack3", "cover")  # the cap kind checks its own
BELOW_2 = ("0", "-1", "1")


@pytest.mark.parametrize("name,flags",
                         [(name, ["--r", "0"]) for name in sorted(CONSTRUCT_KINDS)]
                         + [("plank", ["--r", str(2**53 + 1)])]
                         + [(name, ["--n", "0"]) for name in KINDS_READING_N]
                         + [(name, ["--dim", d]) for name in KINDS_READING_DIM
                            for d in BELOW_2],
                         ids=[f"{name}-r=0" for name in sorted(CONSTRUCT_KINDS)]
                         + ["plank-r=2**53+1"]
                         + [f"{name}-n=0" for name in KINDS_READING_N]
                         + [f"{name}-dim={d}" for name in KINDS_READING_DIM
                            for d in BELOW_2])
def test_cli_construct_writes_no_unusable_file(tmp_path, capsys, name, flags):
    # a file verify would reject (r outside [1, 2**53]), an empty family or
    # no body (a --dim below 2)
    out = tmp_path / "x.json"
    rc = cli.main(["construct", *CONSTRUCT_KINDS[name], *flags, "--out", str(out)])
    err = json.loads(capsys.readouterr().out)["error"]
    assert rc == 2 and err["stage"] == "construct" and err["type"] == "DomainError"
    assert not out.exists()


@pytest.mark.parametrize("kind,k", [("covering", 3), ("covering", 4),
                                    ("covering", 0), ("packing", 3)])
def test_cli_construct_codimension_without_base_exits_2(tmp_path, capsys, kind, k):
    # d - k < 1 leaves no base dimension: a DomainError naming k, not numpy's
    out = tmp_path / "x.json"
    rc = cli.main(["construct", "--kind", kind, "--dim", "3", "--k", str(k),
                   "--out", str(out)])
    err = json.loads(capsys.readouterr().out)["error"]
    assert rc == 2 and err["stage"] == "construct" and err["type"] == "DomainError"
    assert f"k={k}" in err["message"]
    assert not out.exists()


def _cap_recipe(body: dict) -> dict:
    """A one-sided delta = 0.3 cap in the x1x2-plane of R^3 (k = 1), pole e1."""
    cap = {"k": 1, "frame": {"columns": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
           "base": {"kind": "cap", "pole": [1.0, 0.0], "delta": 0.3,
                    "antipodal": False}}
    return {"schema_version": 1, "kind": instances.KIND_PACKING, "k": 1, "r": 1,
            "body": body, "cylinders": [cap], "meta": {}}


def test_cli_cap_poking_out_between_boundary_samples_fails(tmp_path, capsys):
    # the prism over [-2, 2]^2 cut by a.z <= 1 - 5e-5, for the cap point a at
    # delta/14 from the pole: between the sampled rim-ward angles 0 and delta/7
    c, s = math.cos(0.3 / 14), math.sin(0.3 / 14)
    b = 1.0 - 5e-5
    polygon = [(-2.0, -2.0), ((b + 2 * s) / c, -2.0), ((b - 2 * s) / c, 2.0),
               (-2.0, 2.0)]
    prism = {"type": "polytope",
             "vertices": [[x, y, z] for x, y in polygon for z in (-1.0, 1.0)]}
    inst = tmp_path / "cap.json"
    instances.dump_json(_cap_recipe(prism), inst)
    assert cli.main(["verify", str(inst), "--samples", "2000"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["passed"]
    assert out["multiplicity"]["reason"] == "base 0 is not contained in the body shadow"


def test_cli_cap_in_an_ellipsoid_shadow_exits_2(tmp_path, capsys):
    ellipsoid = {"type": "ellipsoid", "center": [0.0, 0.0, 0.0],
                 "shape": np.diag([1 / 1.5**2, 1 / 1.2**2, 1.0]).tolist()}
    inst = tmp_path / "cap.json"
    instances.dump_json(_cap_recipe(ellipsoid), inst)
    assert cli.main(["verify", str(inst), "--samples", "2000"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["stage"] == "verify" and err["type"] == "DomainError"


def test_cli_construct_rejects_bad_params(tmp_path, capsys):
    # outside the cap construction's domain: d <= 3, delta >= pi/4, k = d
    for bad in (["--dim", "3"], ["--dim", "4", "--delta", "0.8"],
                ["--dim", "4", "--k", "4"]):
        path = tmp_path / "x.json"
        rc = cli.main(["construct", "--kind", "cap", *bad, "--out", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 2 and out["error"]["type"] == "DomainError", bad
        assert not path.exists()


def _underflowing_covering(tmp_path) -> str:
    """A sampled d = 3, k = 1 box covering whose ellipsoid shape is scaled by
    1e300, so its 2-d shadow volume underflows to zero."""
    path = str(tmp_path / "cov.json")
    assert cli.main(["construct", "--kind", "covering", "--dim", "3", "--k", "1",
                     "--seed", "3", "--out", path]) == 0
    obj = instances.load_json(path)
    obj["body"]["shape"] = (np.asarray(obj["body"]["shape"]) * 1e300).tolist()
    instances.dump_json(obj, path)
    return path


def _thin_strips(tmp_path, instance=instances.covering_instance) -> str:
    """Two layers of strips, written with r = 1, in a 1 x 1e-5 box rotated by
    45 degrees: the box fills too little of its bounding box to be sampled.
    As a covering, no certificate decides them."""
    c = math.cos(math.pi / 4)
    rot = np.array([[c, -c], [c, c]])
    body = geom.Polytope(np.array([[0, 0], [1, 0], [1, 1e-5], [0, 1e-5]]) @ rot.T)
    family = instances.random_strip_packing(body, 3, 2, seed=1)
    path = str(tmp_path / "thin.json")
    instances.dump_json(instance(body, family, 1, {}), path)
    return path


@pytest.mark.parametrize("make,error", [(_underflowing_covering, "DegenerateProjection"),
                                        (_thin_strips, "SamplingFailure")])
def test_cli_numerically_unusable_input_exits_2(tmp_path, capsys, make, error):
    # no check can run, so there is no witness: unusable input, not a failure
    path = make(tmp_path)
    capsys.readouterr()
    assert cli.main(["verify", path, "--samples", "2000"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == error
    assert cli.main(["bounds", path, "--samples", "2000"]) == 2
    # one document: the error listed beside the (empty) table
    out = json.loads(capsys.readouterr().out)
    assert out["reports"] == [] and [e["type"] for e in out["errors"]] == [error]


def test_cli_ball_volume_overflow_exits_2(tmp_path, capsys):
    # a d = 1300 ball of radius 2 with one 2-d disk base: its 1298-d central
    # slice has omega_1298 2^1298, whose power overflows, so the general
    # packing bound stops with an error object instead of an OverflowError
    body = geom.Ball(np.zeros(1300), 2.0)
    family = [cylinders.Cylinder(geom.Frame(np.eye(1300)[:, :2]),
                                 geom.Ball(np.zeros(2), 0.5))]
    path = tmp_path / "ball1300.json"
    instances.dump_json(instances.packing_instance(body, family, 1, {}), path)
    capsys.readouterr()
    assert cli.main(["verify", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"message": "slice volume overflows", "stage": "verify",
                   "type": "DomainError"}
    assert cli.main(["bounds", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["reports"] == [] and [e["type"] for e in out["errors"]] == ["DomainError"]


def test_cli_certifies_the_thin_strip_packing(tmp_path, capsys):
    # the arrangement sweep decides the thin box's packing without a sample:
    # the two layers cross, and the witness lies in the box, in both
    path = _thin_strips(tmp_path, instances.packing_instance)
    capsys.readouterr()
    assert cli.main(["verify", path, "--samples", "2000"]) == 1
    mult = json.loads(capsys.readouterr().out)["multiplicity"]
    assert mult["certificate"] == multiplicity.SWEEP_CERTIFICATE
    assert mult["samples"] == 0 and mult["max_mult"] == 2
    inst = instances.parse_instance(instances.load_json(path))
    witness = np.array([mult["witness"]])
    assert geom.contains_points(inst["body"], witness)[0]
    assert multiplicity.multiplicity_counts(inst["body"], inst["family"], witness)[0][0] == 2


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


def test_cli_bounds_lists_instances_in_the_order_given(tmp_path, capsys):
    (tmp_path / "kinds").mkdir()
    files = list(construct_all(tmp_path / "kinds", seed=1).values())
    single = []
    for path in files:
        capsys.readouterr()
        assert cli.main(["bounds", str(path), "--samples", "2000"]) == 0
        single += json.loads(capsys.readouterr().out)["reports"]
    capsys.readouterr()
    assert cli.main(["bounds", *map(str, files), "--samples", "2000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"reports": single} and len(single) == 11
    # unusable instances between good ones are listed under errors in their order
    first, second = _antipodal_caps_k3(tmp_path), tmp_path / "cap2.json"
    second.write_bytes(first.read_bytes())
    order = [files[0], first, *files[1:5], second, *files[5:]]
    capsys.readouterr()
    assert cli.main(["bounds", *map(str, order), "--samples", "2000"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["reports"] == single
    assert [e["stage"] for e in out["errors"]] == ["bounds:cap.json",
                                                   "bounds:cap2.json"]


@pytest.mark.parametrize("command", ["construct", "verify", "bounds", "falconer"])
def test_cli_unwritable_output_path_exits_2(tmp_path, capsys, command):
    ns = tmp_path / "ns.json"
    assert cli.main(["construct", *CONSTRUCT_KINDS["ns"], "--out", str(ns)]) == 0
    missing = str(tmp_path / "missing" / "out")
    argv = {"construct": ["construct", *CONSTRUCT_KINDS["plank"], "--out", missing],
            "verify": ["verify", str(ns), "--out", missing],
            "bounds": ["bounds", str(ns), "--out", missing],
            "falconer": ["falconer", str(ns), "--svg", missing]}[command]
    capsys.readouterr()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["stage"] == "output" and err["type"] == "FileNotFoundError"
    assert not (tmp_path / "missing").exists()


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


def test_cli_falconer_separable_family_draws_its_line(tmp_path, capsys):
    # two far disks: separable, so no plank check runs and no reports are kept
    family = falconer.DiskFamily([[0.0, 0.0], [4.0, 0.0]], [1.0, 1.0])
    planks = [falconer.plank(np.array([1.0, 0.0]), 0.0, 0.5)]
    inst = tmp_path / "sep.json"
    instances.dump_json(instances.disk_planks_instance(family, planks, 1, {}), inst)
    svg = tmp_path / "sep.svg"
    assert cli.main(["falconer", str(inst), "--svg", str(svg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["separable"] and "reports" not in out and out["svg"] == "sep.svg"
    u, offset = out["separating_line"]["u"], out["separating_line"]["offset"]
    assert all(abs(u[0] * x - offset) > 1.0 for x in (0.0, 4.0))
    assert svg.read_text().count('stroke-dasharray="6 4"') == 1


def test_cli_tiny_separable_pair_is_not_ns(tmp_path, capsys):
    # radius 0.6 s at (0, 0) and (s, s) with s = 1e-200: separable at every
    # scale, so falconer draws a strictly separating line and verify refuses
    s = 1e-200
    family = falconer.DiskFamily([[0.0, 0.0], [s, s]], [0.6 * s, 0.6 * s])
    planks = [falconer.plank(np.array([1.0, 0.0]), 0.0, 0.5 * s)]
    inst = tmp_path / "tiny.json"
    instances.dump_json(instances.disk_planks_instance(family, planks, 1, {}), inst)
    assert cli.main(["falconer", str(inst)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["separable"] is True
    u, offset = out["separating_line"]["u"], out["separating_line"]["offset"]
    signed = [u[0] * x + u[1] * y - offset for x, y in family.centers.tolist()]
    assert all(abs(d) > 0.6 * s for d in signed) and (signed[0] > 0) != (signed[1] > 0)
    assert cli.main(["verify", str(inst)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "NotNS"


def test_cli_polygon_strips_fall_back_to_even_intervals(tmp_path, capsys):
    # 60 random intervals per layer never all reach the minimum width, so
    # each layer is the even partition with gaps: equal widths
    inst = tmp_path / "strips.json"
    assert cli.main(["construct", "--kind", "polygon-strips", "--n", "60",
                     "--r", "2", "--seed", "1", "--out", str(inst)]) == 0
    family = instances.parse_instance(instances.load_json(inst))["family"]
    widths = np.array([np.ptp(c.base.vertices) for c in family]).reshape(2, 60)
    assert np.allclose(widths, widths[:, :1], rtol=1e-12, atol=0.0)
    capsys.readouterr()
    assert cli.main(["verify", str(inst)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] and out["multiplicity"]["certificate"] == "layer-depth"


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


def test_cli_samples_floor_holds_for_every_kind(tmp_path, capsys):
    # --samples below MIN_SAMPLES and --seed below 0 are usage errors for
    # every instance kind, certified ones and the exact disk-plank checks
    # included, and a negative seed for every construct kind, seeded or not;
    # falconer reads neither
    files = construct_all(tmp_path, seed=1)
    for flag, message in (
            (["--samples", "10"], f"need at least {multiplicity.MIN_SAMPLES} samples, got 10"),
            (["--seed", "-1"], "--seed must be at least 0, got -1")):
        for name, path in files.items():
            capsys.readouterr()
            assert cli.main(["verify", str(path), *flag]) == 2, name
            assert json.loads(capsys.readouterr().out) == {"error": {
                "stage": "verify", "type": "DomainError", "message": message}}, name
            assert cli.main(["bounds", str(path), *flag]) == 2, name
            assert json.loads(capsys.readouterr().out) == {"reports": [], "errors": [{
                "stage": f"bounds:{name}.json", "type": "DomainError",
                "message": message}]}
    for name, args in CONSTRUCT_KINDS.items():
        capsys.readouterr()
        assert cli.main(["construct", *args, "--seed", "-1",
                         "--out", str(tmp_path / "neg.json")]) == 2, name
        assert json.loads(capsys.readouterr().out) == {"error": {
            "stage": "construct", "type": "DomainError",
            "message": "--seed must be at least 0, got -1"}}, name
    assert not (tmp_path / "neg.json").exists()
    assert cli.main(["falconer", str(files["ns"])]) == 0


def test_cli_verify_deterministic_output(tmp_path):
    inst = tmp_path / "part.json"
    cli.main(["construct", "--kind", "plank-partition", "--dim", "2", "--n",
              "4", "--out", str(inst)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli.main(["verify", str(inst), "--samples", "3000", "--out", str(r1)])
    cli.main(["verify", str(inst), "--samples", "3000", "--out", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_plank_and_strip_files_are_byte_pinned(tmp_path, monkeypatch):
    # sha256 of the files these commands write, recorded while bases and
    # planks had types of their own: holding them as geom bodies and k = 1
    # cylinders must not move a byte (ns.report.json re-recorded when
    # disk-plank reports began to carry the sweep's multiplicity block, and
    # strips.json when random polygons took the monotone chain's vertex
    # order: the same hexagon, its vertex list turned by one)
    monkeypatch.chdir(tmp_path)
    for args in (
            ["construct", "--kind", "ns-family", "--n", "4", "--seed", "3", "--r", "2",
             "--out", "ns.json"],
            ["construct", "--kind", "plank-partition", "--dim", "2", "--n", "5",
             "--out", "part.json"],
            ["construct", "--kind", "polygon-strips", "--n", "3", "--r", "2",
             "--seed", "4", "--out", "strips.json"],
            ["verify", "ns.json", "--out", "ns.report.json"],
            ["bounds", "ns.json", "--format", "csv", "--out", "ns.table.csv"]):
        assert cli.main(args) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir())}
    assert digests == {
        "ns.json": "779702d0f20f01060d7c23c8459787bdfbdac77a8e24377164325843defd7fdb",
        "ns.report.json": "b5bb3d83de2d4cc92e7ec4e18ae68cdac7f544c00f42ab83c3312f989904822c",
        "ns.table.csv": "530e3cba5c8b3ee722ebff3df6d5e289ea66d37400777f04b20f9fc88d394a77",
        "part.json": "c92c1369abaa9893111d3f096693bf6ec8c1facc47d1c4a0ff3986898de20a9d",
        "strips.json": "dcfd30f209d1b8fd3f6c78bb647b954e438c3f8827150be53f3f961b1b0c08c3",
    }


def test_cli_samples_each_instance_once(tmp_path, monkeypatch, capsys):
    # every construct kind is decided by one certificate pass and samples
    # nothing; a family with 2-d box bases, which no certificate decides, is
    # sampled once
    files = construct_all(tmp_path, seed=4)
    paths = [str(p) for p in files.values()]
    overpacked = tmp_path / "overpacked.json"
    obj = instances.load_json(files["plank"])
    obj["r"] = 1
    instances.dump_json(obj, overpacked)
    boxes = tmp_path / "boxes.json"
    assert cli.main(["construct", "--kind", "covering", "--dim", "3", "--k", "1",
                     "--seed", "4", "--out", str(boxes)]) == 0
    calls = _count_calls(monkeypatch, multiplicity,
                         ["certify", "estimate_multiplicity"])

    def counts():
        out = {name: len(c) for name, c in calls.items()}
        for c in calls.values():
            c.clear()
        return out

    certified = [str(p) for name, p in files.items() if name != "ns"] + [str(overpacked)]
    for path in certified:
        cli.main(["verify", path, "--samples", "2000"])
        assert counts() == {"certify": 1, "estimate_multiplicity": 0}, path
    assert cli.main(["verify", str(boxes), "--samples", "2000"]) == 0
    assert counts() == {"certify": 1, "estimate_multiplicity": 1}
    assert cli.main(["bounds", *paths, str(overpacked), str(boxes),
                     "--samples", "2000"]) == 1
    assert counts() == {"certify": len(certified) + 1, "estimate_multiplicity": 1}
    cli.main(["verify", str(files["ns"]), "--samples", "2000"])
    assert counts() == {"certify": 0, "estimate_multiplicity": 0}
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
    # verify, bounds and falconer --svg each decide the family's separation
    # and enclosing circle once, build its pair arcs once, for separability
    # and the hull, and sweep its planks once
    inst = tmp_path / "ns.json"
    assert cli.main(["construct", *CONSTRUCT_KINDS["ns"], "--seed", "1",
                     "--out", str(inst)]) == 0
    calls = _count_calls(monkeypatch, falconer,
                         ["_hull_segments", "circumradius", "is_separable", "_pair_arcs"])
    calls.update(_count_calls(monkeypatch, multiplicity, ["exact_plank_multiplicity"]))
    for argv in (["verify", str(inst)], ["bounds", str(inst)],
                 ["falconer", str(inst), "--svg", str(tmp_path / "ns.svg")]):
        for c in calls.values():
            c.clear()
        assert cli.main(argv) == 0
        assert {name: len(c) for name, c in calls.items()} == \
            dict.fromkeys(calls, 1), argv[0]
    capsys.readouterr()


def test_cli_tests_each_base_once_per_sample_block(tmp_path, monkeypatch, capsys):
    # 2-d box bases leave the covering to the sampler
    inst = tmp_path / "boxes.json"
    assert cli.main(["construct", "--kind", "covering", "--dim", "3", "--k", "1",
                     "--seed", "1", "--out", str(inst)]) == 0
    calls = _count_calls(monkeypatch, cylinders, ["base_membership"])
    # 9 box cylinders and 2 sample blocks: one call per cylinder and block
    assert cli.main(["verify", str(inst), "--samples", "10000"]) == 0
    assert len(instances.load_json(inst)["cylinders"]) == 9
    assert len(calls["base_membership"]) == 18
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
        assert cli.main([*argv, "--samples", "5000", "--seed", "9"]) == 0
        assert capsys.readouterr().out == want
    assert calls == []


def test_cli_reports_leave_out_evidence(tmp_path, capsys):
    files = construct_all(tmp_path, seed=4)
    paths = [str(p) for p in files.values()]
    for path in paths:
        assert cli.main(["verify", path, "--samples", "2000"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reports"]
        assert all("evidence" not in rep for rep in out["reports"])
        # certified, ns included: no sample drawn
        assert out["multiplicity"]["samples"] == 0
        assert out["multiplicity"]["certificate"] is not None
    assert cli.main(["bounds", *paths, "--samples", "2000"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert len(reports) >= len(paths)
    assert all("evidence" not in rep for rep in reports)


def test_cli_falconer_decides_separability_and_circumradius_once(
        tmp_path, capsys, monkeypatch):
    inst = tmp_path / "ns.json"
    assert cli.main(["construct", "--kind", "ns-family", "--n", "4", "--r", "2",
                     "--seed", "1", "--out", str(inst)]) == 0
    calls = {"is_separable": 0, "circumradius": 0}

    def counted(name):
        real = getattr(falconer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(falconer, name, counted(name))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["falconer", str(inst), "--svg", "fam.svg",
                     "--out", "rep.json"]) == 0
    assert calls == {"is_separable": 1, "circumradius": 1}
    # the bytes written when each check recomputed its own separability test
    # and enclosing circle (rep.json re-recorded when it gained the sweep's
    # multiplicity block)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("rep.json", "fam.svg")}
    assert digests == {
        "rep.json": "00e9d1dc1bdf9c64ef508f61d628197e411617c7795627e2238b471822075b06",
        "fam.svg": "eb6536a39b7fed1c20b94d6513a939b91422ca3deaf4dc2ad67ec7c4693413b5",
    }


@pytest.mark.parametrize("svg,out", [("f.svg", "missing/x.json"),
                                     ("missing/f.svg", "x.json"),
                                     ("missing/f.svg", None)],
                         ids=["report-unwritable", "svg-unwritable",
                              "svg-unwritable-stdout"])
def test_cli_falconer_writes_both_outputs_or_neither(tmp_path, monkeypatch,
                                                     capsys, svg, out):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["construct", *CONSTRUCT_KINDS["ns"], "--out", "ns.json"]) == 0
    capsys.readouterr()
    argv = ["falconer", "ns.json", "--svg", svg] + (["--out", out] if out else [])
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().out)["error"]  # one object, nothing else
    assert err["stage"] == "output" and err["type"] == "FileNotFoundError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ns.json"]


def test_cli_verify_of_a_tiny_ns_file_keeps_its_verdict(tmp_path, capsys):
    # the seed-1 ns file scaled by 1e-13 and checked at r = 1 fails as the
    # unscaled one does: its parallel boundary lines, 1e-13 apart, stay apart
    verdicts = []
    for scale in (1.0, 1e-13):
        inst = tmp_path / f"ns{scale}.json"
        assert cli.main(["construct", *CONSTRUCT_KINDS["ns"], "--seed", "1",
                         "--out", str(inst)]) == 0
        obj = instances.load_json(inst)
        for disk in obj["disks"]:
            disk["center"] = [x * scale for x in disk["center"]]
            disk["radius"] *= scale
        for p in obj["planks"]:
            p["interval"] = [x * scale for x in p["interval"]]
        obj["r"] = 1
        instances.dump_json(obj, inst)
        capsys.readouterr()
        assert cli.main(["verify", str(inst)]) == 1
        mult = json.loads(capsys.readouterr().out)["multiplicity"]
        verdicts.append((mult["max_mult"], mult["reason"]))
    assert verdicts == [(2, "interior multiplicity 2 exceeds r=1")] * 2


def _far_disk(obj):
    obj["disks"][0]["center"] = [1e300, 0.0]


def _far_pair(obj):
    obj["disks"][0]["center"] = [1e300, 1e300]
    obj["disks"][1]["center"] = [-1e300, -1e300]


def _huge_disks(obj):
    # the squares of these radii overflow double precision
    obj["disks"] = [{"center": c, "radius": 1e200}
                    for c in ([0.0, 0.0], [3e200, 0.0], [1.5e200, 2.6e200])]


@pytest.mark.parametrize("mutate,message",
                         [(_far_disk, "leaves a disk outside"),
                          (_far_pair, "not finite in double precision"),
                          (_huge_disks, "not finite in double precision")],
                         ids=["far-disk", "far-pair", "huge-disks"])
def test_cli_falconer_unusable_enclosing_circle_exits_2(tmp_path, capsys, mutate,
                                                       message):
    # the circle of a far disk leaves it outside, and that of a far pair is
    # not finite: an error object, not a traceback or a JSON Infinity
    inst = tmp_path / "ns.json"
    assert cli.main(["construct", "--kind", "ns-family", "--n", "4", "--r", "2",
                     "--seed", "5", "--out", str(inst)]) == 0
    obj = instances.load_json(inst)
    mutate(obj)
    instances.dump_json(obj, inst)
    capsys.readouterr()
    assert cli.main(["falconer", str(inst), "--svg", str(tmp_path / "f.svg")]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["stage"] == "falconer" and err["type"] == "DomainError"
    assert message in err["message"]
    assert not (tmp_path / "f.svg").exists()


@pytest.mark.parametrize("mutate,error,message", [
    (lambda o: o["disks"][1]["center"].append(1.0), "DimensionMismatch",
     "disk center needs 2 components, got 3"),
    (lambda o: o["disks"][1].update(center=[math.nan, 0.0]), "DomainError",
     "array fields must be finite"),
    (lambda o: o["disks"][1].update(center=[0.0, math.inf]), "DomainError",
     "array fields must be finite"),
    (lambda o: o["disks"][2].update(radius=-0.5), "DomainError",
     "disk radius must be nonnegative and finite"),
    (lambda o: o["disks"][2].update(radius=math.nan), "DomainError",
     "disk radius must be nonnegative and finite"),
    (lambda o: o["disks"][2].update(radius=math.inf), "DomainError",
     "disk radius must be nonnegative and finite"),
    (lambda o: o.update(disks=[]), "DomainError",
     "a disk family needs at least one disk"),
], ids=["3-component-center", "nan-center", "inf-center", "negative-radius",
        "nan-radius", "inf-radius", "no-disks"])
def test_cli_single_fault_disk_file_keeps_its_error(tmp_path, capsys, mutate,
                                                    error, message):
    # the exit code, error type and message of each disk field fault, as
    # recorded when a family was a tuple of per-disk objects
    inst = tmp_path / "ns.json"
    assert cli.main(["construct", "--kind", "ns-family", "--n", "4", "--r", "2",
                     "--seed", "5", "--out", str(inst)]) == 0
    obj = instances.load_json(inst)
    mutate(obj)
    instances.dump_json(obj, inst)
    capsys.readouterr()
    for command in ("verify", "bounds", "falconer"):
        assert cli.main([command, str(inst)]) == 2, command
        assert json.loads(capsys.readouterr().out)["error"] == {
            "stage": "validate", "type": error, "message": message}, command


# arguments of the construct runs whose outputs are pinned per seed
PINNED_CONSTRUCTS = {
    "ns-4-2": ["--kind", "ns-family", "--n", "4", "--r", "2"],
    "ns-6-1": ["--kind", "ns-family", "--n", "6", "--r", "1"],
    "cap-4-1-0.3": ["--kind", "cap", "--dim", "4", "--k", "1", "--delta", "0.3"],
    "cap-5-2-0.25": ["--kind", "cap", "--dim", "5", "--k", "2", "--delta", "0.25"],
}
# sha256 over the exit code and stdout of construct, verify, bounds and
# falconer --svg and the files they write, seeds 1-3, recorded while a disk
# family was a tuple of per-disk objects and a cap family took its radius
# and seed as arguments; the cap pins were re-recorded when hull-completed
# sets began to stop their greedy phase at SHORT_STREAK rejections (the set
# of cap-4-1-0.3 seed 2 is the same either way); the ns pins were re-recorded
# when passed verify and falconer reports began to carry the sweep's
# multiplicity block and the sweep-backed notes to name its certificate
OUTPUT_PINS = {
    "cap-4-1-0.3": [
        "41754b142f89af187a0d9dd6de5454004aac803175364a4b95cade9e0208110d",
        "b16b507f324debef355d6faab01e992fa85914703d5e85c8736b1008665435a9",
        "f9ccc8651cc410114d85a133b40713039771863590d6140877ae043ed5febdb2",
    ],
    "cap-5-2-0.25": [
        "19ae8d9e80116d40758b7b93be387f37131d507ea7dfa72d5c3e65b9ab8c94dd",
        "72ffb239f7279252674fcf7f461dc0a87eae470f827fdd04785354420532fad7",
        "85ede766da55291dd4c3791d481b14d33666dbcf3e9256c8d1a41f1e7819683f",
    ],
    "ns-4-2": [
        "bcf8dc7af356280baff6723c4bf9f7c56a853ce224a4e77ba6582ad6c2682495",
        "ec3171c925459d82cadf25107fa2bfba45660553ea332972e544ac552181d993",
        "bb9b472c06f917935c56c5a2cbf050055af8e86cb959daa0998cb10ddcbfe910",
    ],
    "ns-6-1": [
        "33f74befe12ebce4e95a7b031f1dab3acdf1352b8d33356915375bf46dfff97f",
        "47fdfe88a6a423d8bdad8d4050e97c158e991e7e0b6579614cef2603681b2d37",
        "69b0e3054e27c9dad44be28520a2f44d7c9a83284e78f52bcf1836f8c6a4be6e",
    ],
}


def _pinned_outputs_digest(directory, args, seed: int) -> str:
    h = hashlib.sha256()
    inst, svg = directory / f"{seed}.json", directory / f"{seed}.svg"
    for argv in (["construct", *args, "--seed", str(seed), "--out", str(inst)],
                 ["verify", str(inst)], ["bounds", str(inst)],
                 ["falconer", str(inst), "--svg", str(svg)]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        h.update(f"{argv[0]} {code}\n{stdout.getvalue()}".encode())
    for path in (inst, svg):
        h.update(path.read_bytes() if path.exists() else b"absent")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_CONSTRUCTS))
def test_cli_outputs_are_byte_pinned_per_seed(tmp_path, name):
    digests = [_pinned_outputs_digest(tmp_path, PINNED_CONSTRUCTS[name], seed)
               for seed in (1, 2, 3)]
    assert digests == OUTPUT_PINS[name]


def _constructed(name):
    def build(tmp_path):
        path = tmp_path / f"{name}.json"
        assert cli.main(["construct", *CONSTRUCT_KINDS[name], "--seed", "1",
                         "--out", str(path)]) == 0
        return instances.load_json(path)
    return build


def _as_strings(value):
    return [_as_strings(v) for v in value] if isinstance(value, list) else str(value)


def _replace(*keys, by):
    """A mutation that replaces the field at ``keys`` by ``by(old value)``."""
    def mutate(obj):
        target = obj
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = by(target[keys[-1]])
    return mutate


# one field each, a JSON string, boolean or null where a number belongs; a
# float conversion reads the strings and booleans, which therefore ran, and
# fails on the null with a TypeError
NOT_NUMBERS = {
    "body-radius-string": (_constructed("plank"), ("body", "radius"), str, "body radius"),
    "body-radius-true": (_constructed("plank"), ("body", "radius"),
                         lambda _: True, "body radius"),
    "body-radius-null": (_constructed("plank"), ("body", "radius"),
                         lambda _: None, "body radius"),
    "body-center-strings": (_constructed("plank"), ("body", "center"), _as_strings,
                            "body center"),
    "body-shape-strings": (_constructed("pack4"), ("body", "shape"), _as_strings,
                           "body shape"),
    "base-vertices-strings": (_constructed("plank"),
                              ("cylinders", 0, "base", "vertices"), _as_strings,
                              "base vertices"),
    "frame-columns-strings": (_constructed("pack3"),
                              ("cylinders", 0, "frame", "columns"), _as_strings,
                              "frame columns"),
    "cap-delta-string": (_constructed("cap"), ("cylinders", 0, "base", "delta"), str,
                         "cap delta"),
    "cap-pole-strings": (_constructed("cap"), ("cylinders", 0, "base", "pole"),
                         _as_strings, "cap pole"),
    "disk-base-radius-string": (_ball_packing, ("cylinders", 0, "base", "radius"), str,
                                "disk radius"),
    "disk-base-center-strings": (_ball_packing, ("cylinders", 0, "base", "center"),
                                 _as_strings, "disk center"),
    "ns-disk-radius-string": (_constructed("ns"), ("disks", 0, "radius"), str,
                              "disk radius"),
    "ns-disk-center-strings": (_constructed("ns"), ("disks", 0, "center"), _as_strings,
                               "disk center"),
    "plank-interval-low-string": (_constructed("ns"), ("planks", 0, "interval", 0), str,
                                  "plank interval"),
    "plank-interval-high-string": (_constructed("ns"), ("planks", 0, "interval", 1),
                                   str, "plank interval"),
    "plank-normal-strings": (_constructed("ns"), ("planks", 0, "u"), _as_strings,
                             "plank normal"),
}


@pytest.mark.parametrize("command", ["verify", "bounds"])
@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
def test_cli_numbers_must_be_json_numbers(tmp_path, capsys, command, case):
    build, keys, by, field = NOT_NUMBERS[case]
    obj = build(tmp_path)
    _replace(*keys, by=by)(obj)
    inst = tmp_path / "bad.json"
    instances.dump_json(obj, inst)
    capsys.readouterr()
    rc = cli.main([command, str(inst)])
    err = json.loads(capsys.readouterr().out)["error"]
    assert rc == 2 and err["stage"] == "validate" and err["type"] == "DomainError"
    assert err["message"].startswith(field)


@pytest.mark.parametrize("command", ["verify", "bounds"])
def test_cli_ball_of_dimension_1300_exits_2_with_empty_slices(tmp_path, capsys, command):
    # one disk cylinder of codimension 1298 in the unit ball of R^1300: the
    # ball volume of its 1298-d slices underflows to 0.0 (it is 0.0 from
    # m = 453 on), the error object of d = 400 before; pi^(m/2) overflowed
    d = 1300
    ball = geom.Ball(np.zeros(d), 1.0)
    disk = cylinders.Cylinder(geom.Frame(np.eye(d)[:, :2]), geom.Ball(np.zeros(2), 0.5))
    inst = tmp_path / "ball1300.json"
    instances.dump_json(instances.packing_instance(
        ball, [disk], 1, {"generator": "test", "seed": 0}), inst)
    rc = cli.main([command, str(inst)])
    out = json.loads(capsys.readouterr().out)
    err = out["error"] if command == "verify" else out["errors"][0]
    assert rc == 2 and err["type"] == "DomainError"
    assert err["message"] == "restricted cylinder has numerically empty slices"
