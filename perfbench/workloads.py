"""Workload definitions: seeded op lists, op execution and verdict checks.

An op is one user-level call that yields one verdict: a checker call
(``slices``, ``caps``) or one ``cylpack`` CLI command (``cli_fixtures``).
``build_ops`` is pure data derived from the workload seed (numpy only, no
cylpack import), so op lists can be compared without running them.
``execute`` runs one op and returns its output bytes plus the values the
verdict check needs; ``check`` compares them with the expectation that the
op's construction fixes.  Checks that need extra program calls (criterion 6's
Monte Carlo tolerance band) run in ``check``, after the timed ops.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

WORKLOADS = ("slices", "caps", "cli_fixtures")
SIZES = ("full", "tiny")

# Exit codes of ``cylpack`` (cli.py): 0 pass, 1 failed bound with witness,
# 2 unusable input.
EXIT_OK, EXIT_FAILED, EXIT_USAGE = 0, 1, 2

# Each repetition of a workload runs its own input set: ``build_ops(workload,
# seed, rep=r)`` derives set r from (seed, r).  A run's medians therefore span
# several input sets as well as several interpreters.

# slices: (checker, d, k, ops per set).  Ops sort into cost classes: interval
# slices (d = 2, 3) ~15-60 ms, closed-form d = 5 ellipsoid slices ~80 ms,
# d = 4, k = 3 (Monte Carlo volume, bimodal 80-230 ms), and LP slices
# 0.6-2.5 s.  Of the 64 ops, the median (indices 31, 32) falls mid-way
# through the 44 interval-slice ops and the tail (index 53) inside the
# ellipsoid class, so neither statistic sits on a class boundary.
SLICE_MIX = {
    "full": (("rs", 2, 1, 22), ("rs", 3, 2, 22), ("pg_ellipsoid", 5, 3, 12),
             ("rs", 4, 3, 2), ("rs", 3, 1, 3), ("rs", 4, 1, 1),
             ("rs", 4, 2, 1), ("pg_polytope", 3, 2, 1)),
    "tiny": (("rs", 2, 1, 2), ("rs", 3, 2, 1), ("pg_ellipsoid", 5, 3, 1),
             ("rs", 3, 1, 1)),
}

# caps: one set is criterion 5's grid at a derived seed plus fourteen more
# (4, 0.3) points at other seeds, so the median of the 20 ops falls inside
# the (4, 0.3) class (~0.2 s), near its middle, instead of between two grid
# points.  20 ops keep the tail statistic on the set maximum.  The d = 6,
# delta = 0.2 corner (about half of the time) runs first and absorbs
# first-call costs.
CAP_GRID = {"full": ((6, 0.2), (4, 0.2), (4, 0.3), (5, 0.2), (5, 0.3), (6, 0.3)),
            "tiny": ((4, 0.3),)}
CAP_EXTRA = {"full": ((4, 0.3),) * 14, "tiny": ()}
CAP_SAMPLES = {"full": 20_000, "tiny": 2_000}

# cli_fixtures: fixture groups per set; each group is 21 ops.  With seven
# groups (147 ops) the median (index 73) is the middle op of the seven
# neg_nonfinite ops, and the tail (index 136, ten ops above) the middle one
# of the seven ns-family verifies, which sit below the seven bounds ops.
CLI_GROUPS = {"full": 7, "tiny": 1}
CLI_SAMPLES = {"full": 10_000, "tiny": 2_000}
CONSTRUCT_KINDS = (
    ("plank", ["--kind", "plank-partition", "--dim", "2", "--n", "5", "--r", "2"]),
    ("pack3", ["--kind", "packing", "--dim", "3", "--k", "1", "--r", "2"]),
    ("pack4", ["--kind", "packing", "--dim", "4", "--k", "2"]),
    ("pack5", ["--kind", "packing", "--dim", "5", "--k", "3"]),
    ("cover", ["--kind", "covering", "--dim", "3", "--k", "2"]),
    ("strips", ["--kind", "polygon-strips", "--n", "3", "--r", "2"]),
    ("cap", ["--kind", "cap", "--dim", "4", "--k", "1", "--delta", "0.3"]),
    ("ns", ["--kind", "ns-family", "--n", "4", "--r", "2"]),
)
# (op name, source fixture, mutation, expected exit code).  The failures are
# fixed by construction: the r = 2 plank partition covers every point twice,
# and a one-layer box covering leaves tile centres covered once.
NEGATIVE_OPS = (
    ("neg_r_lowered", "plank", "r-1", EXIT_FAILED),
    ("neg_r_raised", "cover", "r+1", EXIT_FAILED),
    ("neg_truncated", "pack4", "truncate", EXIT_USAGE),
    ("neg_nonfinite", "pack4", "nan-center", EXIT_USAGE),
)


def _rng(seed: int, rep: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, rep, tag)))


def build_ops(workload: str, seed: int, size: str = "full",
              rep: int = 0) -> list[dict]:
    """Deterministic op list of input set ``rep`` of a workload; every value
    is JSON-serializable."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    ops = {"slices": _slice_ops, "caps": _cap_ops,
           "cli_fixtures": _cli_ops}[workload](
               _rng(seed, rep, WORKLOADS.index(workload)), size)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def _slice_ops(rng: np.random.Generator, size: str) -> list[dict]:
    ops = []
    for checker, d, k, count in SLICE_MIX[size]:
        for _ in range(count):
            op = {"kind": checker, "d": d, "k": k}
            if checker == "rs":
                # criterion 6's inputs: d + 4 Gaussian vertices, a random k-frame
                op["vertices"] = rng.standard_normal((d + 4, d)).tolist()
                op["frame"] = rng.standard_normal((k, d)).tolist()
            elif checker == "pg_polytope":
                op["vertices"] = rng.standard_normal((d + 4, d)).tolist()
                op["family_seed"] = int(rng.integers(1 << 30))
            else:
                op["family_seed"] = int(rng.integers(1 << 30))
                op["body_seed"] = int(rng.integers(1 << 30))
            ops.append(op)
    # interleave the classes so no stretch of the list is all-LP or all-cheap
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _cap_ops(rng: np.random.Generator, size: str) -> list[dict]:
    # the k = 1, 2 sweeps of one grid point share a separated set
    seed = int(rng.integers(1 << 30))
    points = [(d, delta, seed) for d, delta in CAP_GRID[size]]
    points += [(d, delta, int(rng.integers(1 << 30)))
               for d, delta in CAP_EXTRA[size]]
    return [{"kind": "cap_sweep", "d": d, "delta": delta, "seed": s,
             "samples": CAP_SAMPLES[size]} for d, delta, s in points]


def _cli_ops(rng: np.random.Generator, size: str) -> list[dict]:
    samples = str(CLI_SAMPLES[size])
    ops = []
    for g in range(CLI_GROUPS[size]):
        tag = f"g{g}"
        con_seed = str(int(rng.integers(1 << 20)))
        ver_seed = str(int(rng.integers(1 << 20)))
        files = [f"{tag}_{name}.json" for name, _ in CONSTRUCT_KINDS]
        for (name, args), path in zip(CONSTRUCT_KINDS, files):
            ops.append({"kind": "cli", "name": f"construct_{name}",
                        "argv": ["construct", *args, "--seed", con_seed,
                                 "--out", path],
                        "outputs": [path], "expect": EXIT_OK})
        for name, path in zip((n for n, _ in CONSTRUCT_KINDS), files):
            report = f"{tag}_{name}.report.json"
            ops.append({"kind": "cli", "name": f"verify_{name}",
                        "argv": ["verify", path, "--samples", samples,
                                 "--seed", ver_seed, "--out", report],
                        "outputs": [report], "expect": EXIT_OK})
        table = f"{tag}_bounds.json"
        ops.append({"kind": "cli", "name": "bounds",
                    "argv": ["bounds", *files, "--samples", samples,
                             "--seed", ver_seed, "--out", table],
                    "outputs": [table], "expect": EXIT_OK})
        for name, source, mutation, code in NEGATIVE_OPS:
            path = f"{tag}_{name}.json"
            ops.append({"kind": "cli", "name": name,
                        "prepare": {"source": f"{tag}_{source}.json",
                                    "mutation": mutation, "path": path},
                        "argv": ["verify", path, "--samples", samples,
                                 "--seed", ver_seed],
                        "outputs": [], "expect": code})
    return ops


# ---------------------------------------------------------------------------
# execution


def _canon(obj) -> bytes:
    # reports may hold numpy scalars (``np.bool_`` verdict flags)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=lambda o: o.item()).encode()


def prepare(op: dict, workdir: str) -> None:
    """Untimed input preparation (the mutated files of negative CLI ops)."""
    spec = op.get("prepare")
    if spec is None:
        return
    src = os.path.join(workdir, spec["source"])
    dst = os.path.join(workdir, spec["path"])
    with open(src, encoding="utf-8") as fh:
        text = fh.read()
    mutation = spec["mutation"]
    if mutation == "truncate":
        text = text[: len(text) // 2]
    else:
        obj = json.loads(text)
        if mutation == "r-1":
            obj["r"] -= 1
        elif mutation == "r+1":
            obj["r"] += 1
        elif mutation == "nan-center":
            obj["body"]["center"][0] = float("nan")
        else:
            raise ValueError(f"unknown mutation {mutation!r}")
        text = json.dumps(obj, sort_keys=True, indent=1)
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(text)


def execute(op: dict, workdir: str) -> dict:
    """Run one op.  Returns ``{"output": bytes, "verdict": dict}``.

    Unexpected exceptions propagate; the caller counts them as failures.
    """
    kind = op["kind"]
    if kind == "rs":
        return _run_rs(op)
    if kind == "pg_polytope" or kind == "pg_ellipsoid":
        return _run_pg(op)
    if kind == "cap_sweep":
        return _run_cap_sweep(op)
    if kind == "cli":
        return _run_cli(op, workdir)
    raise ValueError(f"unknown op kind {kind!r}")


def _run_rs(op: dict) -> dict:
    from cylpack import bounds, geom

    poly = geom.Polytope(np.asarray(op["vertices"]))
    frame = geom.orthonormalize(np.asarray(op["frame"]))
    upper, lower = bounds.check_rogers_shephard(poly, frame)
    return {"output": _canon([upper.to_json(), lower.to_json()]),
            "verdict": {"upper_slack": upper.slack, "lower_slack": lower.slack}}


def _run_pg(op: dict) -> dict:
    from cylpack import bounds, geom, instances

    d, k = op["d"], op["k"]
    if op["kind"] == "pg_polytope":
        body = geom.Polytope(np.asarray(op["vertices"]))
    else:
        body = instances.random_ellipsoid(d, np.random.default_rng(op["body_seed"]))
    family = instances.random_base_packing(body, k, 2, 1, seed=op["family_seed"])
    rep = bounds.check_packing_general(body, family, 1, n=2000,
                                       seed=op["family_seed"])
    return {"output": _canon(rep.to_json()), "verdict": {"passed": rep.passed}}


def _run_cap_sweep(op: dict) -> dict:
    from cylpack import cappack

    reports = [cappack.cap_packing_report(op["d"], k, op["delta"],
                                          seed=op["seed"],
                                          packing_samples=op["samples"])
               for k in (1, 2)]
    # criterion 5's assertions, per k
    checks = [rep.packing.max_mult == 1
              and rep.n_cylinders >= rep.count_lower_bound_antipodal
              and rep.sum_crv >= rep.chain_rhs
              and rep.empirical_constant_ratio > 0 for rep in reports]
    return {"output": _canon([rep.to_json() for rep in reports]),
            "verdict": {"criterion5": [bool(c) for c in checks]}}


def _run_cli(op: dict, workdir: str) -> dict:
    from cylpack import cli

    argv = [os.path.join(workdir, a) if a.endswith(".json") else a
            for a in op["argv"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    stdout = buf.getvalue()
    blobs = [stdout.encode()]
    payloads = []
    for name in op["outputs"]:
        with open(os.path.join(workdir, name), "rb") as fh:
            blob = fh.read()
        blobs.append(blob)
        if name.endswith("report.json"):
            payloads.append(json.loads(blob))
    # cylpack reports a caught exception as an {"error": ...} object
    verdict = {"exit": code, "error": '"error":' in stdout}
    if op["name"].startswith("verify_"):
        verdict["passed"] = bool(payloads and payloads[0].get("passed"))
        verdict["error"] |= bool(payloads) and "error" in payloads[0]
    elif op.get("prepare", {}).get("mutation") in ("r-1", "r+1"):
        obj = json.loads(stdout) if stdout.strip() else {}
        mult = obj.get("multiplicity") or {}
        verdict["passed"] = obj.get("passed")
        verdict["witness"] = mult.get("witness") is not None
    return {"output": _canon([code]) + b"".join(blobs), "verdict": verdict}


# ---------------------------------------------------------------------------
# verdict checks


def check(op: dict, verdict: dict) -> str:
    """Empty string when the verdict is the expected one, else the cause."""
    kind = op["kind"]
    if kind == "rs":
        tol = _rs_tolerance(op)
        if verdict["upper_slack"] < -tol:
            return f"Rogers-Shephard upper bound violated by {-verdict['upper_slack']:.3g}"
        if verdict["lower_slack"] < -tol:
            return f"Fubini lower bound violated by {-verdict['lower_slack']:.3g}"
        return ""
    if kind in ("pg_polytope", "pg_ellipsoid"):
        return "" if verdict["passed"] else "generated packing failed the general bound"
    if kind == "cap_sweep":
        bad = [k for k, ok in zip((1, 2), verdict["criterion5"]) if not ok]
        return f"criterion 5 assertion failed for k={bad}" if bad else ""
    code, expect = verdict["exit"], op["expect"]
    if code != expect:
        return f"exit {code}, expected {expect}"
    if op["name"].startswith("verify_") and not verdict["passed"]:
        return "generated instance did not pass"
    if "witness" in verdict and not (verdict["passed"] is False and verdict["witness"]):
        return "failed verdict carries no witness"
    return ""


def _rs_tolerance(op: dict) -> float:
    """Criterion 6's tolerance: exact below d = 4, a 3-sigma Monte Carlo band
    (scaled by binom(d, k)) where polytope volume is estimated."""
    d, k = op["d"], op["k"]
    if d < 4:
        return 1e-9
    from cylpack import geom

    poly = geom.Polytope(np.asarray(op["vertices"]))
    _, se = geom.polytope_volume_mc(poly, 200_000, seed=0)
    return 3 * se * math.comb(d, k)


def failure_kind(op: dict, verdict: dict) -> str:
    """Classify a failed check.  A wrong exit code on malformed input (an op
    whose prepared file must be rejected as unusable) is an input-validation
    defect; an error object means cylpack gave no verdict; anything else is a
    verdict the op's construction rules out."""
    if op.get("prepare") and op.get("expect") == EXIT_USAGE:
        return "input_validation"
    if verdict.get("error"):
        return "raised"
    return "wrong_verdict"
