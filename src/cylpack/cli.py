"""Command-line front end: construct instances, verify them, tabulate bounds.

Exit codes: 0 all checks passed, 1 a verification or bound failed (the report
carries a witness), 2 unusable input (parse error, unknown kind, bad
parameters, an instance outside a check's domain); ``bounds`` exits 2 when
any instance is unusable, else 1 when any check failed.  Output files depend
only on the instance content and the flags, so reruns are byte-identical.
CYLPACK_THREADS caps the bounds work pool; results are ordered by instance
index regardless of completion order.
"""

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import bounds, cappack, falconer, geom, instances
from .errors import CylpackError, DomainError, HypothesisFailed

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _emit(obj, out_path=None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=1) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_object(stage: str, exc: Exception) -> dict:
    return {"error": {"stage": stage, "type": type(exc).__name__,
                      "message": str(exc)}}


def _thread_count() -> int:
    env = os.environ.get("CYLPACK_THREADS", "")
    try:
        n = int(env)
    except ValueError:
        n = 0
    return max(1, n) if n else max(1, min(4, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args) -> int:
    rng_meta = {"generator": args.kind, "seed": args.seed}
    try:
        if args.kind == "cap":
            if args.dim <= 3:
                raise CylpackError("cap construction needs --dim > 3")
            if not 0.0 < args.delta < math.pi / 4.0:
                raise CylpackError("cap construction needs --delta in (0, pi/4)")
            body = instances.unit_ball(args.dim)
            family = instances.cap_family_instance(
                args.dim, args.k, args.delta, args.seed)
            rng_meta.update({"delta": args.delta, "k": args.k,
                             "metric": cappack.PROJECTIVE,
                             "n_cylinders": len(family)})
            obj = instances.packing_instance(body, family, args.r, rng_meta)
        elif args.kind == "plank-partition":
            body = instances.unit_ball(args.dim)
            family = instances.plank_partition(body, args.n, r=args.r)
            obj = instances.packing_instance(body, family, args.r, rng_meta)
        elif args.kind == "packing":
            rng = np.random.default_rng(args.seed)
            body = instances.random_ellipsoid(args.dim, rng)
            family = instances.random_base_packing(
                body, args.k, args.n, args.r, args.seed)
            obj = instances.packing_instance(body, family, args.r, rng_meta)
        elif args.kind == "covering":
            rng = np.random.default_rng(args.seed)
            body = instances.random_ellipsoid(args.dim, rng)
            family = instances.random_box_covering(body, args.k, args.r, args.seed)
            obj = instances.covering_instance(body, family, args.r, rng_meta)
        elif args.kind == "polygon-strips":
            rng = np.random.default_rng(args.seed)
            body = instances.random_polygon(rng)
            family = instances.random_strip_packing(body, args.n, args.r,
                                                    seed=args.seed)
            obj = instances.packing_instance(body, family, args.r, rng_meta)
        elif args.kind == "ns-family":
            family = instances.random_ns_family(args.n, args.seed)
            planks = instances.random_plank2d_packing(family, 3, args.r, args.seed)
            obj = instances.disk_planks_instance(family, planks, args.r, rng_meta)
        else:
            raise CylpackError(f"unknown construct kind {args.kind!r}")
    except (CylpackError, ValueError) as exc:
        _emit(_error_object("construct", exc))
        return EXIT_USAGE
    instances.dump_json(obj, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / bounds


def _load_instance(path):
    try:
        raw = instances.load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        return None, _error_object("parse", exc)
    try:
        return instances.parse_instance(raw), None
    except (CylpackError, KeyError, ValueError, TypeError, OverflowError) as exc:
        return None, _error_object("validate", exc)


def _failure_code(exc: CylpackError) -> int:
    """Exit code of a check that raised: input outside its domain is unusable."""
    return EXIT_USAGE if isinstance(exc, DomainError) else EXIT_FAILED


def _reports_for(inst, samples: int, seed: int) -> tuple[list, dict | None, bool]:
    """(bound reports, multiplicity json, all_ok) for one instance.

    A packing or covering instance is sampled once, by its checker; a
    disk-plank instance is decided exactly on its hull and samples nothing.
    A failed hypothesis yields no report and a multiplicity json with its
    witness and reason.
    """
    try:
        if inst["kind"] == instances.KIND_DISK_PLANKS:
            reports = falconer.check_disk_planks(
                inst["disk_family"], inst["planks"], inst["r"])
            return reports, None, all(rep.passed for rep in reports)
        body, family, r, k = inst["body"], inst["family"], inst["r"], inst["k"]
        round_body = not isinstance(body, geom.Polytope)
        if inst["kind"] == instances.KIND_COVERING:
            mode = "ellipsoid" if k == 1 and round_body else "general"
            check = functools.partial(bounds.check_covering_lower, mode=mode)
        elif round_body and k <= 2:
            check = bounds.check_packing_upper_ellipsoid
        elif k == 1:
            check = bounds.check_base_volume_bound
        else:
            check = bounds.check_packing_general
        rep = check(body, family, r, n=samples, seed=seed)
    except HypothesisFailed as exc:
        return [], exc.verdict.to_json(), False
    return [rep], rep.evidence.to_json(), rep.passed


def cmd_verify(args) -> int:
    inst, err = _load_instance(args.instance)
    if err is not None:
        _emit(err, args.out)
        return EXIT_USAGE
    try:
        reports, mult_json, ok = _reports_for(inst, args.samples, args.seed)
    except CylpackError as exc:
        _emit(_error_object("verify", exc), args.out)
        return _failure_code(exc)
    payload = {
        "schema_version": instances.SCHEMA_VERSION,
        "kind": inst["kind"],
        "passed": ok,
        "reports": [r.to_json() for r in reports],
        "multiplicity": mult_json,
    }
    _emit(payload, args.out)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_bounds(args) -> int:
    if not args.instances:
        _emit(_error_object("bounds", CylpackError("no instance files given")))
        return EXIT_USAGE
    jobs = []
    for path in args.instances:
        inst, err = _load_instance(path)
        if err is not None:
            _emit(err)
            return EXIT_USAGE
        jobs.append(inst)

    def run(inst):
        try:
            reports, _, ok = _reports_for(inst, args.samples, args.seed)
            return reports, ok, None
        except CylpackError as exc:
            return [], False, exc

    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        results = list(pool.map(run, jobs))
    all_reports = []
    code = EXIT_OK
    for (reports, ok, exc), path in zip(results, args.instances):
        if exc is not None:
            _emit(_error_object(f"bounds:{os.path.basename(path)}", exc))
            code = max(code, _failure_code(exc))
            continue
        if args.theorem:
            reports = [r for r in reports if args.theorem in r.theorem_id]
        all_reports.extend(reports)
        if not ok:
            code = max(code, EXIT_FAILED)
    if args.format == "csv":
        text = bounds.bound_reports_to_csv(all_reports)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        _emit({"reports": [r.to_json() for r in all_reports]}, args.out)
    return code


# ---------------------------------------------------------------------------
# falconer


def cmd_falconer(args) -> int:
    inst, err = _load_instance(args.instance)
    if err is not None:
        _emit(err, args.out)
        return EXIT_USAGE
    if inst["kind"] != instances.KIND_DISK_PLANKS:
        _emit(_error_object("falconer", CylpackError(
            f"expected a {instances.KIND_DISK_PLANKS} instance")), args.out)
        return EXIT_USAGE
    family = inst["disk_family"]
    separable, line = falconer.is_separable(family)
    circ = falconer.circumradius(family)
    payload: dict = {
        "schema_version": instances.SCHEMA_VERSION,
        "separable": separable,
        "separating_line": None if line is None else
            {"u": list(line.u), "offset": line.offset},
        "circumradius": circ.radius,
        "circumcenter": list(circ.center),
        "ns_diameter": falconer.ns_diameter(family),
    }
    ok = True
    if not separable:
        try:
            # a disk-plank instance reads no sample count or seed
            reports, mult_json, ok = _reports_for(inst, 0, 0)
        except CylpackError as exc:
            _emit(_error_object("falconer", exc), args.out)
            return _failure_code(exc)
        payload["reports"] = [r.to_json() for r in reports]
        if mult_json is not None:  # a failed packing: its witness and reason
            payload["multiplicity"] = mult_json
    if args.svg:
        svg = falconer.family_to_svg(family, planks=inst["planks"], line=line)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
        payload["svg"] = os.path.basename(args.svg)
    _emit(payload, args.out)
    return EXIT_OK if ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylpack",
        description="construct, verify, and report on cylinder packings and coverings")
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="generate a deterministic instance file")
    con.add_argument("--kind", required=True,
                     choices=["cap", "plank-partition", "packing", "covering",
                              "polygon-strips", "ns-family"])
    con.add_argument("--dim", type=int, default=2)
    con.add_argument("--k", type=int, default=1)
    con.add_argument("--r", type=int, default=1)
    con.add_argument("--n", type=int, default=5)
    con.add_argument("--delta", type=float, default=0.3)
    con.add_argument("--seed", type=int, default=0)
    con.add_argument("--out", required=True)
    con.set_defaults(func=cmd_construct)

    ver = sub.add_parser("verify", help="verify an instance and run its checker")
    ver.add_argument("instance")
    ver.add_argument("--samples", type=int, default=10_000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    bnd = sub.add_parser("bounds", help="tabulate bound reports for instances")
    bnd.add_argument("instances", nargs="*")
    bnd.add_argument("--samples", type=int, default=10_000)
    bnd.add_argument("--seed", type=int, default=0)
    bnd.add_argument("--theorem", default=None,
                     help="substring filter on theorem ids")
    bnd.add_argument("--format", choices=["json", "csv"], default="json")
    bnd.add_argument("--out", default=None)
    bnd.set_defaults(func=cmd_bounds)

    fal = sub.add_parser("falconer", help="disk-family checks and SVG rendering")
    fal.add_argument("instance")
    fal.add_argument("--svg", default=None)
    fal.add_argument("--out", default=None)
    fal.set_defaults(func=cmd_falconer)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
