"""Command-line front end: construct instances, verify them, tabulate bounds.

Exit codes: 0 all checks passed, 1 a verification or bound failed (the report
carries a witness), 2 unusable input (parse error, unknown kind, bad
parameters, an instance outside a check's domain or one too degenerate to
evaluate): every error object exits 2; ``bounds`` exits 2 when any instance
is unusable, else 1 when any check failed, and lists the instances that parse
but cannot be checked under its table's ``errors`` (stderr for CSV).  Output
files depend only on the instance content and the flags, so reruns are
byte-identical.  An output path that cannot be written (a missing directory,
say) exits 2 with an ``output`` error object, and ``falconer`` then writes
neither its drawing nor its report.  ``bounds`` checks its instances one after
another, in the order given.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import bounds, cappack, falconer, geom, instances, multiplicity
from .errors import CylpackError, DomainError, HypothesisFailed

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _write(*outputs) -> None:
    """Write (text, path) pairs in order, a pair without a path to stdout.  A
    write that fails removes the files written before it, so a run that
    writes stdout last leaves all of its outputs or none."""
    written = []
    try:
        for text, path in outputs:
            if path:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                written.append(path)
            else:
                sys.stdout.write(text)
    except OSError:
        for path in written:
            os.remove(path)
        raise


def _emit(obj, out_path=None, *first) -> None:
    """Write obj as JSON, after the (text, path) outputs ``first``."""
    _write(*first, (json.dumps(obj, sort_keys=True, indent=1) + "\n", out_path))


def _error_object(stage: str, exc: Exception) -> dict:
    return {"error": {"stage": stage, "type": type(exc).__name__,
                      "message": str(exc)}}


def _thread_count() -> int:
    """Always 1; kept only for perfbench/worker.py's ``bounds_pool_threads``."""
    return 1


# ---------------------------------------------------------------------------
# construct

KINDS_READING_N = ("plank-partition", "packing", "polygon-strips", "ns-family")
KINDS_READING_DIM = ("plank-partition", "packing", "covering")  # cap checks its own


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise DomainError(f"--seed must be at least 0, got {seed}")


def cmd_construct(args) -> int:
    rng_meta = {"generator": args.kind, "seed": args.seed}
    try:
        instances.check_multiplicity(args.r)
        _check_seed(args.seed)
        if args.n < 1 and args.kind in KINDS_READING_N:
            raise DomainError(f"--n must be at least 1, got {args.n}")
        if args.dim < 2 and args.kind in KINDS_READING_DIM:
            raise DomainError(f"--dim must be at least 2, got {args.dim}")
        if args.kind == "cap":
            _, family = cappack.build_cap_packing(args.dim, args.k, args.delta,
                                                  seed=args.seed)
            body = instances.unit_ball(args.dim)
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


def _reports_for(inst, samples: int, seed: int) -> tuple[list, dict | None, bool]:
    """(bound reports, multiplicity json, all_ok) for one instance, whatever
    its kind (``samples`` >= ``multiplicity.MIN_SAMPLES``, ``seed`` >= 0): the
    checker decides the hypothesis once, and the json is the first report's
    evidence, or, when the hypothesis fails, its verdict, with no report."""
    multiplicity.check_samples(samples)
    _check_seed(seed)
    try:
        if inst["kind"] == instances.KIND_DISK_PLANKS:
            reports = falconer.check_disk_planks(
                inst["disk_family"], inst["planks"], inst["r"])
        else:
            body, family, r, k = inst["body"], inst["family"], inst["r"], inst["k"]
            if inst["kind"] == instances.KIND_COVERING:
                check = bounds.check_covering_lower
            elif not isinstance(body, geom.Polytope) and k <= 2:
                check = bounds.check_packing_upper_ellipsoid
            elif k == 1:
                check = bounds.check_base_volume_bound
            else:
                check = bounds.check_packing_general
            reports = [check(body, family, r, n=samples, seed=seed)]
    except HypothesisFailed as exc:
        return [], exc.verdict.to_json(), False
    return reports, reports[0].evidence.to_json(), all(rep.passed for rep in reports)


def cmd_verify(args) -> int:
    inst, err = _load_instance(args.instance)
    if err is not None:
        _emit(err, args.out)
        return EXIT_USAGE
    try:
        reports, mult_json, ok = _reports_for(inst, args.samples, args.seed)
    except CylpackError as exc:
        _emit(_error_object("verify", exc), args.out)
        return EXIT_USAGE
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
    insts = []
    for path in args.instances:
        inst, err = _load_instance(path)
        if err is not None:
            _emit(err)
            return EXIT_USAGE
        insts.append(inst)
    all_reports, errors = [], []
    code = EXIT_OK
    for inst, path in zip(insts, args.instances):
        try:
            reports, _, ok = _reports_for(inst, args.samples, args.seed)
        except CylpackError as exc:
            errors.append(_error_object(f"bounds:{os.path.basename(path)}",
                                        exc)["error"])
            code = EXIT_USAGE
            continue
        if args.theorem:
            reports = [r for r in reports if args.theorem in r.theorem_id]
        all_reports.extend(reports)
        if not ok:
            code = max(code, EXIT_FAILED)
    if args.format == "csv":
        _write((bounds.bound_reports_to_csv(all_reports), args.out))
        if errors:  # a CSV table cannot hold them
            sys.stderr.write(json.dumps({"errors": errors}, sort_keys=True) + "\n")
    else:
        table: dict = {"reports": [r.to_json() for r in all_reports]}
        if errors:
            table["errors"] = errors
        _emit(table, args.out)
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
    try:
        (separable, line), circ = family.separation, family.circle
        # a disk-plank instance reads no sample count or seed
        reports, mult_json, ok = ([], None, True) if separable else \
            _reports_for(inst, multiplicity.MIN_SAMPLES, 0)
    except CylpackError as exc:
        _emit(_error_object("falconer", exc), args.out)
        return EXIT_USAGE
    payload: dict = {
        "schema_version": instances.SCHEMA_VERSION,
        "separable": separable,
        "separating_line": None if line is None else
            {"u": list(line.u), "offset": line.offset},
        "circumradius": circ.radius,
        "circumcenter": list(circ.center),
        "ns_diameter": falconer.ns_diameter(family),
    }
    if not separable:
        payload["reports"] = [r.to_json() for r in reports]
        payload["multiplicity"] = mult_json
    svg = []
    if args.svg:
        svg = [(falconer.family_to_svg(family, planks=inst["planks"]), args.svg)]
        payload["svg"] = os.path.basename(args.svg)
    _emit(payload, args.out, *svg)
    return EXIT_OK if ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call (not at import)."""
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # an output path that cannot be written
        _emit(_error_object("output", exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
