"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --rep R --size full \
        --trace 0 --spawned-at T --result FILE --workdir DIR [--spans FILE]

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``; ``--spawned-at`` is the parent's ``time.monotonic()`` just before the
spawn (a system-wide clock), so set-up time covers interpreter start, the
cylpack import and input generation.  The result is written as JSON to
``--result``.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback


def reference_s() -> float:
    """Seconds one fixed piece of work takes: a pure-Python loop, small numpy
    array operations and a tiny HiGHS LP, the three kinds of work cylpack's
    verdicts spend their time in.  It never calls cylpack, so it measures the
    host's current speed and nothing that a change to the program moves."""
    import numpy as np
    from scipy.optimize import linprog

    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    a = np.arange(1.0, 200.0)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0) - 0.5
    linprog([1.0, 1.0, 1.0], A_ub=-np.eye(3), b_ub=-np.ones(3), method="highs")
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    t_import = time.monotonic()
    import numpy
    import scipy

    import cylpack
    from cylpack import cli
    import_s = time.monotonic() - t_import
    import tracer as tracing
    import workloads

    ops = workloads.build_ops(args.workload, args.seed, args.size, args.rep)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    os.makedirs(args.workdir, exist_ok=True)
    ready = time.monotonic()

    records = []
    outputs = []
    # the reference work runs before the first op and after every op, so each
    # op's latency has a measure of the host's speed on either side of it
    reference_s()  # first-call costs stay out of the measure
    refs = [reference_s()]
    for op in ops:
        workloads.prepare(op, args.workdir)
        span = tracer.begin_op(op["id"]) if tracer else None
        t0 = time.perf_counter()
        try:
            res = workloads.execute(op, args.workdir)
            error = ""
        except Exception as exc:  # an op that raises is a failed op, not a crash
            res = {"output": b"", "verdict": None}
            error = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        if tracer:
            tracer.end_op(span, bool(error))
        records.append({"id": op["id"], "name": op.get("name", op["kind"]),
                        "start": t0, "end": t1, "error": error,
                        "verdict": res["verdict"]})
        outputs.append(res["output"])
        refs.append(reference_s())
    if tracer:
        tracer.uninstall()

    digest = hashlib.sha256()
    for op, out in zip(ops, outputs):
        digest.update(f"{op['id']}:{len(out)}:".encode())
        digest.update(out)
    for op, rec in zip(ops, records):
        if rec["error"]:
            rec["kind"] = "raised"
        else:
            rec["error"] = workloads.check(op, rec["verdict"])
            rec["kind"] = workloads.failure_kind(op, rec["verdict"])
    shutil.rmtree(args.workdir, ignore_errors=True)

    result = {
        "workload": args.workload, "seed": args.seed, "rep": args.rep,
        "size": args.size, "trace": args.trace,
        "setup_s": ready - args.spawned_at,
        "import_s": import_s,
        "latencies_s": [r["end"] - r["start"] for r in records],
        "reference_s": refs,
        "failures": [{"id": r["id"], "name": r["name"], "cause": r["error"],
                      "kind": r["kind"]}
                     for r in records if r["error"]],
        "attempted": len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest.hexdigest(),
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "cylpack": cylpack.__version__,
            "cylpack_path": os.path.dirname(cylpack.__file__),
            "CYLPACK_THREADS": os.environ.get("CYLPACK_THREADS"),
            "bounds_pool_threads": cli._thread_count(),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans, len(ops))
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
