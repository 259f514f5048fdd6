"""cylpack benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload slices --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; cylpack is imported from ``src/`` next to
this directory, never from an installed copy.  Every repetition runs in a
fresh interpreter (``worker.py``), so caches inside cylpack cannot carry
over, and repetition r runs input set r of the seed.  With ``--trace 0`` a
fixed number of repetitions runs, sized so that they take about
``--seconds`` on the reference machine; the number depends only on the
workload and ``--seconds``, so the same seed always attempts the same ops.
Op latencies are scaled to the reference machine's speed (see
``scaled_latencies``); the time and memory metrics are medians over
repetitions (means for ``wall_s`` and ``op_tail_ms``), ``op_p50_ms`` pools
their ops and so does ``ok_frac``.  With
``--trace 1`` input set 0 runs once untraced and once traced; the per-layer
metrics come from the traced run, and its output digest must equal the
untraced one.  The last
line of standard output is the result object; the line before it carries
run details (per-repetition values, failures with causes, output digest,
environment).  Exits 2 without a result when the checkout has no cylpack
source.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_REPS = 3
# seconds one repetition takes on the reference machine (2 vCPUs, see
# README.md), set-up included; a run makes round(--seconds / this) of them
REP_SECONDS = {"slices": 11.0, "caps": 17.0, "cli_fixtures": 12.5}
# median time of worker.reference_s() on the reference machine
REFERENCE_S = 5.0e-3
HARD_LIMIT_S = 170.0   # the whole run must end within 180 s
TAIL_BEYOND = 10       # the tail statistic keeps at least this many ops above it

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (benchmark-local module)


def metric_spec(section: str) -> list[tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json declares in ``section``
    (``end_to_end`` or ``per_layer``)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def tail_stat(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND ops above it.  When that statistic would not lie above the
    median (2 * TAIL_BEYOND + 1 ops or fewer), the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND + 1:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def source_info() -> dict:
    src = ROOT / "src" / "cylpack"
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {"commit": commit, "src_sha256": h.hexdigest()}


def child_env() -> tuple[dict, int]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = 0
        env[var] = str(min(current, nproc) if current > 0 else nproc)
    return env, nproc


def spawn(args, trace: int, rep: int, env: dict, deadline: float) -> dict:
    tag = f"{args.workload}-{args.seed}-t{trace}-r{rep}-{os.getpid()}"
    result = OUT_DIR / f"rep-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--rep", str(rep), "--size", args.size, "--trace", str(trace),
           "--result", str(result), "--workdir", str(OUT_DIR / f"work-{tag}")]
    if trace:
        cmd += ["--spans", str(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz")]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env,
                          cwd=str(ROOT), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"repetition {rep} exited with {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    result.unlink()
    return out


def reference_digest(workload: str, seed: int, size: str):
    """Recorded digest of input set 0, for full-size runs of recorded seeds."""
    if size != "full":
        return None
    with open(HERE / "reference_digests.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def repetitions(workload: str, seconds: float, size: str) -> int:
    if size != "full":
        return MIN_REPS
    return max(MIN_REPS, round(seconds / REP_SECONDS[workload]))


def scaled_latencies(rep: dict) -> list[float]:
    """Op latencies of one repetition at the reference machine's speed.

    The shared host's speed drifts by up to ~1.7x for seconds to minutes at a
    time, which moves every op alike.  Each op's latency is therefore
    multiplied by REFERENCE_S over the mean time of the fixed reference work
    run just before and just after it (``worker.reference_s``).  That work
    never calls cylpack, so a faster program still reads faster."""
    refs = rep["reference_s"]
    return [t * REFERENCE_S / (0.5 * (refs[i] + refs[i + 1]))
            for i, t in enumerate(rep["latencies_s"])]


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    scaled = [scaled_latencies(r) for r in reps]
    tails = [tail_stat(s) for s in scaled]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        # wall time and tail hang on a few long ops, whose scaling is coarser
        # (two reference samples for seconds of work); the mean over
        # repetitions spreads less over seeds than their median
        "wall_s": statistics.fmean(sum(s) for s in scaled),
        # pooled over every op of every repetition: one median of R x N ops
        # is steadier than a median of R per-repetition medians
        "op_p50_ms": 1e3 * statistics.median(x for s in scaled for x in s),
        "op_tail_ms": 1e3 * statistics.fmean(t for t, _ in tails),
        # pooled, so a failure in any one repetition lowers it
        "ok_frac": 1.0 - (sum(len(r["failures"]) for r in reps)
                          / sum(r["attempted"] for r in reps)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    detail = {
        "unscaled": {
            "wall_s": statistics.fmean(sum(r["latencies_s"]) for r in reps),
            "op_p50_ms": 1e3 * statistics.median(
                x for r in reps for x in r["latencies_s"]),
            "op_tail_ms": 1e3 * statistics.fmean(
                tail_stat(r["latencies_s"])[0] for r in reps),
        },
        "reps": len(reps),
        "ops_per_rep": reps[0]["attempted"],
        "op_tail_percentile": tails[0][1],
        "per_rep": [dict({k: r[k] for k in ("setup_s", "import_s",
                                            "peak_rss_mb", "digest")},
                         latencies_ms=[round(1e3 * x, 3) for x in r["latencies_s"]],
                         reference_ms=[round(1e3 * x, 4) for x in r["reference_s"]])
                    for r in reps],
    }
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' is a smoke-test size for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cylpack" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no cylpack source under {ROOT / 'src'}\n")
        return 2
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    env, nproc = child_env()

    try:
        if args.trace:
            reps = [spawn(args, 0, 0, env, deadline)]
            traced = spawn(args, 1, 0, env, deadline)
        else:
            reps = []
            for rep in range(repetitions(args.workload, args.seconds, args.size)):
                reps.append(spawn(args, 0, rep, env, deadline))
                elapsed = time.monotonic() - start
                if elapsed * (rep + 2) / (rep + 1) > HARD_LIMIT_S - 5.0:
                    break  # a much slower host: stop before the time limit
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    runs = reps + ([traced] if args.trace else [])
    # tracing must not change a byte of the outputs of the same input set
    digests_agree = not args.trace or traced["digest"] == reps[0]["digest"]
    wrong = [f for r in runs for f in r["failures"] if f["kind"] == "wrong_verdict"]
    correct = digests_agree and not wrong
    ref = reference_digest(args.workload, args.seed, args.size)
    values, detail = end_to_end(reps)
    if args.trace:
        layers = dict(traced["layers"])
        layers["setup.import_s"] = reps[0]["import_s"]
        # unscaled, like the layer times it is the base of
        layers["trace.wall_s"] = sum(traced["latencies_s"])
        # both at the reference speed, so host drift between them cancels
        traced_wall, untraced_wall = (sum(scaled_latencies(r))
                                      for r in (traced, reps[0]))
        layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in metric_spec("per_layer")}
        detail["spans"] = traced["spans"]
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_spec("end_to_end")}
    detail.update({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace,
        "digest": runs[0]["digest"],
        "digests_agree": digests_agree,
        "reference_digest": ref,
        "outputs_changed": None if ref is None else runs[0]["digest"] != ref,
        "failures": [dict(f, run=i) for i, r in enumerate(runs)
                     for f in r["failures"]],
        "env": dict(runs[0]["env"], nproc=nproc, **source_info()),
    })
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(len(r["failures"]) for r in runs),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
