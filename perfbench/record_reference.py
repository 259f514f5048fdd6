"""Record the output digests of input set 0 into reference_digests.json.

    python3 perfbench/record_reference.py --seeds 0-21

Run it at the commit whose outputs are the reference.  ``run.py`` then
reports ``outputs_changed`` for these seeds; other seeds report ``null``.
"""

import argparse
import json
import sys
import time

import run


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, help="range such as 0-21")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    path = run.HERE / "reference_digests.json"
    with open(path, encoding="utf-8") as fh:
        refs = json.load(fh)
    run.OUT_DIR.mkdir(exist_ok=True)
    env, _ = run.child_env()
    for workload in run.workloads.WORKLOADS:
        for seed in seeds:
            opts = argparse.Namespace(workload=workload, seed=seed, size="full")
            out = run.spawn(opts, 0, 0, env, time.monotonic() + run.HARD_LIMIT_S)
            refs.setdefault(workload, {})[str(seed)] = out["digest"]
            print(workload, seed, out["digest"], flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
