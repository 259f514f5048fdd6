"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

The smoke runs use the ``tiny`` op lists, so the whole file takes well under
a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run(*argv, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["perfbench"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_lists_are_deterministic_per_seed(workload):
    for size in workloads.SIZES:
        first = workloads.build_ops(workload, 3, size)
        assert first == workloads.build_ops(workload, 3, size)
        assert first != workloads.build_ops(workload, 4, size)
        assert [op["id"] for op in first] == list(range(len(first)))
        json.dumps(first)  # pure data: ops can be logged and compared


def test_names_match_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_statistic_keeps_ten_ops_above():
    xs = [float(i) for i in range(40)]
    value, pct = run.tail_stat(xs)
    assert value == 29.0 and sum(x > value for x in xs) == 10
    assert pct == 75.0
    assert run.tail_stat([3.0, 1.0]) == (3.0, 100.0)
    assert run.tail_stat(xs[:20]) == (19.0, 100.0)  # p50 or below: use the max
    assert run.tail_stat(xs[:21]) == (20.0, 100.0)


def test_scaled_latencies_cancel_host_speed():
    fast = {"latencies_s": [0.010, 0.200], "reference_s": [0.004, 0.006, 0.005]}
    slow = {"latencies_s": [0.020, 0.400], "reference_s": [0.008, 0.012, 0.010]}
    assert run.scaled_latencies(fast) == pytest.approx(run.scaled_latencies(slow))
    assert run.scaled_latencies(fast)[0] == pytest.approx(
        0.010 * run.REFERENCE_S / 0.005)



@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run_passes_verdict_checks(workload):
    result, detail = _smoke(workload, trace=0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the only failures at this seed are malformed-input ops (known defect:
    # a non-finite body field exits 1 instead of 2)
    assert all(f["kind"] == "input_validation" for f in detail["failures"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reproduces_untraced_digest(workload):
    result, detail = _smoke(workload, trace=1)
    assert detail["digests_agree"], "tracing changed the outputs"
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in _spec()["per_layer"]}


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "slices", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
