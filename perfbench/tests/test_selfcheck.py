"""Self-checks of the benchmark (not part of the library's test suite).

    python3 -m pytest -q perfbench/tests

The correctness gate must reject outputs nudged by ten tolerances, the
exact per-layer counts must repeat bit for bit between two traced runs of
one seed, and BENCHMARK.json must name the metrics run.py prints.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ops  # noqa: E402
import tracer  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def refs():
    return ops.load_references()


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_gate_rejects_ten_tolerances(workload, refs):
    for op in ops.build_cycle(workload, SEED, refs):
        tol = ops.tolerance(op.ref, 0.0)
        assert ops.err_ratio(op, op.ref, 0.0, "ok") == 0.0
        for sign in (1.0, -1.0):
            nudged = op.ref + sign * 10.0 * tol
            assert ops.err_ratio(op, nudged, 0.0, "ok") > 1.0
            # a known defect explains only its own signature, not any miss
            assert ops.expected_failure(op, nudged) is None
        assert ops.err_ratio(op, math.nan, 0.0, "ok") == math.inf
        assert ops.err_ratio(op, op.ref, 0.0, "error:ValueError") == math.inf


def test_gate_rejects_nudged_outputs(refs):
    """Actual outputs of the cheap ops pass; the same outputs moved by ten
    tolerances (their own standard error included) fail."""
    cheap = [op for op in ops.build_cycle("pointwise", SEED, refs)
             if op.kind not in ("het_density",)]
    for op in cheap:
        value, se, status = op.call()
        assert ops.err_ratio(op, value, se, status) <= 1.0, op.kind
        assert ops.err_ratio(op, value + 10.0 * ops.tolerance(op.ref, se), se, status) > 1.0


def test_defect_signatures(refs):
    cycle = ops.build_cycle("series", SEED, refs)
    shpv = next(op for op in cycle if op.kind == "sh_postvar")
    assert ops.expected_failure(shpv, 2.0 * shpv.ref) is ops.SHPV_2X
    edge = [op for op in cycle if ops.F2 in op.defects]
    assert edge and all(ops.expected_failure(op, math.nan) is ops.F2 for op in edge)


def test_seed_fixes_inputs(refs):
    a = ops.build_cycle("series", SEED, refs)
    b = ops.build_cycle("series", SEED, refs)
    c = ops.build_cycle("series", SEED + 1, refs)
    assert [(op.kind, op.ref) for op in a] == [(op.kind, op.ref) for op in b]
    assert [(op.kind, op.ref) for op in a] != [(op.kind, op.ref) for op in c]


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_exact_counts_repeat(workload):
    runs = []
    for _ in range(2):
        proc = _run("--workload", workload, "--seed", str(SEED), "--seconds", "0.01",
                    "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    counts = [tracer.exact_counts({k: v["value"] for k, v in r["metrics"].items()})
              for r in runs]
    assert counts[0] == counts[1]
    assert runs[0]["correct"] and runs[0]["attempted"] == runs[1]["attempted"]


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracer.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
    proc = _run("--workload", "series", "--seed", str(SEED), "--seconds", "0.01")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in metrics.items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "series",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_best_times_take_each_ops_least_repeat():
    import run

    # two cycles of three ops
    assert run.best_times([3.0, 1.0, 2.0, 5.0, 2.0, 1.0], 3) == [3.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        run.best_times([1.0, 2.0], 3)
