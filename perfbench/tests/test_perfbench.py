"""Tests of the benchmark itself, at smoke-test sizes.

    python3 -m pytest perfbench/tests
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import matvecnet  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, seed: int, trace: bool) -> dict:
    workdir = ROOT / ".perfbench_work" / f"test-{workload}-{seed}-{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return workloads.run(workload, seed, 0.0, trace, workdir, tiny=True)
    finally:
        shutil.rmtree(workdir)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_rows_equal_untraced_rows(workload):
    plain = tiny_run(workload, 0, False)
    traced = tiny_run(workload, 0, True)
    assert plain["failures"] == [] and traced["failures"] == []
    assert traced["rows"] and all(row == plain["rows"][0] for row in traced["rows"])
    assert "layers" in traced and "layers" not in plain


@pytest.mark.parametrize("workload", NAMES)
def test_seed_changes_samples_not_network(workload):
    a = tiny_run(workload, 0, False)
    b = tiny_run(workload, 1, False)
    assert a["network"] == b["network"]
    assert a["rows"][0] != b["rows"][0]


def test_tracer_counts_spans_and_restores_the_package():
    original = matvecnet.network.evaluate_batch
    net = matvecnet.matvec_net(2, 2, 1.0, 2.0 ** -4)
    tracer = Tracer()
    with tracer:
        assert matvecnet.evaluate_batch is not original
        assert matvecnet.verification.evaluate_batch is not original
        matvecnet.sup_error_matvec(net, 2, 2, 1.0, samples=10, seed=0)
    assert matvecnet.network.evaluate_batch is original
    assert matvecnet.verification.evaluate_batch is original
    totals = tracer.snapshot()
    assert totals["rng.stream.calls"] == 10
    assert totals["rng.Generator.random.calls"] == 10
    assert totals["network.evaluate_batch.calls"] == 2
    assert totals["batch_rows"] == 10 + len(matvecnet.probe_inputs(2, 2, 1.0))
    call = totals["verification.sup_error_matvec.incl_s"]
    assert 0 < totals["verification.sup_error_matvec.self_s"] < call


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_prints_every_per_layer_metric(workload):
    result = _run_command(workload, trace=1)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_smoke_run_prints_every_end_to_end_metric():
    result = _run_command("small_sobolev", trace=0)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "real_sup", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _run_command(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result
