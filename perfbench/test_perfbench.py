"""Tests of the benchmark itself, at the tiny input size."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run_command(*args, cwd=HERE.parent):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _names_units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = _run_command("--workload", workload, "--seed", "5", "--seconds", "1",
                        "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert _names_units(line["metrics"]) == want
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_with_pool_children():
    proc = _run_command("--workload", "witness", "--seed", "5", "--seconds", "1",
                        "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert _names_units(line["metrics"]) == want
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    # the waived sweeps at (1, 2) run only in the jobs=2 pool children:
    # 16 theorems x 10 poset pairs, 18 maps per pair
    assert metrics["kernels.sweep_pair.calls"] == 160
    assert metrics["kernels.sweep_pair.maps"] == 16 * 18
    assert metrics["theorems.pool.overhead_s"] > 0


def test_workload_lists_agree():
    names = tuple(w["name"] for w in BENCHMARK["workloads"])
    assert names == run.WORKLOADS == workloads.WORKLOADS


def test_layer_metric_table_matches_benchmark_json():
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()} == want


def test_tracer_restores_every_binding(tmp_path):
    import chaincover
    from chaincover import _kernels, poset, theorems

    before = (chaincover.verify, theorems.verify, _kernels.eval_theorem,
              poset.Poset.__dict__["from_leq_matrix"], theorems.mp)
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    assert chaincover.verify is theorems.verify is not before[0]
    tracer.uninstall()
    after = (chaincover.verify, theorems.verify, _kernels.eval_theorem,
             poset.Poset.__dict__["from_leq_matrix"], theorems.mp)
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("sweep", lambda ref: ref["sweep"]["1,2"]["sha256"].update(
            T_COVER_MAXCHAIN="0" * 64)),
        ("witness", lambda ref: ref["waived"]["1,2"]["T_COVER_MAXCHAIN"].update(
            note="first violation at pair 2, map 0")),
        ("witness", lambda ref: ref["search"]["2,2"]["GU|lo-fails|None"].update(
            sha256="0" * 64)),
    ],
)
def test_corrupted_reference_is_a_failure(workload, corrupt):
    ref = copy.deepcopy(workloads.load_reference())
    corrupt(ref)
    result = worker.run(workload, seed=5, seconds=0, trace=False, size_name="tiny", ref=ref)
    line, code = run.summarize(result, [0.1], trace=False)
    assert code == 1
    # one failed operation in each pass
    assert not line["correct"] and line["failed"] == len(result["passes"])
    problems = [msg for p in result["passes"] for msg in p["problems"]]
    assert problems and all("differ" in msg for msg in problems)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run_command("--workload", "sweep", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
