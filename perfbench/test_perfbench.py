"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload runs once at minimal size, untraced and traced, and must print
every declared metric with its unit; two traced runs with one seed must give
identical counters.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# enough operations to reach every code path of the workload's first round
MIN_OPS = {"oracle": 3, "experiment": 1, "family": 1, "zero_set": 3}


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *map(str, args)], cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    return proc


def result(workload, seed, trace):
    proc = run("--workload", workload, "--seed", seed, "--seconds", 1,
               "--trace", trace, "--ops", MIN_OPS[workload])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def declared(key):
    return {m["name"]: m["unit"] for m in BENCH[key]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    text, res = result(workload, 11, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    for name, unit in declared("end_to_end").items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in text)
    assert any(line.startswith("fail_ratio = 0 1") for line in text)
    assert f"op_p50_s samples = {res['attempted']}" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    text, res = result(workload, 11, 1)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared("per_layer")
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert any(line.startswith("trace.overhead = ") for line in text)
    # patching reached the names other modules bound at import time
    layer_call = {"oracle": "profile.refine_calls", "experiment": "perturbation.build_domain_calls",
                  "family": "geometry.classify_calls", "zero_set": "perturbation.mode_condition_calls"}
    assert values[layer_call[workload]] > 0
    assert values["src.loc"] > 0


@pytest.mark.parametrize("workload", ["oracle", "zero_set"])
def test_traced_counters_repeat_exactly(workload):
    units = declared("per_layer")
    counters = [name for name, unit in units.items()
                if unit != "s" and name != "trace.overhead"]
    _, first = result(workload, 5, 1)
    _, second = result(workload, 5, 1)
    assert {n: first["metrics"][n]["value"] for n in counters} == \
        {n: second["metrics"][n]["value"] for n in counters}


def test_missing_target_is_absent_not_zero(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import isoperim.arcs
    import tracing
    monkeypatch.delattr(isoperim.arcs, "_correct_s2")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics()
    assert "arcs._correct_s2" in tracer.absent
    assert "arcs.correct_calls" not in metrics and "arcs.correct_self_s" not in metrics
    assert metrics["arcs.build_arc_calls"] == 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("--workload", "family", "--seed", 1, "--seconds", 1,
                   "--trace", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
