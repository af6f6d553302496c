"""Tests of the benchmark itself, on the smoke inputs.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload):
    res, _ = result("--workload", workload, "--trace", "0")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    assert got == units("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    res, _ = result("--workload", workload, "--trace", "1")
    # correct includes: traced artifacts equal the untraced ones, and the
    # module self times plus the uncovered rest add up to the wall time
    assert res["correct"]
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    assert got == units("per_layer")


def test_corrupted_output_is_a_failed_op():
    res, out = result("--workload", "percurve-quad", "--corrupt")
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert res["metrics"]["ops_ok_frac"]["value"] < 1.0
    assert "check failed" in out


def test_one_command_prints_every_workload():
    _, out = result("--workload", "all")
    for name in WORKLOADS:
        assert f"== {name} " in out
    for metric in [*units("end_to_end"), "ops_failed_frac"]:
        assert out.count(f"   {metric} ") == len(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
