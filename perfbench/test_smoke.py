"""Smoke test of the benchmark: every workload at a tiny instance count.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_with_its_unit_and_no_errors(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--instances", "8")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    record = json.loads(
        (ROOT / ".perfbench" / "results" / f"{workload}-seed7-trace{trace}.json").read_text())
    assert record["error_rate"] == 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checks_catch_a_wrong_output(workload, tmp_path):
    polyflats = run.import_polyflats()
    instances = workloads.WORKLOADS[workload](7, tmp_path, 4, polyflats)
    for inst in instances:
        _, results = run.run_instance(polyflats, inst)
        files = run.read_outputs(inst.outputs)
        assert inst.check(results, files) == []
        code, stdout, stderr = results[0]
        bad = [(code, stdout.replace("\n", " \n", 1), stderr)] + results[1:]
        assert inst.check(bad, files)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "wide-tables", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
