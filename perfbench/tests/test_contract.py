"""The printed result matches BENCHMARK.json, and a checkout without sources fails."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_metrics_and_workloads_match_the_code():
    assert _declared("end_to_end") == workloads.END_TO_END
    assert _declared("per_layer") == workloads.PER_LAYER
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_the_declared_names(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "compute_oneshot",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)


def test_fails_without_printing_a_result_when_the_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
