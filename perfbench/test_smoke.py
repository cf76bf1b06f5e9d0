"""Smoke test of the benchmark: one short op per workload, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q

Each run uses ``--seconds 0``, which times a single op after the warm-up op.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace:
        # self times partition the op spans only if every span kept its
        # parent, including those opened on run_table's pool worker
        assert abs(result["metrics"]["trace.self_sum_frac"]["value"] - 1.0) < 1e-9
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if line.startswith("  ")}
    for name, unit in END_TO_END:
        assert (name, unit) in printed, f"{name} [{unit}] not printed"


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
