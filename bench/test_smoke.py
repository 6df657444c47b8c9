"""Smoke test of the benchmark at a tiny size.

    python -m pytest bench/test_smoke.py -q

Runs every workload end to end, untraced and traced, and checks that every
metric BENCHMARK.json names is reported with its unit and that no operation
failed. It is not part of the tier-1 suite, which collects only `tests/`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--scale", "0.05"]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert any(line.split()[:2] == ["fail_ratio", "0.0000"] for line in lines)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in spec
    }
    for metric in SPEC["end_to_end"]:
        assert any(line.split()[:1] == [metric["name"]] for line in lines), metric["name"]
    report = json.loads(next(line for line in lines if line.startswith("report "))[len("report "):])
    assert report["why"] == next(w["why"] for w in SPEC["workloads"] if w["name"] == workload)
    assert report["input"]["traces"] >= 1 and report["environment"]["seed"] == 3


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
