"""Smoke tests of the benchmark itself, at a tiny run length.

    python3 -m pytest perfbench/smoke.py

Every workload runs end to end through ``perfbench/run.py`` and must report
every declared metric with its declared unit, decide correctly, and keep its
metric names when the seed (and so the input) changes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
SECONDS = "0.3"

_runs: Dict[Tuple[str, int, int], Tuple[Dict[str, Any], Dict[str, Any]]] = {}


def run(workload: str, seed: int, trace: int = 0) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """(result, provenance) of one benchmark run, cached per arguments."""
    key = (workload, seed, trace)
    if key not in _runs:
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        assert completed.returncode == 0, completed.stderr[-3000:]
        lines = completed.stdout.strip().splitlines()
        provenance = next(line for line in lines if line.startswith("provenance "))
        _runs[key] = (json.loads(lines[-1]),
                      json.loads(provenance[len("provenance "):]))
    return _runs[key]


def declared(section: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def reported(result: Dict[str, Any]) -> Dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(workload: str) -> None:
    result, provenance = run(workload, seed=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert reported(result) == declared("end_to_end")
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert provenance["mismatches"] == 0 and provenance["verified"] > 0
    assert provenance["pin_ok"] is True
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_names(workload: str) -> None:
    first, first_provenance = run(workload, seed=1)
    second, second_provenance = run(workload, seed=2)
    assert first_provenance["inputs"] != second_provenance["inputs"]
    assert reported(first) == reported(second)
    assert second["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload: str) -> None:
    result, provenance = run(workload, seed=1, trace=1)
    assert reported(result) == declared("per_layer")
    assert result["correct"] is True
    assert provenance["traced_identical"] is True
    assert result["metrics"]["trace.coverage_frac"]["value"] > 0


def test_fails_without_the_library(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
