"""Tests of the benchmark itself, outside the package's own test suite.

Run from the repository root:  python3 -m pytest -q perfbench/tests
Each test starts the benchmark command in a subprocess with one-second runs.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
SEED = 3

# swaps the regime schedulers of guarantee_suite for the naive all-m1 one
ALL_M1_LAUNCHER = (
    "import runpy, sys\n"
    "sys.path.insert(0, 'src')\n"
    "from hierstretch import algorithms, harness\n"
    "harness.scheduler_for_regime = lambda m: ('all-m1', algorithms.all_to_m1)\n"
    "sys.argv = ['perfbench/run.py'] + sys.argv[1:]\n"
    "runpy.run_path('perfbench/run.py', run_name='__main__')\n"
)


def bench(workload: str, seed: int = SEED, trace: int = 0, launcher=None, cwd=ROOT):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
    head = ["-c", launcher] if launcher else [BENCHMARK["command"][1]]
    return subprocess.run(
        [sys.executable, *head, *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


_runs: dict = {}


def parsed(workload: str, seed: int = SEED, trace: int = 0):
    """(report, result) of a successful run, cached across tests."""
    key = (workload, seed, trace)
    if key not in _runs:
        proc = bench(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _runs[key] = json.loads(lines[-2])["report"], json.loads(lines[-1])
    return _runs[key]


def declared(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    _, result = parsed(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    report, result = parsed(workload, trace=1)
    assert result["correct"] is True
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    assert units == declared("per_layer")
    assert (ROOT / report["spans_file"]).is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_digests_and_exact_counters_unchanged(workload):
    untraced, _ = parsed(workload)
    traced, _ = parsed(workload, trace=1)
    assert traced["inputs_sha256"] == untraced["inputs_sha256"]
    assert traced["digest"] == untraced["digest"]
    assert traced["counters"] == untraced["counters"]
    assert traced["reference"]["digest"] == traced["reference"]["expected"]


def test_seeds_change_inputs_but_not_metric_names():
    first_report, first = parsed("guarantees", seed=SEED)
    second_report, second = parsed("guarantees", seed=SEED + 1)
    assert first_report["inputs_sha256"] != second_report["inputs_sha256"]
    assert first_report["digest"] != second_report["digest"]
    assert set(first["metrics"]) == set(second["metrics"])


def test_only_a_refusal_over_the_search_limit_is_accepted():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    limit = workloads.algorithms.EXACT_SEARCH_LIMIT
    over = f"{limit + 1} candidates exceed the exact-search limit {limit}"
    workloads.check_refusal("stream", "A", over)
    with pytest.raises(workloads.WrongResult):
        workloads.check_refusal("stream", "B", over)
    with pytest.raises(workloads.WrongResult):
        workloads.check_refusal(
            "stream", "A", f"{limit} candidates exceed the exact-search limit {limit}"
        )


def test_all_m1_scheduler_on_guarantees_fails_the_run():
    proc = bench("guarantees", launcher=ALL_M1_LAUNCHER)
    assert proc.returncode != 0
    assert "wrong result" in proc.stderr and "> bound" in proc.stderr
    assert '"correct": true' not in proc.stdout


def test_command_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("guarantees", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
