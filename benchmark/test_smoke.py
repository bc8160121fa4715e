"""Smoke test of the benchmark itself: a schema check, not a timing gate.

    python3 -m pytest -q benchmark/test_smoke.py

Every workload runs at the tiny size.  The test asserts that each metric
named in BENCHMARK.json is printed with its unit, that no operation fails,
that two traced runs give identical per-layer counts, and that the benchmark
refuses to run without the package source next to it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmark" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--size", "tiny", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    return result


def assert_declared(proc: subprocess.CompletedProcess, result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        line = rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$"
        assert re.search(line, proc.stdout, re.M), f"{m['name']} not printed with its unit"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = run(workload, 0)
    result = result_of(proc)
    assert_declared(proc, result, DECLARED["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert re.search(r"^\s+fail_frac\s+0 1$", proc.stdout, re.M)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    procs = [run(workload, 1) for _ in range(2)]
    results = [result_of(p) for p in procs]
    for proc, result in zip(procs, results):
        assert_declared(proc, result, DECLARED["per_layer"])
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "s"} for r in results]
    assert counts[0] == counts[1]


def test_refuses_without_package_source():
    bare = ROOT / ".bench_smoke"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(WORKLOADS[0], 0, root=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
