"""Smoke test of the end-to-end benchmark at ``--scale smoke``.

Runs every workload on 2,000 POIs with 128-bit keys (3 queries, or two
8-job serving batches), untraced and traced, and checks that each run
emits exactly the metrics ``BENCHMARK.json`` declares, with their units,
and that no operation failed.  Run it from the repository root::

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def _run(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    """``benchmarks/e2e/run.py`` of the checkout at ``root``, run from ``root``."""
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=root,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Result objects of every workload, untraced and traced."""
    out = tmp_path_factory.mktemp("e2e")
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            child = _run(
                "--workload", workload, "--scale", "smoke",
                "--trace", str(trace), "--out", str(out),
            )
            assert child.returncode == 0, child.stderr
            results[workload, trace] = json.loads(child.stdout.strip().splitlines()[-1])
    return out, results


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_declared_metrics_emitted_with_units(smoke_runs, workload, trace):
    result = smoke_runs[1][workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in declared}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_operation_failed(smoke_runs, workload, trace):
    result = smoke_runs[1][workload, trace]
    assert result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0


def test_traced_runs_write_spans(smoke_runs):
    spans = sorted(smoke_runs[0].glob("*.spans.jsonl"))
    assert len(spans) == len(WORKLOADS)
    first = json.loads(spans[0].read_text().splitlines()[0])
    assert set(first) == {"name", "start", "end", "parent", "query"}


def test_compare_reads_run_records(smoke_runs):
    out = smoke_runs[0]
    child = _run("compare", str(out), str(out))
    assert child.returncode == 0, child.stderr
    assert "no worse" in child.stdout


def test_defaults_match_benchmark_json():
    sys.path.insert(0, str(HERE))
    try:
        import run
    finally:
        sys.path.remove(str(HERE))
    assert run.DEFAULT_SECONDS == DECLARED["run_seconds"]
    assert list(run.WORKLOAD_NAMES) == WORKLOADS


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    child = _run("--workload", WORKLOADS[0], "--seconds", "1", root=tmp_path)
    assert child.returncode != 0
    assert child.stdout == ""
