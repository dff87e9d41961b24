"""Smoke tests for the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs untraced and traced with ``--scale tiny``; the tests
assert that every metric ``BENCHMARK.json`` names is emitted with its
unit, that each layer metric is non-zero on every workload that
exercises it (bar the exceptions ``metrics.json`` lists under
``may_be_zero``), and that the benchmark refuses to run without the
program.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOG = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: A seed not used while the benchmark was written.
UNSEEN_SEED = 4242


def _vector_backend_active() -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.engine.columnar import vector_backend_active
    finally:
        sys.path.remove(str(ROOT / "src"))
    return vector_backend_active()


#: The replay materializes columnar kernels only when the executor would.
VECTOR = _vector_backend_active()


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(UNSEEN_SEED), "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@functools.lru_cache(maxsize=None)
def _result(workload: str, trace: int) -> dict:
    process = _run(workload, trace)
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_catalog_describes_every_declared_metric():
    layer_names = {metric["name"] for metric in SPEC["per_layer"]}
    assert set(CATALOG["workloads"]) == set(WORKLOADS)
    assert set(CATALOG["per_layer"]) == layer_names
    assert set(CATALOG["may_be_zero"]) <= layer_names
    for name, entry in CATALOG["per_layer"].items():
        assert entry["module"] and entry["function"], name
        assert set(entry["workloads"]) <= set(WORKLOADS), name
        if entry["moves"] is not None:
            assert set(entry["on"]) <= set(entry["workloads"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted(workload):
    metrics = _result(workload, 0)["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} == {
        metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]
    }
    for name, metric in metrics.items():
        assert metric["value"] > 0, name


def _exercised(workload: str, columnar: bool) -> list[str]:
    """Layer metrics ``workload`` must measure as non-zero."""
    return [
        name for name, entry in CATALOG["per_layer"].items()
        if workload in entry["workloads"]
        and name not in CATALOG["may_be_zero"]
        and name.startswith("columnar.") == columnar
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_are_emitted_and_measured(workload):
    metrics = _result(workload, 1)["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} == {
        metric["name"]: metric["unit"] for metric in SPEC["per_layer"]
    }
    out = ROOT / ".perfbench" / "out" / workload / f"seed-{UNSEEN_SEED}"
    layers = json.loads((out / "layers.json").read_text())
    exercised = _exercised(workload, columnar=False)
    assert exercised
    for name in exercised:
        assert metrics[name]["value"] > 0, f"{name} not measured on {workload}"
        assert metrics[name]["value"] == layers[name]
    assert (out / "trace.jsonl").stat().st_size > 0
    profile = json.loads((out / "profile.json").read_text())
    assert any(entry["module"].startswith("repro.") for entry in profile["modules"])


@pytest.mark.skipif(
    not VECTOR,
    reason="columnar kernels run only with the NumPy backend "
    "(numpy installed and REPRO_COLUMNAR_NUMPY not 0)",
)
@pytest.mark.parametrize(
    "workload", [workload for workload in WORKLOADS if _exercised(workload, columnar=True)]
)
def test_columnar_layer_is_measured(workload):
    metrics = _result(workload, 1)["metrics"]
    for name in _exercised(workload, columnar=True):
        assert metrics[name]["value"] > 0, f"{name} not measured on {workload}"


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        process = _run(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert process.returncode != 0
    assert process.stdout.strip() == ""
