"""Smoke tests for the benchmark, at the tiny command sizes.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
Each run goes through a subprocess, as the benchmark itself does, so the
import shim never touches the test process's own toruslab import.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# with --seconds 0 a run makes exactly one untraced pass
OPS_PER_PASS = {"orbit": 20, "batch-small": 5, "survey": 3}


def _bench(workload, trace, prelude=""):
    """Run one tiny benchmark pass; ``prelude`` runs after ``ops`` loads."""
    args = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r})\n"
            f"import ops, run\n{prelude}\n"
            f"raise SystemExit(run.main({args!r}))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return done, [json.loads(line) for line in lines[-2:]]


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_operation_passes_with_every_end_to_end_metric(workload):
    done, (info, result) = _bench(workload, 0)
    assert done.returncode == 0, done.stderr
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == OPS_PER_PASS[workload]
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = info["env"]
    assert env["workload"] == workload and env["jobs"] == 1
    assert {"python", "numpy", "scipy", "cpus", "git_commit", "seed",
            "import_shim"} <= set(env)
    assert info["named"]["fail_ratio"]["value"] == 0.0


def test_traced_run_reports_every_per_layer_metric():
    done, (info, result) = _bench("batch-small", 1)
    assert done.returncode == 0, done.stderr
    assert result["correct"]
    assert result["attempted"] == 3 * OPS_PER_PASS["batch-small"]
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _names("per_layer")
    assert result["metrics"]["work.batch_row_steps"]["value"] > 0
    assert result["metrics"]["integrators.field_evals_per_step.rk4"][
        "value"] == 4.0


def test_violated_tolerance_counts_as_a_failure():
    # no drift can be negative, so every invariants check must fail
    done, (info, result) = _bench(
        "batch-small", 0,
        prelude="ops.TOL['invariants.energy_drift'] = -1.0")
    assert done.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] < 1.0
    assert info["named"]["fail_ratio"]["value"] > 0.0
    assert "FAIL verify invariants" in done.stderr
    assert "energy_drift" in done.stderr


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_shim_rewrites_exactly_the_slice_defaults():
    sys.path.insert(0, str(BENCH))
    try:
        import shim
    finally:
        sys.path.remove(str(BENCH))
    text = (ROOT / "src" / "toruslab" / "systems.py").read_text()
    if shim._OLD not in text:
        pytest.skip("the slice defaults are fixed in the source")
    patched = shim.patched_systems_source(text)
    changed = [(a, b) for a, b in zip(text.splitlines(),
                                      patched.splitlines()) if a != b]
    assert len(changed) == 4
    assert all(b == a.replace(shim._OLD, shim._NEW) for a, b in changed)
    with pytest.raises(shim.ShimMismatch):
        shim.patched_systems_source(text.replace(shim._OLD, "slice = None",
                                                 1))
