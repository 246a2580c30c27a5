"""Tests of the benchmark itself.

    python3 -m pytest bench -q

Short runs of every workload must print exactly the metrics BENCHMARK.json
names, with their units, and pass their own output checks; the tracer must
put back every attribute it wrapped, also when the traced code raises.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from tracer import Tracer, dplens_targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# counts and shares that follow from the workload definitions at the seed code
EXPECTED = {
    ("curvature_mlp", "model.psg_calls_per_hvp"): 2.0,
    ("curvature_mlp", "hessian.hvp_calls_per_snapshot"): 16 + 64 + 1.0,
    ("curvature_mlp", "model.forward_passes_per_step"): 2.0,
    ("dp_train_mlp", "model.forward_passes_per_step"): 2.0,
    ("dp_train_mlp", "hessian.share"): 0.0,
    ("dp_train_mlp", "privacy.calls"): 1.0,
    ("oracle_quad", "model.forward_passes_per_step"): 1.0,
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if (workload, name) in EXPECTED:
            assert metric["value"] == EXPECTED[workload, name], name
    if trace and workload == "curvature_mlp":
        assert result["metrics"]["hessian.share"]["value"] >= 0.9


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "dp_train_mlp", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _attributes(targets):
    return {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in targets}


def test_tracer_restores_every_attribute_when_the_traced_code_raises():
    from dplens import privacy, trainer

    targets = dplens_targets()
    before = _attributes(targets)
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.install(targets):
            assert trainer.privatize_gradient is not before[trainer, "privatize_gradient"]
            privacy.calibrate_sigma(0, 10, 10, privacy.PrivacyBudget(1.0, 1e-5))
    assert all(owner.__dict__[attr] is f for (owner, attr), f in before.items())
    # the failed call still closed its span
    assert len(tracer.durations["privacy.calibrate_sigma"]) == 1
    assert tracer.active("privacy.calibrate_sigma") == 0


def test_tracer_wraps_every_site_a_caller_looks_up():
    from dplens import attacks, clipping, hessian, model, trainer

    names = {(owner, attr): name for owner, attr, name, _ in dplens_targets()}
    assert names[trainer, "privatize_gradient"] == "clipping.privatize_gradient"
    assert names[attacks, "privatize_gradient"] == "clipping.privatize_gradient"
    assert names[clipping, "privatize_gradient_many"] == "clipping.privatize_gradient_many"
    assert names[trainer, "stats_snapshot"] == "hessian.stats_snapshot"
    assert names[hessian, "trace_h_sigma"] == "hessian.trace_h_sigma"
    assert names[model.TinyMlpTask, "hvp"] == "model.hvp"
    assert names[model.QuadraticTask, "population_losses"] == "model.population_losses"
