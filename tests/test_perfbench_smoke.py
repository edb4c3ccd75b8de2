"""Toy runs of the benchmark workloads that read the audit: every job's
checks pass and none fails."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload", ["simulate_two_qubit_dense", "compare_chain5", "sweep_chain3", "steady_chain5"]
)
def test_benchmark_toy_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--toy", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", ["simulate_two_qubit_dense", "sweep_chain3"])
def test_traced_toy_run_sees_every_hooked_layer(workload):
    """The tracer wraps lindloc's functions by name; a CLI path that goes
    around them would read 0 for the layers below."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--toy", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    for name in ("cli.load_config.calls", "models.spec.calls", "liouvillian.build.calls"):
        assert result["metrics"][name]["value"] > 0, name


def test_benchmark_self_test_passes():
    """perfbench/selftest.py: every workload at toy size in both modes, with
    the metrics and units that BENCHMARK.json names."""
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
