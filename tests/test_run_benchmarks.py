"""The archived benchmark run asserts the timing floors Tier-1 only records."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "run_benchmarks.py"


@pytest.fixture(scope="module")
def run_benchmarks():
    spec = importlib.util.spec_from_file_location("run_benchmarks", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep(speedups, fork_transport=True):
    return {
        "fullname": "sweep",
        "extra_info": {
            "worker_speedups": speedups,
            "min_speedup": 1.5,
            "fork_transport": fork_transport,
        },
    }


def overhead(value):
    return {
        "fullname": "isolate",
        "extra_info": {"isolate_overhead": value, "max_overhead": 0.05},
    }


def test_floors_met(run_benchmarks):
    stats = {"benchmarks": [sweep({"1": 1.0, "2": 1.6}), overhead(0.01)]}
    assert run_benchmarks.timing_floor_failures(stats, cpu_count=2) == []


def test_sweep_floor_applies_to_counts_the_machine_can_run(run_benchmarks):
    # 4 workers on 2 cpus cannot count for or against the floor.
    stats = {"benchmarks": [sweep({"1": 1.0, "2": 1.38, "4": 1.9})]}
    failures = run_benchmarks.timing_floor_failures(stats, cpu_count=2)
    assert len(failures) == 1 and "1.38x (2 workers, 2 cpus)" in failures[0]
    assert run_benchmarks.timing_floor_failures(stats, cpu_count=4) == []


def test_sweep_floor_waived_without_parallel_hardware_or_fork(run_benchmarks):
    slow = {"1": 1.0, "2": 0.9}
    assert run_benchmarks.timing_floor_failures(
        {"benchmarks": [sweep(slow)]}, cpu_count=1
    ) == []
    assert run_benchmarks.timing_floor_failures(
        {"benchmarks": [sweep(slow, fork_transport=False)]}, cpu_count=2
    ) == []


def test_isolate_overhead_bound(run_benchmarks):
    failures = run_benchmarks.timing_floor_failures(
        {"benchmarks": [overhead(0.12)]}, cpu_count=2
    )
    assert len(failures) == 1 and "+12.0%" in failures[0]
