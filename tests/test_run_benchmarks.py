"""The archived benchmark run asserts the timing floors Tier-1 only records."""

from __future__ import annotations

import importlib.util
import json
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


def isolate(run_benchmarks, wall_ratio):
    floor = run_benchmarks.timing_floor("isolate/abort wall", wall_ratio, maximum=1.05)
    return {"fullname": "isolate", "extra_info": {"timing_floor": floor}}


def test_floors_met(run_benchmarks):
    stats = {"benchmarks": [sweep({"1": 1.0, "2": 1.6}), isolate(run_benchmarks, 1.01)]}
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
        {"benchmarks": [isolate(run_benchmarks, 1.12)]}, cpu_count=2
    )
    assert failures == ["isolate: isolate/abort wall 1.12x exceeds 1.05x"]


#: The four floors Tier-1 records but only the archived run asserts:
#: (bench, ratio, bound keyword, bound, a value that misses it).
RECORDED_FLOORS = [
    ("test_batched_throughput_speedup", "batched/per-window windows/s", "minimum", 3.0, 2.9),
    ("test_fleet_throughput_speedup", "fleet/sequential windows/s", "minimum", 1.5, 1.03),
    ("test_columnar_ingest_speedup", "columnar/object windows/s (binary)", "minimum", 2.0, 1.9),
    ("test_streaming_ingest_overhead", "one-shot/streaming windows/s (binary)", "maximum", 2.5, 2.6),
]


def recorded(run_benchmarks, bench, ratio, bound_name, bound, value):
    floor = run_benchmarks.timing_floor(ratio, value, **{bound_name: bound})
    return {"fullname": bench, "extra_info": {"timing_floor": floor}}


def archived_exit_code(run_benchmarks, monkeypatch, tmp_path, stats):
    """Exit code of ``run_benchmarks.main`` when pytest passes and archives
    ``stats``."""
    output = tmp_path / "bench.json"

    def fake_pytest(command, cwd, env):
        output.write_text(json.dumps(stats))
        return 0

    monkeypatch.setattr(run_benchmarks.subprocess, "call", fake_pytest)
    return run_benchmarks.main(["-o", str(output)])


@pytest.mark.parametrize("bench, ratio, bound_name, bound, missed", RECORDED_FLOORS)
def test_missed_recorded_floor_fails_the_archived_run(
    run_benchmarks, monkeypatch, tmp_path, bench, ratio, bound_name, bound, missed
):
    met = bound * (1.1 if bound_name == "minimum" else 0.9)
    stats = {"benchmarks": [recorded(run_benchmarks, bench, ratio, bound_name, bound, met)]}
    assert archived_exit_code(run_benchmarks, monkeypatch, tmp_path, stats) == 0
    stats = {"benchmarks": [recorded(run_benchmarks, bench, ratio, bound_name, bound, missed)]}
    assert archived_exit_code(run_benchmarks, monkeypatch, tmp_path, stats) == 1
    (failure,) = run_benchmarks.timing_floor_failures(stats, cpu_count=2)
    assert failure.startswith(f"{bench}: {ratio} {missed:.2f}x")


def test_smoke_runs_record_ratios_without_bounds(run_benchmarks):
    floor = run_benchmarks.timing_floor("columnar/object windows/s (binary)", 0.4)
    stats = {"benchmarks": [{"fullname": "smoke", "extra_info": {"timing_floor": floor}}]}
    assert run_benchmarks.timing_floor_failures(stats, cpu_count=2) == []
