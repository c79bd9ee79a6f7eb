"""Batched scoring plane throughput — windows/s versus the per-window loop.

The vectorized plane (columnar :class:`~repro.trace.batch.WindowBatch` ->
``pmf_matrix`` -> batched KL gate + LOF) must produce decisions identical to
the per-window detector while being substantially faster.  This benchmark
drives both paths over the *same* synthetic stream, checks the decisions
match, and records how many times more windows per second the batched plane
processes (``extra_info["timing_floor"]``); ``benchmarks/run_benchmarks.py``
asserts the 3x floor on the archived run.  The stream uses a 10k events/s
rate (~400 events per 40 ms window), in the ballpark of the paper's
platform traces (5.9 GB over 6 h 17 m).
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.detector import OnlineAnomalyDetector
from repro.analysis.model import ReferenceModel
from repro.config import DetectorConfig
from repro.trace.batch import batch_windows
from repro.trace.event import EventTypeRegistry
from repro.trace.generator import SyntheticTraceGenerator
from repro.trace.stream import windows_by_duration

from run_benchmarks import timing_floor

#: Event mix of the synthetic stream (same shape as the per-window benchmark).
MIX = {
    "mb_row_decode": 10.0,
    "frame_decode_start": 1.0,
    "frame_decode_end": 1.0,
    "frame_display": 1.0,
    "vsync": 1.0,
    "audio_decode": 2.0,
    "buffer_push": 1.0,
    "buffer_pop": 1.0,
    "demux_packet": 1.0,
    "syscall_enter": 1.0,
    "syscall_exit": 1.0,
}

WINDOW_DURATION_US = 40_000
EVENT_RATE_PER_S = 10_000
BATCH_SIZE = 64
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def model_and_windows():
    registry = EventTypeRegistry.with_default_types()
    reference_generator = SyntheticTraceGenerator(MIX, rate_per_s=EVENT_RATE_PER_S, seed=1)
    reference = list(
        windows_by_duration(reference_generator.events(60.0), WINDOW_DURATION_US)
    )
    model = ReferenceModel(k_neighbours=20).learn(reference, registry)
    live_generator = SyntheticTraceGenerator(MIX, rate_per_s=EVENT_RATE_PER_S, seed=2)
    windows = list(
        windows_by_duration(live_generator.events(20.0), WINDOW_DURATION_US)
    )
    return model, registry, windows


def run_serial(model, registry, windows):
    detector = OnlineAnomalyDetector(
        model, DetectorConfig(k_neighbours=20, lof_threshold=1.2), registry
    )
    return [detector.process(window) for window in windows]


def run_batched(model, registry, windows):
    detector = OnlineAnomalyDetector(
        model, DetectorConfig(k_neighbours=20, lof_threshold=1.2), registry
    )
    decisions = []
    for batch in batch_windows(iter(windows), registry, BATCH_SIZE):
        decisions.extend(detector.process_batch(batch))
    return decisions


def best_of(fn, repetitions=5):
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_throughput_speedup(model_and_windows, benchmark):
    model, registry, windows = model_and_windows

    # Equivalence first: a fast plane that changes decisions is worthless.
    serial_decisions = run_serial(model, registry, windows)
    batched_decisions = run_batched(model, registry, windows)
    assert len(serial_decisions) == len(batched_decisions)
    for serial, batched in zip(serial_decisions, batched_decisions):
        assert serial.outcome == batched.outcome
        assert serial.lof_score == batched.lof_score

    n_windows = benchmark(lambda: len(run_batched(model, registry, windows)))

    serial_s = best_of(lambda: run_serial(model, registry, windows))
    batched_s = best_of(lambda: run_batched(model, registry, windows))
    serial_rate = n_windows / serial_s
    batched_rate = n_windows / batched_s
    speedup = serial_rate and batched_rate / serial_rate
    real_time_margin = (WINDOW_DURATION_US / 1e6) / (batched_s / n_windows)
    print()
    print(
        f"per-window: {serial_rate:,.0f} windows/s | "
        f"batched({BATCH_SIZE}): {batched_rate:,.0f} windows/s | "
        f"speedup {speedup:.2f}x | real-time margin {real_time_margin:.0f}x"
    )

    benchmark.extra_info["timing_floor"] = timing_floor(
        "batched/per-window windows/s", speedup, minimum=MIN_SPEEDUP
    )
