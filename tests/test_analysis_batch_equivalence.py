"""Batch/serial equivalence: the vectorized plane must be a drop-in.

The contract of the batch scoring plane is that it changes *cost*, never
*results*: ``pmf_matrix`` rows equal per-window pmf counts,
``query_many``/``score_many`` equal their per-query loops, and
``OnlineAnomalyDetector.process_batch`` reproduces the per-window ``process``
loop decision for decision — outcomes, KL divergences, LOF scores, counters
and the running past pmf — for any batch size, including streams with empty
windows and event types that appear for the first time mid-batch.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.detector import DetectionOutcome, OnlineAnomalyDetector
from repro.analysis.divergence import (
    _smooth_normalise,
    _symmetric_kl_raw,
    kl_divergence,
    kl_divergence_matrix,
    symmetric_kl_divergence,
    symmetric_kl_divergence_matrix,
)
from repro.analysis.knn import BruteForceKnn
from repro.analysis.lof import LocalOutlierFactor
from repro.analysis.model import ReferenceModel
from repro.analysis.pmf import Pmf, merge_counts, pmf_from_window, pmf_matrix
from repro.config import DetectorConfig, MonitorConfig
from repro.trace.batch import WindowBatch, batch_windows
from repro.trace.codec import encoded_trace_size
from repro.trace.event import EventTypeRegistry, TraceEvent
from repro.trace.generator import PeriodicTraceGenerator, SyntheticTraceGenerator
from repro.trace.stream import windows_by_duration
from repro.trace.window import TraceWindow

NORMAL_MIX = {"steady": 8.0, "tick": 2.0, "flush": 1.0, "poll": 1.0}
#: The anomaly mix deliberately introduces event types absent from the
#: reference run, so live monitoring grows the registry mid-stream.
ANOMALY_MIX = {"steady": 1.0, "tick": 4.0, "burst": 3.0, "stall": 2.0}


def reference_setup(seed: int, rate: float = 2_000.0):
    registry = EventTypeRegistry()
    generator = SyntheticTraceGenerator(NORMAL_MIX, rate_per_s=rate, seed=seed)
    reference = list(windows_by_duration(generator.events(4.0), 40_000))
    model = ReferenceModel(k_neighbours=10).learn(reference, registry)
    return model, registry


def live_windows(seed: int, rate: float = 2_000.0, duration_s: float = 3.0):
    generator = PeriodicTraceGenerator(
        NORMAL_MIX,
        ANOMALY_MIX,
        anomaly_intervals=[(1.0, 1.6), (2.2, 2.6)],
        rate_per_s=rate,
        seed=seed,
    )
    return list(windows_by_duration(generator.events(duration_s), 40_000))


def decisions_equal(serial, batched) -> bool:
    if len(serial) != len(batched):
        return False
    for a, b in zip(serial, batched):
        if (
            a.window_index != b.window_index
            or a.start_us != b.start_us
            or a.end_us != b.end_us
            or a.n_events != b.n_events
            or a.outcome != b.outcome
            or a.lof_score != b.lof_score
        ):
            return False
        if not (
            a.kl_to_past == b.kl_to_past
            or (math.isnan(a.kl_to_past) and math.isnan(b.kl_to_past))
        ):
            return False
    return True


class TestPmfMatrixEquivalence:
    def test_rows_equal_per_window_pmfs(self):
        registry = EventTypeRegistry()
        windows = live_windows(seed=3)
        batch = WindowBatch.from_windows(windows, registry)
        matrix = pmf_matrix(batch, registry)
        for row, window in zip(matrix, windows):
            serial_registry_view = pmf_from_window(window, registry).counts
            assert np.array_equal(row[: len(serial_registry_view)], serial_registry_view)
            assert row[len(serial_registry_view):].sum() == 0.0

    def test_merge_counts_mirrors_pmf_merge(self):
        rng = np.random.default_rng(11)
        registry = EventTypeRegistry([f"t{i}" for i in range(6)])
        for _ in range(50):
            mine = np.round(rng.uniform(0, 40, size=6), 3)
            theirs = np.round(rng.uniform(0, 40, size=6), 3)
            decay = float(rng.uniform(0.05, 1.0))
            via_pmf = Pmf(mine, registry).merge(Pmf(theirs, registry), decay=decay)
            via_raw = merge_counts(mine, theirs, decay)
            assert np.array_equal(via_pmf.counts, via_raw)


class TestDivergenceMatrixEquivalence:
    def test_matrix_rows_equal_scalar_calls(self):
        rng = np.random.default_rng(4)
        rows = rng.uniform(0, 30, size=(20, 8))
        reference = rng.uniform(0, 30, size=8)
        sym = symmetric_kl_divergence_matrix(rows, reference, smoothing=1e-6)
        forward = kl_divergence_matrix(rows, reference, smoothing=1e-6)
        for i in range(len(rows)):
            assert sym[i] == pytest.approx(
                symmetric_kl_divergence(rows[i], reference, smoothing=1e-6),
                rel=1e-12,
            )
            assert forward[i] == pytest.approx(
                kl_divergence(rows[i], reference, smoothing=1e-6), rel=1e-12
            )

    def test_width_padding_matches_pmf_semantics(self):
        short = np.array([[3.0, 1.0]])
        long_ref = np.array([2.0, 1.0, 1.0])
        registry = EventTypeRegistry(["a", "b", "c"])
        expected = symmetric_kl_divergence(
            Pmf(np.array([3.0, 1.0, 0.0]), registry),
            Pmf(long_ref, registry),
            smoothing=1e-6,
        )
        got = symmetric_kl_divergence_matrix(short, long_ref, smoothing=1e-6)
        assert got[0] == pytest.approx(expected, rel=1e-12)


class TestKnnLofEquivalence:
    def test_query_many_rows_independent_of_batching(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(size=(200, 6))
        queries = rng.uniform(size=(32, 6))
        index = BruteForceKnn(points)
        full_d, full_i = index.query_many(queries, k=9)
        for start in (0, 5, 31):
            row_d, row_i = index.query_many(queries[start:start + 1], k=9)
            assert np.array_equal(full_d[start], row_d[0])
            assert np.array_equal(full_i[start], row_i[0])

    def test_query_many_matches_query_loop(self):
        rng = np.random.default_rng(8)
        points = rng.uniform(size=(120, 5))
        queries = rng.uniform(size=(10, 5))
        index = BruteForceKnn(points)
        many_d, many_i = index.query_many(queries, k=7)
        for row, query in enumerate(queries):
            one_d, one_i = index.query(query, k=7)
            assert np.allclose(many_d[row], one_d, atol=1e-9)
            assert np.array_equal(many_i[row], one_i)

    def test_score_many_equals_score_loop_bitwise(self):
        rng = np.random.default_rng(9)
        points = rng.uniform(size=(150, 5))
        queries = rng.uniform(size=(25, 5))
        lof = LocalOutlierFactor(k_neighbours=12).fit(points)
        batch = lof.score_many(queries)
        singles = np.array([lof.score(q) for q in queries])
        assert np.array_equal(batch, singles)

    def test_fit_with_more_than_k_identical_points(self):
        # Regression: heavily duplicated reference points must not crash fit
        # (the old padding path could index an empty distance row).
        points = np.vstack([np.ones((25, 3)), np.eye(3)])
        lof = LocalOutlierFactor(k_neighbours=20).fit(points)
        assert np.all(np.isfinite(lof.training_scores))
        assert np.isfinite(lof.score(np.ones(3)))
        assert np.isfinite(lof.score(np.array([5.0, 5.0, 5.0])))


class TestDetectorBatchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_process_batch_matches_process(self, seed, batch_size):
        model, serial_registry = reference_setup(seed)
        _, batch_registry = reference_setup(seed)
        windows = live_windows(seed=seed + 100)

        serial = OnlineAnomalyDetector(
            model, DetectorConfig(k_neighbours=10, lof_threshold=1.3), serial_registry
        )
        serial_decisions = [serial.process(w) for w in windows]

        batched = OnlineAnomalyDetector(
            model, DetectorConfig(k_neighbours=10, lof_threshold=1.3), batch_registry
        )
        batched_decisions = []
        for batch in batch_windows(iter(windows), batch_registry, batch_size):
            batched_decisions.extend(batched.process_batch(batch))

        assert decisions_equal(serial_decisions, batched_decisions)
        assert np.array_equal(serial.past_pmf.counts, batched.past_pmf.counts)
        assert serial.n_processed == batched.n_processed
        assert serial.n_merged == batched.n_merged
        assert serial.n_lof_computed == batched.n_lof_computed
        # at least one window should have introduced a new event type
        assert len(batch_registry) > model.dimension

    def test_empty_windows_match(self):
        model, serial_registry = reference_setup(seed=5)
        _, batch_registry = reference_setup(seed=5)
        # A very sparse stream: most 40 ms windows are empty.
        generator = SyntheticTraceGenerator(NORMAL_MIX, rate_per_s=20.0, seed=6)
        windows = list(windows_by_duration(generator.events(3.0), 40_000))
        assert any(w.is_empty for w in windows)

        config = DetectorConfig(k_neighbours=10, lof_threshold=1.3)
        serial = OnlineAnomalyDetector(model, config, serial_registry)
        serial_decisions = [serial.process(w) for w in windows]
        batched = OnlineAnomalyDetector(model, config, batch_registry)
        batched_decisions = []
        for batch in batch_windows(iter(windows), batch_registry, 16):
            batched_decisions.extend(batched.process_batch(batch))
        assert decisions_equal(serial_decisions, batched_decisions)

    def test_kl_gate_disabled_matches(self):
        model, serial_registry = reference_setup(seed=7)
        _, batch_registry = reference_setup(seed=7)
        windows = live_windows(seed=8)
        config = DetectorConfig(k_neighbours=10, lof_threshold=1.3, use_kl_gate=False)
        serial = OnlineAnomalyDetector(model, config, serial_registry)
        serial_decisions = [serial.process(w) for w in windows]
        batched = OnlineAnomalyDetector(model, config, batch_registry)
        batched_decisions = []
        for batch in batch_windows(iter(windows), batch_registry, 32):
            batched_decisions.extend(batched.process_batch(batch))
        assert decisions_equal(serial_decisions, batched_decisions)
        assert batched.n_lof_computed == sum(1 for w in windows if not w.is_empty)

    def test_empty_batch_is_a_noop(self):
        model, registry = reference_setup(seed=9)
        detector = OnlineAnomalyDetector(
            model, DetectorConfig(k_neighbours=10), registry
        )
        batch = WindowBatch.from_windows([], registry)
        assert detector.process_batch(batch) == []
        assert detector.n_processed == 0


class TestMonitorBatchEquivalence:
    def test_monitor_results_identical_across_batch_sizes(self):
        from repro.analysis.monitor import TraceMonitor

        windows = live_windows(seed=12, duration_s=2.0)
        results = []
        for batch_size in (1, 16):
            model, registry = reference_setup(seed=12)
            monitor = TraceMonitor(
                DetectorConfig(k_neighbours=10, lof_threshold=1.3),
                MonitorConfig(batch_size=batch_size),
                registry,
            )
            results.append(monitor.monitor_windows(iter(windows), model))
        serial_result, batched_result = results
        assert decisions_equal(serial_result.decisions, batched_result.decisions)
        # A batch of one is still a batch: the per-window ``process`` path
        # stays the independent oracle of the monitor's decisions and bytes.
        model, registry = reference_setup(seed=12)
        oracle = OnlineAnomalyDetector(
            model, DetectorConfig(k_neighbours=10, lof_threshold=1.3), registry
        )
        expected = [oracle.process(w) for w in windows]
        assert decisions_equal(expected, serial_result.decisions)
        assert [encoded_trace_size(w.events) for w in windows] == [
            d.window_bytes for d in serial_result.decisions
        ]
        assert [d.window_bytes for d in serial_result.decisions] == [
            d.window_bytes for d in batched_result.decisions
        ]
        assert serial_result.report == batched_result.report
        assert serial_result.recorded_indices == batched_result.recorded_indices
        assert serial_result.detector_stats == batched_result.detector_stats


class TestGateReplayExactness:
    """``process_batch`` computes the window side of the KL gate and the
    merge as matrix operations and rewrites the symmetric KL as
    ``0.5 * (sum(p * d) - sum(q * d))``.  That is only a refactor if the
    row-wise reductions equal the serial 1-D ones bit for bit."""

    @pytest.mark.parametrize("width", range(1, 301))
    def test_row_reductions_equal_one_dimensional_ones(self, width):
        rng = np.random.default_rng(width)
        counts = rng.integers(0, 50, size=(6, width)).astype(float)
        counts[1] = 0.0  # an all-zero row smooths to the uniform pmf
        counts[2, : width // 2] = 0.0
        smoothed = counts + 1e-6
        smoothed /= smoothed.sum(axis=1)[:, None]
        logs = np.log(smoothed)
        past = rng.random(width) * 30.0
        past_smoothed = _smooth_normalise(past, 1e-6)
        for row in range(len(counts)):
            one_d = _smooth_normalise(counts[row], 1e-6)
            assert np.array_equal(smoothed[row], one_d)
            assert np.array_equal(logs[row], np.log(one_d))
            assert smoothed.sum(axis=1)[row] == np.sum(smoothed[row])
            assert np.add.reduce(smoothed[row]) == np.sum(smoothed[row])
            # The rewritten KL equals the serial two-term form exactly.
            d = logs[row] - np.log(past_smoothed)
            rewritten = 0.5 * (
                float(np.add.reduce(smoothed[row] * d))
                - float(np.add.reduce(past_smoothed * d))
            )
            assert rewritten == _symmetric_kl_raw(counts[row], past, 1e-6)

    @staticmethod
    def assert_matches_serial(windows, config, batch_sizes=(1, 5, 64)):
        """Every batch size reproduces the per-window ``process`` loop."""
        model, serial_registry = reference_setup(seed=21)
        serial = OnlineAnomalyDetector(model, config, serial_registry)
        expected = [serial.process(window) for window in windows]
        for batch_size in batch_sizes:
            _, registry = reference_setup(seed=21)
            batched = OnlineAnomalyDetector(model, config, registry)
            decisions = []
            for batch in batch_windows(iter(windows), registry, batch_size):
                decisions.extend(batched.process_batch(batch))
            assert decisions_equal(expected, decisions), batch_size
            assert np.array_equal(serial.past_pmf.counts, batched.past_pmf.counts)
            assert batched.n_merged == serial.n_merged
            assert batched.n_lof_computed == serial.n_lof_computed
            assert all(decision.window_bytes == 0 for decision in decisions)
        return expected

    @staticmethod
    def growing_windows():
        """Normal traffic where two unseen types appear mid-stream, with a
        silent stretch of empty windows in between."""
        generator = SyntheticTraceGenerator(NORMAL_MIX, rate_per_s=2_000.0, seed=22)
        events = [e for e in generator.events(3.0) if not 1.4e6 <= e.timestamp_us < 1.7e6]
        extra = [
            TraceEvent(timestamp_us=500_123, etype="novel_a", core=0),
            TraceEvent(timestamp_us=900_456, etype="novel_b", core=1),
            TraceEvent(timestamp_us=2_100_789, etype="novel_a", core=0),
        ]
        events = sorted(events + extra, key=lambda e: e.timestamp_us)
        return list(windows_by_duration(events, 40_000))

    def test_registry_growth_and_short_past_mid_batch(self, monkeypatch):
        import repro.analysis.detector as detector_module

        windows = self.growing_windows()
        assert any(w.is_empty for w in windows)
        calls = []
        original = detector_module._symmetric_kl_raw

        def counting(*args):
            calls.append(len(args[1]))
            return original(*args)

        monkeypatch.setattr(detector_module, "_symmetric_kl_raw", counting)
        expected = self.assert_matches_serial(
            windows, DetectorConfig(k_neighbours=10, lof_threshold=1.3)
        )
        # Both replay paths ran: narrower windows fell back to the serial
        # KL against a past shorter than the batch width, the rest took
        # the matrix path.
        assert calls and min(calls) < len(NORMAL_MIX) + 2
        assert len(calls) < sum(1 for d in expected if d.n_events)

    @pytest.mark.parametrize(
        "config",
        [
            DetectorConfig(k_neighbours=10, lof_threshold=1.3, use_kl_gate=False),
            DetectorConfig(k_neighbours=10, lof_threshold=1.3, merge_decay=1.0),
            DetectorConfig(k_neighbours=10, lof_threshold=1.3, kl_threshold=10.0),
        ],
        ids=["no_gate", "decay_one", "merge_all"],
    )
    def test_gate_and_merge_settings(self, config):
        self.assert_matches_serial(self.growing_windows(), config)

    def test_empty_and_all_empty_batches(self):
        model, registry = reference_setup(seed=23)
        config = DetectorConfig(k_neighbours=10)
        detector = OnlineAnomalyDetector(model, config, registry)
        past = detector.past_pmf.counts.copy()
        assert detector.process_batch(WindowBatch.from_windows([], registry)) == []
        empty = [TraceWindow(index=i, start_us=40_000 * i, end_us=40_000 * (i + 1)) for i in range(5)]
        decisions = detector.process_batch(
            WindowBatch.from_windows(empty, registry), window_bytes=[0, 1, 2, 3, 4]
        )
        assert [d.outcome for d in decisions] == [DetectionOutcome.EMPTY] * 5
        assert all(math.isnan(d.kl_to_past) for d in decisions)
        assert [d.window_bytes for d in decisions] == [0, 1, 2, 3, 4]
        assert np.array_equal(detector.past_pmf.counts, past)
        assert detector.n_processed == 5

    def test_window_bytes_are_stamped_at_construction(self):
        windows = self.growing_windows()
        model, registry = reference_setup(seed=24)
        config = DetectorConfig(k_neighbours=10, lof_threshold=1.3)
        plain = OnlineAnomalyDetector(model, config, registry)
        stamped = OnlineAnomalyDetector(model, config, registry)
        for batch in batch_windows(iter(windows), registry, 16):
            sizes = batch.window_sizes()
            expected = plain.process_batch(batch)
            got = stamped.process_batch(batch, sizes)
            assert decisions_equal(expected, got)
            assert [d.window_bytes for d in expected] == [0] * len(sizes)
            assert [d.window_bytes for d in got] == sizes
