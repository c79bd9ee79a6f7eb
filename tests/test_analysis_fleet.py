"""Equivalence suite for the sharded monitoring fleet.

The contract being locked down: a :class:`ShardedTraceMonitor` run over N
labelled streams must be *bit-identical* — decisions, KL divergences, LOF
scores, recorded window indices, byte accounting, detector counters, output
files — to N independent :class:`TraceMonitor` runs over the same fitted
model, regardless of batch size, submission order **or executor**: the
process pool (``MonitorConfig.fleet_workers > 1``) must reproduce the
inline executor exactly, and under ``abort`` a shard failure must surface
— as the original error in-process, as :class:`FleetError` naming the
shard from a worker — only after every sibling shard has committed its
complete output file.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis import parallel as parallel_backend
from repro.analysis.fleet import FleetResult, ShardedTraceMonitor
from repro.analysis.model import ReferenceModel
from repro.analysis.monitor import TraceMonitor
from repro.config import DetectorConfig, MonitorConfig
from repro.errors import FleetError, ModelError, TraceFormatError
from repro.experiments.endurance import run_fleet_endurance_experiment
from repro.trace.event import EventTypeRegistry, TraceEvent
from repro.trace.generator import PeriodicTraceGenerator, SyntheticTraceGenerator
from repro.trace.reader import read_trace
from repro.trace.stream import TraceStream, windows_by_duration
from repro.trace.window import TraceWindow
from tests.conftest import make_mini_config

WINDOW_US = 40_000
K = 10

NORMAL_MIX = {"mb_row_decode": 8.0, "frame_display": 1.0, "vsync": 1.0, "audio_decode": 2.0}
ANOMALY_MIX = {"mb_row_decode": 1.0, "frame_drop": 3.0, "buffer_underrun": 2.0}


@pytest.fixture(scope="module")
def base_registry() -> EventTypeRegistry:
    registry = EventTypeRegistry()
    for name in NORMAL_MIX:
        registry.register(name)
    return registry


@pytest.fixture(scope="module")
def shared_model(base_registry) -> ReferenceModel:
    generator = SyntheticTraceGenerator(NORMAL_MIX, rate_per_s=2_000, seed=7)
    reference = list(windows_by_duration(generator.events(20.0), WINDOW_US))
    return ReferenceModel(k_neighbours=K).learn(reference, base_registry)


@pytest.fixture(scope="module")
def stream_windows() -> dict[str, list]:
    """Five labelled streams: four perturbed ones and one with event types
    the reference run never produced (registry-isolation probe)."""
    streams = {}
    for position in range(4):
        generator = PeriodicTraceGenerator(
            NORMAL_MIX,
            ANOMALY_MIX,
            anomaly_intervals=[(2.0 + position, 3.5 + position)],
            rate_per_s=2_000,
            seed=100 + position,
        )
        streams[f"device-{position}"] = list(
            windows_by_duration(generator.events(8.0), WINDOW_US)
        )
    exotic_mix = dict(NORMAL_MIX)
    exotic_mix["never_seen_before"] = 4.0
    generator = SyntheticTraceGenerator(exotic_mix, rate_per_s=2_000, seed=999)
    streams["exotic"] = list(windows_by_duration(generator.events(8.0), WINDOW_US))
    return streams


def independent_results(detector_config, monitor_config, base_registry, shared_model, stream_windows):
    """N single-stream runs, each with its own clone of the base registry."""
    results = {}
    for label, windows in stream_windows.items():
        solo = TraceMonitor(
            detector_config, monitor_config, EventTypeRegistry(base_registry.names)
        )
        results[label] = solo.monitor_windows(iter(windows), shared_model)
    return results


def assert_shard_equals_solo(shard, solo):
    assert shard.decisions == solo.decisions
    assert shard.lof_scores() == solo.lof_scores()
    assert shard.recorded_indices == solo.recorded_indices
    assert shard.report == solo.report
    assert shard.detector_stats == solo.detector_stats


class TestFleetEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 4, 64])
    def test_fleet_identical_to_independent_runs(
        self, base_registry, shared_model, stream_windows, batch_size
    ):
        detector_config = DetectorConfig(k_neighbours=K, lof_threshold=1.2)
        monitor_config = MonitorConfig(batch_size=batch_size, record_context_windows=1)
        fleet = ShardedTraceMonitor(
            detector_config, monitor_config, EventTypeRegistry(base_registry.names)
        )
        fleet_result = fleet.monitor_shards(
            {label: iter(windows) for label, windows in stream_windows.items()},
            shared_model,
        )
        solo_results = independent_results(
            detector_config, monitor_config, base_registry, shared_model, stream_windows
        )
        assert fleet_result.shard_labels == tuple(stream_windows)
        for label in stream_windows:
            assert_shard_equals_solo(fleet_result.shard(label), solo_results[label])

    def test_deterministic_across_repeated_runs(
        self, base_registry, shared_model, stream_windows
    ):
        detector_config = DetectorConfig(k_neighbours=K, lof_threshold=1.2)
        monitor_config = MonitorConfig(batch_size=8)

        def run():
            fleet = ShardedTraceMonitor(
                detector_config, monitor_config, EventTypeRegistry(base_registry.names)
            )
            return fleet.monitor_shards(
                {label: iter(windows) for label, windows in stream_windows.items()},
                shared_model,
            )

        first, second = run(), run()
        assert first.to_dict() == second.to_dict()
        for label in stream_windows:
            assert first.shard(label).decisions == second.shard(label).decisions

    def test_output_files_match_single_stream_runs(
        self, tmp_path, base_registry, shared_model, stream_windows
    ):
        detector_config = DetectorConfig(k_neighbours=K, lof_threshold=1.2)
        monitor_config = MonitorConfig(batch_size=16, record_context_windows=1)
        fleet = ShardedTraceMonitor(
            detector_config, monitor_config, EventTypeRegistry(base_registry.names)
        )
        fleet_dir = tmp_path / "fleet"
        fleet.monitor_shards(
            {label: iter(windows) for label, windows in stream_windows.items()},
            shared_model,
            output_dir=fleet_dir,
        )
        for label, windows in stream_windows.items():
            solo = TraceMonitor(
                detector_config, monitor_config, EventTypeRegistry(base_registry.names)
            )
            solo_path = tmp_path / f"solo-{label}.jsonl"
            solo.monitor_windows(iter(windows), shared_model, output_path=solo_path)
            assert read_trace(fleet_dir / f"{label}.jsonl") == read_trace(solo_path)


class TestFleetAggregation:
    @pytest.fixture(scope="class")
    def fleet_result(self, base_registry, shared_model, stream_windows) -> FleetResult:
        fleet = ShardedTraceMonitor(
            DetectorConfig(k_neighbours=K, lof_threshold=1.2),
            MonitorConfig(batch_size=16),
            EventTypeRegistry(base_registry.names),
        )
        return fleet.monitor_shards(
            {label: iter(windows) for label, windows in stream_windows.items()},
            shared_model,
        )

    def test_aggregates_are_sums_of_shards(self, fleet_result):
        shards = fleet_result.shard_results.values()
        assert fleet_result.n_shards == len(fleet_result.shard_results)
        assert fleet_result.n_windows == sum(s.n_windows for s in shards)
        assert fleet_result.n_anomalous == sum(s.n_anomalous for s in shards)
        report = fleet_result.report
        for attribute in (
            "total_windows",
            "total_events",
            "total_bytes",
            "recorded_windows",
            "recorded_events",
            "recorded_bytes",
        ):
            assert getattr(report, attribute) == sum(
                getattr(s.report, attribute) for s in shards
            )
        assert fleet_result.reduction_factor == report.reduction_factor
        assert fleet_result.anomaly_rate == pytest.approx(
            fleet_result.n_anomalous / fleet_result.n_windows
        )

    def test_merged_detector_stats(self, fleet_result):
        stats = fleet_result.detector_stats
        shards = fleet_result.shard_results.values()
        assert stats["windows_processed"] == sum(
            s.detector_stats["windows_processed"] for s in shards
        )
        assert stats["lof_computations"] == sum(
            s.detector_stats["lof_computations"] for s in shards
        )
        assert stats["lof_computation_rate"] == pytest.approx(
            stats["lof_computations"] / stats["windows_processed"]
        )

    def test_recorded_indices_per_shard(self, fleet_result):
        per_shard = fleet_result.recorded_indices
        assert set(per_shard) == set(fleet_result.shard_labels)
        for label, indices in per_shard.items():
            assert indices == fleet_result.shard(label).recorded_indices

    def test_to_dict_is_json_ready(self, fleet_result):
        import json

        payload = fleet_result.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["fleet"]["n_shards"] == fleet_result.n_shards
        assert set(payload["shards"]) == set(fleet_result.shard_labels)


def run_fleet(base_registry, shared_model, stream_windows, monitor_config, output_dir=None):
    fleet = ShardedTraceMonitor(
        DetectorConfig(k_neighbours=K, lof_threshold=1.2),
        monitor_config,
        EventTypeRegistry(base_registry.names),
    )
    return fleet.monitor_shards(
        {label: iter(windows) for label, windows in stream_windows.items()},
        shared_model,
        output_dir=output_dir,
    )


class TestParallelFleetEquivalence:
    """The process-parallel backend against the serial fleet oracle."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_parallel_bit_identical_to_serial(
        self, base_registry, shared_model, stream_windows, workers, batch_size
    ):
        serial = run_fleet(
            base_registry,
            shared_model,
            stream_windows,
            MonitorConfig(batch_size=batch_size, record_context_windows=1),
        )
        parallel = run_fleet(
            base_registry,
            shared_model,
            stream_windows,
            MonitorConfig(
                batch_size=batch_size,
                record_context_windows=1,
                fleet_workers=workers,
            ),
        )
        assert parallel.shard_labels == serial.shard_labels
        assert parallel.to_dict() == serial.to_dict()
        for label in stream_windows:
            assert_shard_equals_solo(parallel.shard(label), serial.shard(label))

    def test_parallel_identical_to_independent_runs(
        self, base_registry, shared_model, stream_windows
    ):
        detector_config = DetectorConfig(k_neighbours=K, lof_threshold=1.2)
        monitor_config = MonitorConfig(batch_size=8, fleet_workers=2)
        parallel = run_fleet(
            base_registry, shared_model, stream_windows, monitor_config
        )
        solo_results = independent_results(
            detector_config, monitor_config, base_registry, shared_model, stream_windows
        )
        for label in stream_windows:
            assert_shard_equals_solo(parallel.shard(label), solo_results[label])

    def test_parallel_output_files_identical_to_serial(
        self, tmp_path, base_registry, shared_model, stream_windows
    ):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_fleet(
            base_registry,
            shared_model,
            stream_windows,
            MonitorConfig(batch_size=16, record_context_windows=1),
            output_dir=serial_dir,
        )
        run_fleet(
            base_registry,
            shared_model,
            stream_windows,
            MonitorConfig(
                batch_size=16, record_context_windows=1, fleet_workers=2
            ),
            output_dir=parallel_dir,
        )
        for label in stream_windows:
            parallel_file = parallel_dir / f"{label}.jsonl"
            serial_file = serial_dir / f"{label}.jsonl"
            assert parallel_file.read_bytes() == serial_file.read_bytes()

    def test_parallel_deterministic_across_repeated_runs(
        self, base_registry, shared_model, stream_windows
    ):
        config = MonitorConfig(batch_size=8, fleet_workers=3)
        first = run_fleet(base_registry, shared_model, stream_windows, config)
        second = run_fleet(base_registry, shared_model, stream_windows, config)
        assert first.to_dict() == second.to_dict()
        for label in stream_windows:
            assert first.shard(label).decisions == second.shard(label).decisions

    def test_pickle_transport_matches_fork_transport(
        self, base_registry, shared_model, stream_windows, monkeypatch
    ):
        """Both window transports (fork inheritance / pickle queue) agree."""
        config = MonitorConfig(batch_size=16, fleet_workers=2)
        default_transport = run_fleet(
            base_registry, shared_model, stream_windows, config
        )
        monkeypatch.setattr(
            parallel_backend, "fork_transport_available", lambda: False
        )
        pickled_transport = run_fleet(
            base_registry, shared_model, stream_windows, config
        )
        assert pickled_transport.to_dict() == default_transport.to_dict()
        for label in stream_windows:
            assert (
                pickled_transport.shard(label).decisions
                == default_transport.shard(label).decisions
            )

    def test_worker_count_larger_than_fleet(
        self, base_registry, shared_model, stream_windows
    ):
        serial = run_fleet(
            base_registry, shared_model, stream_windows, MonitorConfig(batch_size=16)
        )
        oversized = run_fleet(
            base_registry,
            shared_model,
            stream_windows,
            MonitorConfig(batch_size=16, fleet_workers=32),
        )
        assert oversized.to_dict() == serial.to_dict()


class TestParallelFleetFailures:
    """Shard failures must surface after the siblings finish, never as a hang."""

    @pytest.fixture()
    def good_windows(self) -> list:
        generator = SyntheticTraceGenerator(NORMAL_MIX, rate_per_s=2_000, seed=5)
        return list(windows_by_duration(generator.events(4.0), WINDOW_US))

    @pytest.fixture()
    def poison_windows(self) -> list:
        # A perfectly valid TraceWindow whose event carries core=999: the
        # codec's byte accounting rejects it inside the worker, long after
        # the parent validated and pickled the shard.
        return [
            TraceWindow(
                0, 0, WINDOW_US, (TraceEvent(5, "mb_row_decode", core=999),)
            )
        ]

    @pytest.mark.parametrize(
        ("fleet_workers", "raised", "match"),
        [(1, TraceFormatError, None), (2, FleetError, "'poison'")],
        ids=["workers=1", "workers=2"],
    )
    def test_worker_failure_names_shard_and_closes_others(
        self,
        tmp_path,
        base_registry,
        shared_model,
        good_windows,
        poison_windows,
        fleet_workers,
        raised,
        match,
    ):
        detector_config = DetectorConfig(k_neighbours=K, lof_threshold=1.2)
        fleet = ShardedTraceMonitor(
            detector_config,
            MonitorConfig(batch_size=8, fleet_workers=fleet_workers),
            EventTypeRegistry(base_registry.names),
        )
        output_dir = tmp_path / "fleet"
        # An in-process failure re-raises the original error; a worker
        # failure becomes FleetError naming the shard.
        with pytest.raises(raised, match=match):
            fleet.monitor_shards(
                {
                    "healthy-a": iter(good_windows),
                    "poison": iter(poison_windows),
                    "healthy-b": iter(list(good_windows)),
                },
                shared_model,
                output_dir=output_dir,
            )
        # Every sibling shard ran to completion and committed its output
        # file before the run raised: the recorded bytes equal an
        # independent single-stream run's, never a truncated prefix.
        solo = TraceMonitor(
            detector_config,
            MonitorConfig(batch_size=8),
            EventTypeRegistry(base_registry.names),
        )
        solo_path = tmp_path / "solo.jsonl"
        solo.monitor_windows(iter(good_windows), shared_model, output_path=solo_path)
        for label in ("healthy-a", "healthy-b"):
            assert (output_dir / f"{label}.jsonl").read_bytes() == solo_path.read_bytes()

    def test_failure_carries_original_error_text(
        self, base_registry, shared_model, poison_windows
    ):
        fleet = ShardedTraceMonitor(
            DetectorConfig(k_neighbours=K),
            MonitorConfig(batch_size=8, fleet_workers=2),
            EventTypeRegistry(base_registry.names),
        )
        with pytest.raises(FleetError, match="TraceFormatError"):
            fleet.monitor_shards({"poison": iter(poison_windows)}, shared_model)

    def test_serial_backend_propagates_failures_too(
        self, base_registry, shared_model, poison_windows
    ):
        fleet = ShardedTraceMonitor(
            DetectorConfig(k_neighbours=K),
            MonitorConfig(batch_size=8),
            EventTypeRegistry(base_registry.names),
        )
        with pytest.raises(TraceFormatError):
            fleet.monitor_shards({"poison": iter(poison_windows)}, shared_model)


def test_inline_executor_consumes_sources_in_place(
    monkeypatch, base_registry, shared_model, stream_windows
):
    """``fleet_workers=1`` streams a one-shot source through its shard: no
    pool, and no up-front materialisation before the first batch scores."""
    pulled = 0

    def one_shot(windows):
        nonlocal pulled
        for window in windows:
            pulled += 1
            yield window

    pulled_at_batch = []
    score = parallel_backend.score_and_record_batch

    def spy(detector, recorder, batch):
        pulled_at_batch.append(pulled)
        return score(detector, recorder, batch)

    def no_pool(*args):
        raise AssertionError("the inline executor must not start a pool")

    monkeypatch.setattr(parallel_backend, "score_and_record_batch", spy)
    monkeypatch.setattr(parallel_backend, "_run_pool_wave", no_pool)
    label, windows = next(iter(stream_windows.items()))
    fleet = ShardedTraceMonitor(
        DetectorConfig(k_neighbours=K, lof_threshold=1.2),
        MonitorConfig(batch_size=8),
        EventTypeRegistry(base_registry.names),
    )
    result = fleet.monitor_shards({label: one_shot(windows)}, shared_model)
    assert result.shard(label).n_windows == len(windows)
    assert pulled_at_batch[0] <= 8 < len(windows)


class TestParallelWorkerInternals:
    """The worker entry points, driven in-process for exact coverage."""

    @pytest.fixture()
    def worker_state(self, base_registry, shared_model):
        return parallel_backend._WorkerState(
            model=shared_model,
            detector_config=DetectorConfig(k_neighbours=K, lof_threshold=1.2),
            monitor_config=MonitorConfig(batch_size=8),
            registry_names=base_registry.names,
        )

    @pytest.fixture()
    def installed_worker_state(self, worker_state):
        payload = pickle.dumps(worker_state)
        saved = parallel_backend._WORKER_STATE
        parallel_backend._initialize_worker(payload)
        yield parallel_backend._WORKER_STATE
        parallel_backend._WORKER_STATE = saved

    def test_run_shard_matches_solo_monitor(
        self, installed_worker_state, base_registry, shared_model, stream_windows
    ):
        label, windows = next(iter(stream_windows.items()))
        outcome = parallel_backend._run_shard(
            parallel_backend._ShardTask(label, tuple(windows), None, False)
        )
        assert outcome.error is None
        solo = TraceMonitor(
            DetectorConfig(k_neighbours=K, lof_threshold=1.2),
            MonitorConfig(batch_size=8),
            EventTypeRegistry(base_registry.names),
        ).monitor_windows(iter(windows), shared_model)
        assert outcome.decisions == solo.decisions
        assert outcome.report == solo.report
        assert outcome.recorded_indices == solo.recorded_indices
        assert outcome.detector_stats == solo.detector_stats

    def test_run_shard_marshals_exceptions_as_data(self, installed_worker_state):
        poison = TraceWindow(0, 0, WINDOW_US, (TraceEvent(5, "mb_row_decode", core=999),))
        outcome = parallel_backend._run_shard(
            parallel_backend._ShardTask("bad", (poison,), None, False)
        )
        assert outcome.error is not None
        assert "TraceFormatError" in outcome.error

    def test_run_shard_without_windows_reports_error(self, installed_worker_state):
        outcome = parallel_backend._run_shard(
            parallel_backend._ShardTask("ghost", None, None, False)
        )
        assert outcome.error is not None
        assert "neither pickled nor fork-inherited" in outcome.error

    def test_run_shard_reads_fork_inherited_windows(
        self, installed_worker_state, stream_windows, monkeypatch
    ):
        label, windows = next(iter(stream_windows.items()))
        monkeypatch.setattr(
            parallel_backend, "_SHARD_WINDOWS", {label: tuple(windows)}
        )
        inherited = parallel_backend._run_shard(
            parallel_backend._ShardTask(label, None, None, False)
        )
        shipped = parallel_backend._run_shard(
            parallel_backend._ShardTask(label, tuple(windows), None, False)
        )
        assert inherited.error is None
        assert inherited.decisions == shipped.decisions
        assert inherited.report == shipped.report

    def test_run_shard_without_initialisation_reports_error(self):
        saved = parallel_backend._WORKER_STATE
        parallel_backend._WORKER_STATE = None
        try:
            outcome = parallel_backend._run_shard(
                parallel_backend._ShardTask("orphan", (), None, False)
            )
        finally:
            parallel_backend._WORKER_STATE = saved
        assert outcome.error is not None and "initialised" in outcome.error

    def test_model_pickle_roundtrip_scores_identically(self, shared_model, base_registry):
        clone = pickle.loads(pickle.dumps(shared_model))
        assert clone._projection_cache == {}
        assert clone.type_names == shared_model.type_names
        np.testing.assert_array_equal(clone.points, shared_model.points)
        probe = np.full((3, shared_model.dimension), 1.0 / shared_model.dimension)
        np.testing.assert_array_equal(
            clone.score_vectors(clone.vectors_for(probe, EventTypeRegistry(base_registry.names))),
            shared_model.score_vectors(
                shared_model.vectors_for(probe, EventTypeRegistry(base_registry.names))
            ),
        )

    def test_recorder_refuses_to_pickle(self):
        from repro.analysis.recorder import SelectiveTraceRecorder
        from repro.errors import RecorderError

        recorder = SelectiveTraceRecorder()
        with pytest.raises(RecorderError, match="worker-local"):
            pickle.dumps(recorder)
        assert not recorder.closed
        recorder.close()
        assert recorder.closed

    def test_fleet_workers_config_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            MonitorConfig(fleet_workers=0)


class TestFleetValidation:
    def test_unfitted_model_rejected(self, base_registry, stream_windows):
        fleet = ShardedTraceMonitor(registry=EventTypeRegistry(base_registry.names))
        with pytest.raises(ModelError):
            fleet.monitor_shards(
                {"x": iter(next(iter(stream_windows.values())))},
                ReferenceModel(k_neighbours=K),
            )

    def test_unknown_shard_label_rejected(self, base_registry, shared_model, stream_windows):
        fleet = ShardedTraceMonitor(
            DetectorConfig(k_neighbours=K),
            MonitorConfig(batch_size=16),
            EventTypeRegistry(base_registry.names),
        )
        result = fleet.monitor_shards(
            {"only": iter(next(iter(stream_windows.values())))}, shared_model
        )
        with pytest.raises(FleetError):
            result.shard("nope")

    def test_empty_fleet(self, shared_model, base_registry):
        fleet = ShardedTraceMonitor(registry=EventTypeRegistry(base_registry.names))
        result = fleet.monitor_shards({}, shared_model)
        assert result.n_shards == 0
        assert result.n_windows == 0
        assert result.anomaly_rate == 0.0
        assert result.report.reduction_factor == 1.0

    def test_sequence_streams_get_default_labels(self, base_registry, shared_model):
        events = [TraceEvent(i * 1_000, "mb_row_decode", task="t") for i in range(200)]
        streams = [TraceStream(iter(list(events))) for _ in range(3)]
        fleet = ShardedTraceMonitor(
            DetectorConfig(k_neighbours=K),
            MonitorConfig(window_duration_us=WINDOW_US),
            EventTypeRegistry(base_registry.names),
        )
        result = fleet.run_on_streams(streams, shared_model)
        assert result.shard_labels == ("stream-00", "stream-01", "stream-02")


class TestFleetEnduranceExperiment:
    def test_multi_stream_endurance_entry_point(self):
        config = make_mini_config(duration_s=90.0)
        result = run_fleet_endurance_experiment(config, n_streams=2, seed_stride=17)
        assert result.n_streams == 2
        assert result.reference_window_count > 0
        assert result.fleet_result.n_shards == 2
        assert result.fleet_result.n_windows > 0
        payload = result.summary()
        assert payload["fleet"]["n_streams"] == 2
        assert "stream-00" in payload["shards"]
        # Different media seeds must give genuinely different streams.
        shard0, shard1 = result.fleet_result.shard_results.values()
        assert shard0.report.total_bytes != shard1.report.total_bytes

    def test_n_streams_validation(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            run_fleet_endurance_experiment(make_mini_config(), n_streams=0)

    def test_worker_pool_matches_serial_endurance_fleet(self):
        config = make_mini_config(duration_s=90.0)
        serial = run_fleet_endurance_experiment(config, n_streams=2, seed_stride=17)
        parallel = run_fleet_endurance_experiment(
            config, n_streams=2, seed_stride=17, fleet_workers=2
        )
        assert parallel.config.monitor.fleet_workers == 2
        summary = parallel.summary()
        reference = serial.summary()
        assert summary["shards"] == reference["shards"]
        assert summary["fleet"]["n_windows"] == reference["fleet"]["n_windows"]
        assert summary["fleet"]["n_anomalous"] == reference["fleet"]["n_anomalous"]
