"""Chaos suite: deterministic fault injection against the fleet's guarantees.

Every test here drives a *real* failure — a worker exception, a hard
``os._exit`` kill, an ENOSPC write error, garbled stream bytes — through
the production code paths via :mod:`repro.testing.faults`, and asserts the
fault-tolerance contract:

* shard isolation: a failing shard is quarantined while its siblings
  produce results bit-identical to fault-free runs;
* retry equivalence: a retried shard's results are bit-identical to a run
  that never faulted;
* crash consistency: a killed worker leaves no partial output file, and
  ``manifest.json`` records exactly what is on disk;
* corrupt-record quarantine: mangled records are skipped, counted and
  located — never silently dropped, never fatal unless asked;
* the default policy (``abort``, ``on_corrupt="raise"``) is unchanged.
"""

from __future__ import annotations

import errno
import json
import struct
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.analysis import parallel as parallel_backend
from repro.analysis.fleet import MANIFEST_NAME, ShardedTraceMonitor
from repro.analysis.model import ReferenceModel
from repro.analysis.recorder import partial_output_path
from repro.cli.main import main as cli_main
from repro.config import DetectorConfig, MonitorConfig
from repro.errors import (
    FaultInjectionError,
    FleetError,
    TraceFormatError,
    TraceStreamError,
)
from repro.testing import FaultSpec, InjectedFault, corrupt_chunk, fault_point, inject
from repro.testing import faults as faults_module
from repro.trace.codec import BinaryTraceCodec
from repro.trace.columns import (
    BinaryColumnsDecoder,
    JsonColumnsDecoder,
    decode_binary_columns,
)
from repro.trace.event import EventTypeRegistry, TraceEvent
from repro.trace.generator import PeriodicTraceGenerator, SyntheticTraceGenerator
from repro.trace.stream import windows_by_duration
from repro.trace.streaming import StreamRecipe, StreamingWindowSource
from repro.trace.writer import write_trace

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
    reference = list(windows_by_duration(generator.events(12.0), WINDOW_US))
    return ReferenceModel(k_neighbours=K).learn(reference, base_registry)


@pytest.fixture(scope="module")
def stream_windows() -> dict[str, list]:
    """Three labelled streams with anomalous stretches (so recording happens)."""
    streams = {}
    for position in range(3):
        generator = PeriodicTraceGenerator(
            NORMAL_MIX,
            ANOMALY_MIX,
            anomaly_intervals=[(1.0 + position * 0.5, 2.0 + position * 0.5)],
            rate_per_s=2_000,
            seed=300 + position,
        )
        streams[f"dev-{position}"] = list(
            windows_by_duration(generator.events(4.0), WINDOW_US)
        )
    return streams


def make_fleet(base_registry, **config_kwargs) -> ShardedTraceMonitor:
    detector_config = DetectorConfig(k_neighbours=K, lof_threshold=1.2)
    monitor_config = MonitorConfig(record_context_windows=1, **config_kwargs)
    return ShardedTraceMonitor(
        detector_config, monitor_config, EventTypeRegistry(base_registry.names)
    )


def assert_shard_equals(shard, other) -> None:
    assert shard.decisions == other.decisions
    assert shard.lof_scores() == other.lof_scores()
    assert shard.recorded_indices == other.recorded_indices
    assert shard.report == other.report
    assert shard.detector_stats == other.detector_stats


# ---------------------------------------------------------------------- #
# The injection harness itself
# ---------------------------------------------------------------------- #
class TestFaultHarness:
    def test_spec_validation(self):
        with pytest.raises(FaultInjectionError, match="unknown fault action"):
            FaultSpec(site="x", action="explode")
        with pytest.raises(FaultInjectionError, match="non-empty"):
            FaultSpec(site="")
        with pytest.raises(FaultInjectionError, match="attempts"):
            FaultSpec(site="x", attempts=())
        with pytest.raises(FaultInjectionError, match="attempts"):
            FaultSpec(site="x", attempts=(0,))
        with pytest.raises(FaultInjectionError, match="after"):
            FaultSpec(site="x", after=-1)
        with pytest.raises(FaultInjectionError, match="count"):
            FaultSpec(site="x", count=0)

    def test_plan_roundtrip(self):
        specs = (
            FaultSpec(site="shard.start", shard="a", attempts=(1, 2), after=3),
            FaultSpec(site="recorder.write", action="oserror"),
        )
        assert faults_module.decode_plan(faults_module.encode_plan(specs)) == specs

    def test_decode_plan_rejects_garbage(self):
        with pytest.raises(FaultInjectionError, match="unparseable"):
            faults_module.decode_plan("not json")
        with pytest.raises(FaultInjectionError, match="JSON list"):
            faults_module.decode_plan('{"site": "x"}')
        with pytest.raises(FaultInjectionError, match="malformed fault spec"):
            faults_module.decode_plan('[{"site": "x", "bogus_field": 1}]')

    def test_fault_point_is_noop_without_plan(self, monkeypatch):
        monkeypatch.delenv(faults_module.ENV_VAR, raising=False)
        fault_point("shard.start")  # must not raise
        assert corrupt_chunk("stream.chunk", b"abc") == b"abc"

    def test_after_and_count_schedule(self):
        fired = 0
        with inject(FaultSpec(site="shard.batch", after=2, count=1)):
            for _ in range(6):
                try:
                    fault_point("shard.batch")
                except InjectedFault:
                    fired += 1
        assert fired == 1  # hits 1 and 2 pass, hit 3 fires, 4-6 pass again

    def test_shard_scope_filters_by_label_and_attempt(self):
        spec = FaultSpec(site="shard.start", shard="a", attempts=(2,))
        with inject(spec):
            with faults_module.shard_scope("b", 2):
                fault_point("shard.start")  # wrong shard
            with faults_module.shard_scope("a", 1):
                fault_point("shard.start")  # wrong attempt
            with faults_module.shard_scope("a", 2):
                with pytest.raises(InjectedFault, match="shard='a', attempt=2"):
                    fault_point("shard.start")

    def test_oserror_action_is_enospc(self):
        with inject(FaultSpec(site="recorder.write", action="oserror")):
            with pytest.raises(OSError) as excinfo:
                fault_point("recorder.write")
        assert excinfo.value.errno == errno.ENOSPC

    def test_injected_fault_is_not_a_repro_error(self):
        from repro.errors import ReproError

        assert not issubclass(InjectedFault, ReproError)

    def test_corrupt_chunk_is_deterministic(self):
        data = bytes(range(64))
        with inject(FaultSpec(site="stream.chunk", action="garble", count=2)):
            first = corrupt_chunk("stream.chunk", data)
        with inject(FaultSpec(site="stream.chunk", action="garble", count=2)):
            second = corrupt_chunk("stream.chunk", data)
        assert first == second != data
        with inject(FaultSpec(site="stream.chunk", action="truncate")):
            half = corrupt_chunk("stream.chunk", data)
        assert half == data[:32]


# ---------------------------------------------------------------------- #
# Decoder-level corrupt-record quarantine
# ---------------------------------------------------------------------- #
class TestJsonDecoderQuarantine:
    GOOD = b'{"t": 10, "type": "a"}\n{"t": 20, "type": "b"}\n'

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="on_corrupt"):
            JsonColumnsDecoder(on_corrupt="ignore")

    def test_skip_counts_and_locates_bad_lines(self):
        decoder = JsonColumnsDecoder(on_corrupt="skip")
        decoder.feed(self.GOOD)
        decoder.feed(b'garbage line\n{"t": "x"}\n{"t": -1, "type": "c"}\n')
        columns = decoder.feed(b'{"t": 30, "type": "a"}\n')
        tail = decoder.finish()
        assert decoder.corrupt_records == 3
        assert decoder.corrupt_offsets == (3, 4, 5)
        assert len(columns) + len(tail) == 1

    def test_skip_survives_invalid_utf8(self):
        decoder = JsonColumnsDecoder(on_corrupt="skip")
        decoder.feed(self.GOOD + b"\xff\xfe{broken}\n" + b'{"t": 30, "type": "a"}\n')
        decoder.finish()
        assert decoder.corrupt_records == 1

    def test_raise_is_the_default_and_unchanged(self):
        decoder = JsonColumnsDecoder()
        with pytest.raises(TraceFormatError, match="malformed JSON event line 3"):
            decoder.feed(self.GOOD + b"garbage line\n")

    def test_clean_stream_identical_under_both_policies(self):
        plain = JsonColumnsDecoder()
        skipping = JsonColumnsDecoder(on_corrupt="skip")
        a = plain.feed(self.GOOD)
        b = skipping.feed(self.GOOD)
        np.testing.assert_array_equal(a.timestamps_us, b.timestamps_us)
        np.testing.assert_array_equal(a.type_codes, b.type_codes)
        assert skipping.corrupt_records == 0


class TestBinaryDecoderQuarantine:
    @pytest.fixture(scope="class")
    def segments(self) -> tuple[bytes, bytes]:
        codec = BinaryTraceCodec()
        first = codec.encode(
            [TraceEvent(t, f"evt{t % 3}", core=0) for t in range(50)]
        )
        second = codec.encode(
            [TraceEvent(t, f"evt{t % 3}", core=1) for t in range(100, 150)]
        )
        return first, second

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="on_corrupt"):
            BinaryColumnsDecoder(on_corrupt="ignore")

    def test_skip_resyncs_at_next_segment_magic(self, segments):
        first, second = segments
        blob = bytearray(first + second)
        (header_len,) = struct.unpack("<I", first[4:8])
        garble_at = 8 + header_len + (len(first) - 8 - header_len) // 2
        # 16 continuation bytes guarantee a varint-too-long failure at an
        # aligned record boundary (shorter runs can parse as a huge but
        # "valid" varint and silently misalign the rest of the segment).
        blob[garble_at : garble_at + 16] = b"\xff" * 16
        decoder = BinaryColumnsDecoder(on_corrupt="skip")
        chunks = [decoder.feed(bytes(blob[i : i + 7])) for i in range(0, len(blob), 7)]
        chunks.append(decoder.finish())
        total = sum(len(c) for c in chunks)
        # All 50 events of the clean second segment survive; the damaged
        # region of the first is dropped, not fatal.
        assert 50 <= total < 100
        assert decoder.corrupt_records >= 1
        assert all(offset < len(first) for offset in decoder.corrupt_offsets)

    def test_skip_tolerates_truncated_tail(self, segments):
        first, _ = segments
        decoder = BinaryColumnsDecoder(on_corrupt="skip")
        decoder.feed(first[:-5])
        decoder.finish()  # must not raise
        assert decoder.corrupt_records == 1

    def test_raise_is_the_default_and_unchanged(self, segments):
        first, _ = segments
        decoder = BinaryColumnsDecoder()
        decoder.feed(first[:-5])
        with pytest.raises(TraceFormatError, match="truncated"):
            decoder.finish()

    def test_clean_stream_identical_under_both_policies(self, segments):
        first, second = segments
        blob = first + second
        reference = decode_binary_columns(blob)
        decoder = BinaryColumnsDecoder(on_corrupt="skip")
        parts = [decoder.feed(blob), decoder.finish()]
        timestamps = np.concatenate([p.timestamps_us for p in parts])
        np.testing.assert_array_equal(timestamps, reference.timestamps_us)
        assert decoder.corrupt_records == 0


class TestStreamingQuarantine:
    @staticmethod
    def jsonl_chunks(n_events: int = 600, chunk: int = 512) -> list[bytes]:
        blob = b"".join(
            b'{"t": %d, "type": "evt%d"}\n' % (t * 100, t % 3)
            for t in range(n_events)
        )
        return [blob[i : i + chunk] for i in range(0, len(blob), chunk)]

    def test_recipe_validates_on_corrupt(self):
        with pytest.raises(TraceStreamError, match="on_corrupt"):
            StreamRecipe(on_corrupt="ignore")

    def test_garbled_chunks_skipped_and_counted(self):
        recipe = StreamRecipe(
            format="jsonl", window_duration_us=10_000, on_corrupt="skip"
        )
        source = StreamingWindowSource(
            byte_chunks=iter(self.jsonl_chunks()), recipe=recipe
        )
        with inject(
            FaultSpec(site="stream.chunk", action="garble", after=1, count=2)
        ):
            batches = list(source.batches(EventTypeRegistry(), batch_size=4))
        assert batches
        assert source.stats.corrupt_records >= 1
        assert source.stats.corrupt_offsets  # line numbers of the damage

    def test_default_policy_still_raises_on_garble(self):
        recipe = StreamRecipe(format="jsonl", window_duration_us=10_000)
        source = StreamingWindowSource(
            byte_chunks=iter(self.jsonl_chunks()), recipe=recipe
        )
        with inject(
            FaultSpec(site="stream.chunk", action="garble", after=1, count=2)
        ):
            with pytest.raises(TraceFormatError):
                list(source.batches(EventTypeRegistry(), batch_size=4))


# ---------------------------------------------------------------------- #
# Fleet failure policy: isolation / retry / abort, on both executors
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("fleet_workers", [1, 2])
class TestFleetFaultTolerance:
    """One scheduler owns the policy; both executors must honour it."""

    def fault_free(self, base_registry, shared_model, stream_windows, **kwargs):
        fleet = make_fleet(base_registry, **kwargs)
        return fleet.monitor_shards(dict(stream_windows), shared_model)

    @staticmethod
    def abort_error(fleet_workers, label):
        """What ``abort`` raises: the original error in-process, else a
        FleetError naming the shard."""
        if fleet_workers == 1:
            return pytest.raises(InjectedFault)
        return pytest.raises(FleetError, match=f"'{label}'")

    def test_abort_remains_the_default(
        self, base_registry, shared_model, stream_windows, fleet_workers
    ):
        fleet = make_fleet(base_registry, fleet_workers=fleet_workers)
        assert fleet.monitor_config.shard_failure_policy == "abort"
        with inject(FaultSpec(site="shard.start", shard="dev-1")):
            with self.abort_error(fleet_workers, "dev-1"):
                fleet.monitor_shards(dict(stream_windows), shared_model)

    def test_abort_commits_every_sibling_before_raising(
        self, tmp_path, base_registry, shared_model, stream_windows, fleet_workers
    ):
        """A mid-stream failure must not leave sibling recordings truncated
        under their final names: each sibling finishes byte-exact."""
        clean_dir = tmp_path / "clean"
        make_fleet(base_registry, batch_size=8).monitor_shards(
            dict(stream_windows), shared_model, output_dir=clean_dir
        )
        fleet = make_fleet(base_registry, batch_size=8, fleet_workers=fleet_workers)
        output_dir = tmp_path / "aborted"
        with inject(FaultSpec(site="shard.batch", shard="dev-1", after=2)):
            with self.abort_error(fleet_workers, "dev-1"):
                fleet.monitor_shards(
                    dict(stream_windows), shared_model, output_dir=output_dir
                )
        for label in ("dev-0", "dev-2"):
            committed = (output_dir / f"{label}.jsonl").read_bytes()
            assert committed == (clean_dir / f"{label}.jsonl").read_bytes()
        assert not (output_dir / "dev-1.jsonl").exists()
        assert not partial_output_path(output_dir / "dev-1.jsonl").exists()

    def test_isolate_quarantines_and_siblings_are_bit_identical(
        self, base_registry, shared_model, stream_windows, fleet_workers
    ):
        baseline = self.fault_free(
            base_registry, shared_model, stream_windows, fleet_workers=fleet_workers
        )
        fleet = make_fleet(
            base_registry, shard_failure_policy="isolate", fleet_workers=fleet_workers
        )
        with inject(FaultSpec(site="shard.start", shard="dev-1")):
            result = fleet.monitor_shards(dict(stream_windows), shared_model)
        assert result.degraded
        assert result.failed_labels == ("dev-1",)
        outcome = result.outcomes["dev-1"]
        assert outcome.status == "failed"
        assert outcome.attempts == 1
        assert "InjectedFault" in outcome.error
        assert set(result.shard_results) == {"dev-0", "dev-2"}
        for label in ("dev-0", "dev-2"):
            assert result.outcomes[label].ok
            assert_shard_equals(result.shard(label), baseline.shard(label))

    def test_isolate_mid_stream_batch_failure(
        self, base_registry, shared_model, stream_windows, fleet_workers
    ):
        fleet = make_fleet(
            base_registry,
            shard_failure_policy="isolate",
            batch_size=8,
            fleet_workers=fleet_workers,
        )
        with inject(FaultSpec(site="shard.batch", shard="dev-0", after=2)):
            result = fleet.monitor_shards(dict(stream_windows), shared_model)
        assert result.failed_labels == ("dev-0",)
        assert set(result.shard_results) == {"dev-1", "dev-2"}

    @pytest.mark.parametrize("label", ["dev-1", "dev-2"])
    def test_retry_recovers_transient_fault_bit_identically(
        self, base_registry, shared_model, stream_windows, fleet_workers, label
    ):
        baseline = self.fault_free(
            base_registry, shared_model, stream_windows, fleet_workers=fleet_workers
        )
        fleet = make_fleet(base_registry, shard_retries=1, fleet_workers=fleet_workers)
        with inject(FaultSpec(site="shard.start", shard=label, attempts=(1,))):
            result = fleet.monitor_shards(dict(stream_windows), shared_model)
        assert not result.degraded
        assert result.outcomes[label].attempts == 2
        assert result.outcomes["dev-0"].attempts == 1
        for shard in stream_windows:
            assert_shard_equals(result.shard(shard), baseline.shard(shard))

    def test_retry_budget_exhaustion_still_quarantines(
        self, base_registry, shared_model, stream_windows, fleet_workers
    ):
        fleet = make_fleet(
            base_registry,
            shard_failure_policy="isolate",
            shard_retries=1,
            fleet_workers=fleet_workers,
        )
        with inject(
            FaultSpec(site="shard.start", shard="dev-1", attempts=(1, 2))
        ):
            result = fleet.monitor_shards(dict(stream_windows), shared_model)
        assert result.failed_labels == ("dev-1",)
        assert result.outcomes["dev-1"].attempts == 2

    def test_non_replayable_source_is_not_retried(
        self, base_registry, shared_model, stream_windows, fleet_workers
    ):
        fleet = make_fleet(
            base_registry,
            shard_failure_policy="isolate",
            shard_retries=2,
            fleet_workers=fleet_workers,
        )
        shards = {
            label: iter(windows) for label, windows in stream_windows.items()
        }
        with inject(FaultSpec(site="shard.start", shard="dev-1", attempts=(1,))):
            result = fleet.monitor_shards(shards, shared_model)
        # The iterator was part-consumed by the failed attempt: retrying it
        # would score a different stream, so it fails terminally instead.
        assert result.failed_labels == ("dev-1",)
        assert result.outcomes["dev-1"].attempts == 1

    def test_isolate_without_faults_is_bit_identical_to_abort(
        self, base_registry, shared_model, stream_windows, fleet_workers
    ):
        baseline = self.fault_free(base_registry, shared_model, stream_windows)
        result = self.fault_free(
            base_registry,
            shared_model,
            stream_windows,
            shard_failure_policy="isolate",
            shard_retries=2,
            fleet_workers=fleet_workers,
        )
        assert not result.degraded
        for label in stream_windows:
            assert_shard_equals(result.shard(label), baseline.shard(label))


# ---------------------------------------------------------------------- #
# Process pool: worker crashes, hard kills, retry waves
# ---------------------------------------------------------------------- #
class TestParallelFaultTolerance:
    def run_parallel(self, base_registry, shared_model, stream_windows, **kwargs):
        fleet = make_fleet(base_registry, fleet_workers=2, **kwargs)
        return fleet.monitor_shards(dict(stream_windows), shared_model)

    def test_hard_kill_recovered_by_retry_wave(
        self, base_registry, shared_model, stream_windows
    ):
        """A worker hard-killed mid-shard breaks the whole pool; the retry
        wave rebuilds it from clean state and every shard still finishes
        bit-identically (collaterally-broken siblings are retried too)."""
        baseline = self.run_parallel(base_registry, shared_model, stream_windows)
        with inject(
            FaultSpec(
                site="shard.batch", shard="dev-1", action="exit", after=1
            )
        ):
            result = self.run_parallel(
                base_registry,
                shared_model,
                stream_windows,
                shard_retries=1,
                shard_failure_policy="isolate",
            )
        assert not result.degraded
        assert result.outcomes["dev-1"].attempts == 2
        for label in stream_windows:
            assert_shard_equals(result.shard(label), baseline.shard(label))

    def test_worker_boot_crash_isolates_everything_not_hangs(
        self, base_registry, shared_model, stream_windows
    ):
        with inject(FaultSpec(site="worker.boot", count=16)):
            result = self.run_parallel(
                base_registry,
                shared_model,
                stream_windows,
                shard_failure_policy="isolate",
            )
        assert result.n_failed == len(stream_windows)
        assert result.shard_results == {}

    @staticmethod
    def break_pool_at_submit(monkeypatch, nth, waves=1):
        """Make the ``nth`` submit of the first ``waves`` pools raise.

        Deterministic stand-in for a worker dying while the parent is still
        submitting: the pool refuses the ``nth`` task with
        ``BrokenProcessPool``, exactly as a real broken pool does.
        """
        pools = []

        class BreakingExecutor(parallel_backend.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)
                self.breaks = len(pools) <= waves
                self.submits = 0

            def submit(self, fn, /, *args, **kwargs):
                self.submits += 1
                if self.breaks and self.submits == nth:
                    raise BrokenProcessPool("pool broke between submits")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(parallel_backend, "ProcessPoolExecutor", BreakingExecutor)
        return pools

    @pytest.mark.parametrize("chunk_windows", [None, 4])
    def test_submit_time_pool_break_isolates_unsubmitted_shards(
        self, monkeypatch, base_registry, shared_model, stream_windows, chunk_windows
    ):
        baseline = self.run_parallel(base_registry, shared_model, stream_windows)
        pools = self.break_pool_at_submit(monkeypatch, nth=2)
        result = self.run_parallel(
            base_registry,
            shared_model,
            stream_windows,
            shard_failure_policy="isolate",
            shard_chunk_windows=chunk_windows,
        )
        assert len(pools) == 1
        assert result.failed_labels == ("dev-1", "dev-2")
        for label in result.failed_labels:
            assert result.outcomes[label].error.startswith(
                "worker process failed: BrokenProcessPool"
            )
        assert_shard_equals(result.shard("dev-0"), baseline.shard("dev-0"))

    def test_submit_time_pool_break_spends_retry_budget(
        self, monkeypatch, base_registry, shared_model, stream_windows
    ):
        baseline = self.run_parallel(base_registry, shared_model, stream_windows)
        pools = self.break_pool_at_submit(monkeypatch, nth=2)
        result = self.run_parallel(
            base_registry, shared_model, stream_windows, shard_retries=1
        )
        assert len(pools) == 2  # the refused shards ran in a retry wave
        assert not result.degraded
        assert {label: o.attempts for label, o in result.outcomes.items()} == {
            "dev-0": 1,
            "dev-1": 2,
            "dev-2": 2,
        }
        for label in stream_windows:
            assert_shard_equals(result.shard(label), baseline.shard(label))

    def test_submit_time_pool_break_aborts_naming_first_shard(
        self, monkeypatch, base_registry, shared_model, stream_windows
    ):
        self.break_pool_at_submit(monkeypatch, nth=2)
        with pytest.raises(FleetError, match="'dev-1' failed in a worker process"):
            self.run_parallel(base_registry, shared_model, stream_windows)


# ---------------------------------------------------------------------- #
# Crash-consistent outputs and the fleet manifest
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("recording_format", ["jsonl", "binary"])
class TestCrashConsistency:
    def shard_file(self, output_dir, label, recording_format):
        suffix = ".bin" if recording_format == "binary" else ".jsonl"
        return output_dir / f"{label}{suffix}"

    def test_enospc_shard_leaves_no_output_and_manifest_marks_it(
        self, tmp_path, base_registry, shared_model, stream_windows, recording_format
    ):
        fleet = make_fleet(
            base_registry,
            shard_failure_policy="isolate",
            recording_format=recording_format,
        )
        with inject(
            FaultSpec(site="recorder.write", shard="dev-1", action="oserror")
        ):
            result = fleet.monitor_shards(
                dict(stream_windows), shared_model, output_dir=tmp_path
            )
        assert result.failed_labels == ("dev-1",)
        failed = self.shard_file(tmp_path, "dev-1", recording_format)
        assert not failed.exists()
        assert not partial_output_path(failed).exists()
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["policy"] == "isolate"
        assert manifest["recording_format"] == recording_format
        assert manifest["shards"]["dev-1"]["status"] == "failed"
        assert manifest["shards"]["dev-1"]["output"] is None
        assert manifest["shards"]["dev-1"]["output_bytes"] is None
        for label in ("dev-0", "dev-2"):
            entry = manifest["shards"][label]
            path = self.shard_file(tmp_path, label, recording_format)
            assert entry["status"] == "ok"
            assert entry["output"] == path.name
            assert entry["output_bytes"] == path.stat().st_size

    def test_hard_killed_worker_leaves_no_partial_file(
        self, tmp_path, base_registry, shared_model, stream_windows, recording_format
    ):
        fleet = make_fleet(
            base_registry,
            fleet_workers=2,
            shard_failure_policy="isolate",
            recording_format=recording_format,
        )
        shards = {"dev-0": stream_windows["dev-0"]}
        with inject(
            FaultSpec(site="shard.batch", shard="dev-0", action="exit", after=1)
        ):
            result = fleet.monitor_shards(shards, shared_model, output_dir=tmp_path)
        assert result.failed_labels == ("dev-0",)
        assert "worker process failed" in result.outcomes["dev-0"].error
        leftovers = sorted(p.name for p in tmp_path.iterdir())
        # Only the manifest survives: no committed output, no .partial.
        assert leftovers == [MANIFEST_NAME]
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["shards"]["dev-0"]["status"] == "failed"

    def test_committed_outputs_identical_to_fault_free_run(
        self, tmp_path, base_registry, shared_model, stream_windows, recording_format
    ):
        clean_dir = tmp_path / "clean"
        faulty_dir = tmp_path / "faulty"
        clean_dir.mkdir()
        faulty_dir.mkdir()
        fleet = make_fleet(base_registry, recording_format=recording_format)
        fleet.monitor_shards(
            dict(stream_windows), shared_model, output_dir=clean_dir
        )
        faulty = make_fleet(
            base_registry,
            shard_failure_policy="isolate",
            recording_format=recording_format,
        )
        with inject(FaultSpec(site="shard.start", shard="dev-1")):
            faulty.monitor_shards(
                dict(stream_windows), shared_model, output_dir=faulty_dir
            )
        for label in ("dev-0", "dev-2"):
            name = self.shard_file(clean_dir, label, recording_format).name
            assert (faulty_dir / name).read_bytes() == (
                clean_dir / name
            ).read_bytes()


# ---------------------------------------------------------------------- #
# Feeder-thread abandonment diagnostic
# ---------------------------------------------------------------------- #
def test_abandoned_feeder_surfaces_as_diagnostic(
    monkeypatch, base_registry, shared_model, stream_windows
):
    monkeypatch.setattr(parallel_backend, "_FEEDER_JOIN_TIMEOUT_S", 0.05)
    release = threading.Event()

    def stalling_windows():
        windows = stream_windows["dev-0"]
        yield from windows[:3]
        release.wait(timeout=10.0)
        yield from windows[3:]

    fleet = make_fleet(
        base_registry,
        fleet_workers=2,
        shard_failure_policy="isolate",
        shard_chunk_windows=2,
    )
    try:
        with inject(FaultSpec(site="shard.start", shard="stall")):
            result = fleet.monitor_shards(
                {"stall": stalling_windows()}, shared_model
            )
    finally:
        release.set()
    assert result.failed_labels == ("stall",)
    assert any(
        "feeder thread for shard 'stall'" in message
        for message in result.diagnostics
    ), result.diagnostics


# ---------------------------------------------------------------------- #
# CLI: degraded exit codes and knob validation
# ---------------------------------------------------------------------- #
class TestCliFaultTolerance:
    @pytest.fixture(scope="class")
    def trace_pair(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-traces")
        paths = []
        for position, name in enumerate(["alpha", "beta"]):
            generator = PeriodicTraceGenerator(
                NORMAL_MIX,
                ANOMALY_MIX,
                anomaly_intervals=[(2.5, 3.5)],
                rate_per_s=2_000,
                seed=400 + position,
            )
            path = root / f"{name}.jsonl"
            write_trace(list(generator.events(5.0)), path, fmt="jsonl")
            paths.append(path)
        return paths

    def fleet_args(self, trace_pair, output_dir):
        return [
            "--json",
            "fleet",
            str(trace_pair[0]),
            str(trace_pair[1]),
            "--reference-s",
            "2",
            "--k",
            "5",
            "--output-dir",
            str(output_dir),
        ]

    def test_fleet_isolate_exits_3_and_writes_manifest(
        self, tmp_path, capsys, trace_pair
    ):
        args = self.fleet_args(trace_pair, tmp_path) + [
            "--failure-policy",
            "isolate",
        ]
        with inject(FaultSpec(site="shard.start", shard="beta")):
            code = cli_main(args)
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet"]["degraded"] is True
        assert payload["fleet"]["n_failed"] == 1
        assert payload["outcomes"]["beta"]["status"] == "failed"
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["shards"]["beta"]["status"] == "failed"
        assert manifest["shards"]["alpha"]["status"] == "ok"

    def test_fleet_clean_run_exits_0(self, tmp_path, capsys, trace_pair):
        args = self.fleet_args(trace_pair, tmp_path) + [
            "--failure-policy",
            "isolate",
            "--shard-retries",
            "1",
        ]
        assert cli_main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet"]["degraded"] is False

    def test_fleet_rejects_bad_knobs(self, tmp_path, trace_pair):
        with pytest.raises(SystemExit):
            cli_main(
                self.fleet_args(trace_pair, tmp_path)
                + ["--failure-policy", "panic"]
            )
        with pytest.raises(SystemExit):
            cli_main(
                self.fleet_args(trace_pair, tmp_path) + ["--shard-retries", "-1"]
            )
        with pytest.raises(SystemExit):
            cli_main(
                self.fleet_args(trace_pair, tmp_path) + ["--retry-backoff", "-0.5"]
            )

    @pytest.fixture()
    def corrupt_trace(self, tmp_path, trace_pair):
        """A copy of the first trace with one line mangled past the
        reference prefix."""
        lines = trace_pair[0].read_bytes().splitlines(keepends=True)
        victim = int(len(lines) * 0.75)
        lines[victim] = b"@@@ not json @@@\n"
        path = tmp_path / "corrupt.jsonl"
        path.write_bytes(b"".join(lines))
        return path

    def monitor_follow_args(self, path):
        return [
            "--json",
            "monitor",
            str(path),
            "--reference-s",
            "2",
            "--k",
            "5",
            "--follow",
            "--poll-interval",
            "0.01",
            "--idle-timeout",
            "0.2",
        ]

    def test_monitor_follow_skip_exits_3_with_tally(
        self, capsys, corrupt_trace
    ):
        code = cli_main(
            self.monitor_follow_args(corrupt_trace) + ["--on-corrupt", "skip"]
        )
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrupt_records"] == 1
        assert len(payload["corrupt_offsets"]) == 1

    def test_monitor_follow_default_still_fails_hard(self, capsys, corrupt_trace):
        assert cli_main(self.monitor_follow_args(corrupt_trace)) == 2
        assert "malformed" in capsys.readouterr().err

    def test_on_corrupt_requires_follow(self, capsys, trace_pair):
        code = cli_main(
            [
                "--json",
                "monitor",
                str(trace_pair[0]),
                "--reference-s",
                "2",
                "--on-corrupt",
                "skip",
            ]
        )
        assert code == 2
        assert "--follow" in capsys.readouterr().err
