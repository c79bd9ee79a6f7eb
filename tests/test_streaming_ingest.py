"""Streaming columnar ingest: chunked feeds == one-shot reads, bit for bit.

The acceptance bar of the streaming ingest plane: a trace fed in chunks —
1-byte, record-aligned, or random-sized — through the resumable decoders and
:class:`~repro.trace.streaming.StreamingWindowSource` must reproduce a
one-shot columnar read of the final bytes exactly, for the single-stream
monitor, the serial fleet and the process-parallel fleet (both transports).
Alongside: the truncation/shutdown hardening regression tests (partial
trailing records name path offsets; a dead prefetch producer raises instead
of hanging; knob validation at the config and CLI layers) and the bounded
memory / no-leaked-thread guarantees.
"""

from __future__ import annotations

import json
import threading
import time
import tracemalloc

import numpy as np
import pytest

import repro.analysis.parallel as parallel_backend
from repro.analysis.fleet import ShardedTraceMonitor
from repro.analysis.model import ReferenceModel
from repro.analysis.monitor import TraceMonitor
from repro.cli.main import build_parser, main as cli_main
from repro.config import DetectorConfig, MonitorConfig
from repro.errors import (
    ConfigurationError,
    TraceFormatError,
    TraceStreamError,
)
from repro.trace.codec import BinaryTraceCodec
from repro.trace.columns import (
    BinaryColumnsDecoder,
    JsonColumnsDecoder,
    TraceColumns,
    decode_binary_columns,
    decode_json_columns,
)
from repro.trace.event import EventTypeRegistry
from repro.trace.generator import SyntheticTraceGenerator
from repro.trace.pipeline import BoundedHandoff, HandoffStats, prefetch_batches
from repro.trace.reader import read_trace, read_trace_columns
from repro.trace.stream import TraceStream, WindowPolicy, iter_column_batches
from repro.trace.streaming import (
    FileTail,
    PushFeed,
    StreamRecipe,
    StreamingWindowSource,
    StreamStats,
)
from repro.trace.writer import write_trace

MIX = {
    "mb_row_decode": 8.0,
    "frame_decode_start": 1.0,
    "frame_decode_end": 1.0,
    "vsync": 1.0,
    "audio_decode": 2.0,
    "buffer_push": 1.0,
    "buffer_pop": 1.0,
    "syscall_enter": 1.0,
}

WINDOW_US = 40_000


def generated_events(seed: int, duration_s: float):
    return list(
        SyntheticTraceGenerator(MIX, rate_per_s=4000, seed=seed).events(duration_s)
    )


def assert_results_identical(a, b):
    assert a.decisions == b.decisions
    assert a.report == b.report
    assert a.recorded_indices == b.recorded_indices
    assert a.detector_stats == b.detector_stats
    assert a.reference_window_count == b.reference_window_count


def chunk_plans(data: bytes, seed: int = 0):
    """(name, list-of-chunks) plans: 1-byte, random-sized and whole-blob."""
    rng = np.random.default_rng(seed)
    random_chunks, pos = [], 0
    while pos < len(data):
        size = int(rng.integers(1, 4096))
        random_chunks.append(data[pos : pos + size])
        pos += size
    return [
        ("one-byte", [data[i : i + 1] for i in range(len(data))]),
        ("random", random_chunks),
        ("whole", [data]),
    ]


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("traces")
    events = generated_events(seed=5, duration_s=6.0)
    return {
        "jsonl": write_trace(events, root / "trace.jsonl", fmt="jsonl"),
        "binary": write_trace(events, root / "trace.bin", fmt="binary"),
    }


@pytest.fixture(scope="module")
def small_trace_files(tmp_path_factory):
    """A short trace cheap enough to feed byte by byte."""
    root = tmp_path_factory.mktemp("small")
    events = generated_events(seed=7, duration_s=0.4)
    return {
        "jsonl": write_trace(events, root / "small.jsonl", fmt="jsonl"),
        "binary": write_trace(events, root / "small.bin", fmt="binary"),
    }


def assert_columns_equal(actual, expected):
    np.testing.assert_array_equal(actual.timestamps_us, expected.timestamps_us)
    np.testing.assert_array_equal(actual.type_codes, expected.type_codes)
    np.testing.assert_array_equal(actual.cores, expected.cores)
    np.testing.assert_array_equal(actual.static_sizes, expected.static_sizes)
    assert actual.type_names == expected.type_names


def decode_chunked(decoder_cls, data, chunks):
    decoder = decoder_cls()
    parts = [decoder.feed(chunk) for chunk in chunks]
    tail = decoder.finish()
    if len(tail):
        parts.append(tail)
    parts = [part for part in parts if len(part)]
    return decoder, parts


def concatenated_events(parts):
    events = []
    for part in parts:
        events.extend(part.events(0, len(part)))
    return events


# ---------------------------------------------------------------------- #
# Resumable decoders == one-shot decoders
# ---------------------------------------------------------------------- #
def test_binary_decoder_chunked_equals_one_shot(small_trace_files):
    data = small_trace_files["binary"].read_bytes()
    expected = decode_binary_columns(data)
    for name, chunks in chunk_plans(data):
        decoder, parts = decode_chunked(BinaryColumnsDecoder, data, chunks)
        assert decoder.resume_offset == len(data), name
        assert decoder.type_names == expected.type_names, name
        merged_ts = np.concatenate([p.timestamps_us for p in parts])
        np.testing.assert_array_equal(merged_ts, expected.timestamps_us)
        merged_codes = np.concatenate([p.type_codes for p in parts])
        np.testing.assert_array_equal(merged_codes, expected.type_codes)
        merged_static = np.concatenate([p.static_sizes for p in parts])
        np.testing.assert_array_equal(merged_static, expected.static_sizes)
        assert concatenated_events(parts) == list(
            expected.events(0, len(expected))
        ), name


def test_binary_decoder_record_aligned_chunks(small_trace_files):
    """Chunks cut exactly at record boundaries (the friendliest feed)."""
    data = small_trace_files["binary"].read_bytes()
    expected = decode_binary_columns(data)
    offsets = [int(o) for o in expected._record_offsets] + [len(data)]
    chunks = [data[: offsets[0]]] + [
        data[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)
    ]
    decoder, parts = decode_chunked(BinaryColumnsDecoder, data, chunks)
    merged_ts = np.concatenate([p.timestamps_us for p in parts])
    np.testing.assert_array_equal(merged_ts, expected.timestamps_us)
    assert decoder.type_names == expected.type_names


def test_binary_decoder_multi_segment_stream():
    """Concatenated self-describing segments decode across chunk boundaries."""
    events = generated_events(seed=11, duration_s=0.6)
    codec = BinaryTraceCodec()
    third = len(events) // 3
    data = b"".join(
        codec.encode(events[i : i + third or None])
        for i in range(0, len(events), third)
    )
    expected = decode_binary_columns(data)
    for name, chunks in chunk_plans(data, seed=3)[:2]:
        decoder, parts = decode_chunked(BinaryColumnsDecoder, data, chunks)
        merged_ts = np.concatenate([p.timestamps_us for p in parts])
        np.testing.assert_array_equal(merged_ts, expected.timestamps_us, name)
        assert decoder.type_names == expected.type_names, name
        assert concatenated_events(parts) == list(
            expected.events(0, len(expected))
        ), name


def test_json_decoder_chunked_equals_one_shot(small_trace_files):
    text = small_trace_files["jsonl"].read_text(encoding="utf-8")
    data = text.encode("utf-8")
    expected = decode_json_columns(text)
    for name, chunks in chunk_plans(data, seed=1):
        decoder, parts = decode_chunked(JsonColumnsDecoder, data, chunks)
        assert decoder.type_names == expected.type_names, name
        merged_ts = np.concatenate([p.timestamps_us for p in parts])
        np.testing.assert_array_equal(merged_ts, expected.timestamps_us)
        merged_static = np.concatenate([p.static_sizes for p in parts])
        np.testing.assert_array_equal(merged_static, expected.static_sizes)
        assert concatenated_events(parts) == list(
            expected.events(0, len(expected))
        ), name


def test_json_decoder_utf8_split_across_chunks():
    """A multi-byte UTF-8 sequence split mid-character decodes cleanly."""
    lines = [
        json.dumps(
            {"t": 10 * (i + 1), "type": "vsync", "core": 0, "task": "décodeur", "args": {}},
            ensure_ascii=False,
        )
        for i in range(5)
    ]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    expected = decode_json_columns(data.decode("utf-8"))
    decoder, parts = decode_chunked(
        JsonColumnsDecoder, data, [data[i : i + 1] for i in range(len(data))]
    )
    assert concatenated_events(parts) == list(expected.events(0, len(expected)))


def test_json_decoder_final_line_without_newline(small_trace_files):
    """A complete final line missing its newline parses, as in one-shot."""
    text = small_trace_files["jsonl"].read_text(encoding="utf-8").rstrip("\n")
    expected = decode_json_columns(text)
    decoder = JsonColumnsDecoder()
    first = decoder.feed(text.encode("utf-8"))
    tail = decoder.finish()
    total = len(first) + len(tail)
    assert total == len(expected)


# ---------------------------------------------------------------------- #
# Truncation errors name path offsets (regression: they used to be vague)
# ---------------------------------------------------------------------- #
def test_binary_truncated_record_names_byte_offset(small_trace_files):
    data = small_trace_files["binary"].read_bytes()
    cut = data[:-7]
    with pytest.raises(TraceFormatError, match=r"byte offset \d+") as err:
        decode_binary_columns(cut)
    assert "truncated" in str(err.value)


def test_binary_streaming_truncated_record_names_byte_offset(small_trace_files):
    data = small_trace_files["binary"].read_bytes()
    decoder = BinaryColumnsDecoder()
    decoder.feed(data[:-7])
    with pytest.raises(TraceFormatError, match=r"byte offset \d+"):
        decoder.finish()


def test_binary_truncated_header_offset():
    events = generated_events(seed=13, duration_s=0.1)
    data = BinaryTraceCodec().encode(events)
    with pytest.raises(TraceFormatError, match="truncated binary trace header"):
        decode_binary_columns(data[:6])
    decoder = BinaryColumnsDecoder()
    decoder.feed(data[:6])
    with pytest.raises(TraceFormatError, match="truncated binary trace header"):
        decoder.finish()


def test_json_partial_final_line_names_line_number(small_trace_files):
    text = small_trace_files["jsonl"].read_text(encoding="utf-8")
    cut = text[:-9]  # ends inside the final record's JSON
    n_lines = cut.count("\n") + 1
    with pytest.raises(
        TraceFormatError, match=rf"malformed JSON event line {n_lines}"
    ) as err:
        decode_json_columns(cut)
    assert "still being appended" in str(err.value)
    decoder = JsonColumnsDecoder()
    decoder.feed(cut.encode("utf-8"))
    with pytest.raises(
        TraceFormatError, match=rf"malformed JSON event line {n_lines}"
    ):
        decoder.finish()


def test_json_trailing_blank_lines_are_not_an_error(small_trace_files):
    text = small_trace_files["jsonl"].read_text(encoding="utf-8")
    expected = decode_json_columns(text)
    padded = text + "\n\n"
    assert len(decode_json_columns(padded)) == len(expected)
    decoder = JsonColumnsDecoder()
    parts = [decoder.feed(padded.encode("utf-8"))]
    tail = decoder.finish()
    assert len(parts[0]) + len(tail) == len(expected)


def test_binary_decoder_resume_offset_tracks_consumed_records():
    events = generated_events(seed=17, duration_s=0.1)
    data = BinaryTraceCodec().encode(events)
    expected = decode_binary_columns(data)
    boundary = int(expected._record_offsets[len(expected) // 2])
    decoder = BinaryColumnsDecoder()
    decoder.feed(data[: boundary + 3])  # 3 bytes into the next record
    assert decoder.resume_offset == boundary
    decoder.feed(data[boundary + 3 :])
    decoder.finish()
    assert decoder.resume_offset == len(data)


def test_json_decoder_resume_line_tracks_consumed_lines(small_trace_files):
    text = small_trace_files["jsonl"].read_text(encoding="utf-8")
    first_two = text.split("\n", 2)
    decoder = JsonColumnsDecoder()
    decoder.feed((first_two[0] + "\n" + first_two[1] + "\npartial").encode())
    assert decoder.resume_line == 3


def test_empty_binary_stream_raises_on_finish():
    decoder = BinaryColumnsDecoder()
    with pytest.raises(TraceFormatError, match="empty stream"):
        decoder.finish()


# ---------------------------------------------------------------------- #
# Bounded hand-off and prefetch shutdown hardening
# ---------------------------------------------------------------------- #
def test_bounded_handoff_rejects_bad_depth():
    with pytest.raises(TraceStreamError, match="depth must be >= 1"):
        BoundedHandoff(0)


def test_bounded_handoff_counts_stalls_and_peak():
    stats = HandoffStats()
    handoff = BoundedHandoff(2, stats=stats)
    assert handoff.put("a") and handoff.put("b")
    stop = threading.Event()
    timer = threading.Timer(0.05, stop.set)
    timer.start()
    assert not handoff.put("c", stop=stop, poll_s=0.01)  # stalls, then stopped
    assert stats.put_stalls == 1
    assert stats.peak_level >= 1
    assert handoff.get() == "a"
    assert handoff.get() == "b"
    with pytest.raises(Exception):  # queue.Empty via dead keep_waiting
        handoff.get(keep_waiting=lambda: False, poll_s=0.01)
    assert stats.get_stalls == 1
    assert stats.depth == 2
    assert 0.0 < stats.fill_fraction() <= 1.0


def test_prefetch_dead_producer_raises_instead_of_hanging(monkeypatch):
    """Regression: a producer dying without its sentinel hung the consumer."""
    original_put = BoundedHandoff.put

    def dropping_put(self, item, stop=None, poll_s=0.05):
        if isinstance(item, tuple) and item[0] != "item":
            return True  # swallow the completion/error sentinel
        return original_put(self, item, stop=stop, poll_s=poll_s)

    monkeypatch.setattr(BoundedHandoff, "put", dropping_put)

    outcome = {}

    def consume():
        try:
            outcome["items"] = list(prefetch_batches(iter(range(3)), depth=2))
        except TraceStreamError as exc:
            outcome["error"] = exc

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    consumer.join(timeout=10.0)
    assert not consumer.is_alive(), "consumer hung on a dead producer"
    assert "error" in outcome
    assert "died without delivering" in str(outcome["error"])


def test_prefetch_propagates_producer_error():
    def boom():
        yield 1
        raise ValueError("decode failed")

    iterator = prefetch_batches(boom(), depth=2)
    assert next(iterator) == 1
    with pytest.raises(ValueError, match="decode failed"):
        list(iterator)


def _prefetch_threads():
    return [
        t for t in threading.enumerate() if t.name.startswith("repro-ingest-prefetch")
    ]


def test_prefetch_abandoned_iterator_stops_producer_thread():
    iterator = prefetch_batches(iter(range(1000)), depth=2)
    assert next(iterator) == 0
    iterator.close()
    deadline = time.monotonic() + 5.0
    while _prefetch_threads() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _prefetch_threads(), "producer thread leaked after close()"


# ---------------------------------------------------------------------- #
# PushFeed and FileTail
# ---------------------------------------------------------------------- #
def test_push_feed_roundtrip_and_closed_write():
    feed = PushFeed(depth=4)
    feed.write(b"ab")
    feed.write(b"")  # no-op
    feed.write(b"cd")
    feed.close()
    feed.close()  # idempotent
    assert list(feed) == [b"ab", b"cd"]
    with pytest.raises(TraceStreamError, match="closed feed"):
        feed.write(b"late")


def test_push_feed_abandoned_consumer_unblocks_writer():
    feed = PushFeed(depth=1)
    feed.write(b"x")
    iterator = iter(feed)
    assert next(iterator) == b"x"
    iterator.close()  # abandon
    with pytest.raises(TraceStreamError, match="consumer is gone"):
        for _ in range(10):  # the queue has depth 1; the second write blocks
            feed.write(b"y")


def test_file_tail_validates_parameters(tmp_path):
    with pytest.raises(TraceStreamError, match="poll_interval_s"):
        FileTail(tmp_path / "t", poll_interval_s=0)
    with pytest.raises(TraceStreamError, match="idle_timeout_s"):
        FileTail(tmp_path / "t", idle_timeout_s=-1)
    with pytest.raises(TraceStreamError, match="chunk_bytes"):
        FileTail(tmp_path / "t", chunk_bytes=0)


def test_file_tail_reads_file_created_later(tmp_path):
    path = tmp_path / "late.jsonl"

    def create():
        time.sleep(0.1)
        path.write_bytes(b"hello world")

    writer = threading.Thread(target=create, daemon=True)
    writer.start()
    tail = FileTail(path, poll_interval_s=0.02, idle_timeout_s=0.3)
    data = b"".join(tail)
    writer.join()
    assert data == b"hello world"
    assert tail.bytes_read == len(data)


def test_file_tail_idle_timeout_zero_reads_existing_bytes(tmp_path):
    path = tmp_path / "static.bin"
    path.write_bytes(b"0123456789")
    tail = FileTail(path, poll_interval_s=0.01, idle_timeout_s=0.0, chunk_bytes=4)
    assert b"".join(tail) == b"0123456789"


# ---------------------------------------------------------------------- #
# StreamingWindowSource == one-shot batch layout
# ---------------------------------------------------------------------- #
def one_shot_batches(columns, registry, policy, emit_empty=True):
    return list(
        iter_column_batches(
            columns,
            registry,
            batch_size=8,
            policy=policy,
            window_duration_us=WINDOW_US,
            events_per_window=100,
            emit_empty=emit_empty,
        )
    )


def object_batches(path, registry, policy, emit_empty=True):
    """The object oracle: per-event windowing over the object decode."""
    return list(
        TraceStream(read_trace(path)).window_batches(
            registry,
            batch_size=8,
            policy=policy,
            window_duration_us=WINDOW_US,
            events_per_window=100,
            emit_empty=emit_empty,
        )
    )


def streaming_batches(path, recipe):
    data = path.read_bytes()
    rng = np.random.default_rng(5)
    chunks, pos = [], 0
    while pos < len(data):
        size = int(rng.integers(1, 8192))
        chunks.append(data[pos : pos + size])
        pos += size
    source = StreamingWindowSource(iter(chunks), recipe=recipe)
    registry = EventTypeRegistry.with_default_types()
    return (
        list(source.batches(registry, 8, default_window_duration_us=WINDOW_US)),
        registry,
        source,
    )


@pytest.mark.parametrize("fmt", ["jsonl", "binary"])
@pytest.mark.parametrize(
    "policy,emit_empty",
    [
        (WindowPolicy.BY_DURATION, True),
        (WindowPolicy.BY_DURATION, False),
        (WindowPolicy.BY_COUNT, True),
    ],
)
def test_streaming_batches_match_one_shot(trace_files, fmt, policy, emit_empty):
    path = trace_files[fmt]
    reference_registry = EventTypeRegistry.with_default_types()
    expected = one_shot_batches(
        read_trace_columns(path), reference_registry, policy, emit_empty
    )
    recipe = StreamRecipe(
        policy=policy, events_per_window=100, emit_empty=emit_empty
    )
    actual, registry, source = streaming_batches(path, recipe)
    assert registry.names == reference_registry.names
    assert len(actual) == len(expected)
    total_events = sum(int(b.offsets[-1]) for b in expected)
    for got, want in zip(actual, expected):
        np.testing.assert_array_equal(got.codes, want.codes)
        np.testing.assert_array_equal(got.offsets, want.offsets)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.start_us, want.start_us)
        np.testing.assert_array_equal(got.end_us, want.end_us)
        np.testing.assert_array_equal(got.dims, want.dims)
        assert got.dimension == want.dimension
        np.testing.assert_array_equal(got.window_sizes(), want.window_sizes())
        for k in range(len(want.indices)):
            assert got.window(k).events == want.window(k).events
    # Bounded memory: the buffered high-water mark tracks the batch extent,
    # not the stream length.
    assert 0 < source.stats.peak_buffered_events < total_events
    # A one-shot read is the same source over one chunk, so the object
    # windowing is the independent expected value.
    oracle_registry = EventTypeRegistry.with_default_types()
    oracle = object_batches(path, oracle_registry, policy, emit_empty)
    assert registry.names == oracle_registry.names
    assert len(actual) == len(oracle)
    for got, want in zip(actual, oracle):
        np.testing.assert_array_equal(got.codes, want.codes)
        np.testing.assert_array_equal(got.offsets, want.offsets)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.start_us, want.start_us)
        np.testing.assert_array_equal(got.end_us, want.end_us)
        np.testing.assert_array_equal(got.dims, want.dims)
        assert got.dimension == want.dimension
        np.testing.assert_array_equal(got.window_sizes(), want.window_sizes())
        assert got.to_windows() == want.to_windows()


def test_one_chunk_source_peak_memory_is_a_fraction_of_the_chunk():
    """A one-shot read is a one-chunk stream, and must cost no copy of it.

    The source adopts the chunk's arrays, windows them with one kernel call
    and hands batches over by slicing, so the traced peak stays a small
    fraction of the chunk's own column bytes: a copy of the chunk on intake
    or a copy of the remaining buffer after every batch would exceed it.
    """
    events = list(
        SyntheticTraceGenerator(MIX, rate_per_s=600, seed=11).events(200.0)
    )
    assert len(events) >= 100_000
    columns = TraceColumns.from_events(events)
    column_bytes = sum(
        array.nbytes
        for array in (
            columns.timestamps_us,
            columns.type_codes,
            columns.cores,
            columns.static_sizes,
        )
    )
    source = StreamingWindowSource(columns_chunks=[columns])
    registry = EventTypeRegistry.with_default_types()
    tracemalloc.start()
    try:
        n_windows = 0
        for batch in source.batches(registry, 64, default_window_duration_us=WINDOW_US):
            n_windows += len(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_windows == source.stats.windows > 4_000
    assert peak <= 0.15 * column_bytes, (peak, column_bytes)


def test_streaming_source_is_single_pass(trace_files):
    source = StreamingWindowSource(iter([trace_files["jsonl"].read_bytes()]))
    registry = EventTypeRegistry()
    list(source.batches(registry, 8))
    with pytest.raises(TraceStreamError, match="already consumed"):
        source.batches(registry, 8)


def test_streaming_source_rejects_unsorted_chunks():
    lines = [
        json.dumps({"t": t, "type": "vsync", "core": 0, "task": "gst", "args": {}})
        for t in (100, 200, 50)
    ]
    chunks = [(line + "\n").encode() for line in lines]
    source = StreamingWindowSource(iter(chunks))
    with pytest.raises(TraceStreamError, match="not sorted"):
        list(source.batches(EventTypeRegistry(), 4))


def test_streaming_empty_stream_raises():
    source = StreamingWindowSource(iter([]))
    with pytest.raises(TraceFormatError, match="empty trace stream"):
        list(source.batches(EventTypeRegistry(), 4))


def test_streaming_source_requires_exactly_one_input():
    with pytest.raises(TraceStreamError, match="exactly one"):
        StreamingWindowSource()


# ---------------------------------------------------------------------- #
# Monitor-level chunked-feed equivalence
# ---------------------------------------------------------------------- #
def monitor_configs():
    return (
        DetectorConfig(k_neighbours=5, lof_threshold=1.1),
        MonitorConfig(reference_duration_us=2_000_000, batch_size=16),
    )


@pytest.mark.parametrize("fmt", ["jsonl", "binary"])
def test_run_streaming_equals_run_on_file(tmp_path, trace_files, fmt):
    path = trace_files[fmt]
    detector_config, monitor_config = monitor_configs()
    out_file = tmp_path / "oneshot.jsonl"
    baseline_monitor = TraceMonitor(
        detector_config, monitor_config, EventTypeRegistry.with_default_types()
    )
    baseline = baseline_monitor.run_on_file(path, output_path=out_file)
    assert baseline.n_anomalous > 0

    data = path.read_bytes()
    rng = np.random.default_rng(9)
    for trial, prefetch in (("random", 0), ("aligned", 2)):
        if trial == "random":
            chunks, pos = [], 0
            while pos < len(data):
                size = int(rng.integers(1, 16384))
                chunks.append(data[pos : pos + size])
                pos += size
        else:
            chunks = [data]
        out_stream = tmp_path / f"stream-{fmt}-{trial}.jsonl"
        stream_monitor = TraceMonitor(
            detector_config, monitor_config, EventTypeRegistry.with_default_types()
        )
        result = stream_monitor.run_streaming(
            StreamingWindowSource(iter(chunks)),
            output_path=out_stream,
            prefetch_batches=prefetch,
        )
        assert_results_identical(baseline, result)
        assert out_file.read_bytes() == out_stream.read_bytes()
        assert baseline_monitor.registry.names == stream_monitor.registry.names


def test_run_streaming_one_byte_chunks_equals_one_shot(tmp_path, small_trace_files):
    path = small_trace_files["jsonl"]
    detector_config = DetectorConfig(k_neighbours=3, lof_threshold=1.1)
    monitor_config = MonitorConfig(reference_duration_us=200_000, batch_size=4)
    baseline = TraceMonitor(
        detector_config, monitor_config, EventTypeRegistry.with_default_types()
    ).run_on_file(path, output_path=tmp_path / "one.jsonl")
    data = path.read_bytes()
    result = TraceMonitor(
        detector_config, monitor_config, EventTypeRegistry.with_default_types()
    ).run_streaming(
        StreamingWindowSource(data[i : i + 1] for i in range(len(data))),
        output_path=tmp_path / "stream.jsonl",
    )
    assert_results_identical(baseline, result)
    assert (tmp_path / "one.jsonl").read_bytes() == (
        tmp_path / "stream.jsonl"
    ).read_bytes()


def test_run_streaming_with_curated_model(tmp_path, trace_files):
    """Pre-fitted model: no reference split, still bit-identical."""
    path = trace_files["binary"]
    registry = EventTypeRegistry.with_default_types()
    reference_columns = read_trace_columns(trace_files["jsonl"])
    monitor = TraceMonitor(
        DetectorConfig(k_neighbours=5, lof_threshold=1.1),
        MonitorConfig(reference_duration_us=2_000_000, batch_size=16),
        registry,
    )
    model = monitor.run_on_columns(reference_columns).model

    detector_config, monitor_config = monitor_configs()
    baseline = TraceMonitor(
        detector_config, monitor_config, EventTypeRegistry.with_default_types()
    ).run_on_file(path, model=model, output_path=tmp_path / "one.jsonl")
    result = TraceMonitor(
        detector_config, monitor_config, EventTypeRegistry.with_default_types()
    ).run_streaming(
        StreamingWindowSource(iter([path.read_bytes()])),
        model=model,
        output_path=tmp_path / "stream.jsonl",
    )
    assert_results_identical(baseline, result)
    assert (tmp_path / "one.jsonl").read_bytes() == (
        tmp_path / "stream.jsonl"
    ).read_bytes()


def test_follow_file_with_concurrent_appender(tmp_path, trace_files):
    """A file appended while being followed scores like its final contents."""
    path = trace_files["jsonl"]
    detector_config, monitor_config = monitor_configs()
    baseline = TraceMonitor(
        detector_config, monitor_config, EventTypeRegistry.with_default_types()
    ).run_on_file(path, output_path=tmp_path / "one.jsonl")

    data = path.read_bytes()
    live = tmp_path / "live.jsonl"
    live.write_bytes(data[: len(data) // 3])

    def append_rest():
        with live.open("ab") as handle:
            for lo in range(len(data) // 3, len(data), 65536):
                time.sleep(0.01)
                handle.write(data[lo : lo + 65536])
                handle.flush()

    appender = threading.Thread(target=append_rest, daemon=True)
    appender.start()
    result = TraceMonitor(
        detector_config, monitor_config, EventTypeRegistry.with_default_types()
    ).follow_file(
        live,
        output_path=tmp_path / "follow.jsonl",
        poll_interval_s=0.01,
        idle_timeout_s=0.5,
    )
    appender.join()
    assert_results_identical(baseline, result)
    assert (tmp_path / "one.jsonl").read_bytes() == (
        tmp_path / "follow.jsonl"
    ).read_bytes()


# ---------------------------------------------------------------------- #
# Fleet: streaming shards over every backend and transport
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fleet_fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet")
    registry = EventTypeRegistry.with_default_types()
    reference_events = generated_events(seed=99, duration_s=8.0)
    from repro.trace.stream import windows_by_duration

    reference = list(windows_by_duration(iter(reference_events), WINDOW_US))
    model = ReferenceModel(k_neighbours=5).learn(reference, registry)
    shard_paths = {}
    for i in range(3):
        events = generated_events(seed=30 + i, duration_s=4.0)
        shard_paths[f"dev-{i:02d}"] = write_trace(
            events, root / f"dev-{i:02d}.jsonl", fmt="jsonl"
        )
    return model, shard_paths


def streaming_shards(shard_paths, chunk_size, seed=0):
    shards = {}
    rng = np.random.default_rng(seed)
    for label, path in shard_paths.items():
        data = path.read_bytes()

        def chunks(data=data):
            pos = 0
            while pos < len(data):
                size = int(rng.integers(1, chunk_size))
                yield data[pos : pos + size]
                pos += size

        shards[label] = StreamingWindowSource(chunks())
    return shards


def run_fleet(monitor_config, shards, model, out_dir):
    fleet = ShardedTraceMonitor(
        DetectorConfig(k_neighbours=5, lof_threshold=1.1),
        monitor_config,
        EventTypeRegistry.with_default_types(),
    )
    return fleet.monitor_shards(shards, model, output_dir=out_dir)


def assert_fleet_identical(a, a_dir, b, b_dir):
    assert a.shard_labels == b.shard_labels
    for label in a.shard_labels:
        assert_results_identical(a.shard(label), b.shard(label))
        assert (a_dir / f"{label}.jsonl").read_bytes() == (
            b_dir / f"{label}.jsonl"
        ).read_bytes()
    assert a.report == b.report
    assert a.detector_stats == b.detector_stats


@pytest.fixture(scope="module")
def fleet_baseline(fleet_fixture, tmp_path_factory):
    model, shard_paths = fleet_fixture
    out = tmp_path_factory.mktemp("fleet-baseline")
    columns = {
        label: read_trace_columns(path) for label, path in shard_paths.items()
    }
    result = run_fleet(MonitorConfig(batch_size=16), columns, model, out)
    assert result.n_anomalous > 0
    return result, out


def test_fleet_streaming_serial_equals_columnar(
    tmp_path, fleet_fixture, fleet_baseline
):
    model, shard_paths = fleet_fixture
    baseline, baseline_dir = fleet_baseline
    result = run_fleet(
        MonitorConfig(batch_size=16),
        streaming_shards(shard_paths, 4096, seed=1),
        model,
        tmp_path,
    )
    assert_fleet_identical(baseline, baseline_dir, result, tmp_path)


def test_fleet_streaming_parallel_fork_equals_columnar(
    tmp_path, fleet_fixture, fleet_baseline
):
    if not parallel_backend.fork_transport_available():
        pytest.skip("fork start method unavailable")
    model, shard_paths = fleet_fixture
    baseline, baseline_dir = fleet_baseline
    result = run_fleet(
        MonitorConfig(batch_size=16, fleet_workers=2, stream_queue_depth=2),
        streaming_shards(shard_paths, 8192, seed=2),
        model,
        tmp_path,
    )
    assert_fleet_identical(baseline, baseline_dir, result, tmp_path)


def test_fleet_streaming_parallel_pickle_equals_columnar(
    tmp_path, fleet_fixture, fleet_baseline, monkeypatch
):
    monkeypatch.setattr(parallel_backend, "fork_transport_available", lambda: False)
    model, shard_paths = fleet_fixture
    baseline, baseline_dir = fleet_baseline
    result = run_fleet(
        MonitorConfig(batch_size=16, fleet_workers=2),
        streaming_shards(shard_paths, 16384, seed=3),
        model,
        tmp_path,
    )
    assert_fleet_identical(baseline, baseline_dir, result, tmp_path)


def test_fleet_chunked_window_transport_equals_materialised(
    tmp_path, fleet_fixture, fleet_baseline
):
    """shard_chunk_windows feeds window generators in bounded chunks."""
    if not parallel_backend.fork_transport_available():
        pytest.skip("fork start method unavailable")
    from repro.trace.stream import windows_by_duration
    from repro.trace.reader import read_trace

    model, shard_paths = fleet_fixture
    baseline, baseline_dir = fleet_baseline
    shards = {
        label: windows_by_duration(iter(read_trace(path)), WINDOW_US)
        for label, path in shard_paths.items()
    }
    result = run_fleet(
        MonitorConfig(
            batch_size=16,
            fleet_workers=2,
            shard_chunk_windows=5,
            stream_queue_depth=2,
        ),
        shards,
        model,
        tmp_path,
    )
    assert_fleet_identical(baseline, baseline_dir, result, tmp_path)


def test_fleet_streaming_feeder_error_names_shard(tmp_path, fleet_fixture):
    model, _ = fleet_fixture
    bad = {
        "dev-bad": StreamingWindowSource(
            iter([b'{"t": 5, "type": "x", "core"'])  # cut mid-line
        )
    }
    from repro.errors import FleetError

    with pytest.raises(FleetError, match="dev-bad"):
        run_fleet(
            MonitorConfig(batch_size=16, fleet_workers=2), bad, model, tmp_path
        )


def test_fleet_no_leaked_feeder_threads(tmp_path, fleet_fixture, fleet_baseline):
    model, shard_paths = fleet_fixture
    run_fleet(
        MonitorConfig(batch_size=16, fleet_workers=2),
        streaming_shards(shard_paths, 8192, seed=4),
        model,
        tmp_path,
    )
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        feeders = [
            t
            for t in threading.enumerate()
            if t.name.startswith("repro-shard-feed-")
        ]
        if not feeders:
            return
        time.sleep(0.02)
    raise AssertionError(f"leaked feeder threads: {feeders}")


# ---------------------------------------------------------------------- #
# Knob validation: config layer and CLI layer
# ---------------------------------------------------------------------- #
def test_monitor_config_validates_streaming_knobs():
    with pytest.raises(ConfigurationError, match="stream_queue_depth"):
        MonitorConfig(stream_queue_depth=0)
    with pytest.raises(ConfigurationError, match="shard_chunk_windows"):
        MonitorConfig(shard_chunk_windows=0)
    MonitorConfig(stream_queue_depth=1, shard_chunk_windows=None)  # valid


def test_negative_prefetch_rejected_at_monitor_layer(trace_files):
    monitor = TraceMonitor(
        DetectorConfig(k_neighbours=5),
        MonitorConfig(reference_duration_us=2_000_000),
        EventTypeRegistry.with_default_types(),
    )
    with pytest.raises(ConfigurationError, match="prefetch_batches must be >= 0"):
        monitor.run_on_file(trace_files["jsonl"], prefetch_batches=-1)
    with pytest.raises(ConfigurationError, match="prefetch_batches must be >= 0"):
        monitor.run_streaming(
            StreamingWindowSource(iter([b"x"])), prefetch_batches=-2
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["monitor", "t.jsonl", "--prefetch", "-1"],
        ["monitor", "t.jsonl", "--batch-size", "0"],
        ["monitor", "t.jsonl", "--poll-interval", "0"],
        ["monitor", "t.jsonl", "--idle-timeout", "-0.5"],
        ["fleet", "t.jsonl", "--workers", "0"],
        ["fleet", "t.jsonl", "--batch-size", "-3"],
        ["fleet", "t.jsonl", "--queue-depth", "0"],
        ["fleet", "t.jsonl", "--chunk-windows", "0"],
        ["monitor", "t.jsonl", "--prefetch", "lots"],
    ],
)
def test_cli_rejects_invalid_knob_values(capsys, argv):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "must be" in captured.err or "expected" in captured.err


def test_cli_follow_requires_columnar_ingest(tmp_path, capsys, trace_files):
    code = cli_main(
        [
            "monitor",
            str(trace_files["jsonl"]),
            "--follow",
            "--ingest",
            "objects",
            "--idle-timeout",
            "0",
        ]
    )
    assert code == 2
    assert "columnar" in capsys.readouterr().err


def test_cli_monitor_follow_matches_one_shot(tmp_path, capsys, trace_files):
    path = trace_files["jsonl"]
    base_args = [
        "--json",
        "monitor",
        str(path),
        "--reference-s",
        "2",
        "--k",
        "5",
    ]
    assert cli_main(base_args + ["--output", str(tmp_path / "one.jsonl")]) == 0
    one_shot_payload = json.loads(capsys.readouterr().out)
    assert (
        cli_main(
            base_args
            + [
                "--output",
                str(tmp_path / "follow.jsonl"),
                "--follow",
                "--poll-interval",
                "0.01",
                "--idle-timeout",
                "0.2",
            ]
        )
        == 0
    )
    follow_payload = json.loads(capsys.readouterr().out)
    assert one_shot_payload == follow_payload
    assert (tmp_path / "one.jsonl").read_bytes() == (
        tmp_path / "follow.jsonl"
    ).read_bytes()
