"""Columnar recording == the object encoders, byte for byte and error for error.

The recorder encodes the windows it writes straight from column spans
(:func:`~repro.trace.recording.encode_window_spans`).  The oracle is the
same recorder fed the materialised :class:`~repro.trace.window.TraceWindow`
objects, which it encodes window by window with the codecs.  The grid runs
every source kind (binary, JSON lines, in-memory events; only binary
sources are encoded from spans, the others must take the object path),
both recording formats, with and without context windows and write
buffering, over one chunk and over follow-style chunks that cut through
windows; the edge cases plant raw task and payload bytes the proof must
reject or accept.
"""

from __future__ import annotations

import json
import random
import struct

import numpy as np
import pytest

from repro.analysis.recorder import DEFAULT_IO_BUFFER_BYTES, SelectiveTraceRecorder
from repro.errors import TraceFormatError
from repro.trace.codec import BinaryTraceCodec, JsonTraceCodec, _encode_varint
from repro.trace.columns import (
    BinaryColumnsDecoder,
    JsonColumnsDecoder,
    TraceColumns,
    decode_binary_columns,
    decode_json_columns,
)
from repro.trace.event import EventTypeRegistry, TraceEvent
from repro.trace.recording import encode_window_spans
from repro.trace.streaming import StreamRecipe, StreamingWindowSource

WINDOW_US = 1_000
BATCH_SIZE = 8
#: Where the trace starts: every window's first delta is its absolute
#: timestamp, so each one is a multi-byte varint.
START_US = 1 << 36


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
def base_events(seed: int = 0) -> list[TraceEvent]:
    """Canonical events with the shapes the encoder must get right.

    Large first delta (multi-byte varint), gaps (empty windows), cores 0
    and 255, tasks and payloads of 128 bytes or more, one window with more
    than 128 event types (two-byte registry codes), non-ASCII tasks and
    escaped non-ASCII payload strings.
    """
    rng = random.Random(seed)
    events = []
    t = START_US
    tasks = ["", "video-dec", "t" * 130, "audéo", "中"]
    for i in range(400):
        t += rng.choice([1, 3, 40, 250]) if i % 97 else 5 * WINDOW_US
        args: dict = {}
        kind = rng.random()
        if kind < 0.5:
            args = {"frame": rng.randrange(10**6), "level": rng.random()}
        elif kind < 0.6:
            args = {"blob": "x" * 140, "nested": {"b": [1, 2.5, None, True]}}
        elif kind < 0.7:
            args = {"name": "café ☃", "q": '"quoted" \\ back'}
        events.append(
            TraceEvent(
                timestamp_us=t,
                etype=f"type{rng.randrange(12)}",
                core=rng.choice([0, 1, 3, 255]),
                task=rng.choice(tasks),
                args=args,
            )
        )
    # One window with 140 distinct types.
    t = (t // WINDOW_US + 2) * WINDOW_US
    for k in range(140):
        events.append(TraceEvent(timestamp_us=t + k, etype=f"wide{k}", task="w"))
    return events


def raw_binary(records: list[tuple[int, str, int, bytes, bytes]]) -> bytes:
    """One binary segment with the given raw task and payload bytes."""
    names = list(dict.fromkeys(record[1] for record in records))
    header = json.dumps(
        {"version": 1, "count": len(records), "registry": {n: i for i, n in enumerate(names)}},
        sort_keys=True,
    ).encode("utf-8")
    body = bytearray()
    previous = 0
    for timestamp, etype, core, task, payload in records:
        body += _encode_varint(timestamp - previous) + _encode_varint(names.index(etype))
        body += bytes([core]) + _encode_varint(len(task)) + task
        body += _encode_varint(len(payload)) + payload
        previous = timestamp
    return b"RTRC" + struct.pack("<I", len(header)) + header + bytes(body)


def event_records(events: list[TraceEvent]) -> list[tuple[int, str, int, bytes, bytes]]:
    """The raw fields the binary codec writes for each event."""
    return [
        (
            event.timestamp_us,
            event.etype,
            event.core,
            event.task.encode("utf-8"),
            json.dumps(event.args, sort_keys=True, separators=(",", ":")).encode()
            if event.args
            else b"",
        )
        for event in events
    ]


def source_chunks(kind: str, events: list[TraceEvent], chunked: bool, data=None):
    """Decoded column chunks of ``events`` (or of raw ``data``)."""
    if kind == "events":
        if not chunked:
            return [TraceColumns.from_events(events)]
        cuts = list(range(0, len(events), 37)) + [len(events)]
        return [TraceColumns.from_events(events[a:b]) for a, b in zip(cuts, cuts[1:])]
    if data is None:
        if kind == "binary":
            data = BinaryTraceCodec().encode(events)
        else:
            data = (JsonTraceCodec().encode(events) + "\n").encode("utf-8")
    if not chunked:
        if kind == "binary":
            return [decode_binary_columns(data)]
        return [decode_json_columns(data.decode("utf-8"))]
    decoder = BinaryColumnsDecoder() if kind == "binary" else JsonColumnsDecoder()
    chunks = [decoder.feed(data[i : i + 211]) for i in range(0, len(data), 211)]
    chunks.append(decoder.finish())
    return [chunk for chunk in chunks if len(chunk)]


def batches(chunks):
    source = StreamingWindowSource(
        columns_chunks=chunks,
        recipe=StreamRecipe(window_duration_us=WINDOW_US, start_us=START_US),
    )
    return source.batches(EventTypeRegistry(), BATCH_SIZE)


def flags_of(batch) -> list[bool]:
    return [(int(index) * 7919) % 10 < 4 for index in batch.indices]


def record(
    chunks, tmp_path, name, *, objects, fmt, context=0, io=DEFAULT_IO_BUFFER_BYTES, every=False
):
    """Record every flagged window (plus context), or ``every`` window;
    return what is observable."""
    path = tmp_path / name
    recorder = SelectiveTraceRecorder(
        context_windows=context, output_path=path, io_buffer_bytes=io, recording_format=fmt
    )
    for batch in batches(chunks):
        windows = batch.to_windows() if objects else batch.window_refs()
        flags = [True] * len(batch) if every else flags_of(batch)
        recorder.observe_batch(windows, flags, window_bytes=batch.window_sizes())
    recorder.close()
    return path.read_bytes(), recorder.report(), recorder.recorded_indices, recorder.io_write_count


def outcome(chunks, tmp_path, name, **kwargs):
    """:func:`record`'s result, or the exception type and message it raised."""
    try:
        return record(chunks, tmp_path, name, **kwargs)
    except Exception as exc:  # the outcome compared with the oracle's
        return type(exc), str(exc)


# ---------------------------------------------------------------------- #
# The grid
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "follow"])
@pytest.mark.parametrize("io", [0, DEFAULT_IO_BUFFER_BYTES], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("context", [0, 2])
@pytest.mark.parametrize("fmt", ["jsonl", "binary"])
@pytest.mark.parametrize("kind", ["binary", "jsonl", "events"])
def test_columnar_recording_matches_object_oracle(tmp_path, kind, fmt, context, io, chunked):
    events = base_events()
    kwargs = dict(fmt=fmt, context=context, io=io)
    expected = record(source_chunks(kind, events, chunked), tmp_path, "oracle", objects=True, **kwargs)
    actual = record(source_chunks(kind, events, chunked), tmp_path, "columnar", objects=False, **kwargs)
    assert actual == expected
    assert expected[2]  # something was recorded
    if chunked and kind != "events":
        assert len(source_chunks(kind, events, chunked)) > 1


def test_windows_straddling_chunks_are_encoded_from_columns():
    """A window cut by a chunk boundary is one encoded block, not a fallback."""
    events = base_events()
    chunks = source_chunks("binary", events, chunked=True)
    straddling = 0
    for batch in batches(chunks):
        refs = batch.window_refs()
        spans = [ref.spans() for ref in refs]
        straddling += sum(len(window) > 1 for window in spans)
        for fmt in ("binary", "jsonl"):
            blob, bounds, encoded = encode_window_spans(spans, fmt)
            assert encoded.all()
            for ref, start, stop in zip(refs, bounds[:-1], bounds[1:]):
                window = ref.resolve()
                if fmt == "binary":
                    expected = BinaryTraceCodec().encode(window.events) if window.events else b""
                else:
                    expected = JsonTraceCodec().encode_events(window.events).encode("ascii")
                assert blob[start:stop] == expected
    assert straddling


# ---------------------------------------------------------------------- #
# Edge inputs: raw bytes the proof must reject (or accept)
# ---------------------------------------------------------------------- #
NON_CANONICAL_PAYLOADS = {
    "unsorted-keys": b'{"b":1,"a":2}',
    "spaces": b'{"a": 1}',
    "empty-object": b"{}",
    "duplicate-keys": b'{"a":1,"a":2}',
    "raw-non-ascii": '{"a":"é"}'.encode("utf-8"),
    "needless-escape": b'{"a":"\\u0041"}',
    "float-spelling": b'{"a":1e5}',
    "trailing-space": b'{"a":1} ',
}

CANONICAL_PAYLOADS = {
    "escaped-non-ascii": b'{"a":"\\u00e9"}',
    "long": b'{"a":"' + b"y" * 200 + b'"}',
    "nested-braces-in-strings": b'{"a":"},{","b":["{\\"x\\":1}"]}',
    "nan": b'{"a":NaN}',
}

FAILING = {
    "non-dict-payload": (b"task", b"[1,2]"),
    "malformed-payload": (b"task", b'{"a":}'),
    "invalid-utf8-task": (b"\xff\xfe", b'{"a":1}'),
    "truncated-object": (b"task", b'{"a":[{"x":1}'),
}


def edge_trace(task: bytes, payload: bytes, where: int = 5) -> bytes:
    """The base events as raw records, one record's task/payload replaced."""
    records = event_records(base_events())
    timestamp, etype, core, _, _ = records[where]
    records[where] = (timestamp, etype, core, task, payload)
    return raw_binary(records)


@pytest.mark.parametrize("fmt", ["jsonl", "binary"])
@pytest.mark.parametrize(
    "payload",
    list(NON_CANONICAL_PAYLOADS.values()) + list(CANONICAL_PAYLOADS.values()),
    ids=list(NON_CANONICAL_PAYLOADS) + list(CANONICAL_PAYLOADS),
)
def test_raw_payloads_record_like_the_object_path(tmp_path, fmt, payload):
    data = edge_trace(b"task", payload)
    for chunked in (False, True):
        chunks = source_chunks("binary", [], chunked, data=data)
        expected = record(chunks, tmp_path, "oracle", objects=True, fmt=fmt, every=True)
        chunks = source_chunks("binary", [], chunked, data=data)
        assert record(chunks, tmp_path, "columnar", objects=False, fmt=fmt, every=True) == expected


@pytest.mark.parametrize("fmt", ["jsonl", "binary"])
@pytest.mark.parametrize("case", list(FAILING.values()), ids=list(FAILING))
def test_corrupt_records_raise_the_object_path_error(tmp_path, fmt, case):
    data = edge_trace(*case)
    chunks = source_chunks("binary", [], False, data=data)
    expected = outcome(chunks, tmp_path, "o", objects=True, fmt=fmt, every=True)
    chunks = source_chunks("binary", [], False, data=data)
    actual = outcome(chunks, tmp_path, "c", objects=False, fmt=fmt, every=True)
    assert isinstance(expected[0], type) and issubclass(expected[0], Exception)
    assert actual == expected


JOINED_PIECES = {
    # Three valid objects once joined, none valid alone.
    "three-objects": [b'{"p":1},{"q":2}', b'{"a":[{"x":1}', b'{"y":2}]}'],
    # Three values with exactly two "},{" once joined, but not all objects:
    # the first and last piece are not valid alone.
    "object-array-object": [b'{"p":0},[{"a":1}', b'{"b":2}', b'{"c":3}],{"q":0}'],
}


def _valid_alone(piece: bytes) -> bool:
    try:
        json.loads(piece)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("fmt", ["jsonl", "binary"])
@pytest.mark.parametrize("pieces", list(JOINED_PIECES.values()), ids=list(JOINED_PIECES))
def test_joined_payloads_that_only_parse_together_are_rejected(tmp_path, fmt, pieces):
    """Payloads that parse together are proved one by one."""
    records = event_records(base_events())
    for offset, piece in enumerate(pieces):
        timestamp, etype, core, task, _ = records[5 + offset]
        records[5 + offset] = (timestamp, etype, core, task, piece)
    data = raw_binary(records)
    for offset in range(3):
        assert records[5 + offset][0] // WINDOW_US == records[5][0] // WINDOW_US
    columns = decode_binary_columns(data)
    spans = [[(columns, 5 + offset, 6 + offset)] for offset in range(3)]
    _, _, encoded = encode_window_spans(spans, fmt)
    assert encoded.tolist() == [_valid_alone(piece) for piece in pieces]
    expected = outcome([decode_binary_columns(data)], tmp_path, "o", objects=True, fmt=fmt, every=True)
    actual = outcome([decode_binary_columns(data)], tmp_path, "c", objects=False, fmt=fmt, every=True)
    assert expected[0] is TraceFormatError and actual == expected


@pytest.mark.parametrize("fmt", ["jsonl", "binary"])
def test_segment_header_sorts_the_raw_type_names(tmp_path, fmt):
    """``json.dumps(sort_keys=True)`` orders the registry by raw name, which
    is not the order of the escaped, quoted names ("irq entry" < "irq")."""
    names = ["irq entry", "z", "irq", "\u00e9", "irq-exit", "a\tb"]
    events = [
        TraceEvent(timestamp_us=START_US + k, etype=name, task="t", args={"k": k})
        for k, name in enumerate(names)
    ]
    data = BinaryTraceCodec().encode(events)
    columns = decode_binary_columns(data)
    blob, _, encoded = encode_window_spans([[(columns, 0, len(events))]], fmt)
    assert encoded.all()
    if fmt == "binary":
        assert blob == data
    else:
        assert blob == JsonTraceCodec().encode_events(events).encode("ascii")
    expected = record([decode_binary_columns(data)], tmp_path, "o", objects=True, fmt=fmt, every=True)
    actual = record([decode_binary_columns(data)], tmp_path, "c", objects=False, fmt=fmt, every=True)
    assert actual == expected


def test_events_and_json_lines_sources_take_the_object_path():
    events = base_events()[:50]
    from_events = TraceColumns.from_events(events)
    from_text = decode_json_columns(JsonTraceCodec().encode(events))
    windows = [[(from_events, 0, 10)], None, [(from_text, 0, 10)]]
    blob, bounds, encoded = encode_window_spans(windows, "binary")
    assert blob == b"" and not encoded.any()
    assert bounds.tolist() == [0, 0, 0, 0]


def test_empty_and_spanless_windows():
    columns = decode_binary_columns(BinaryTraceCodec().encode(base_events()[:20]))
    blob, bounds, encoded = encode_window_spans([[], [(columns, 3, 3)], [(columns, 0, 2)]], "jsonl")
    assert encoded.tolist() == [True, True, True]
    assert bounds[0] == bounds[1] == bounds[2] == 0
    assert blob == JsonTraceCodec().encode_events(columns.events(0, 2)).encode("ascii")
    assert encode_window_spans([], "binary")[0] == b""
    assert np.array_equal(encode_window_spans([], "binary")[1], [0])
