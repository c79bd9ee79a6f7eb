"""Columnar ingest plane: decode, windowing and byte-accounting equivalence.

The columnar plane advertises *bit-identity* with the object path at every
stage: ``decode_columns`` reproduces the object decoders, the array-native
windowing reproduces ``windows_by_duration`` / ``windows_by_count`` (incl.
the PR 3 duplicate-boundary-timestamp semantics), the vectorized byte
accounting reproduces ``encoded_window_sizes``, and the lazy batches
reproduce ``batch_windows`` column by column.  Seeded random streams (same
generator as the codec round-trip property suite) drive every assertion.
"""

from __future__ import annotations

import json
import random
import re
import tracemalloc

import numpy as np
import pytest

import repro.trace.columns as columns_module
from repro.analysis.model import ReferenceModel
from repro.errors import ModelError, TraceFormatError, TraceStreamError
from repro.trace.batch import LazyWindowRef, WindowBatch, batch_windows
from repro.trace.codec import (
    BinaryTraceCodec,
    JsonTraceCodec,
    _decode_varint,
    _encode_varint,
    _parse_segment_header,
    _varint_size,
    encoded_window_sizes,
)
from repro.trace.columns import (
    _BLOCK_RECORDS,
    _JSON_BLOCK_CHARS,
    _PARTIAL_LINE_HINT,
    BinaryColumnsDecoder,
    JsonColumnsDecoder,
    TraceColumns,
    decode_binary_columns,
    decode_json_columns,
    encoded_window_sizes_columns,
    varint_size_array,
)
from repro.trace.event import EventTypeRegistry, TraceEvent
from repro.trace.pipeline import prefetch_batches
from repro.trace.reader import read_trace, read_trace_columns
from repro.trace.stream import (
    column_windows_by_count,
    column_windows_by_duration,
    TraceStream,
    iter_column_batches,
    materialize_layout_windows,
    reference_batch,
    reference_window_count,
    windows_by_count,
    windows_by_duration,
)

from test_property_roundtrip import random_events

SEEDS = range(8)

WINDOW_US = 40_000


def columns_variants(events):
    """The three columnar sources for one event list, all equivalent."""
    binary = decode_binary_columns(BinaryTraceCodec().encode(events))
    jsonl = decode_json_columns(JsonTraceCodec().encode(events) + "\n")
    memory = TraceColumns.from_events(events)
    return {"binary": binary, "jsonl": jsonl, "events": memory}


# ---------------------------------------------------------------------- #
# Decode equivalence
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_decode_columns_equals_object_decode(seed):
    events = random_events(random.Random(seed), 300)
    for kind, columns in columns_variants(events).items():
        assert columns.source_kind == kind
        assert len(columns) == len(events)
        assert columns.timestamps_us.tolist() == [e.timestamp_us for e in events]
        assert columns.cores.tolist() == [e.core for e in events]
        names = [columns.type_names[c] for c in columns.type_codes]
        assert names == [e.etype for e in events]
        # Full lazy materialisation reproduces the object decode exactly.
        assert columns.to_events() == tuple(events)
        # Partial slices too (the recorder's actual access pattern).
        assert columns.events(10, 25) == tuple(events[10:25])
        assert columns.events(0, 0) == ()


def test_decode_columns_empty_inputs():
    assert len(decode_json_columns("")) == 0
    assert len(decode_json_columns("\n\n  \n")) == 0
    blob = BinaryTraceCodec().encode([])
    assert len(decode_binary_columns(blob)) == 0
    assert len(TraceColumns.from_events([])) == 0


def test_decode_binary_columns_multi_segment():
    rng = random.Random(42)
    first, second = random_events(rng, 80), random_events(rng, 50)
    blob = BinaryTraceCodec().encode(first) + BinaryTraceCodec().encode(second)
    columns = decode_binary_columns(blob)
    assert columns.to_events() == tuple(first + second)
    assert BinaryTraceCodec().decode(blob) == first + second


def test_decode_binary_columns_rejects_garbage():
    with pytest.raises(TraceFormatError, match="bad magic"):
        decode_binary_columns(b"nope")
    blob = BinaryTraceCodec().encode(random_events(random.Random(1), 10))
    with pytest.raises(TraceFormatError, match="trailing bytes"):
        decode_binary_columns(blob + b"junk")
    with pytest.raises(TraceFormatError, match="truncated"):
        decode_binary_columns(blob[:-3])


def test_decode_json_columns_rejects_malformed_lines():
    with pytest.raises(TraceFormatError, match="malformed JSON event line"):
        decode_json_columns('{"t": 1,\n')
    with pytest.raises(TraceFormatError, match="malformed event record"):
        decode_json_columns('{"type": "x"}\n')  # missing timestamp
    with pytest.raises(TraceFormatError, match="negative timestamp"):
        decode_json_columns('{"t": -4, "type": "x"}\n')


# ---------------------------------------------------------------------- #
# Array-native windowing equivalence
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("emit_empty", [True, False])
def test_duration_windowing_matches_object_path(seed, emit_empty):
    events = random_events(random.Random(seed), 250)
    expected = list(
        windows_by_duration(iter(events), WINDOW_US, emit_empty=emit_empty)
    )
    for columns in columns_variants(events).values():
        layout = column_windows_by_duration(
            columns, WINDOW_US, emit_empty=emit_empty
        )
        assert layout.n_windows == len(expected)
        assert (
            materialize_layout_windows(columns, layout, 0, layout.n_windows)
            == expected
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("events_per_window", [1, 3, 32, 1000])
def test_count_windowing_matches_object_path(seed, events_per_window):
    events = random_events(random.Random(seed), 200)
    expected = list(windows_by_count(iter(events), events_per_window))
    for columns in columns_variants(events).values():
        layout = column_windows_by_count(columns, events_per_window)
        assert layout.n_windows == len(expected)
        assert (
            materialize_layout_windows(columns, layout, 0, layout.n_windows)
            == expected
        )


def test_count_windowing_duplicate_boundary_timestamps():
    """The PR 3 semantics: several events sharing the boundary timestamp."""
    events = [
        TraceEvent(timestamp_us=t, etype="alpha")
        for t in [5, 5, 5, 5, 5, 9, 9, 12]
    ]
    expected = list(windows_by_count(iter(events), 2))
    columns = TraceColumns.from_events(events)
    layout = column_windows_by_count(columns, 2)
    produced = materialize_layout_windows(columns, layout, 0, layout.n_windows)
    assert produced == expected
    # The second window starts *at* the duplicated boundary timestamp.
    assert produced[1].start_us == 5


def test_duration_windowing_empty_columns():
    columns = TraceColumns.from_events([])
    layout = column_windows_by_duration(columns, WINDOW_US)
    windows = materialize_layout_windows(columns, layout, 0, layout.n_windows)
    assert windows == list(windows_by_duration(iter([]), WINDOW_US))
    assert column_windows_by_duration(columns, WINDOW_US, emit_empty=False).n_windows == 0
    assert column_windows_by_count(columns, 8).n_windows == 0


def test_column_windowing_validates_input():
    unsorted = TraceColumns.from_events(
        [
            TraceEvent(timestamp_us=10, etype="a"),
            TraceEvent(timestamp_us=3, etype="a"),
        ]
    )
    with pytest.raises(TraceStreamError, match="not sorted"):
        column_windows_by_duration(unsorted, WINDOW_US)
    with pytest.raises(TraceStreamError, match="not sorted"):
        column_windows_by_count(unsorted, 4)
    early = TraceColumns.from_events([TraceEvent(timestamp_us=2, etype="a")])
    with pytest.raises(TraceStreamError, match="precedes stream start"):
        column_windows_by_duration(early, WINDOW_US, start_us=100)
    with pytest.raises(TraceStreamError, match="must be positive"):
        column_windows_by_duration(early, 0)
    with pytest.raises(TraceStreamError, match="must be positive"):
        column_windows_by_count(early, 0)


# ---------------------------------------------------------------------- #
# Vectorized byte accounting
# ---------------------------------------------------------------------- #
def test_varint_size_array_matches_scalar():
    values = np.array(
        [0, 1, 127, 128, 300, 2**14 - 1, 2**14, 2**40, 2**62], dtype=np.int64
    )
    assert varint_size_array(values).tolist() == [_varint_size(int(v)) for v in values]
    with pytest.raises(TraceFormatError, match="negative"):
        varint_size_array(np.array([-1]))


@pytest.mark.parametrize("seed", SEEDS)
def test_window_sizes_match_codec_accounting(seed):
    events = random_events(random.Random(seed), 300)
    expected_windows = list(windows_by_duration(iter(events), WINDOW_US))
    expected = encoded_window_sizes(expected_windows)
    for columns in columns_variants(events).values():
        layout = column_windows_by_duration(columns, WINDOW_US)
        sizes = encoded_window_sizes_columns(columns, layout.event_offsets)
        assert sizes.tolist() == expected


def test_window_sizes_many_event_types_slow_path():
    """> 128 distinct types forces per-window code ranks (2-byte varints)."""
    events = [
        TraceEvent(timestamp_us=i * 7, etype=f"type-{i % 200:03d}")
        for i in range(400)
    ]
    columns = TraceColumns.from_events(events)
    assert len(columns.type_names) == 200
    layout = column_windows_by_count(columns, 150)
    windows = materialize_layout_windows(columns, layout, 0, layout.n_windows)
    assert (
        encoded_window_sizes_columns(columns, layout.event_offsets).tolist()
        == encoded_window_sizes(windows)
    )


def test_window_sizes_reject_out_of_range_core():
    events = [TraceEvent(timestamp_us=1, etype="a", core=300)]
    columns = TraceColumns.from_events(events)
    layout = column_windows_by_count(columns, 1)
    with pytest.raises(TraceFormatError, match="1-byte core field"):
        encoded_window_sizes_columns(columns, layout.event_offsets)


# ---------------------------------------------------------------------- #
# Columnar batches vs object batches
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_column_batches_match_object_batches(seed, batch_size):
    events = random_events(random.Random(seed), 260)
    windows = list(windows_by_duration(iter(events), WINDOW_US))
    for columns in columns_variants(events).values():
        registry_obj = EventTypeRegistry(["alpha", "beta"])
        registry_col = EventTypeRegistry(["alpha", "beta"])
        expected = list(batch_windows(iter(windows), registry_obj, batch_size))
        produced = list(
            iter_column_batches(
                columns,
                registry_col,
                batch_size=batch_size,
                window_duration_us=WINDOW_US,
            )
        )
        assert len(produced) == len(expected)
        for have, want in zip(produced, expected):
            assert np.array_equal(have.codes, want.codes)
            assert np.array_equal(have.offsets, want.offsets)
            assert np.array_equal(have.indices, want.indices)
            assert np.array_equal(have.start_us, want.start_us)
            assert np.array_equal(have.end_us, want.end_us)
            assert np.array_equal(have.dims, want.dims)
            assert have.dimension == want.dimension
            assert have.window_sizes() == want.window_sizes()
            assert have.to_windows() == want.to_windows()
        # The registry grew identically (same names, same order).
        assert registry_col.names == registry_obj.names


@pytest.mark.parametrize("min_events", [1, 4])
@pytest.mark.parametrize("seed", SEEDS)
def test_reference_batch_learns_the_materialised_model(seed, min_events):
    """Learning from the columnar reference batch equals learning from the
    materialised windows, for any ``min_events_per_window``: same points,
    counts, registry growth, and no event materialised."""
    events = random_events(random.Random(seed), 400)
    for columns in columns_variants(events).values():
        layout = column_windows_by_duration(columns, WINDOW_US)
        boundary = int(layout.end_us[layout.n_windows * 3 // 4 - 1])
        first_live = reference_window_count(layout, boundary)
        reference, _ = TraceStream(iter(events)).split_reference(boundary, WINDOW_US)
        assert first_live == len(reference)
        registry_obj = EventTypeRegistry(["alpha"])
        registry_col = EventTypeRegistry(["alpha"])
        expected = ReferenceModel(k_neighbours=2, min_events_per_window=min_events).learn(
            materialize_layout_windows(columns, layout, 0, first_live), registry_obj
        )
        batch, batch_first_live = reference_batch(
            columns, registry_col, boundary, WINDOW_US
        )
        assert batch_first_live == first_live and len(batch) == first_live
        assert batch._lazy_cache is None  # nothing materialised
        learned = ReferenceModel(k_neighbours=2, min_events_per_window=min_events).learn(
            batch, registry_col
        )
        assert registry_col.names == registry_obj.names
        assert np.array_equal(learned.points, expected.points)
        assert np.array_equal(learned._mean_pmf_counts, expected._mean_pmf_counts)
        assert learned.type_names == expected.type_names
        assert learned.n_windows_seen == expected.n_windows_seen
        assert learned.n_reference_windows == expected.n_reference_windows
        # Independent oracle: the object windowing's reference prefix.
        registry_ref = EventTypeRegistry(["alpha"])
        oracle = ReferenceModel(k_neighbours=2, min_events_per_window=min_events).learn(
            reference, registry_ref
        )
        assert registry_col.names == registry_ref.names
        assert np.array_equal(learned.points, oracle.points)
        assert np.array_equal(learned._mean_pmf_counts, oracle._mean_pmf_counts)
        assert learned.n_windows_seen == oracle.n_windows_seen


def test_reference_batch_before_the_first_window_end_is_empty():
    columns = TraceColumns.from_events(random_events(random.Random(2), 50))
    layout = column_windows_by_duration(columns, WINDOW_US)
    registry = EventTypeRegistry()
    empty, first_live = reference_batch(
        columns, registry, int(layout.end_us[0]) - 1, WINDOW_US
    )
    assert len(empty) == 0 and first_live == 0 and len(registry) == 0
    with pytest.raises(ModelError, match=r"not enough usable reference windows \(0\)"):
        ReferenceModel(k_neighbours=3).learn(empty, registry)


def test_column_batches_skip_reference_prefix():
    events = random_events(random.Random(5), 300)
    columns = TraceColumns.from_events(events)
    registry = EventTypeRegistry()
    layout = column_windows_by_duration(columns, WINDOW_US)
    skip = layout.n_windows // 2
    batches = list(
        iter_column_batches(
            columns,
            registry,
            batch_size=8,
            window_duration_us=WINDOW_US,
            first_window=skip,
        )
    )
    produced = [w for batch in batches for w in batch.to_windows()]
    # Window indices continue where the skipped prefix stopped.
    assert [w.index for w in produced] == list(range(skip, layout.n_windows))
    assert produced == list(windows_by_duration(iter(events), WINDOW_US))[skip:]


def test_lazy_window_refs_defer_materialisation():
    events = random_events(random.Random(9), 150)
    columns = TraceColumns.from_events(events)
    registry = EventTypeRegistry()
    (batch,) = iter_column_batches(
        columns, registry, batch_size=10_000, window_duration_us=WINDOW_US
    )
    refs = batch.window_refs()
    assert all(isinstance(ref, LazyWindowRef) for ref in refs)
    windows = list(windows_by_duration(iter(events), WINDOW_US))
    for ref, window in zip(refs, windows):
        assert ref.index == window.index
        assert ref.start_us == window.start_us
        assert ref.end_us == window.end_us
        assert len(ref) == len(window)
    # Nothing materialised yet.
    assert batch._lazy_cache is None
    resolved = refs[3].resolve()
    assert resolved == windows[3]
    # The resolution is cached batch-side.
    assert batch.window(3) is resolved
    assert refs[5].events == windows[5].events
    assert batch.can_materialize and not batch.has_windows


def test_batch_without_windows_or_factory_still_raises():
    batch = WindowBatch(
        codes=np.array([0, 1], dtype=np.int32),
        offsets=np.array([0, 2], dtype=np.int64),
        indices=np.array([0], dtype=np.int64),
        start_us=np.array([0], dtype=np.int64),
        end_us=np.array([10], dtype=np.int64),
    )
    with pytest.raises(TraceStreamError, match="without its source windows"):
        batch.to_windows()
    with pytest.raises(TraceStreamError, match="without its source windows"):
        batch.window_refs()
    assert not batch.can_materialize


def test_prefetch_batches_preserves_order_and_errors():
    assert list(prefetch_batches(iter(range(50)), 4)) == list(range(50))
    assert list(prefetch_batches(iter(range(5)), 0)) == list(range(5))

    def failing():
        yield from range(3)
        raise ValueError("producer exploded")

    consumed = []
    with pytest.raises(ValueError, match="producer exploded"):
        for item in prefetch_batches(failing(), 2):
            consumed.append(item)
    assert consumed == [0, 1, 2]


def test_prefetch_batches_abandoned_consumer_stops_producer():
    iterator = prefetch_batches(iter(range(10_000)), 2)
    assert next(iterator) == 0
    iterator.close()  # must not hang or leak the producer thread


@pytest.mark.parametrize("seed", [3])
def test_trace_columns_pickle_round_trip(seed):
    """Spawn-only platforms ship columns through the pickle queue."""
    import pickle

    events = random_events(random.Random(seed), 120)
    for columns in columns_variants(events).values():
        clone = pickle.loads(pickle.dumps(columns, pickle.HIGHEST_PROTOCOL))
        assert clone.to_events() == tuple(events)
        assert clone.timestamps_us.tolist() == columns.timestamps_us.tolist()
        assert clone.static_sizes.tolist() == columns.static_sizes.tolist()
        assert clone.type_names == columns.type_names


def test_lazy_binary_materialisation_wraps_corrupt_payload():
    """A corrupt payload surfaces as TraceFormatError at materialisation,
    matching the object decoder's read-time error."""
    event = TraceEvent(timestamp_us=7, etype="alpha", args={"k": 1})
    blob = BinaryTraceCodec().encode([event])
    payload = b'{"k":1}'
    position = blob.rindex(payload)
    corrupt = blob[:position] + b'{"k":!}' + blob[position + len(payload):]
    with pytest.raises(TraceFormatError, match="malformed event payload"):
        BinaryTraceCodec().decode(corrupt)
    columns = decode_binary_columns(corrupt)  # length-skips the payload
    with pytest.raises(TraceFormatError, match="malformed event payload"):
        columns.events(0, 1)


# ---------------------------------------------------------------------- #
# Adversarial JSON-lines equivalence against a per-line json.loads oracle
# ---------------------------------------------------------------------- #
def oracle_json_decode(text, on_corrupt="raise", hint=""):
    """Reference JSON-lines decode: one plain ``json.loads`` per line.

    Returns ``(rows, type_names, corrupt_lines)`` where each row is
    ``(timestamp, code, core, static_size, line_text, start, end)`` with
    ``start``/``end`` the stripped line's span in ``text``; raises exactly
    what a per-line decoder raises.  Payloads are sized with a sorted
    ``json.dumps``, which cross-checks the decoder's unsorted encoder.
    """
    rows, names, corrupt = [], [], []
    position = 0
    for line_no, raw in enumerate(text.split("\n"), start=1):
        start = position
        position += len(raw) + 1
        line = raw.strip()
        if not line:
            continue
        lead = start + len(raw) - len(raw.lstrip())
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if on_corrupt == "skip":
                corrupt.append(line_no)
                continue
            raise TraceFormatError(
                f"malformed JSON event line {line_no}: {line!r}{hint}"
            ) from exc
        try:
            timestamp = int(record["t"])
            etype = str(record["type"])
            core = int(record.get("core", 0))
            task = str(record.get("task", ""))
            args = dict(record.get("args", {}))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if on_corrupt == "skip":
                corrupt.append(line_no)
                continue
            raise TraceFormatError(
                f"malformed event record at line {line_no}: {record!r}"
            ) from exc
        if timestamp < 0:
            if on_corrupt == "skip":
                corrupt.append(line_no)
                continue
            raise TraceFormatError(
                f"negative timestamp at line {line_no}: {timestamp}"
            )
        if timestamp >= 2**63 or not -(2**63) <= core < 2**63:
            if on_corrupt == "skip":
                corrupt.append(line_no)
                continue
            raise TraceFormatError(
                f"event field outside the int64 range at line {line_no}: {record!r}"
            )
        try:
            task_length = len(task.encode("utf-8"))
        except UnicodeEncodeError as exc:
            if on_corrupt == "skip":
                corrupt.append(line_no)
                continue
            raise TraceFormatError(
                f"task not encodable as UTF-8 at line {line_no}: {record!r}"
            ) from exc
        if etype not in names:
            names.append(etype)
        payload = (
            len(json.dumps(args, sort_keys=True, separators=(",", ":")))
            if args
            else 0
        )
        static = 1 + _varint_size(task_length) + task_length
        static += _varint_size(payload) + payload
        rows.append(
            (timestamp, names.index(etype), core, static, line, lead, lead + len(line))
        )
    return rows, names, corrupt


def column_rows(parts):
    """Rows of decoded column chunks, with each event's line text."""
    rows = []
    for columns in parts:
        for i in range(len(columns)):
            start = int(columns._line_starts[i])
            end = int(columns._line_ends[i])
            rows.append(
                (
                    int(columns.timestamps_us[i]),
                    int(columns.type_codes[i]),
                    int(columns.cores[i]),
                    int(columns.static_sizes[i]),
                    columns._text[start:end],
                    start,
                    end,
                )
            )
    return rows


def outcome(call, *args):
    """``("ok", value)`` or ``("error", type, message)`` of ``call(*args)``."""
    try:
        return ("ok", call(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("error", type(exc), str(exc))


GOOD = [
    '{"t":0,"type":"alpha","core":1,"task":"dec","args":{"b":2,"a":1}}',
    '{"args":{"frame":3,"kind":"I"},"core":0,"t":5,"task":"demux","type":"beta"}',
]
TAIL = ['{"t":90,"type":"gamma","task":"décodeur","args":{"ü":"日本"}}']

ADVERSARIAL = {
    "multi_value": ['{"t":1,"type":"a"},{"t":2,"type":"a"}'],
    "bracket_split": ['[{"t":3,"type":"a"}', '{"t":4,"type":"a"}]'],
    "counterexample": ['{"t":1},{"t":2}', '[{"t":3}', '{"t":4}]'],
    "bom": ['\ufeff{"t":6,"type":"a"}'],
    "nan_payload": ['{"t":6,"type":"a","args":{"x":NaN,"y":-Infinity}}'],
    "nan_timestamp": ['{"t":NaN,"type":"a"}'],
    "infinite_timestamp": ['{"t":Infinity,"type":"a"}'],
    "infinite_core": ['{"t":6,"type":"a","core":Infinity}'],
    "int64_overflow_timestamp": [f'{{"t":{2**63},"type":"a"}}'],
    "int64_max_timestamp": [f'{{"t":{2**63 - 1},"type":"a"}}'],
    "int64_overflow_core": [f'{{"t":6,"type":"a","core":{2**63}}}'],
    "int64_underflow_core": [f'{{"t":6,"type":"a","core":{-(2**63) - 1}}}'],
    "int64_min_core": [f'{{"t":6,"type":"a","core":{-(2**63)}}}'],
    "array_value": ["[1, 2]"],
    "string_value": ['"text"'],
    "number_value": ["42"],
    "null_value": ["null"],
    "args_zero": ['{"t":6,"type":"a","args":0}'],
    "args_null": ['{"t":6,"type":"a","args":null}'],
    "args_pairs": ['{"t":6,"type":"a","args":[["k",1]]}'],
    "args_string": ['{"t":6,"type":"a","args":"ab"}'],
    "args_empty": ['{"t":6,"type":"a","args":{}}'],
    "float_timestamp": ['{"t":7.9,"type":"a"}'],
    "string_timestamp": ['{"t":" 8 ","type":"a"}'],
    "bad_string_timestamp": ['{"t":"8x","type":"a"}'],
    "negative_timestamp": ['{"t":-1,"type":"a"}'],
    "negative_fraction_timestamp": ['{"t":-0.5,"type":"a"}'],
    "missing_type": ['{"t":6}'],
    "duplicate_keys": ['{"t":6,"t":9,"type":"a","type":"b"}'],
    "bool_core": ['{"t":6,"type":"a","core":true}'],
    "crlf": ['{"t":6,"type":"a"}\r', '{"t":7,"type":"b"}\r'],
    "padded": ['  \t{"t":6,"type":"a"} \t ', "\u00a0\u3000", '\x0c{"t":7,"type":"c"}\x0b'],
    "trailing_garbage": ['{"t":6,"type":"a"} x'],
    "truncated": ['{"t":6,"type":"a"'],
    "bad_escape": ['{"t":6,"type":"a\\q"}'],
    "rejected_type_not_registered": ['{"t":-3,"type":"never"}', '{"t":6,"type":"late"}'],
    "lone_surrogate_task": ['{"t":6,"type":"never","task":"\\ud800"}', '{"t":7,"type":"a"}'],
    "lone_surrogate_type_and_payload": ['{"t":6,"type":"\\udc80","args":{"x":"\\ud800"}}'],
}


def adversarial_text(name, final_newline=True):
    text = "\n".join(GOOD + ADVERSARIAL[name] + TAIL)
    return text + "\n" if final_newline else text


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
@pytest.mark.parametrize("final_newline", [True, False])
def test_one_shot_json_decode_matches_per_line_oracle(name, final_newline):
    text = adversarial_text(name, final_newline)
    expected = outcome(
        lambda: oracle_json_decode(
            text,
            hint=" (a partial final line usually means the trace is still "
            "being appended)",
        )
    )

    def decode():
        columns = decode_json_columns(text)
        return column_rows([columns]), list(columns.type_names), []

    assert outcome(decode) == expected


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
@pytest.mark.parametrize("on_corrupt", ["raise", "skip"])
def test_chunked_json_decode_matches_oracle_at_every_split(name, on_corrupt):
    """Two chunks split at every byte offset, including inside multibyte
    characters, decode exactly like the per-line oracle."""
    data = adversarial_text(name).encode("utf-8")
    text = data.decode("utf-8")
    expected = outcome(oracle_json_decode, text, on_corrupt)
    if expected[0] == "ok":
        expected = ("ok", (
            [row[:5] for row in expected[1][0]], expected[1][1], expected[1][2]
        ))

    def decode(cut):
        decoder = JsonColumnsDecoder(on_corrupt=on_corrupt)
        parts = [decoder.feed(data[:cut]), decoder.feed(data[cut:]), decoder.finish()]
        rows = [row[:5] for row in column_rows(parts)]
        assert decoder.type_names == parts[-1].type_names
        return rows, list(decoder.type_names), list(decoder.corrupt_offsets)

    for cut in range(len(data) + 1):
        assert outcome(decode, cut) == expected, cut


@pytest.mark.parametrize("name", ["infinite_timestamp", "infinite_core"])
def test_object_reader_rejects_infinite_fields(tmp_path, name):
    """``int(float("inf"))`` raises OverflowError; the object reader reports
    it as a malformed record, like the columnar decoders."""
    path = tmp_path / "trace.jsonl"
    path.write_text(adversarial_text(name), encoding="utf-8")
    with pytest.raises(TraceFormatError, match="malformed event record"):
        read_trace(path)


@pytest.mark.parametrize(
    "name",
    ["int64_overflow_timestamp", "int64_overflow_core", "int64_underflow_core"],
)
def test_object_reader_rejects_int64_overflow(tmp_path, name):
    """A timestamp or core outside int64 is rejected by the object reader as
    it is by the columnar decoders, not carried as a Python int."""
    path = tmp_path / "trace.jsonl"
    path.write_text(adversarial_text(name), encoding="utf-8")
    with pytest.raises(TraceFormatError, match="outside the int64 range"):
        read_trace(path)
    with pytest.raises(TraceFormatError, match="outside the int64 range at line 3"):
        read_trace_columns(path)


def test_lone_surrogate_task_is_a_format_error_naming_the_line():
    text = adversarial_text("lone_surrogate_task")
    with pytest.raises(TraceFormatError, match="not encodable as UTF-8 at line 3"):
        decode_json_columns(text)
    decoder = JsonColumnsDecoder()
    with pytest.raises(TraceFormatError, match="not encodable as UTF-8 at line 3"):
        decoder.feed(text.encode("utf-8"))
    decoder = JsonColumnsDecoder(on_corrupt="skip")
    parts = [decoder.feed(text.encode("utf-8")), decoder.finish()]
    assert decoder.corrupt_offsets == (3,)
    # The quarantined line registers no event type.
    assert "never" not in decoder.type_names
    timestamps = np.concatenate([part.timestamps_us for part in parts])
    assert timestamps.tolist() == [0, 5, 7, 90]


def test_skip_mode_quarantines_int64_overflow_and_keeps_later_records():
    data = adversarial_text("int64_overflow_timestamp").encode("utf-8")
    decoder = JsonColumnsDecoder(on_corrupt="skip")
    parts = [decoder.feed(data), decoder.finish()]
    assert decoder.corrupt_offsets == (3,)
    timestamps = np.concatenate([part.timestamps_us for part in parts])
    assert timestamps.tolist() == [0, 5, 90]


def test_json_readers_split_lines_only_at_newlines(tmp_path):
    """U+2028, U+2029 and U+0085 may stand raw inside JSON strings; every
    JSON-lines reader keeps them in the field instead of ending the line."""
    text = (
        '{"args":{"note":"a\u0085b"},"core":1,"t":5,"task":"dec\u2028oder","type":"x"}\n'
        '{"args":{},"core":0,"t":6,"task":"p\u2029q","type":"y\u0085z"}\n'
    )
    path = tmp_path / "trace.jsonl"
    path.write_bytes(text.encode("utf-8"))
    expected = [
        TraceEvent(5, "x", 1, "dec\u2028oder", {"note": "a\u0085b"}),
        TraceEvent(6, "y\u0085z", 0, "p\u2029q", {}),
    ]
    assert list(JsonTraceCodec().decode(text)) == expected
    assert list(decode_json_columns(text).to_events()) == expected
    assert read_trace(path) == expected
    assert list(read_trace_columns(path).to_events()) == expected


# ---------------------------------------------------------------------- #
# The JSON-lines block kernel against the per-line loop
# ---------------------------------------------------------------------- #
#: Strings the compact encoder writes back unchanged, several holding the
#: JSON structure characters the kernel's quote arithmetic must not see.
PLAIN_STRINGS = ["", "x", ":x", "a,b", "{}", "[1]", "}", " sp ace ", "~!#$%&'()*+-./;<=>?@[]^_`|"]
#: Payload keys, including the line's own top-level keys and the longest
#: key the kernel proves.
PAYLOAD_KEYS = ["", "a", "args", "b", "core", "frame", "t", "task", "type", "k" * 64]
KERNEL_TYPES = ["", "alpha", "beta", "gamma:", "t" * 64]
KERNEL_TASKS = ["", "dec", ":", "a,b}"]


def canonical_lines(n_lines, seed=0):
    """JSON lines exactly as ``JsonTraceCodec.encode_event`` writes them,
    all in the form the block kernel proves."""
    rng = random.Random(seed)
    codec = JsonTraceCodec()
    lines = []
    for _ in range(n_lines):
        args = {
            key: rng.choice(
                [
                    rng.choice(PLAIN_STRINGS),
                    0,
                    rng.randint(-(10**18) + 1, 10**18 - 1),
                    rng.randint(-9, 9),
                ]
            )
            for key in rng.sample(PAYLOAD_KEYS, rng.randint(0, 3))
        }
        event = TraceEvent(
            timestamp_us=rng.choice([0, rng.randint(0, 10**6), 10**18 - 1]),
            etype=rng.choice(KERNEL_TYPES),
            core=rng.choice([0, rng.randint(0, 300), 10**18 - 1]),
            task=rng.choice(KERNEL_TASKS),
            args=args,
        )
        lines.append(codec.encode_event(event))
    return lines


def near_canonical(args='{"a":1}', core="0", t="7", task='"dec"', etype='"odd"'):
    return f'{{"args":{args},"core":{core},"t":{t},"task":{task},"type":{etype}}}'


#: Lines one character or one rule away from the proved form.  Each stands
#: in the middle of a canonical block; all but :data:`PROVED_NEAR_CANONICAL`
#: must send their block through the per-line loop.
NEAR_CANONICAL = {
    "duplicate_keys": near_canonical(args='{"a":1,"a":2}'),
    "unsorted_keys": near_canonical(args='{"b":1,"a":2}'),
    "prefix_keys_unsorted": near_canonical(args='{"ab":1,"a":2}'),
    "negative_zero_arg": near_canonical(args='{"a":-0}'),
    "leading_zero_arg": near_canonical(args='{"a":01}'),
    "arg_19_digits": near_canonical(args='{"a":1000000000000000000}'),
    "t_19_digits": near_canonical(t="1000000000000000000"),
    "t_int64_overflow": near_canonical(t=str(2**63)),
    "t_negative": near_canonical(t="-5"),
    "t_leading_zero": near_canonical(t="07"),
    "t_float": near_canonical(t="7.0"),
    "core_negative": near_canonical(core="-1"),
    "core_leading_zero": near_canonical(core="00"),
    "float_arg": near_canonical(args='{"a":1.5}'),
    "exponent_arg": near_canonical(args='{"a":1e3}'),
    "true_arg": near_canonical(args='{"a":true}'),
    "null_arg": near_canonical(args='{"a":null}'),
    "nested_args": near_canonical(args='{"a":{"b":1}}'),
    "list_arg": near_canonical(args='{"a":[1]}'),
    "empty_args": near_canonical(args="{}"),
    "missing_args": '{"core":0,"t":7,"task":"dec","type":"odd"}',
    "unsorted_top_level": '{"core":0,"args":{},"t":7,"task":"dec","type":"odd"}',
    "spaced_separators": '{"args": {}, "core": 0, "t": 7, "task": "dec", "type": "odd"}',
    "escaped_quote": near_canonical(task='"a\\"b"'),
    "escaped_newline": near_canonical(args='{"a":"x\\ny"}'),
    "unicode_escape": near_canonical(etype='"\\u00e9"'),
    "non_ascii_task": near_canonical(task='"décodeur"'),
    "non_ascii_key": near_canonical(args='{"ü":1}'),
    "delete_char": near_canonical(args='{"a":"x\x7fy"}'),
    "control_char": near_canonical(task='"a\x01b"'),
    "long_type": near_canonical(etype='"' + "y" * 65 + '"'),
    "long_key": near_canonical(args='{"' + "k" * 65 + '":1}'),
    "longest_names": near_canonical(
        args='{"' + "k" * 64 + '":1}', etype='"' + "y" * 64 + '"'
    ),
    "crlf": near_canonical() + "\r",
    "blank": "",
    "whitespace_only": " \t ",
    "indented": "  " + near_canonical(),
    "trailing_space": near_canonical() + " ",
    "truncated": near_canonical()[:-1],
    "not_json": "garbage",
}

PROVED_NEAR_CANONICAL = {"empty_args", "longest_names"}

#: Enough canonical lines for several kernel blocks.
KERNEL_LINES = canonical_lines(1500)


def kernel_text(odd):
    middle = len(KERNEL_LINES) // 2
    return "\n".join(KERNEL_LINES[:middle] + [odd] + KERNEL_LINES[middle:]) + "\n"


def run_json_decoder(text, on_corrupt, chunk):
    """Every observable of one decode: result (or error), resume line,
    type table and quarantined lines.  ``chunk=None`` is the one-shot
    decode."""
    decoder = JsonColumnsDecoder(on_corrupt=on_corrupt)
    parts = []
    try:
        if chunk is None:
            parts.append(decoder._parse(text, final=True, hint=_PARTIAL_LINE_HINT))
        else:
            data = text.encode("utf-8")
            for start in range(0, len(data), chunk):
                parts.append(decoder.feed(data[start : start + chunk]))
            parts.append(decoder.finish())
        result = ("ok", column_rows(parts))
    except TraceFormatError as exc:
        result = ("error", type(exc), str(exc))
    return result, decoder.resume_line, decoder.type_names, decoder.corrupt_offsets


@pytest.fixture
def proved_blocks(monkeypatch):
    """Records, per block the kernel tried, whether its proof held."""
    outcomes = []
    proved_block = columns_module._proved_block

    def recording(block, offset, register):
        proved = proved_block(block, offset, register)
        outcomes.append(proved is not None)
        return proved

    monkeypatch.setattr(columns_module, "_proved_block", recording)
    return outcomes


@pytest.mark.parametrize("name", sorted(NEAR_CANONICAL))
@pytest.mark.parametrize("on_corrupt", ["raise", "skip"])
@pytest.mark.parametrize("chunk", [None, 211, 1 << 20], ids=["one-shot", "211B", "1MB"])
def test_block_kernel_matches_per_line_loop(
    name, on_corrupt, chunk, proved_blocks, monkeypatch
):
    text = kernel_text(NEAR_CANONICAL[name])
    got = run_json_decoder(text, on_corrupt, chunk)
    tried = list(proved_blocks)
    with monkeypatch.context() as patch:
        patch.setattr(columns_module, "_CANONICAL_LINES", re.compile(rb"(?!)"))
        expected = run_json_decoder(text, on_corrupt, chunk)
    assert got == expected
    if chunk is None:
        # An odd line costs only its own block.
        assert tried.count(False) == (0 if name in PROVED_NEAR_CANONICAL else 1)
        assert tried.count(True) >= 1
    if on_corrupt == "raise" and expected[0][0] == "ok":
        oracle_rows = oracle_json_decode(text)[0]
        assert [row[:5] for row in oracle_rows] == [
            row[:5] for row in column_rows([decode_json_columns(text)])
        ]


def test_block_kernel_proves_canonical_text(proved_blocks):
    text = "\n".join(KERNEL_LINES) + "\n"
    assert len(text) > 2 * _JSON_BLOCK_CHARS
    rows, names, corrupt = oracle_json_decode(text)
    columns = decode_json_columns(text)
    assert column_rows([columns]) == rows
    assert list(columns.type_names) == names
    assert proved_blocks and all(proved_blocks)


def test_block_kernel_feed_memory_stays_near_the_loop(monkeypatch):
    """One feed of a ~1 MB canonical chunk keeps its traced peak within
    1 MB of the per-line loop's on the same chunk: a proof over the whole
    chunk at once would hold ~13 MB of regex backtracking state."""
    lines = KERNEL_LINES * (1 + (1 << 20) // len("\n".join(KERNEL_LINES)))
    data = ("\n".join(lines) + "\n").encode("ascii")
    assert len(data) >= 1 << 20

    def feed_peak():
        JsonColumnsDecoder().feed(data[:4096])  # warm caches outside the trace
        decoder = JsonColumnsDecoder()
        tracemalloc.start()
        try:
            decoder.feed(data)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    kernel_peak = feed_peak()
    with monkeypatch.context() as patch:
        patch.setattr(columns_module, "_CANONICAL_LINES", re.compile(rb"(?!)"))
        loop_peak = feed_peak()
    assert kernel_peak <= loop_peak + (1 << 20), (kernel_peak, loop_peak)


# ---------------------------------------------------------------------- #
# Adversarial binary equivalence against the object decoder
# ---------------------------------------------------------------------- #
def encode_segment(events, names=None):
    """One binary segment; ``names`` pre-registers its type table."""
    return BinaryTraceCodec(EventTypeRegistry(names or [])).encode(events)


def event(t, etype="alpha", core=1, task="dec", args=None):
    return TraceEvent(timestamp_us=t, etype=etype, core=core, task=task, args=args or {})


def body_offset(segment):
    """Offset of a segment's first record (past its length-prefixed header)."""
    return 8 + int.from_bytes(segment[4:8], "little")


def replace_first_delta(segment, varint):
    """``segment`` (one event, delta 5) with its delta field replaced."""
    body = body_offset(segment)
    assert segment[body] == 5
    return segment[:body] + varint + segment[body + 1 :]


def segment_layout(data):
    """``[(header_at, body_at, count, record_starts, end)]`` of ``data``,
    walked with the codec's own primitives."""
    layout = []
    offset = 0
    while offset < len(data):
        header_at = offset
        registry, count, offset = _parse_segment_header(data, offset)
        body_at = offset
        codec = BinaryTraceCodec(registry)
        starts = []
        previous = 0
        for _ in range(count):
            starts.append(offset)
            decoded, offset = codec.decode_event(data, offset, previous)
            previous = decoded.timestamp_us
        layout.append((header_at, body_at, count, starts, offset))
    return layout


def oracle_binary_decode(data):
    """Reference binary decode: :meth:`BinaryTraceCodec.decode`.

    Returns ``(rows, type_names, events)`` where each row is
    ``(timestamp, code, core, static_size, record_offset)``; the global type
    table lists every segment registry's names in order, and a record's
    static size runs from its core byte to its end.
    """
    events = BinaryTraceCodec().decode(data)
    names = []
    rows = []
    records = iter(events)
    for header_at, _, count, starts, end in segment_layout(data):
        registry, _, _ = _parse_segment_header(data, header_at)
        names.extend(name for name in registry.names if name not in names)
        ends = starts[1:] + [end]
        for start, stop in zip(starts, ends):
            decoded = next(records)
            _, code_at = _decode_varint(data, start)
            _, core_at = _decode_varint(data, code_at)
            rows.append(
                (
                    decoded.timestamp_us,
                    names.index(decoded.etype),
                    decoded.core,
                    stop - core_at,
                    start,
                )
            )
    return rows, names, events


def binary_rows(parts, bases):
    """Rows of decoded column chunks; ``bases`` are the chunks' stream
    offsets (record offsets are chunk-local)."""
    rows = []
    for columns, base in zip(parts, bases):
        for i in range(len(columns)):
            rows.append(
                (
                    int(columns.timestamps_us[i]),
                    int(columns.type_codes[i]),
                    int(columns.cores[i]),
                    int(columns.static_sizes[i]),
                    base + int(columns._record_offsets[i]),
                )
            )
    return rows


def one_shot_binary(data):
    columns = decode_binary_columns(data)
    return binary_rows([columns], [0]), list(columns.type_names), columns.to_events()


def chunked_binary(data, cuts, on_corrupt="raise"):
    """Feed ``data`` split at ``cuts``; rows, names, corrupt offsets."""
    decoder = BinaryColumnsDecoder(on_corrupt=on_corrupt)
    parts, bases = [], []
    previous = 0
    for cut in list(cuts) + [len(data)]:
        bases.append(decoder.resume_offset)
        parts.append(decoder.feed(data[previous:cut]))
        previous = cut
    bases.append(decoder.resume_offset)
    parts.append(decoder.finish())
    assert decoder.type_names == parts[-1].type_names
    events = [e for part in parts for e in part.to_events()]
    return (
        binary_rows(parts, bases),
        list(decoder.type_names),
        events,
        list(decoder.corrupt_offsets),
    )


MANY_TYPES = [f"type{i:03d}" for i in range(130)]
BIG_DELTAS = [0, 1, 127, 128, 2**14 - 1, 2**14, 2**21, 2**35, 2**35 + 1, 2**49]

BINARY_CASES = {
    "multibyte_deltas": lambda: encode_segment(
        [event(t) for t in np.cumsum(BIG_DELTAS).tolist()]
    ),
    "many_types": lambda: encode_segment(
        [event(10 * i, etype=MANY_TYPES[(i * 37) % 130]) for i in range(140)],
        names=MANY_TYPES,
    ),
    "long_task": lambda: encode_segment(
        [event(1, task="t" * 127), event(2, task="é" * 64), event(3, task="x" * 300)]
    ),
    "large_payload": lambda: encode_segment(
        [
            event(1, args={"blob": "p" * 16_384}),
            event(2, args={"k": 1}),
            event(3, args={"blob": "q" * 200}),
        ]
    ),
    "cores_and_empty_fields": lambda: encode_segment(
        [event(1, core=0, task=""), event(1, core=255, task=""), event(9, core=128)]
    ),
    "ten_byte_varint": lambda: replace_first_delta(
        encode_segment([event(5)]), b"\x85" + b"\x80" * 8 + b"\x00"
    )
    + encode_segment([event(7)]),
    "multi_segment": lambda: (
        encode_segment([event(3, "alpha"), event(9, "beta")])
        + encode_segment([], names=["gamma"])
        + encode_segment([event(1, "beta"), event(2, "delta")])
        + encode_segment([event(4, "alpha")], names=["zeta", "alpha"])
    ),
    "overlong_varint": lambda: replace_first_delta(
        encode_segment([event(5)]), b"\x85" + b"\x80" * 9 + b"\x00"
    ),
    "unknown_code": lambda: encode_segment([event(1), event(3)]).replace(
        b"\x02\x00\x01\x03dec", b"\x02\x04\x01\x03dec"
    ),
    "int64_delta": lambda: replace_first_delta(
        encode_segment([event(5)]), _encode_varint(2**64 - 1)
    ),
    # 2**64 + 5: wraps to a small positive int64.
    "int64_wrapping_delta": lambda: replace_first_delta(
        encode_segment([event(5)]), _encode_varint(2**64 + 5)
    ),
    # Deltas 2**62 and 2**62 - 1, the second re-encoded as 2**62.
    "int64_running_sum": lambda: encode_segment(
        [event(2**62), event(2**63 - 1)]
    ).replace(_encode_varint(2**62 - 1), _encode_varint(2**62)),
}

#: Today's one-shot error per corrupt case (the others decode), and which
#: of the blob's records is the corrupt one.
BINARY_ERRORS = {
    "overlong_varint": ("first", "varint too long in binary trace"),
    "unknown_code": ("second", "unknown event-type code: 4 at byte offset {at}"),
    "int64_delta": (
        "first",
        "event timestamp outside the int64 range at byte offset {at}",
    ),
    "int64_wrapping_delta": (
        "first",
        "event timestamp outside the int64 range at byte offset {at}",
    ),
    "int64_running_sum": (
        "second",
        "event timestamp outside the int64 range at byte offset {at}",
    ),
}


def record_starts(data):
    """Offsets of a one-segment blob's first two records (``second`` only
    when the first record's fields decode)."""
    first = body_offset(data)
    try:
        _, code_at = _decode_varint(data, first)
    except TraceFormatError:
        return {"first": first}
    _, core_at = _decode_varint(data, code_at)
    task_len, task_at = _decode_varint(data, core_at + 1)
    payload_len, payload_at = _decode_varint(data, task_at + task_len)
    return {"first": first, "second": payload_at + payload_len}


@pytest.mark.parametrize("name", sorted(BINARY_CASES))
def test_one_shot_binary_decode_matches_object_decoder(name):
    data = BINARY_CASES[name]()
    if name not in BINARY_ERRORS:
        rows, names, events = oracle_binary_decode(data)
        assert one_shot_binary(data) == (rows, names, tuple(events))
        return
    corrupt, message = BINARY_ERRORS[name]
    expected = message.format(at=record_starts(data)[corrupt])
    with pytest.raises(TraceFormatError) as oracle_error:
        BinaryTraceCodec().decode(data)
    with pytest.raises(TraceFormatError) as error:
        decode_binary_columns(data)
    assert str(error.value) == expected
    if "int64" in expected:  # the two readers agree word for word
        assert str(oracle_error.value) == expected


@pytest.mark.parametrize("name", sorted(BINARY_CASES))
@pytest.mark.parametrize("on_corrupt", ["raise", "skip"])
def test_chunked_binary_decode_matches_one_shot_at_every_split(name, on_corrupt):
    """Two chunks split at every byte offset decode exactly like one feed."""
    data = BINARY_CASES[name]()
    expected = outcome(chunked_binary, data, [], on_corrupt)
    if on_corrupt == "raise":
        one_shot = outcome(one_shot_binary, data)
        if one_shot[0] == "ok":
            assert expected[0] == "ok"
            assert expected[1][:3] == (*one_shot[1][:2], list(one_shot[1][2]))
        else:
            assert expected[0] == "error" and expected[1] is TraceFormatError
    else:
        assert expected[0] == "ok"
    for cut in range(len(data) + 1):
        assert outcome(chunked_binary, data, [cut], on_corrupt) == expected, cut


def test_corrupt_binary_records_are_quarantined_in_skip_mode():
    good = encode_segment([event(1, "beta"), event(8, "gamma")])
    for name, (corrupt_record, _) in BINARY_ERRORS.items():
        bad = BINARY_CASES[name]()
        rows, names, events, corrupt = chunked_binary(bad + good, [], "skip")
        assert corrupt == [record_starts(bad)[corrupt_record]], name
        assert names == ["alpha", "beta", "gamma"], name
        # The good segment survives, and so does a record before the
        # corrupt one in its own segment.
        assert events[-2:] == [event(1, "beta"), event(8, "gamma")], name
        assert len(events) == 2 + (corrupt_record == "second"), name


def test_int64_overflowing_varint_is_a_format_error(tmp_path):
    """Regression: a 10-byte delta of ``2**64 - 1`` used to escape as a raw
    OverflowError (and the object reader returned the oversized timestamp)."""
    bad = BINARY_CASES["int64_delta"]()
    offset = record_starts(bad)["first"]
    message = f"event timestamp outside the int64 range at byte offset {offset}"
    with pytest.raises(TraceFormatError, match=message):
        decode_binary_columns(bad)
    with pytest.raises(TraceFormatError, match=message):
        BinaryTraceCodec().decode(bad)
    path = tmp_path / "bad.bin"
    path.write_bytes(bad)
    with pytest.raises(TraceFormatError, match=message):
        read_trace(path)
    good = encode_segment([event(3, "beta")])
    decoder = BinaryColumnsDecoder(on_corrupt="skip")
    columns = decoder.feed(bad + good)
    tail = decoder.finish()
    assert decoder.corrupt_offsets == (offset,)
    assert columns.to_events() + tail.to_events() == (event(3, "beta"),)


def truncation_errors(data, cut):
    """Today's one-shot and chunked errors for ``data[:cut]`` (``None``:
    the prefix ends on a segment boundary and decodes)."""
    if cut < 4:
        chunked = (
            "not a binary trace (empty stream)"
            if cut == 0
            else "truncated binary trace header at byte offset 0"
        )
        return "not a binary trace (bad magic)", chunked
    for header_at, body_at, count, starts, end in segment_layout(data):
        if cut == header_at or cut == end == len(data):
            return None
        if cut < body_at:
            chunked = f"truncated binary trace header at byte offset {header_at}"
            if cut - header_at < 4:
                return "trailing bytes after binary trace segment (bad magic)", chunked
            return "truncated binary trace header", chunked
        if cut < end:
            ends = starts[1:] + [end]
            j = sum(1 for stop in ends if stop <= cut)
            at = starts[j]
            return (
                f"truncated event record at byte offset {at} (trace ends "
                f"mid-record, {count - j} of the segment's {count} record(s) "
                "missing or incomplete)",
                f"truncated event record at byte offset {at} (stream ends mid-record)",
            )
    raise AssertionError("cut beyond the data")


@pytest.mark.parametrize(
    "name",
    ["multibyte_deltas", "many_types", "long_task", "ten_byte_varint", "multi_segment"],
)
def test_binary_truncation_at_every_byte(name):
    data = BINARY_CASES[name]()
    layout = segment_layout(data)
    for cut in range(len(data)):
        prefix = data[:cut]
        errors = truncation_errors(data, cut)
        if errors is None:
            rows, names, events = oracle_binary_decode(prefix)
            assert one_shot_binary(prefix) == (rows, names, tuple(events)), cut
            continue
        one_shot_message, chunked_message = errors
        with pytest.raises(TraceFormatError):
            BinaryTraceCodec().decode(prefix)
        assert outcome(decode_binary_columns, prefix) == (
            "error", TraceFormatError, one_shot_message
        ), cut
        assert outcome(chunked_binary, prefix, []) == (
            "error", TraceFormatError, chunked_message
        ), cut
        if cut == 0:
            continue
        # Skip mode keeps every complete record and quarantines the tail.
        rows, _, events, corrupt = chunked_binary(prefix, [], "skip")
        tail_at = int(chunked_message.split("byte offset ")[1].split()[0])
        assert corrupt == [tail_at], cut
        complete = [
            start
            for _, _, _, starts, end in layout
            for start, stop in zip(starts, starts[1:] + [end])
            if stop <= tail_at
        ]
        assert [row[4] for row in rows] == complete, cut


@pytest.mark.parametrize("delta_records", [-1, 0, 1, _BLOCK_RECORDS + 1])
def test_binary_segments_around_the_gather_block(delta_records):
    """Segments of one gather block and one block +- 1 records, alone and
    followed by a second segment, decode like the object decoder, also
    when chunked across the block boundaries."""
    rng = random.Random(delta_records)
    n = _BLOCK_RECORDS + delta_records
    first = random_events(rng, n)
    second = random_events(rng, 40)
    data = BinaryTraceCodec().encode(first) + BinaryTraceCodec().encode(second)
    rows, names, events = oracle_binary_decode(data)
    assert one_shot_binary(data) == (rows, names, tuple(events))
    starts = [row[4] for row in rows]
    cuts = sorted({starts[_BLOCK_RECORDS - 1] + 1, starts[-40] - 3, len(data) // 2})
    assert chunked_binary(data, cuts) == (rows, names, events, [])


def test_binary_overflow_past_the_first_gather_block():
    """An overflow in a later gather block is found with the running
    timestamp carried across blocks; skip mode keeps the records before it."""
    n = _BLOCK_RECORDS + 5
    last = 2**63 - 1
    data = encode_segment([event(i) for i in range(n)] + [event(last)])
    # Re-encode the last delta as ``last`` itself: the sum passes 2**63 - 1.
    old = _encode_varint(last - (n - 1))
    at = data.rindex(old)
    data = data[:at] + _encode_varint(last) + data[at + len(old) :]
    message = f"event timestamp outside the int64 range at byte offset {at}"
    with pytest.raises(TraceFormatError, match=message):
        BinaryTraceCodec().decode(data)
    with pytest.raises(TraceFormatError, match=message):
        decode_binary_columns(data)
    rows, _, _, corrupt = chunked_binary(data, [], "skip")
    assert corrupt == [at]
    assert [row[0] for row in rows] == list(range(n))
