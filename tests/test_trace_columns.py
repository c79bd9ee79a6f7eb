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

import numpy as np
import pytest

from repro.analysis.model import ReferenceModel
from repro.errors import ModelError, TraceFormatError, TraceStreamError
from repro.trace.batch import LazyWindowRef, WindowBatch, batch_windows
from repro.trace.codec import (
    BinaryTraceCodec,
    JsonTraceCodec,
    encoded_window_sizes,
)
from repro.trace.columns import (
    JsonColumnsDecoder,
    TraceColumns,
    decode_binary_columns,
    decode_json_columns,
    encoded_window_sizes_columns,
    varint_size_array,
)
from repro.trace.codec import _varint_size
from repro.trace.event import EventTypeRegistry, TraceEvent
from repro.trace.pipeline import prefetch_batches
from repro.trace.reader import read_trace
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
            columns, layout, registry_col, boundary
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


def test_reference_batch_before_the_first_window_end_is_empty():
    columns = TraceColumns.from_events(random_events(random.Random(2), 50))
    layout = column_windows_by_duration(columns, WINDOW_US)
    registry = EventTypeRegistry()
    empty, first_live = reference_batch(
        columns, layout, registry, int(layout.end_us[0]) - 1
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
        if etype not in names:
            names.append(etype)
        task_length = len(task.encode("utf-8"))
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
