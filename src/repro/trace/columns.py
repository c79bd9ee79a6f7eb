"""Columnar trace decode: raw trace bytes to flat NumPy arrays.

The object decoders (:meth:`~repro.trace.codec.BinaryTraceCodec.decode`,
:meth:`~repro.trace.codec.JsonTraceCodec.decode`) materialise one
:class:`~repro.trace.event.TraceEvent` per event — convenient, but the
per-event allocation cost dominates file-fed monitoring now that scoring is
vectorized.  :class:`TraceColumns` is the columnar alternative: one pass over
the raw buffer fills flat arrays —

* ``timestamps_us`` — ``int64`` microsecond timestamps, in stream order;
* ``type_codes`` — ``int32`` event-type codes against the columns' own
  *file registry* (``type_names``, first-appearance order);
* ``cores`` — ``int64`` core indices;
* ``static_sizes`` — ``int64`` per-event byte cost of the binary codec's
  core/task/payload fields (everything except the per-window varint-encoded
  timestamp delta and event-type code), so window byte accounting is a
  vectorized sum instead of an encode pass.

The raw source (binary buffer + per-record offsets, JSON-lines text + line
spans, or the original event tuple) is kept alongside the arrays, so
:class:`~repro.trace.event.TraceEvent` objects can still be materialised
lazily — the recorder only needs them for the windows it actually writes.
A :class:`TraceColumns` pickles as a handful of arrays plus one flat
buffer, far cheaper than a list of event objects, which is what the
process-parallel fleet ships to its workers on spawn-only platforms.

Decoding is bit-identical to the object decoders: rebuilding the events
from the columns reproduces ``read_trace`` exactly, and the derived window
sizes equal :func:`~repro.trace.codec.encoded_window_sizes` (the property
suite asserts both).
"""

from __future__ import annotations

import codecs
import json
import re
import struct
from itertools import chain
from typing import Any, Callable, Iterable, Sequence, Tuple

import numpy as np

from ..errors import TraceFormatError
from .codec import (
    _MAGIC,
    JsonTraceCodec,
    _compact_json,
    _decode_varint,
    _parse_segment_header,
    _payload_field_size,
    _timestamp_range_error,
    _varint_size,
)
from .event import _INT64_MAX, _INT64_MIN, TraceEvent

#: Shared stateless codec for lazy JSON-line materialisation.
_JSON_CODEC = JsonTraceCodec()

#: The JSON decoder's C scanner: parses one value at an index and returns
#: ``(value, end)``; the JSON-lines kernel calls it once per stripped line.
_SCAN_ONCE: Callable[[str, int], tuple[Any, int]] = vars(json.JSONDecoder())[
    "scan_once"
]

#: Appended to the one-shot decoder's malformed-JSON message.
_PARTIAL_LINE_HINT = (
    " (a partial final line usually means the trace is still being appended)"
)

__all__ = [
    "BinaryColumnsDecoder",
    "JsonColumnsDecoder",
    "Span",
    "TraceColumns",
    "decode_binary_columns",
    "decode_json_columns",
    "encoded_window_sizes_columns",
    "span_events",
    "varint_size_array",
]


def varint_size_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.trace.codec._varint_size` over an array.

    Exact (no floating-point log tricks): one binary search per value
    over the eight byte-count thresholds of ``int64`` input.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and int(values.min()) < 0:
        bad = int(values[values < 0][0])
        raise TraceFormatError(f"cannot varint-encode negative value {bad}")
    return _extra_varint_bytes(values) + 1


#: The smallest value needing ``k + 2`` varint bytes, for ``k`` = 0..7.
_VARINT_STEPS = np.array([1 << (7 * k) for k in range(1, 9)], dtype=np.int64)


def _extra_varint_bytes(values: np.ndarray) -> np.ndarray:
    """Varint bytes beyond the first, for non-negative ``int64`` values."""
    return np.searchsorted(_VARINT_STEPS, values, side="right").astype(
        np.int64, copy=False
    )


class TraceColumns:
    """A whole trace as flat arrays plus a lazily decodable raw source.

    Instances are produced by :func:`decode_binary_columns`,
    :func:`decode_json_columns`, :meth:`TraceColumns.from_events` or
    :func:`~repro.trace.reader.read_trace_columns`; the constructor wires
    pre-validated arrays and is not meant to be called directly.
    """

    __slots__ = (
        "timestamps_us",
        "type_codes",
        "cores",
        "type_names",
        "static_sizes",
        "_source_kind",
        "_binary_data",
        "_record_offsets",
        "_text",
        "_line_starts",
        "_line_ends",
        "_events",
    )

    def __init__(
        self,
        timestamps_us: np.ndarray,
        type_codes: np.ndarray,
        cores: np.ndarray,
        type_names: tuple[str, ...],
        static_sizes: np.ndarray,
        source_kind: str,
        binary_data: bytes | None = None,
        record_offsets: np.ndarray | None = None,
        text: str | None = None,
        line_starts: np.ndarray | None = None,
        line_ends: np.ndarray | None = None,
        events: tuple[TraceEvent, ...] | None = None,
    ) -> None:
        self.timestamps_us = np.asarray(timestamps_us, dtype=np.int64)
        self.type_codes = np.asarray(type_codes, dtype=np.int32)
        self.cores = np.asarray(cores, dtype=np.int64)
        self.type_names = tuple(type_names)
        self.static_sizes = np.asarray(static_sizes, dtype=np.int64)
        n = len(self.timestamps_us)
        for name, array in (
            ("type_codes", self.type_codes),
            ("cores", self.cores),
            ("static_sizes", self.static_sizes),
        ):
            if len(array) != n:
                raise TraceFormatError(
                    f"column {name} length {len(array)} does not match "
                    f"event count {n}"
                )
        if source_kind not in {"binary", "jsonl", "events"}:
            raise TraceFormatError(f"unknown column source kind: {source_kind!r}")
        self._source_kind = source_kind
        self._binary_data = binary_data
        self._record_offsets = record_offsets
        self._text = text
        self._line_starts = line_starts
        self._line_ends = line_ends
        self._events = events

    # ------------------------------------------------------------------ #
    # Container behaviour
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.timestamps_us)

    @property
    def n_events(self) -> int:
        """Total number of events in the trace."""
        return len(self.timestamps_us)

    @property
    def source_kind(self) -> str:
        """Where lazily materialised events come from (binary/jsonl/events)."""
        return self._source_kind

    @property
    def duration_us(self) -> int:
        """Extent of the trace (last timestamp; 0 when empty)."""
        if not len(self.timestamps_us):
            return 0
        return int(self.timestamps_us[-1])

    # ------------------------------------------------------------------ #
    # Construction from in-memory events
    # ------------------------------------------------------------------ #
    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "TraceColumns":
        """Build columns from an in-memory event sequence.

        Useful for feeding simulated (never serialised) traces through the
        columnar ingest plane; the events themselves back the lazy
        materialisation, so round-tripping is free.
        """
        events = tuple(events)
        n = len(events)
        timestamps = np.empty(n, dtype=np.int64)
        codes = np.empty(n, dtype=np.int32)
        cores = np.empty(n, dtype=np.int64)
        static = np.empty(n, dtype=np.int64)
        code_by_name: dict[str, int] = {}
        names: list[str] = []
        task_cache: dict[str, int] = {}
        for i, event in enumerate(events):
            timestamps[i] = event.timestamp_us
            code = code_by_name.get(event.etype)
            if code is None:
                code = len(names)
                code_by_name[event.etype] = code
                names.append(event.etype)
            codes[i] = code
            cores[i] = event.core
            static[i] = 1 + _task_field_size(event.task, task_cache) + (
                _payload_field_size(event.args)
            )
        return cls(
            timestamps_us=timestamps,
            type_codes=codes,
            cores=cores,
            type_names=tuple(names),
            static_sizes=static,
            source_kind="events",
            events=events,
        )

    # ------------------------------------------------------------------ #
    # Lazy event materialisation
    # ------------------------------------------------------------------ #
    def events(self, start: int, stop: int) -> tuple[TraceEvent, ...]:
        """Materialise events ``start <= i < stop`` from the raw source.

        Bit-identical to the corresponding slice of the object decode; only
        called for windows the recorder actually persists (or keeps).
        """
        if start < 0 or stop > len(self) or start > stop:
            raise TraceFormatError(
                f"event slice [{start}, {stop}) out of range for "
                f"{len(self)} events"
            )
        if self._source_kind == "events":
            assert self._events is not None
            return self._events[start:stop]
        if self._source_kind == "binary":
            return tuple(self._binary_event(i) for i in range(start, stop))
        return tuple(self._json_event(i) for i in range(start, stop))

    def to_events(self) -> tuple[TraceEvent, ...]:
        """Materialise the whole trace (the object-decode result)."""
        return self.events(0, len(self))

    def _binary_event(self, i: int) -> TraceEvent:
        data = self._binary_data
        assert data is not None and self._record_offsets is not None
        offset = int(self._record_offsets[i])
        _, offset = _decode_varint(data, offset)  # delta (timestamp known)
        _, offset = _decode_varint(data, offset)  # segment-local code
        offset += 1  # core byte (known)
        task_len, offset = _decode_varint(data, offset)
        try:
            task = data[offset : offset + task_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                "malformed task name in binary trace"
            ) from exc
        offset += task_len
        payload_len, offset = _decode_varint(data, offset)
        # The columnar decode only length-skipped the payload; a corrupt
        # payload therefore surfaces here, at materialisation, with the
        # same error the object decoder raises at read time.
        try:
            if payload_len:
                args = json.loads(
                    data[offset : offset + payload_len].decode("utf-8")
                )
            else:
                args = {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TraceFormatError(
                "malformed event payload in binary trace"
            ) from exc
        return TraceEvent(
            timestamp_us=int(self.timestamps_us[i]),
            etype=self.type_names[int(self.type_codes[i])],
            core=int(self.cores[i]),
            task=task,
            args=args,
        )

    def _json_event(self, i: int) -> TraceEvent:
        assert (
            self._text is not None
            and self._line_starts is not None
            and self._line_ends is not None
        )
        line = self._text[int(self._line_starts[i]) : int(self._line_ends[i])]
        return _JSON_CODEC.decode_event(line)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceColumns(n_events={len(self)}, "
            f"n_types={len(self.type_names)}, source={self._source_kind!r})"
        )


#: ``(columns, start, stop)``: events ``start <= i < stop`` of ``columns`` —
#: one piece of a window whose events may straddle decoded chunks.
Span = Tuple[TraceColumns, int, int]


def span_events(spans: Sequence[Span]) -> tuple[TraceEvent, ...]:
    """Materialise the events of ``spans``, in order."""
    if len(spans) == 1:
        columns, start, stop = spans[0]
        return columns.events(start, stop)
    return tuple(chain.from_iterable(columns.events(a, b) for columns, a, b in spans))


def _task_field_size(task: str, cache: dict[str, int]) -> int:
    """Encoded size of the task field (varint length prefix + UTF-8 bytes)."""
    size = cache.get(task)
    if size is None:
        length = len(task.encode("utf-8"))
        size = _varint_size(length) + length
        cache[task] = size
    return size


# ---------------------------------------------------------------------- #
# One-shot decoders
# ---------------------------------------------------------------------- #
def decode_binary_columns(data: bytes) -> TraceColumns:
    """Decode a (possibly segmented) binary trace blob into columns.

    The one-shot form of :class:`BinaryColumnsDecoder`: the whole blob is
    one :meth:`~BinaryColumnsDecoder.feed` followed by
    :meth:`~BinaryColumnsDecoder.finish`, so both run the same record
    kernel — no UTF-8 decode, no JSON parse, no event objects.  The blob is
    not copied: the columns keep ``data`` itself for lazy materialisation.
    Concatenated segments (as written by the binary recording sink) share
    one global type table built in first-appearance order.  Errors keep the
    whole-file wording (a truncated record reports how many of its
    segment's records are missing).
    """
    if data[:4] != _MAGIC:
        raise TraceFormatError("not a binary trace (bad magic)")
    decoder = BinaryColumnsDecoder()
    decoder._one_shot = True
    columns = decoder.feed(data)
    decoder.finish()  # raises on a truncated tail; nothing else is left
    return columns


def decode_json_columns(text: str) -> TraceColumns:
    """Decode a JSON-lines trace into columns.

    The one-shot form of :class:`JsonColumnsDecoder`: the whole text is
    parsed as its final chunk, so no :class:`TraceEvent` is built.  Blocks
    of lines in the form :meth:`JsonTraceCodec.encode_event` writes are
    proved and gathered with NumPy; other blocks cost one C-scanner call
    and a few field checks per line.  Empty lines are skipped exactly as
    the object reader does; a malformed line raises with its 1-based line
    number.
    """
    return JsonColumnsDecoder()._parse(text, final=True, hint=_PARTIAL_LINE_HINT)


# ---------------------------------------------------------------------- #
# The binary record kernel
# ---------------------------------------------------------------------- #
#: Records gathered per NumPy pass: large enough to amortise the per-call
#: overhead, small enough that the pass's temporaries stay negligible next
#: to the decoded columns.
_BLOCK_RECORDS = 8192

#: Fewest bytes a record can take (five one-byte fields); bounds how many
#: records a byte range can hold.
_MIN_RECORD_BYTES = 5

#: ``_walk_records`` stop reason: the data ends inside a record.
_INCOMPLETE = "incomplete"

#: ``BinaryColumnsDecoder._drain`` gather reason: a block is walked.
_BLOCK_FULL = "block full"

def _try_decode_varint(
    data: bytes, offset: int, size: int
) -> tuple[int, int] | None:
    """Decode a varint at ``offset``; ``None`` when ``data`` ends inside it.

    An over-long varint (more than 64 value bits) is corrupt rather than
    incomplete and still raises, exactly like
    :func:`~repro.trace.codec._decode_varint`.
    """
    result = 0
    shift = 0
    while True:
        if offset >= size:
            return None
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise TraceFormatError("varint too long in binary trace")


def _record_end(data: bytes, pos: int, n_types: int, base: int) -> int | None:
    """End offset of the record at ``pos``, checked field by field.

    ``None`` when ``data`` ends inside the record; raises on an over-long
    varint or (once the record is complete) an event-type code outside the
    segment's ``n_types``.  The exact path behind :func:`_walk_records`'
    fast path, taken for any record that path does not recognise.
    """
    size = len(data)
    parsed = _try_decode_varint(data, pos, size)  # timestamp delta
    if parsed is None:
        return None
    parsed = _try_decode_varint(data, parsed[1], size)
    if parsed is None:
        return None
    code, end = parsed
    end += 1  # core byte
    for _ in range(2):  # task name, then payload: length-prefixed
        parsed = _try_decode_varint(data, end, size)
        if parsed is None:
            return None
        end = parsed[1] + parsed[0]
    if end > size:
        return None
    if code >= n_types:
        raise TraceFormatError(
            f"unknown event-type code: {code} at byte offset {base + pos}"
        )
    return end


def _walk_records(
    data: bytes, pos: int, count: int, n_types: int, base: int, starts: list[int]
) -> tuple[int, object]:
    """Follow up to ``count`` records from ``pos``, appending their starts.

    The only per-record Python loop of the binary decode: it finds where
    each record ends without decoding its fields.  The fast path covers a
    record whose delta varint is at most ten bytes and whose code, task
    length and payload length are single bytes (the code also below
    ``n_types``); any other record goes through :func:`_record_end`.

    Returns ``(pos, stop)``: ``pos`` is where the walk stopped and ``stop``
    is ``None`` after ``count`` records, :data:`_INCOMPLETE` when the data
    ends inside the record at ``pos``, or the :class:`TraceFormatError` of
    the corrupt record at ``pos``.
    """
    append = starts.append
    size = len(data)
    fast_types = min(n_types, 0x80)
    for _ in range(count):
        try:
            q = pos
            while data[q] > 0x7F:  # to the last byte of the delta
                q += 1
            if q - pos < 10 and data[q + 1] < fast_types:
                length = data[q + 3]  # task length (the core is at q + 2)
                if length < 0x80:
                    q += 4 + length
                    length = data[q]  # payload length
                    if length < 0x80:
                        q += 1 + length
                        if q <= size:
                            append(pos)
                            pos = q
                            continue
        except IndexError:
            pass
        try:
            end = _record_end(data, pos, n_types, base)
        except TraceFormatError as exc:
            return pos, exc
        if end is None:
            return pos, _INCOMPLETE
        append(pos)
        pos = end
    return pos, None


def _gather_varints(
    view: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Decode the (complete, at most ten-byte) varint at each position.

    Returns ``(values, lengths, wide)``: ``wide`` indexes the values at or
    above ``2**63`` (their ``values`` entry is meaningless), or is ``None``.
    One NumPy pass per varint byte, over the still-continuing varints only.
    """
    byte = view[positions]
    values = (byte & 0x7F).astype(np.int64)
    lengths = np.ones(len(positions), dtype=np.int64)
    more = np.flatnonzero(byte > 0x7F)
    wide = None
    shift = 7
    while more.size:
        byte = view[positions[more] + lengths[more]]
        payload = byte & 0x7F
        values[more] |= payload.astype(np.int64) << shift
        lengths[more] += 1
        if shift == 63:
            wide = more[payload != 0]
        more = more[byte > 0x7F]
        shift += 7
    return values, lengths, wide


class _ColumnSink:
    """Output columns of one drain, preallocated and grown on demand:
    timestamps, codes, cores, static sizes and record offsets."""

    __slots__ = ("arrays", "size")

    _DTYPES = (np.int64, np.int32, np.int64, np.int64, np.int64)

    def __init__(self) -> None:
        self.arrays: list[np.ndarray] = []
        self.size = 0

    def append(self, columns: tuple[np.ndarray, ...], reserve: int) -> None:
        """Append equal-length ``columns``; ``reserve`` sizes a first
        allocation (the records still expected)."""
        n = len(columns[0])
        needed = self.size + n
        capacity = len(self.arrays[0]) if self.arrays else 0
        if needed > capacity:
            capacity = max(needed, 2 * capacity) if capacity else needed + reserve
            grown = [np.empty(capacity, dtype=dtype) for dtype in self._DTYPES]
            for new, old in zip(grown, self.arrays):
                new[: self.size] = old[: self.size]
            self.arrays = grown
        for array, column in zip(self.arrays, columns):
            array[self.size : needed] = column
        self.size = needed

    def columns(self) -> list[np.ndarray]:
        """The filled columns (trimmed copies when over-allocated)."""
        if not self.arrays:
            return [np.empty(0, dtype=dtype) for dtype in self._DTYPES]
        if len(self.arrays[0]) == self.size:
            return self.arrays
        return [array[: self.size].copy() for array in self.arrays]


# ---------------------------------------------------------------------- #
# Resumable chunked decoders (streaming ingest)
# ---------------------------------------------------------------------- #
class BinaryColumnsDecoder:
    """Resumable, chunk-fed binary trace decoder (and the one-shot kernel).

    Feed arbitrary byte ranges of a binary trace (they need not align with
    record or segment boundaries); each :meth:`feed` returns the columns of
    the records the chunk *completed* and buffers the partial trailing
    record (or segment header) for the next call, so memory stays bounded
    by one record/header plus the current chunk.  :attr:`resume_offset`
    reports the absolute offset of the first unconsumed byte — the point a
    re-opened reader should seek to.  :func:`decode_binary_columns` is one
    :meth:`feed` of the whole blob plus :meth:`finish`; a lone chunk is
    buffered without a copy.

    Each drain runs in two steps.  :func:`_walk_records` follows only the
    record start offsets in Python (a fast path for one-byte fields; the
    lengths are skipped, not decoded).  Then, per block of
    ``_BLOCK_RECORDS`` records, NumPy gathers every column at those offsets
    into preallocated arrays: timestamp deltas (summed by ``cumsum``),
    codes (remapped to the global table), cores and static sizes.  A block
    may span segments: a binary recording holds one short segment per
    recorded window, and gathering each segment alone would pay the NumPy
    overhead per window.

    Emitted chunks use one *global* type table grown across segments in
    registry order; every chunk's ``type_names`` is the table so far (a
    prefix of the final table), so concatenating the chunks reproduces the
    one-shot decode bit for bit.

    :meth:`finish` marks end-of-stream: ending mid-header or mid-record is
    then an error naming the absolute byte offset, as a one-shot decode of
    the same truncated blob does in its whole-file wording.

    ``on_corrupt="skip"`` quarantines corruption instead of raising: on a
    mangled header, over-long varint, unknown type code, timestamp outside
    the int64 range or truncated tail the decoder abandons the damaged
    region and resynchronises at the next segment magic, counting each
    region in :attr:`corrupt_records` and recording its absolute byte
    offset in :attr:`corrupt_offsets`.  The concatenation contract above
    then only covers the surviving records.
    """

    __slots__ = (
        "_buffer",
        "_base",
        "_names",
        "_name_codes",
        "_remap",
        "_remaining",
        "_count",
        "_previous",
        "_saw_data",
        "_finished",
        "_on_corrupt",
        "_one_shot",
        "_resyncing",
        "_corrupt_offsets",
    )

    def __init__(self, on_corrupt: str = "raise") -> None:
        if on_corrupt not in ("raise", "skip"):
            raise ValueError(
                f"on_corrupt must be 'raise' or 'skip', got {on_corrupt!r}"
            )
        self._buffer = b""
        self._base = 0  # absolute stream offset of _buffer[0]
        self._names: list[str] = []
        self._name_codes: dict[str, int] = {}
        self._remap = np.empty(0, dtype=np.int32)  # active segment local→global
        self._remaining = 0  # records left in the active segment
        self._count = 0  # records the active segment's header promised
        self._previous = 0  # previous absolute timestamp (segment-local)
        self._saw_data = False
        self._finished = False
        self._on_corrupt = on_corrupt
        self._one_shot = False  # whole-file error wording (decode_binary_columns)
        self._resyncing = False  # inside a corrupt region, hunting for magic
        self._corrupt_offsets: list[int] = []

    @property
    def resume_offset(self) -> int:
        """Absolute byte offset of the first unconsumed byte."""
        return self._base

    @property
    def type_names(self) -> tuple[str, ...]:
        """Global type table accumulated so far (first-appearance order)."""
        return tuple(self._names)

    @property
    def corrupt_records(self) -> int:
        """Number of corrupt regions skipped (``on_corrupt="skip"`` only)."""
        return len(self._corrupt_offsets)

    @property
    def corrupt_offsets(self) -> tuple[int, ...]:
        """Absolute byte offset where each skipped corrupt region began."""
        return tuple(self._corrupt_offsets)

    def feed(self, chunk: bytes) -> TraceColumns:
        """Consume ``chunk``; return columns for the records it completed."""
        if self._finished:
            raise TraceFormatError("cannot feed a finished decoder")
        if chunk:
            self._saw_data = True
            # ``b"" + data`` is ``data`` itself: a lone chunk is not copied.
            self._buffer += bytes(chunk)
        return self._drain(final=False)

    def finish(self) -> TraceColumns:
        """Mark end-of-stream; flush and validate the remaining buffer."""
        if self._finished:
            raise TraceFormatError("decoder already finished")
        self._finished = True
        if not self._saw_data:
            raise TraceFormatError("not a binary trace (empty stream)")
        return self._drain(final=True)

    def _drain(self, final: bool) -> TraceColumns:
        data = self._buffer
        size = len(data)
        view = np.frombuffer(data, dtype=np.uint8)
        sink = _ColumnSink()
        starts: list[int] = []  # walked records not yet gathered
        # (first record, header offset, remap) of each segment header
        # walked after a pending record: the gather splits the block there.
        headers: list[tuple[int, int, np.ndarray]] = []
        n_types = len(self._remap)
        pos = 0
        while True:
            if self._resyncing:  # nothing is pending: quarantine gathered it
                found = data.find(_MAGIC, pos)
                if found != -1:
                    pos = found
                    self._resyncing = False
                    continue
                pos = size if final else self._magic_tail(data, pos)
                break
            stop: object = None  # None: the buffered data is used up
            if self._remaining == 0:
                if pos < size:
                    try:
                        header = self._try_header(data, pos, final)
                    except TraceFormatError as exc:
                        header, stop = None, exc
                    if header is not None:
                        remap, count, body = header
                        if starts:
                            headers.append((len(starts), pos, remap))
                        else:
                            self._remap, self._previous = remap, 0
                        self._remaining = self._count = count
                        n_types = len(remap)
                        pos = body
                        continue
            else:
                walked = len(starts)
                take = min(self._remaining, _BLOCK_RECORDS - walked)
                pos, stop = _walk_records(data, pos, take, n_types, self._base, starts)
                self._remaining -= len(starts) - walked
                if stop is None:
                    if len(starts) < _BLOCK_RECORDS:
                        continue  # the segment is complete: next header
                    stop = _BLOCK_FULL
                elif stop is _INCOMPLETE:
                    stop = self._truncated_record(pos) if final else None
            # Gather the pending records: the block is full, the walk hit a
            # corrupt region, or the buffered data is used up.
            if starts:
                reserve = min(self._remaining, (size - pos) // _MIN_RECORD_BYTES)
                resume = self._gather(view, starts, headers, pos, sink, reserve)
                if resume is not None:  # a record was quarantined
                    pos = resume
                    continue
            if isinstance(stop, TraceFormatError):
                if self._on_corrupt == "raise":
                    raise stop
                pos = self._quarantine(pos, size)
            elif stop is None:
                break
        self._buffer = data[pos:]
        self._base += pos
        timestamps, codes, cores, static, records = sink.columns()
        return TraceColumns(
            timestamps_us=timestamps,
            type_codes=codes,
            cores=cores,
            type_names=tuple(self._names),
            static_sizes=static,
            source_kind="binary",
            binary_data=data[:pos],
            record_offsets=records,
        )

    def _gather(
        self,
        view: np.ndarray,
        starts: list[int],
        headers: list[tuple[int, int, np.ndarray]],
        end: int,
        sink: _ColumnSink,
        reserve: int,
    ) -> int | None:
        """Gather the pending records' columns into ``sink``; clear them.

        ``starts`` and ``headers`` are :meth:`_drain`'s pending records and
        the segment headers among them, ``end`` is where the last record
        ends and ``reserve`` sizes the sink's first allocation.  A record
        whose timestamp leaves the int64 range ends the gather: it raises,
        or under ``on_corrupt="skip"`` is quarantined and the buffer
        position to resume from is returned (``None`` otherwise).
        """
        offsets = np.array(starts, dtype=np.int64)
        n = len(offsets)
        ends = np.append(offsets[1:], end)
        for first, header_at, _ in reversed(headers):
            ends[first - 1] = header_at  # a record followed by a header
        # The block's segments: the active one, then one per header.
        firsts = np.array([0] + [first for first, _, _ in headers], dtype=np.int64)
        lengths = np.diff(firsts, append=n)
        remaps = [self._remap] + [remap for _, _, remap in headers]
        starts.clear()
        headers.clear()
        deltas, delta_lengths, wide = _gather_varints(view, offsets)
        code_at = offsets + delta_lengths
        codes, code_lengths, _ = _gather_varints(view, code_at)
        core_at = code_at + code_lengths
        # Timestamps run on from the active segment's last one and restart
        # from 0 at each header.  Wrapping int64 sums are exact below 2**63
        # and negative at the first record past it.
        timestamps = np.cumsum(deltas)
        restart = np.append(-self._previous, timestamps[firsts[1:] - 1])
        timestamps -= np.repeat(restart, lengths)
        # Segment-local codes index their segment's slice of one table.
        bases = np.cumsum([0] + [len(remap) for remap in remaps[:-1]])
        codes = np.concatenate(remaps)[np.repeat(bases, lengths) + codes]
        outside = timestamps < 0
        if wide is not None:
            outside[wide] = True
        cut = int(np.argmax(outside)) if outside.any() else n
        if cut:
            sink.append(
                (
                    timestamps[:cut],
                    codes[:cut],
                    view[core_at[:cut]],
                    ends[:cut] - core_at[:cut],
                    offsets[:cut],
                ),
                reserve,
            )
        if cut < n:
            error = _timestamp_range_error(self._base + int(offsets[cut]))
            if self._on_corrupt == "raise":
                raise error
            return self._quarantine(int(offsets[cut]), len(view))
        self._remap = remaps[-1]
        self._previous = int(timestamps[-1]) if lengths[-1] else 0
        return None

    def _register(self, names: tuple[str, ...]) -> np.ndarray:
        """Intern a segment's type names; return its local→global remap."""
        remap = np.empty(len(names), dtype=np.int32)
        for local, name in enumerate(names):
            code = self._name_codes.get(name)
            if code is None:
                code = len(self._names)
                self._name_codes[name] = code
                self._names.append(name)
            remap[local] = code
        return remap

    def _try_header(
        self, data: bytes, pos: int, final: bool
    ) -> tuple[np.ndarray, int, int] | None:
        """Parse a segment header at ``pos``; ``None`` when incomplete.

        Registers the segment's type names and returns ``(local→global
        remap, record count, body offset)``.
        """
        size = len(data)
        head = data[pos : pos + 4]
        if head != _MAGIC and (
            len(head) == 4 or self._one_shot or not _MAGIC.startswith(head)
        ):
            raise TraceFormatError(
                "not a binary trace (bad magic)"
                if self._base + pos == 0
                else "trailing bytes after binary trace segment (bad magic)"
            )
        header_end = size + 1  # assume incomplete until proven otherwise
        if pos + 8 <= size:
            (header_len,) = struct.unpack("<I", data[pos + 4 : pos + 8])
            header_end = pos + 8 + header_len
        if header_end > size:
            if self._one_shot:
                raise TraceFormatError("truncated binary trace header")
            if final:
                raise TraceFormatError(
                    f"truncated binary trace header at byte offset "
                    f"{self._base + pos}"
                )
            return None
        registry, count, body = _parse_segment_header(data, pos)
        # A negative count means no records, as for the object decoder.
        return self._register(registry.names), max(count, 0), body

    def _truncated_record(self, pos: int) -> TraceFormatError:
        """The end-of-stream error for a record cut short at ``pos``."""
        if self._one_shot:
            detail = (
                f"trace ends mid-record, {self._remaining} of the segment's "
                f"{self._count} record(s) missing or incomplete"
            )
        else:
            detail = "stream ends mid-record"
        return TraceFormatError(
            f"truncated event record at byte offset {self._base + pos} ({detail})"
        )

    def _quarantine(self, pos: int, size: int) -> int:
        """Record a corrupt region at ``pos`` and start hunting for magic.

        Advances past the offending byte so the resynchronisation scan can
        never re-match the region it just abandoned (a truncated header
        starts with a perfectly valid magic).
        """
        self._corrupt_offsets.append(self._base + pos)
        self._remaining = 0
        self._resyncing = True
        return min(pos + 1, size)

    @staticmethod
    def _magic_tail(data: bytes, pos: int) -> int:
        """First index >= ``pos`` that could still start a magic at the tail.

        While resynchronising, everything up to this index is discarded;
        the (at most ``len(_MAGIC) - 1``) bytes after it are kept in the
        buffer in case the next chunk completes a segment magic.
        """
        size = len(data)
        for keep in range(min(len(_MAGIC) - 1, size - pos), 0, -1):
            if data[size - keep :] == _MAGIC[:keep]:
                return size - keep
        return size


class JsonColumnsDecoder:
    """Resumable, chunk-fed counterpart of :func:`decode_json_columns`.

    Feed byte (or text) chunks of a JSON-lines trace; each :meth:`feed`
    parses the lines the chunk completed and buffers the partial trailing
    line — and any partial UTF-8 sequence — for the next call.
    :meth:`finish` parses a final unterminated line exactly like the
    one-shot decoder (a regular file's last line often lacks a newline);
    a line that then fails to parse is reported with its 1-based line
    number, as is any malformed line mid-stream.  :attr:`resume_line`
    reports the next line a re-opened reader should start from.

    Chunks share one global type table (first-appearance order), matching
    the one-shot decode bit for bit when concatenated.

    ``on_corrupt="skip"`` quarantines corruption instead of raising: a
    malformed JSON line, malformed record, negative timestamp, or timestamp
    or core outside the int64 range is dropped (its 1-based line number
    lands in :attr:`corrupt_offsets`), and invalid UTF-8 decodes to
    replacement characters — turning the damaged lines into malformed-JSON
    skips rather than a fatal stream error.
    """

    __slots__ = (
        "_utf8",
        "_pending",
        "_lines_done",
        "_name_codes",
        "_names",
        "_task_cache",
        "_finished",
        "_on_corrupt",
        "_corrupt_lines",
    )

    def __init__(self, on_corrupt: str = "raise") -> None:
        if on_corrupt not in ("raise", "skip"):
            raise ValueError(
                f"on_corrupt must be 'raise' or 'skip', got {on_corrupt!r}"
            )
        errors = "strict" if on_corrupt == "raise" else "replace"
        self._utf8 = codecs.getincrementaldecoder("utf-8")(errors)
        self._pending = ""  # text after the last consumed newline
        self._lines_done = 0  # raw lines fully consumed so far
        self._name_codes: dict[str, int] = {}
        self._names: list[str] = []
        self._task_cache: dict[str, int] = {}
        self._finished = False
        self._on_corrupt = on_corrupt
        self._corrupt_lines: list[int] = []

    @property
    def resume_line(self) -> int:
        """1-based number of the first not-yet-consumed raw line."""
        return self._lines_done + 1

    @property
    def type_names(self) -> tuple[str, ...]:
        """Global type table accumulated so far (first-appearance order)."""
        return tuple(self._names)

    @property
    def corrupt_records(self) -> int:
        """Number of corrupt lines skipped (``on_corrupt="skip"`` only)."""
        return len(self._corrupt_lines)

    @property
    def corrupt_offsets(self) -> tuple[int, ...]:
        """1-based line number of each skipped corrupt line."""
        return tuple(self._corrupt_lines)

    def feed(self, chunk: "bytes | str") -> TraceColumns:
        """Consume ``chunk``; return columns for the lines it completed."""
        if self._finished:
            raise TraceFormatError("cannot feed a finished decoder")
        if isinstance(chunk, (bytes, bytearray)):
            try:
                text = self._utf8.decode(chunk)
            except UnicodeDecodeError as exc:
                raise TraceFormatError(
                    f"invalid UTF-8 in JSON-lines stream near line "
                    f"{self._lines_done + 1}"
                ) from exc
        else:
            text = chunk
        combined = self._pending + text
        cut = combined.rfind("\n") + 1
        self._pending = combined[cut:]
        return self._parse(combined[:cut], final=False)

    def finish(self) -> TraceColumns:
        """Mark end-of-stream; parse the final (unterminated) line, if any."""
        if self._finished:
            raise TraceFormatError("decoder already finished")
        self._finished = True
        try:
            tail = self._utf8.decode(b"", final=True)
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"truncated UTF-8 sequence at end of JSON-lines stream "
                f"(line {self._lines_done + 1})"
            ) from exc
        text = self._pending + tail
        self._pending = ""
        return self._parse(text, final=True)

    def _parse(self, text: str, final: bool, hint: str = "") -> TraceColumns:
        """The JSON-lines kernel: decode the complete lines of ``text``.

        The complete lines are taken in blocks of at most
        ``_JSON_BLOCK_CHARS`` characters.  A block that
        :func:`_proved_block` proves canonical (every line exactly as
        :meth:`~repro.trace.codec.JsonTraceCodec.encode_event` writes it)
        has its columns gathered with NumPy; any other block, a line longer
        than a block and a final unterminated line go through
        :meth:`_parse_lines`, the one per-line parser, which alone raises,
        quarantines and numbers corrupt lines.  An odd line therefore costs
        only its own block, and the result is the same either way.
        """
        body = text.rfind("\n") + 1  # complete lines end here
        parts: list[tuple[np.ndarray, ...]] = []
        position = 0
        while position < body:
            end = text.rfind("\n", position, position + _JSON_BLOCK_CHARS) + 1
            if end == 0:  # one line longer than a block
                end = text.index("\n", position) + 1
                proved = None
            else:
                proved = _proved_block(text[position:end], position, self._register)
            if proved is None:
                parts.append(self._parse_lines(text, position, end, hint))
            else:
                self._lines_done += len(proved[0])
                parts.append(proved)
            position = end
        if final:  # the unterminated last line, empty or not, is a line
            parts.append(self._parse_lines(text, body, len(text), hint))
        timestamps, codes, cores, tasks, payload, starts, ends = (
            np.concatenate([part[i] for part in parts]) if parts else np.empty(0, dtype)
            for i, dtype in enumerate(_JSON_DTYPES)
        )
        return TraceColumns(
            timestamps_us=timestamps,
            type_codes=codes,
            cores=cores,
            type_names=tuple(self._names),
            static_sizes=1 + tasks + varint_size_array(payload) + payload,
            source_kind="jsonl",
            text=text,
            line_starts=starts,
            line_ends=ends,
        )

    def _register(self, name: str) -> int:
        """The global code of event type ``name``, registering it if new."""
        code = self._name_codes.get(name)
        if code is None:
            code = len(self._names)
            self._name_codes[name] = code
            self._names.append(name)
        return code

    def _parse_lines(
        self, text: str, start: int, stop: int, hint: str
    ) -> tuple[np.ndarray, ...]:
        """Parse ``text[start:stop]`` line by line (the exact path).

        The span is complete newline-terminated lines, or the final
        unterminated line.  Each stripped line is parsed by one C-scanner
        call that must consume the whole line.  Anything else — a scan
        failure, trailing data — re-parses the line with ``json.loads`` so
        the error (and its message) is exactly the per-line one.  Payload
        lengths come from the reused compact encoder.  Returns the span's
        :data:`_JSON_DTYPES` columns.
        """
        raw_lines = text[start:stop].split("\n")
        if stop > start and text[stop - 1] == "\n":
            # The final split element is the empty string after the last
            # newline, not a line.
            raw_lines.pop()
        scan = _SCAN_ONCE
        encode = _compact_json
        skip = self._on_corrupt == "skip"
        corrupt = self._corrupt_lines
        register = self._register
        task_cache = self._task_cache
        timestamps: list[int] = []
        codes: list[int] = []
        cores: list[int] = []
        task_fields: list[int] = []
        payload_lengths: list[int] = []
        line_starts: list[int] = []
        line_ends: list[int] = []
        line_no = self._lines_done
        position = start
        try:
            for raw in raw_lines:
                line_no += 1
                begin = position
                position += len(raw) + 1
                line = raw.strip()
                if not line:
                    continue
                try:
                    record, end = scan(line, 0)
                except (StopIteration, ValueError):  # json.loads re-raises it
                    end = -1
                if end != len(line):
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        if skip:
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
                    args = record.get("args", {})
                    if type(args) is not dict:
                        args = dict(args)
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    # OverflowError: int() of an Infinity literal.
                    if skip:
                        corrupt.append(line_no)
                        continue
                    raise TraceFormatError(
                        f"malformed event record at line {line_no}: {record!r}"
                    ) from exc
                if timestamp < 0:
                    if skip:
                        corrupt.append(line_no)
                        continue
                    raise TraceFormatError(
                        f"negative timestamp at line {line_no}: {timestamp}"
                    )
                if timestamp > _INT64_MAX or not _INT64_MIN <= core <= _INT64_MAX:
                    if skip:
                        corrupt.append(line_no)
                        continue
                    raise TraceFormatError(
                        f"event field outside the int64 range at line "
                        f"{line_no}: {record!r}"
                    )
                try:
                    task_field = _task_field_size(task, task_cache)
                except UnicodeEncodeError as exc:
                    # A lone surrogate escape (\ud800 in the JSON text)
                    # parses but has no UTF-8 encoding.
                    if skip:
                        corrupt.append(line_no)
                        continue
                    raise TraceFormatError(
                        f"task not encodable as UTF-8 at line {line_no}: {record!r}"
                    ) from exc
                timestamps.append(timestamp)
                codes.append(register(etype))
                cores.append(core)
                task_fields.append(task_field)
                payload_lengths.append(len(encode(args)) if args else 0)
                if len(line) == len(raw):
                    line_starts.append(begin)
                    line_ends.append(position - 1)
                else:
                    lead = begin + len(raw) - len(raw.lstrip())
                    line_starts.append(lead)
                    line_ends.append(lead + len(line))
        finally:
            self._lines_done = line_no
        return tuple(
            np.array(column, dtype=dtype)
            for column, dtype in zip(
                (
                    timestamps,
                    codes,
                    cores,
                    task_fields,
                    payload_lengths,
                    line_starts,
                    line_ends,
                ),
                _JSON_DTYPES,
            )
        )


# ---------------------------------------------------------------------- #
# The JSON-lines block kernel
# ---------------------------------------------------------------------- #
#: Dtypes of the JSON-lines decode's per-line columns: timestamps, type
#: codes, cores, task field sizes, payload lengths, line starts, line ends.
_JSON_DTYPES = (np.int64, np.int32, np.int64, np.int64, np.int64, np.int64, np.int64)

#: Most characters one block proof covers.  The match's backtracking state
#: grows with the lines it covers (~0.9 MB for a 64 KB block, ~13 MB for a
#: whole 1 MB chunk), so blocks keep it and the gathers' temporaries small.
_JSON_BLOCK_CHARS = 1 << 16

#: Longest type name or payload key a proved line holds: bounds the
#: fixed-width byte matrices that type codes and key order come from.
_JSON_NAME_CHARS = 64

#: A JSON string of printable ASCII with no ``"`` or ``\``: exactly the
#: strings the compact encoder writes back unchanged.
_PLAIN_STRING = rb'"[ !#-\[\]-~]*"'
_NAME_STRING = rb'"[ !#-\[\]-~]{0,%d}"' % _JSON_NAME_CHARS
#: A decimal integer of 1-18 digits with no leading zero: it fits int64.
_UINT18 = rb"(?:0|[1-9][0-9]{0,17})"
#: A payload member whose value the compact encoder writes back unchanged
#: (so no ``-0``, no leading zeros, no floats, literals or containers).
_MEMBER = _NAME_STRING + rb":(?:" + _PLAIN_STRING + rb"|-?[1-9][0-9]{0,17}|0)"

#: One or more lines in the exact form ``JsonTraceCodec.encode_event``
#: writes: top-level keys in sorted order, compact separators, a flat
#: payload, names of at most ``_JSON_NAME_CHARS`` characters.  Uses
#: no atomic groups or possessive quantifiers (Python 3.10 has neither).
_CANONICAL_LINES = re.compile(
    rb'(?:\{"args":\{(?:' + _MEMBER + rb"(?:," + _MEMBER + rb")*)?\}"
    rb',"core":' + _UINT18
    + rb',"t":' + _UINT18
    + rb',"task":' + _PLAIN_STRING
    + rb',"type":' + _NAME_STRING
    + rb"\}\n)+"
)

#: Offsets of the (at most) 18 bytes before an integer's end, and their
#: decimal weights.  Every proved integer is preceded by at least 18 bytes
#: of its line (``{"args":{},"core":``), so the offsets stay in the block.
_DIGIT_OFFSETS = np.arange(-18, 0, dtype=np.int64)
_DIGIT_WEIGHTS = 10 ** np.arange(17, -1, -1, dtype=np.int64)

_QUOTE, _COLON, _NEWLINE = ord('"'), ord(":"), ord("\n")


def _proved_block(
    block: str, offset: int, register: Callable[[str], int]
) -> tuple[np.ndarray, ...] | None:
    """Columns of a block of canonical JSON lines; ``None`` if unproved.

    ``block`` is complete newline-terminated lines.  One
    :data:`_CANONICAL_LINES` match proves every line canonical; the kernel
    also proves each payload's keys strictly ascending, so the payload's
    text is what the compact, key-sorted encoder writes and its length is
    the payload length.  The fields then sit at fixed distances from the
    block's quotes (no string holds one), and NumPy gathers them for all
    lines at once.  New type names are passed to ``register`` in
    first-appearance order.  Returns the :data:`_JSON_DTYPES` columns; the
    line spans are shifted by ``offset``, the block's position in its text.
    """
    if not block.isascii():
        return None
    data = block.encode("ascii")
    if _CANONICAL_LINES.fullmatch(data) is None:
        return None
    view = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(view == _NEWLINE)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    quotes = np.flatnonzero(view == _QUOTE)
    # Per line, counted back from its last quote (the type's closing one):
    # type value, "type", task value, "task", "t", "core" (two quotes each).
    last = np.searchsorted(quotes, ends) - 1
    if not _keys_ascending(view, quotes, last, ends):
        return None
    payload = quotes[last - 11] - 1 - (starts + 8)  # '{"args":' to ',"core"'
    payload[payload == 2] = 0  # "{}": no payload
    task_lengths = quotes[last - 4] - quotes[last - 5] - 1
    return (
        _gather_uints(view, quotes[last - 8] + 2, quotes[last - 7] - 1),
        _type_codes(view, quotes[last - 1] + 1, quotes[last], register),
        _gather_uints(view, quotes[last - 10] + 2, quotes[last - 9] - 1),
        1 + _extra_varint_bytes(task_lengths) + task_lengths,
        payload,
        starts + offset,
        ends + offset,
    )


def _gather_uints(view: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Values of the proved 1-18 digit integers at ``[starts, ends)``."""
    lengths = ends - starts
    width = int(lengths.max())
    offsets = _DIGIT_OFFSETS[-width:]
    window = view[ends[:, None] + offsets].astype(np.int64)
    window -= ord("0")
    window[offsets < -lengths[:, None]] = 0  # bytes before the integer
    return window @ _DIGIT_WEIGHTS[-width:]


def _gather_names(view: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The proved names at ``[starts, ends)`` as one fixed-width bytes array.

    Shorter names are padded with NUL bytes, which no name holds, so the
    array compares and sorts exactly like the names themselves.
    """
    width = max(int((ends - starts).max()), 1)  # at most _JSON_NAME_CHARS
    at = starts[:, None] + np.arange(width)
    matrix = view[np.minimum(at, len(view) - 1)]
    matrix[at >= ends[:, None]] = 0
    return matrix.view(f"S{width}").ravel()


def _type_codes(
    view: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    register: Callable[[str], int],
) -> np.ndarray:
    """Global codes of the type names at ``[starts, ends)``.

    Each distinct name is looked up (and new ones registered) once, in
    order of first appearance.
    """
    names, first, inverse = np.unique(
        _gather_names(view, starts, ends), return_index=True, return_inverse=True
    )
    codes = np.empty(len(names), dtype=np.int32)
    for unique in np.argsort(first):
        codes[unique] = register(names[unique].decode("ascii"))
    return codes[inverse.ravel()]


def _keys_ascending(
    view: np.ndarray, quotes: np.ndarray, last: np.ndarray, ends: np.ndarray
) -> bool:
    """Whether every proved line's payload keys are strictly ascending.

    A line's payload members hold its quotes after the two of ``"args"``
    and before the twelve of ``"core"``, ``"t"``, ``"task"``, ``"type"``
    and the task and type values.  A closing quote (every second one)
    followed by ``:`` ends a key.
    """
    firsts = np.empty_like(last)
    firsts[0] = 0
    firsts[1:] = last[:-1] + 1
    bounds = np.zeros(len(quotes) + 1, dtype=np.int64)
    bounds[firsts + 2] += 1
    bounds[last - 11] -= 1
    member = np.cumsum(bounds[:-1]) > 0
    closing = quotes[1::2]
    key_ends = np.flatnonzero(member[1::2] & (view[closing + 1] == _COLON))
    if len(key_ends) < 2:
        return True
    key_ends = 2 * key_ends + 1  # indices into quotes
    keys = _gather_names(view, quotes[key_ends - 1] + 1, quotes[key_ends])
    line = np.searchsorted(ends, quotes[key_ends])
    same_object = line[1:] == line[:-1]
    return not np.any(same_object & (keys[1:] <= keys[:-1]))


# ---------------------------------------------------------------------- #
# Vectorized window byte accounting
# ---------------------------------------------------------------------- #
def encoded_window_sizes_columns(
    columns: TraceColumns, event_offsets: np.ndarray
) -> np.ndarray:
    """Binary-encoded size of consecutive windows, straight from columns.

    ``event_offsets`` delimits the windows (CSR-style, length
    ``n_windows + 1``, global event indices).  Bit-identical to
    :func:`~repro.trace.codec.encoded_window_sizes` over the materialised
    windows: per window, timestamp deltas restart (the first event is
    encoded against timestamp 0) and event-type codes come from a fresh
    per-window registry, exactly like the recorder's accounting.
    """
    offsets = np.asarray(event_offsets, dtype=np.int64)
    if len(offsets) == 0:
        raise TraceFormatError("event_offsets must contain at least one entry")
    lo, hi = int(offsets[0]), int(offsets[-1])
    n_span = hi - lo
    cores = columns.cores[lo:hi]
    if n_span and (int(cores.min()) < 0 or int(cores.max()) > 0xFF):
        bad = int(cores[(cores < 0) | (cores > 0xFF)][0])
        raise TraceFormatError(
            f"core index {bad} does not fit the codec's 1-byte core field "
            "(valid range 0-255)"
        )
    local = offsets - lo
    cumulative = np.zeros(n_span + 1, dtype=np.int64)
    if n_span:
        segment = columns.timestamps_us[lo:hi]
        deltas = np.empty(n_span, dtype=np.int64)
        deltas[0] = segment[0]
        np.subtract(segment[1:], segment[:-1], out=deltas[1:])
        starts = local[:-1]
        starts = starts[starts < n_span]
        deltas[starts] = segment[starts]
        if int(deltas.min()) < 0:
            bad = int(np.flatnonzero(deltas < 0)[0])
            raise TraceFormatError(
                "events must be encoded in timestamp order "
                f"({int(segment[bad])} after {int(segment[bad - 1])})"
            )
        totals = _extra_varint_bytes(deltas)
        totals += columns.static_sizes[lo:hi]
        if len(columns.type_names) <= 0x80:
            # The delta's first varint byte, plus the type code: every
            # within-window first-appearance code fits one varint byte.
            totals += 2
        else:
            totals += 1
            totals += _window_code_sizes(columns.type_codes[lo:hi], local)
        np.cumsum(totals, out=cumulative[1:])
    edges = cumulative[local]
    return edges[1:] - edges[:-1]


def _window_code_sizes(codes: np.ndarray, local_offsets: np.ndarray) -> np.ndarray:
    """Per-event varint size of the per-window fresh-registry type code.

    Slow path, only reached when a trace carries more than 128 distinct
    event types (a window could then need 2-byte codes).  Mirrors the
    ``codes.setdefault(etype, len(codes))`` numbering of
    :func:`~repro.trace.codec.encoded_trace_size`.
    """
    sizes = np.empty(len(codes), dtype=np.int64)
    for w in range(len(local_offsets) - 1):
        ranks: dict[int, int] = {}
        for i in range(int(local_offsets[w]), int(local_offsets[w + 1])):
            rank = ranks.setdefault(int(codes[i]), len(ranks))
            sizes[i] = _varint_size(rank)
    return sizes


