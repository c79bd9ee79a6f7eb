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
import struct
from typing import Any, Callable, Iterable, Sequence

from numpy.typing import DTypeLike

import numpy as np

from ..errors import TraceFormatError
from .codec import (
    _MAGIC,
    JsonTraceCodec,
    _compact_json,
    _decode_varint,
    _parse_segment_header,
    _payload_field_size,
    _varint_size,
)
from .event import TraceEvent

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
    "TraceColumns",
    "decode_binary_columns",
    "decode_json_columns",
    "encoded_window_sizes_columns",
    "varint_size_array",
]


def varint_size_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.trace.codec._varint_size` over an array.

    Exact (no floating-point log tricks): one compare-and-add per extra
    varint byte, at most nine iterations for ``int64`` input.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and int(values.min()) < 0:
        bad = int(values[values < 0][0])
        raise TraceFormatError(f"cannot varint-encode negative value {bad}")
    sizes = np.ones(len(values), dtype=np.int64)
    shifted = values >> 7
    while shifted.any():
        sizes += shifted > 0
        shifted >>= 7
    return sizes


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


def _task_field_size(task: str, cache: dict[str, int]) -> int:
    """Encoded size of the task field (varint length prefix + UTF-8 bytes)."""
    size = cache.get(task)
    if size is None:
        length = len(task.encode("utf-8"))
        size = _varint_size(length) + length
        cache[task] = size
    return size


# ---------------------------------------------------------------------- #
# Vectorized decoders
# ---------------------------------------------------------------------- #
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


def _parse_record(
    data: bytes, offset: int
) -> tuple[int, int, int, int, int] | None:
    """Parse one binary event record starting at ``offset``.

    Returns ``(delta, local_code, core, static_size, end_offset)``, or
    ``None`` when ``data`` ends mid-record — the caller decides whether
    that means a truncated file (one-shot decode) or simply an incomplete
    chunk (streaming decode).  Single definition shared by
    :func:`decode_binary_columns` and :class:`BinaryColumnsDecoder` so the
    two cannot diverge on the record layout.
    """
    size = len(data)
    parsed = _try_decode_varint(data, offset, size)
    if parsed is None:
        return None
    delta, pos = parsed
    parsed = _try_decode_varint(data, pos, size)
    if parsed is None:
        return None
    code, pos = parsed
    if pos >= size:
        return None
    core = data[pos]
    pos += 1
    parsed = _try_decode_varint(data, pos, size)
    if parsed is None:
        return None
    task_len, task_end = parsed
    task_field = (task_end - pos) + task_len
    pos = task_end + task_len
    if pos > size:
        return None
    parsed = _try_decode_varint(data, pos, size)
    if parsed is None:
        return None
    payload_len, payload_end = parsed
    payload_field = (payload_end - pos) + payload_len
    pos = payload_end + payload_len
    if pos > size:
        return None
    return delta, code, core, 1 + task_field + payload_field, pos


def decode_binary_columns(data: bytes) -> TraceColumns:
    """Decode a (possibly segmented) binary trace blob into columns.

    Walks the records once — varint lengths only, no UTF-8 decode, no JSON
    parse, no event objects — and fills the flat arrays.  Concatenated
    segments (as written by the binary recording sink) share one global
    type table built in first-appearance order.
    """
    if data[:4] != _MAGIC:
        raise TraceFormatError("not a binary trace (bad magic)")
    name_codes: dict[str, int] = {}
    names: list[str] = []
    ts_parts: list[np.ndarray] = []
    code_parts: list[np.ndarray] = []
    core_parts: list[np.ndarray] = []
    static_parts: list[np.ndarray] = []
    offset_parts: list[np.ndarray] = []
    size = len(data)
    offset = 0
    while offset < size:
        # Shared header walk with the object decoder (magic, length,
        # version, registry contiguity) — the two decoders cannot diverge.
        segment_registry, count, offset = _parse_segment_header(data, offset)
        segment_names = segment_registry.names
        remap = np.empty(len(segment_names), dtype=np.int32)
        for local, name in enumerate(segment_names):
            code = name_codes.get(name)
            if code is None:
                code = len(names)
                name_codes[name] = code
                names.append(name)
            remap[local] = code
        timestamps = np.empty(count, dtype=np.int64)
        codes = np.empty(count, dtype=np.int32)
        cores = np.empty(count, dtype=np.int64)
        static = np.empty(count, dtype=np.int64)
        records = np.empty(count, dtype=np.int64)
        previous = 0
        n_segment_types = len(segment_names)
        for i in range(count):
            records[i] = offset
            parsed = _parse_record(data, offset)
            if parsed is None:
                raise TraceFormatError(
                    f"truncated event record at byte offset {offset} "
                    f"(trace ends mid-record, {count - i} of the segment's "
                    f"{count} record(s) missing or incomplete)"
                )
            delta, code, core, static_size, offset = parsed
            if code >= n_segment_types:
                raise TraceFormatError(
                    f"unknown event-type code: {code} "
                    f"at byte offset {int(records[i])}"
                )
            previous += delta
            timestamps[i] = previous
            codes[i] = remap[code]
            cores[i] = core
            static[i] = static_size
        ts_parts.append(timestamps)
        code_parts.append(codes)
        core_parts.append(cores)
        static_parts.append(static)
        offset_parts.append(records)
    return TraceColumns(
        timestamps_us=_concat(ts_parts, np.int64),
        type_codes=_concat(code_parts, np.int32),
        cores=_concat(core_parts, np.int64),
        type_names=tuple(names),
        static_sizes=_concat(static_parts, np.int64),
        source_kind="binary",
        binary_data=data,
        record_offsets=_concat(offset_parts, np.int64),
    )


def _concat(parts: Sequence[np.ndarray], dtype: DTypeLike) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def decode_json_columns(text: str) -> TraceColumns:
    """Decode a JSON-lines trace into columns.

    The one-shot form of :class:`JsonColumnsDecoder`: the whole text is
    parsed by the same per-line kernel as its final chunk, so no
    :class:`TraceEvent` is built and nothing but one C-scanner call and a
    few field checks runs per event.  Empty lines are skipped exactly as
    the object reader does; a malformed line raises with its 1-based line
    number.
    """
    return JsonColumnsDecoder()._parse(text, final=True, hint=_PARTIAL_LINE_HINT)


# ---------------------------------------------------------------------- #
# Resumable chunked decoders (streaming ingest)
# ---------------------------------------------------------------------- #
class BinaryColumnsDecoder:
    """Resumable, chunk-fed counterpart of :func:`decode_binary_columns`.

    Feed arbitrary byte ranges of a binary trace (they need not align with
    record or segment boundaries); each :meth:`feed` returns the columns of
    the records the chunk *completed* and buffers the partial trailing
    record (or segment header) for the next call, so memory stays bounded
    by one record/header plus the current chunk.  :attr:`resume_offset`
    reports the absolute offset of the first unconsumed byte — the point a
    re-opened reader should seek to.

    Emitted chunks use one *global* type table grown across segments in the
    same registry order as the one-shot decoder; every chunk's
    ``type_names`` is the table so far (a prefix of the final table), so
    concatenating the chunks reproduces the one-shot decode bit for bit.

    :meth:`finish` marks end-of-stream: ending mid-header or mid-record is
    then an error naming the absolute byte offset, exactly like a one-shot
    decode of the same truncated blob.

    ``on_corrupt="skip"`` quarantines corruption instead of raising: on a
    mangled header, over-long varint, unknown type code or truncated tail
    the decoder abandons the damaged region and resynchronises at the next
    segment magic, counting each region in :attr:`corrupt_records` and
    recording its absolute byte offset in :attr:`corrupt_offsets`.  The
    concatenation contract above then only covers the surviving records.
    """

    __slots__ = (
        "_buffer",
        "_base",
        "_names",
        "_name_codes",
        "_remap",
        "_remaining",
        "_previous",
        "_saw_data",
        "_finished",
        "_on_corrupt",
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
        self._remap: np.ndarray | None = None  # active segment local→global
        self._remaining = 0  # records left in the active segment
        self._previous = 0  # previous absolute timestamp (segment-local)
        self._saw_data = False
        self._finished = False
        self._on_corrupt = on_corrupt
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
            self._buffer += bytes(chunk)
        return self._drain(final=False)

    def finish(self) -> TraceColumns:
        """Mark end-of-stream; flush and validate the remaining buffer."""
        if self._finished:
            raise TraceFormatError("decoder already finished")
        self._finished = True
        if not self._saw_data:
            raise TraceFormatError("not a binary trace (empty stream)")
        columns = self._drain(final=True)
        if self._remaining:
            if self._on_corrupt == "raise":
                raise TraceFormatError(
                    f"truncated binary trace: segment promises "
                    f"{self._remaining} more event record(s) at byte offset "
                    f"{self._base}"
                )
            # _drain(final=True) already recorded the corrupt tail region.
            self._remaining = 0
        return columns

    def _drain(self, final: bool) -> TraceColumns:
        data = self._buffer
        size = len(data)
        pos = 0
        timestamps: list[int] = []
        codes: list[int] = []
        cores: list[int] = []
        static: list[int] = []
        records: list[int] = []
        while True:
            if self._resyncing:
                found = data.find(_MAGIC, pos)
                if found != -1:
                    pos = found
                    self._resyncing = False
                    continue
                pos = size if final else self._magic_tail(data, pos)
                break
            if self._remaining == 0:
                if pos >= size:
                    break
                try:
                    header = self._try_header(data, pos, final)
                except TraceFormatError:
                    if self._on_corrupt == "raise":
                        raise
                    pos = self._quarantine(pos, size)
                    continue
                if header is None:
                    break
                self._remap, self._remaining, pos = header
                self._previous = 0
                continue
            try:
                parsed = _parse_record(data, pos)
            except TraceFormatError:
                if self._on_corrupt == "raise":
                    raise
                pos = self._quarantine(pos, size)
                continue
            if parsed is None:
                if not final:
                    break
                if self._on_corrupt == "raise":
                    raise TraceFormatError(
                        f"truncated event record at byte offset "
                        f"{self._base + pos} (stream ends mid-record)"
                    )
                pos = self._quarantine(pos, size)
                continue
            delta, code, core, static_size, end = parsed
            remap = self._remap
            assert remap is not None
            if code >= len(remap):
                if self._on_corrupt == "raise":
                    raise TraceFormatError(
                        f"unknown event-type code: {code} "
                        f"at byte offset {self._base + pos}"
                    )
                pos = self._quarantine(pos, size)
                continue
            records.append(pos)
            self._previous += delta
            timestamps.append(self._previous)
            codes.append(int(remap[code]))
            cores.append(core)
            static.append(static_size)
            self._remaining -= 1
            pos = end
        self._buffer = data[pos:]
        self._base += pos
        return TraceColumns(
            timestamps_us=np.array(timestamps, dtype=np.int64),
            type_codes=np.array(codes, dtype=np.int32),
            cores=np.array(cores, dtype=np.int64),
            type_names=tuple(self._names),
            static_sizes=np.array(static, dtype=np.int64),
            source_kind="binary",
            binary_data=data[:pos],
            record_offsets=np.array(records, dtype=np.int64),
        )

    def _try_header(
        self, data: bytes, pos: int, final: bool
    ) -> tuple[np.ndarray, int, int] | None:
        """Parse a segment header at ``pos``; ``None`` when incomplete."""
        size = len(data)
        head = data[pos : pos + 4]
        if len(head) < 4:
            if not _MAGIC.startswith(head):
                raise TraceFormatError(
                    "not a binary trace (bad magic)"
                    if self._base + pos == 0
                    else "trailing bytes after binary trace segment (bad magic)"
                )
        elif head != _MAGIC:
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
            if final:
                raise TraceFormatError(
                    f"truncated binary trace header at byte offset "
                    f"{self._base + pos}"
                )
            return None
        registry, count, body = _parse_segment_header(data, pos)
        segment_names = registry.names
        remap = np.empty(len(segment_names), dtype=np.int32)
        for local, name in enumerate(segment_names):
            code = self._name_codes.get(name)
            if code is None:
                code = len(self._names)
                self._name_codes[name] = code
                self._names.append(name)
            remap[local] = code
        return remap, count, body

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
    malformed JSON line, malformed record or negative timestamp is dropped
    (its 1-based line number lands in :attr:`corrupt_offsets`), and invalid
    UTF-8 decodes to replacement characters — turning the damaged lines
    into malformed-JSON skips rather than a fatal stream error.
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

        Each stripped line is parsed by one C-scanner call that must consume
        the whole line.  Anything else — a scan failure, trailing data —
        re-parses the line with ``json.loads`` so the error (and its
        message) is exactly the per-line one.  Payload lengths come from
        the reused compact encoder and are sized into varint fields once
        per chunk.
        """
        raw_lines = text.split("\n")
        if not final:
            # ``text`` is empty or newline-terminated: the final split
            # element is the empty string after the last newline, not a line.
            raw_lines.pop()
        scan = _SCAN_ONCE
        encode = _compact_json
        skip = self._on_corrupt == "skip"
        corrupt = self._corrupt_lines
        name_codes = self._name_codes
        names = self._names
        task_cache = self._task_cache
        timestamps: list[int] = []
        codes: list[int] = []
        cores: list[int] = []
        task_fields: list[int] = []
        payload_lengths: list[int] = []
        line_starts: list[int] = []
        line_ends: list[int] = []
        line_no = self._lines_done
        position = 0
        try:
            for raw in raw_lines:
                line_no += 1
                start = position
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
                code = name_codes.get(etype)
                if code is None:
                    code = len(names)
                    name_codes[etype] = code
                    names.append(etype)
                timestamps.append(timestamp)
                codes.append(code)
                cores.append(core)
                task_fields.append(_task_field_size(task, task_cache))
                payload_lengths.append(len(encode(args)) if args else 0)
                if len(line) == len(raw):
                    line_starts.append(start)
                    line_ends.append(position - 1)
                else:
                    lead = start + len(raw) - len(raw.lstrip())
                    line_starts.append(lead)
                    line_ends.append(lead + len(line))
        finally:
            self._lines_done = line_no
        payload = np.array(payload_lengths, dtype=np.int64)
        return TraceColumns(
            timestamps_us=np.array(timestamps, dtype=np.int64),
            type_codes=np.array(codes, dtype=np.int32),
            cores=np.array(cores, dtype=np.int64),
            type_names=tuple(names),
            static_sizes=(
                1
                + np.array(task_fields, dtype=np.int64)
                + varint_size_array(payload)
                + payload
            ),
            source_kind="jsonl",
            text=text,
            line_starts=np.array(line_starts, dtype=np.int64),
            line_ends=np.array(line_ends, dtype=np.int64),
        )


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
    totals = np.zeros(n_span, dtype=np.int64)
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
        totals += varint_size_array(deltas)
        totals += columns.static_sizes[lo:hi]
        if len(columns.type_names) <= 0x80:
            # Every within-window first-appearance code fits one varint byte.
            totals += 1
        else:
            totals += _window_code_sizes(columns.type_codes[lo:hi], local)
    cumulative = np.concatenate(([0], np.cumsum(totals)))
    return cumulative[local[1:]] - cumulative[local[:-1]]


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


