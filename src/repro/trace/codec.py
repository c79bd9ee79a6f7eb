"""Trace codecs and size accounting.

The paper's headline result is a *size* reduction: 418 MB of recorded trace
instead of 5.9 GB.  To reproduce that metric meaningfully the library gives
every event a realistic serialised size.  Two codecs are provided:

* :class:`BinaryTraceCodec` — a compact binary encoding close to what real
  trace infrastructures (CTF/STP) produce: varint-encoded timestamp deltas, a
  one/two byte event-type code, small packed payloads.  This codec defines
  the *byte* sizes used by the recorder and the reduction-factor metric.
* :class:`JsonTraceCodec` — a human-readable JSON-lines encoding used for
  debugging and for the file reader/writer round-trip tests.

Both codecs are lossless for the event fields they encode and are exercised
by round-trip property tests.
"""

from __future__ import annotations

import json
import json.encoder
import struct
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from ..errors import TraceFormatError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .columns import TraceColumns
from .event import _INT64_MAX, EventTypeRegistry, TraceEvent
from .window import TraceWindow

__all__ = [
    "BinaryTraceCodec",
    "JsonTraceCodec",
    "encoded_event_size",
    "encoded_trace_size",
    "encoded_window_sizes",
]

_MAGIC = b"RTRC"
_VERSION = 1


def _encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a little-endian base-128 varint."""
    if value < 0:
        raise TraceFormatError(f"cannot varint-encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _check_core_range(core: int) -> None:
    """Reject core indices the codec's fixed 1-byte core field cannot hold.

    The core used to be silently masked with ``0xFF``, so core 300 round-
    tripped as 44 with no error; the 1-byte accounting stays exact because
    out-of-range cores are now rejected instead of truncated.
    """
    if not 0 <= core <= 0xFF:
        raise TraceFormatError(
            f"core index {core} does not fit the codec's 1-byte core field "
            "(valid range 0-255)"
        )


def _parse_segment_header(data: bytes, offset: int) -> tuple["EventTypeRegistry", int, int]:
    """Parse one binary-segment header; return (registry, count, body offset).

    Single definition of the segment-header walk (magic, header length,
    version, registry validation) shared by the object decoder
    (:meth:`BinaryTraceCodec.decode`) and the columnar decoder
    (:func:`~repro.trace.columns.decode_binary_columns`), so the two can
    never diverge on the format.
    """
    if data[offset : offset + 4] != _MAGIC:
        raise TraceFormatError(
            "not a binary trace (bad magic)"
            if offset == 0
            else "trailing bytes after binary trace segment (bad magic)"
        )
    if offset + 8 > len(data):
        raise TraceFormatError("truncated binary trace header")
    (header_len,) = struct.unpack("<I", data[offset + 4 : offset + 8])
    header_end = offset + 8 + header_len
    if header_end > len(data):
        raise TraceFormatError("truncated binary trace header")
    try:
        header = json.loads(data[offset + 8 : header_end].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise TraceFormatError("malformed binary trace header") from exc
    if header.get("version") != _VERSION:
        raise TraceFormatError(f"unsupported trace version: {header.get('version')}")
    registry = EventTypeRegistry.from_dict(header.get("registry", {}))
    return registry, int(header.get("count", 0)), header_end


def _timestamp_range_error(offset: int) -> TraceFormatError:
    """The error both binary readers raise for a record whose running
    timestamp (delta included) leaves the int64 range."""
    return TraceFormatError(
        f"event timestamp outside the int64 range at byte offset {offset}"
    )


def _decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode a varint starting at ``offset``; return (value, new offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise TraceFormatError("truncated varint in binary trace")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise TraceFormatError("varint too long in binary trace")


class BinaryTraceCodec:
    """Compact binary encoding of trace events.

    Events are encoded as::

        varint  timestamp delta (us, relative to the previous event)
        varint  event-type code
        u8      core index
        varint  length of the task name,  followed by its UTF-8 bytes
        varint  length of the JSON payload, followed by its UTF-8 bytes

    The first event of a buffer uses its absolute timestamp as the delta.
    Payloads are JSON because they are tiny and heterogeneous; real systems
    pack them, but the ~constant overhead does not change reduction ratios.
    """

    def __init__(self, registry: EventTypeRegistry | None = None) -> None:
        self.registry = registry if registry is not None else EventTypeRegistry()

    # -- single event -------------------------------------------------- #
    def encode_event(self, event: TraceEvent, previous_timestamp_us: int = 0) -> bytes:
        """Encode one event relative to ``previous_timestamp_us``."""
        delta = event.timestamp_us - previous_timestamp_us
        if delta < 0:
            raise TraceFormatError(
                "events must be encoded in timestamp order "
                f"({event.timestamp_us} after {previous_timestamp_us})"
            )
        _check_core_range(event.core)
        code = self.registry.register(event.etype)
        task_bytes = event.task.encode("utf-8")
        payload_bytes = (
            json.dumps(dict(event.args), sort_keys=True, separators=(",", ":")).encode("utf-8")
            if event.args
            else b""
        )
        parts = [
            _encode_varint(delta),
            _encode_varint(code),
            struct.pack("B", event.core),
            _encode_varint(len(task_bytes)),
            task_bytes,
            _encode_varint(len(payload_bytes)),
            payload_bytes,
        ]
        return b"".join(parts)

    def decode_event(
        self, data: bytes, offset: int, previous_timestamp_us: int
    ) -> tuple[TraceEvent, int]:
        """Decode one event starting at ``offset``; return (event, new offset)."""
        start = offset
        delta, offset = _decode_varint(data, offset)
        code, offset = _decode_varint(data, offset)
        if offset >= len(data):
            raise TraceFormatError("truncated event record")
        core = data[offset]
        offset += 1
        task_len, offset = _decode_varint(data, offset)
        if offset + task_len > len(data):
            raise TraceFormatError("truncated event record")
        task = data[offset : offset + task_len].decode("utf-8")
        offset += task_len
        payload_len, offset = _decode_varint(data, offset)
        if offset + payload_len > len(data):
            raise TraceFormatError("truncated event record")
        payload_raw = data[offset : offset + payload_len]
        offset += payload_len
        try:
            args = json.loads(payload_raw.decode("utf-8")) if payload_len else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TraceFormatError("malformed event payload in binary trace") from exc
        etype = self.registry.name(code)
        timestamp = previous_timestamp_us + delta
        if timestamp > _INT64_MAX:
            raise _timestamp_range_error(start)
        event = TraceEvent(
            timestamp_us=timestamp,
            etype=etype,
            core=core,
            task=task,
            args=args,
        )
        return event, offset

    # -- whole traces --------------------------------------------------- #
    def encode(self, events: Iterable[TraceEvent]) -> bytes:
        """Encode an event sequence as a self-describing binary blob."""
        body = bytearray()
        previous = 0
        count = 0
        for event in events:
            body += self.encode_event(event, previous)
            previous = event.timestamp_us
            count += 1
        header = {
            "version": _VERSION,
            "count": count,
            "registry": self.registry.to_dict(),
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        return b"".join(
            [_MAGIC, struct.pack("<I", len(header_bytes)), header_bytes, bytes(body)]
        )

    def decode(self, data: bytes) -> list[TraceEvent]:
        """Decode a blob produced by :meth:`encode`.

        Concatenations of several such blobs (*segments*) are decoded as one
        event sequence: each segment carries its own registry and restarts
        its timestamp deltas, which is what the binary recording sink writes
        (one segment per recorded window).  Trailing bytes that do not start
        a new segment raise :class:`~repro.errors.TraceFormatError`.
        """
        if data[:4] != _MAGIC:
            raise TraceFormatError("not a binary trace (bad magic)")
        events: list[TraceEvent] = []
        offset = 0
        while offset < len(data):
            registry, count, offset = _parse_segment_header(data, offset)
            codec = BinaryTraceCodec(registry)
            previous = 0
            for _ in range(count):
                event, offset = codec.decode_event(data, offset, previous)
                previous = event.timestamp_us
                events.append(event)
        return events

    def decode_columns(self, data: bytes) -> "TraceColumns":
        """Decode a binary trace straight into flat arrays.

        Returns a :class:`~repro.trace.columns.TraceColumns` whose arrays
        are bit-identical to what :meth:`decode` would produce — one walk
        over the varint records, no per-event objects, no JSON payload
        parsing (payloads are only length-skipped; they are parsed lazily
        if a window is ever materialised).
        """
        from .columns import decode_binary_columns

        return decode_binary_columns(data)

    def event_size(self, event: TraceEvent, previous_timestamp_us: int = 0) -> int:
        """Size in bytes of ``event`` under this codec."""
        return len(self.encode_event(event, previous_timestamp_us))


class JsonTraceCodec:
    """JSON-lines encoding of trace events (one JSON object per line)."""

    def encode_event(self, event: TraceEvent) -> str:
        """Encode one event as a JSON line (without trailing newline)."""
        return json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))

    def decode_event(self, line: str) -> TraceEvent:
        """Decode one JSON line back into an event."""
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"malformed JSON event line: {line!r}") from exc
        return TraceEvent.from_dict(data)

    def encode_events(self, events: Iterable[TraceEvent]) -> str:
        """Encode a batch of events as one newline-terminated JSON-lines block.

        Every line ends with ``"\\n"`` (unlike :meth:`encode`, which joins
        without a trailing newline), so the result of consecutive calls can
        be concatenated and written to a JSON-lines file in a single write.
        An empty event sequence yields the empty string.
        """
        encode_event = self.encode_event
        return "".join([encode_event(event) + "\n" for event in events])

    def encoded_sizes(self, events: Iterable[TraceEvent]) -> list[int]:
        """UTF-8 byte size of each event's JSON line (newline excluded)."""
        encode_event = self.encode_event
        return [len(encode_event(event).encode("utf-8")) for event in events]

    def encode(self, events: Iterable[TraceEvent]) -> str:
        """Encode an event sequence as newline-separated JSON objects."""
        return "\n".join(self.encode_event(event) for event in events)

    def decode(self, text: str) -> Iterator[TraceEvent]:
        """Decode the output of :meth:`encode` lazily.

        Lines end at ``"\\n"`` only, as in the columnar decoders:
        ``str.splitlines`` would also break at characters such as U+2028
        or U+0085, which a JSON string may hold raw.
        """
        for line in text.split("\n"):
            line = line.strip()
            if line:
                yield self.decode_event(line)

    def decode_columns(self, text: str) -> "TraceColumns":
        """Decode a JSON-lines trace straight into flat arrays.

        Returns a :class:`~repro.trace.columns.TraceColumns` equivalent to
        materialising every line with :meth:`decode_event`, but with no
        :class:`TraceEvent` objects on the hot path: blocks of lines in the
        exact form :meth:`encode_event` writes are proved by one regular
        expression match and their fields gathered with NumPy; any other
        line is parsed on its own by the JSON scanner.
        """
        from .columns import decode_json_columns

        return decode_json_columns(text)


def encoded_event_size(event: TraceEvent, previous_timestamp_us: int = 0) -> int:
    """Convenience wrapper: binary-encoded size of a single event in bytes."""
    return BinaryTraceCodec().event_size(event, previous_timestamp_us)


def _varint_size(value: int) -> int:
    """Length in bytes of ``_encode_varint(value)``, computed arithmetically."""
    if value < 0x80:
        return 1
    return (value.bit_length() + 6) // 7


#: ``_json``'s C encoder factory (``None`` without the C accelerator).
_c_make_encoder: Any = vars(json.encoder).get("c_make_encoder")


def _make_compact_json() -> Callable[[Any], str]:
    """Build the one reused compact JSON encoder used for payload sizing.

    ``json.dumps(..., sort_keys=True)`` builds a fresh ``JSONEncoder`` per
    call; one prebuilt C encoder with the same settings serves every event
    and returns the very string :meth:`BinaryTraceCodec.encode_event`
    writes, so sizing accepts and rejects the same payloads (mixed key
    types raise ``TypeError`` in both).  It runs without circular-reference
    markers, so it keeps no state between calls; a self-referencing payload
    therefore raises ``RecursionError`` here instead of ``ValueError``.
    Interpreters without the ``_json`` accelerator fall back to a prebuilt
    pure-Python encoder with the same output.
    """
    encoder = json.JSONEncoder(
        separators=(",", ":"), sort_keys=True, check_circular=False
    )
    if _c_make_encoder is None:  # pragma: no cover - CPython ships _json
        return encoder.encode
    chunks = _c_make_encoder(
        None,  # no circular-reference markers: no state kept across calls
        encoder.default,
        json.encoder.encode_basestring_ascii,
        None,  # indent
        ":",
        ",",
        True,  # sort_keys
        False,  # skipkeys
        True,  # allow_nan
    )
    return lambda obj: "".join(chunks(obj, 0))


#: Compact (``","``/``":"``), key-sorted, ASCII-escaped JSON of one value:
#: the payload the binary codec writes, whose string length equals its
#: UTF-8 byte length.
_compact_json = _make_compact_json()


def _payload_field_size(args: Mapping[str, Any]) -> int:
    """Binary-codec size of an event's payload field (length prefix + JSON).

    The single payload-size helper shared by :func:`encoded_trace_size` and
    the columnar decoders; bit-identical to the length of the payload
    :meth:`BinaryTraceCodec.encode_event` writes.
    """
    if not args:
        return 1
    length = len(_compact_json(dict(args)))
    return _varint_size(length) + length


def encoded_trace_size(events: Iterable[TraceEvent]) -> int:
    """Total binary-encoded size of an event sequence (excluding file header).

    Sizes are computed with delta timestamps exactly as the recorder does, so
    the full-trace size and the sum of recorded-window sizes are directly
    comparable.

    The size is computed arithmetically — varint lengths, cached task-name
    lengths, payload JSON lengths — without materialising any encoded bytes;
    the result is bit-identical to summing
    :meth:`BinaryTraceCodec.event_size` over the events with one shared
    codec (the property suite asserts this).  Byte accounting is on the
    monitoring hot path (every window is sized, recorded or not), so the
    dominant cost must be a few integer operations per event, not an
    encode-and-discard pass.
    """
    total = 0
    previous = 0
    codes: dict[str, int] = {}
    task_sizes: dict[str, int] = {}
    for event in events:
        delta = event.timestamp_us - previous
        if delta < 0:
            raise TraceFormatError(
                "events must be encoded in timestamp order "
                f"({event.timestamp_us} after {previous})"
            )
        previous = event.timestamp_us
        _check_core_range(event.core)
        code = codes.setdefault(event.etype, len(codes))
        task = event.task
        task_size = task_sizes.get(task)
        if task_size is None:
            task_length = len(task.encode("utf-8"))
            task_size = _varint_size(task_length) + task_length
            task_sizes[task] = task_size
        total += (
            _varint_size(delta)
            + _varint_size(code)
            + 1
            + task_size
            + _payload_field_size(event.args)
        )
    return total


def encoded_window_sizes(windows: Iterable[TraceWindow]) -> list[int]:
    """Binary-encoded size of each window in a batch, in window order.

    Each window is sized with a fresh codec (fresh registry, delta timestamps
    restarting at the window boundary) exactly like a standalone
    :func:`encoded_trace_size` call, so batched and per-window byte
    accounting are bit-identical.
    """
    return [encoded_trace_size(window.events) for window in windows]
