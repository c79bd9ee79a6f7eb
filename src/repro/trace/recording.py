"""Columnar recording encoder: recorded windows straight from column spans.

The recorder writes the windows the detector flags.  Encoding them from
:class:`~repro.trace.event.TraceEvent` objects means decoding every recorded
event first (one ``json.loads`` per payload) only to re-encode it field by
field.  :func:`encode_window_spans` encodes a whole run of windows at once
from what the columns already hold: timestamps, type codes and cores come
from the arrays, and the task and payload bytes are copied from the raw
binary buffer.  The output is assembled with NumPy: varints, deltas and
per-window fresh registry codes are computed over arrays, and one gather
lays out every piece.

The bytes equal the object encoders' output for every window it encodes:
:meth:`~repro.trace.codec.BinaryTraceCodec.encode` of the window's events
(one self-describing segment) for ``"binary"``, and
:meth:`~repro.trace.codec.JsonTraceCodec.encode_events` for ``"jsonl"``.
Source bytes are copied only when they are proved canonical: a payload
must parse *on its own* to a non-empty ``dict`` whose compact encoding
(:data:`~repro.trace.codec._compact_json`) is the very same ASCII text, and
a task name must decode as UTF-8.

A window holding any event that fails the proof is left to the caller,
which encodes it from objects; that path raises the object path's
exceptions for malformed sources, so bytes and errors never change.
Windows from JSON-lines text or in-memory events are left to it too: a
binary source is where materialising cost the most (one ``json.loads`` per
payload), and a JSON-lines record would need a costlier proof of its own.
"""

from __future__ import annotations

import json
import struct
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Sequence

import numpy as np

from .codec import _MAGIC, _VERSION, _compact_json, _encode_varint
from .columns import (
    _SCAN_ONCE,
    Span,
    TraceColumns,
    _extra_varint_bytes,
    _gather_varints,
)

__all__ = ["encode_window_spans"]

#: ``json.dumps(header, sort_keys=True)`` with one reused encoder: the
#: segment header :meth:`~repro.trace.codec.BinaryTraceCodec.encode` writes.
_encode_header = json.JSONEncoder(sort_keys=True).encode

#: What precedes each element of a JSON array text: ``[`` or ``,``.
_ARRAY_MARKS = np.frombuffer(b"[,", dtype=np.uint8)

#: Constant pieces of a JSON line: the record prefix, then the empty payload.
_JSON_HEAD = np.frombuffer(b'{"args":{}', dtype=np.uint8)
_JSON_HEAD_LENGTH = len(b'{"args":')

#: ``,"core":<core>,"t":`` for every core a record can carry (0-255).
_CORE_ENTRIES = [f',"core":{core},"t":'.encode("ascii") for core in range(256)]
_CORE_POOL = np.frombuffer(b"".join(_CORE_ENTRIES), dtype=np.uint8)
_CORE_LENGTHS = np.array([len(entry) for entry in _CORE_ENTRIES], dtype=np.int64)
_CORE_STARTS = np.cumsum(_CORE_LENGTHS) - _CORE_LENGTHS

#: The binary codec's core byte, indexed by core.
_CORE_BYTES = np.arange(256, dtype=np.uint8)

#: ``10**k`` for k = 1..18: a timestamp's decimal digit count is one more
#: than the number of these it reaches.
_POW10 = np.array([10**k for k in range(1, 19)], dtype=np.int64)


def encode_window_spans(
    windows: Sequence[Optional[Sequence[Span]]], recording_format: str
) -> tuple[bytes, np.ndarray, np.ndarray]:
    """Encode windows given as column spans; return ``(blob, bounds, encoded)``.

    ``windows[w]`` lists the spans whose events form window ``w``, in event
    order (a window can straddle chunks), or is ``None`` for a window that
    only exists as objects.  ``recording_format`` is ``"binary"`` or
    ``"jsonl"``.  When ``encoded[w]`` is true, ``blob[bounds[w]:bounds[w +
    1]]`` is window ``w``'s block (empty for an empty window); otherwise the
    range is empty and the caller must encode the window from its events:
    it does not come from a binary source, or it holds a record that fails
    the canonical proof (see the module docstring).  The blob is ASCII for
    ``"jsonl"``.
    """
    n = len(windows)
    encoded = np.zeros(n, dtype=bool)
    segments: list[Span] = []
    segment_windows: list[int] = []
    for w, spans in enumerate(windows):
        if spans is None or any(columns.source_kind != "binary" for columns, _, _ in spans):
            continue
        encoded[w] = True
        for span in spans:
            if span[2] > span[1]:
                segments.append(span)
                segment_windows.append(w)
    if not segments:
        return b"", np.zeros(n + 1, dtype=np.int64), encoded
    events = _RunEvents(segments, segment_windows)
    window_of = events.window
    ok = events.ok
    # Timestamp order, as the object encoder demands: a window whose
    # deltas go negative is left to it (and to its error).
    first = np.ones(len(window_of), dtype=bool)
    first[1:] = window_of[1:] != window_of[:-1]
    deltas = np.empty(len(window_of), dtype=np.int64)
    deltas[first] = events.timestamps[first]
    np.subtract(events.timestamps[1:], events.timestamps[:-1], out=deltas[1:], where=~first[1:])
    ok &= deltas >= 0
    encoded[window_of[~ok]] = False
    keep = encoded[window_of]
    counts = np.bincount(window_of[keep], minlength=n)
    event_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=event_offsets[1:])
    if recording_format == "binary":
        blob, event_ends = _assemble_binary(events, keep, deltas[keep], counts)
    else:
        blob, event_ends = _assemble_jsonl(events, keep)
    return blob, event_ends[event_offsets], encoded


# ---------------------------------------------------------------------- #
# Gathering the recorded events
# ---------------------------------------------------------------------- #
class _RunEvents:
    """Every event of a run's windows, in write order, with its sources.

    Per event: its window, timestamp, run-local type id, core, task id and
    the span of its canonical payload text in :attr:`payloads` (length 0
    for an empty payload), plus ``ok``, whether every field passed the
    canonical proof.
    """

    def __init__(self, segments: list[Span], segment_windows: list[int]) -> None:
        starts = np.array([start for _, start, _ in segments], dtype=np.int64)
        lengths = np.array([stop - start for _, start, stop in segments], dtype=np.int64)
        positions = np.cumsum(lengths) - lengths
        total = int(lengths.sum())
        self.window = np.repeat(np.array(segment_windows, dtype=np.int64), lengths)
        self.timestamps = np.empty(total, dtype=np.int64)
        self.type_ids = np.empty(total, dtype=np.int64)
        self.cores = np.empty(total, dtype=np.int64)
        self.task_ids = np.empty(total, dtype=np.int64)
        self.payload_starts = np.empty(total, dtype=np.int64)
        self.payload_lengths = np.empty(total, dtype=np.int64)
        self.ok = np.empty(total, dtype=bool)
        self.type_names: list[str] = []
        self.task_names: list[str] = []
        self._type_ids: dict[str, int] = {}
        self._task_ids: dict[str, int] = {}
        payload_parts: list[np.ndarray] = []
        payload_size = 0
        # One gather per source: a run's windows usually share one columns
        # object (a one-shot read), or a few (a stream's chunks).
        by_source: dict[int, list[int]] = {}
        for s, (columns, _, _) in enumerate(segments):
            by_source.setdefault(id(columns), []).append(s)
        for members in by_source.values():
            columns = segments[members[0]][0]
            chosen = np.array(members, dtype=np.int64)
            source = _ragged_index(starts[chosen], lengths[chosen])
            target = (
                _ragged_index(positions[chosen], lengths[chosen])
                if len(by_source) > 1
                else slice(None)
            )
            self.timestamps[target] = columns.timestamps_us[source]
            self.type_ids[target] = self._type_map(columns.type_names)[
                columns.type_codes[source]
            ]
            cores = columns.cores[source]
            self.cores[target] = cores
            task_ids, ok, payload, payload_starts, payload_lengths = _binary_fields(
                columns, source, self._task_id
            )
            self.task_ids[target] = task_ids
            self.ok[target] = ok & (cores >= 0) & (cores <= 0xFF)
            self.payload_starts[target] = payload_starts + payload_size
            self.payload_lengths[target] = payload_lengths
            payload_parts.append(payload)
            payload_size += len(payload)
        self.payloads = (
            np.concatenate(payload_parts) if payload_parts else np.empty(0, dtype=np.uint8)
        )

    def _type_map(self, names: tuple[str, ...]) -> np.ndarray:
        """Run-local type ids of a columns object's type table."""
        ids = self._type_ids
        for name in names:
            if name not in ids:
                ids[name] = len(self.type_names)
                self.type_names.append(name)
        return np.array([ids[name] for name in names], dtype=np.int64)

    def _task_id(self, name: str) -> int:
        """Run-local id of task ``name``."""
        task_id = self._task_ids.get(name)
        if task_id is None:
            task_id = self._task_ids[name] = len(self.task_names)
            self.task_names.append(name)
        return task_id


def _ragged_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    index = np.repeat(starts - (ends - lengths), lengths)
    index += np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
    return index


#: Per event: task id, proof, then the payload pool and each payload's
#: start and length in it.
_Fields = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _binary_fields(
    columns: TraceColumns, source: np.ndarray, task_id: Callable[[str], int]
) -> _Fields:
    """Task ids, proof, payload pool and payload spans of binary records.

    The record offsets locate each record; its four varints are re-gathered
    (the decode only length-skipped tasks and payloads).  Length prefixes
    are re-encoded by the assembler, so only the task and payload bytes are
    taken from the source.
    """
    data = columns._binary_data
    assert data is not None and columns._record_offsets is not None
    view = np.frombuffer(data, dtype=np.uint8)
    at = columns._record_offsets[source]
    _, length, _ = _gather_varints(view, at)  # timestamp delta
    at = at + length
    _, length, _ = _gather_varints(view, at)  # segment-local type code
    at += length + 1  # and the core byte
    task_lengths, length, _ = _gather_varints(view, at)
    task_starts = at + length
    at = task_starts + task_lengths
    payload_lengths, length, _ = _gather_varints(view, at)
    payload_starts = at + length
    # Task names: valid UTF-8 or the window is left to the object path
    # (which raises "malformed task name").
    raw_tasks = [
        data[start:stop]
        for start, stop in zip(task_starts.tolist(), (task_starts + task_lengths).tolist())
    ]
    ids = {}
    invalid = set()
    for raw in dict.fromkeys(raw_tasks):
        try:
            ids[raw] = task_id(raw.decode("utf-8"))
        except UnicodeDecodeError:
            ids[raw] = 0
            invalid.add(raw)
    task_ids = np.fromiter(map(ids.__getitem__, raw_tasks), dtype=np.int64, count=len(raw_tasks))
    ok = np.ones(len(raw_tasks), dtype=bool)
    if invalid:
        ok = np.array([raw not in invalid for raw in raw_tasks], dtype=bool)
    # Payloads: empty, or a canonical non-empty object ("{...}").
    payload = view[_ragged_index(payload_starts, payload_lengths)]
    starts = np.cumsum(payload_lengths) - payload_lengths
    candidate = payload_lengths > 0
    shaped = payload_lengths > 2
    shaped[shaped] = (payload[starts[shaped]] == ord("{")) & (
        payload[starts[shaped] + payload_lengths[shaped] - 1] == ord("}")
    )
    ok &= ~candidate | shaped
    check = np.flatnonzero(candidate & shaped)
    if check.size:
        ok[check] &= _canonical_objects(payload, starts[check], payload_lengths[check])
    return task_ids, ok, payload, starts, payload_lengths


def _canonical_objects(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Whether each piece ``data[start:start + length]`` parses on its own to
    a value whose compact encoding is the piece itself.

    Every piece opens with ``{`` and closes with ``}``; it is read one
    character per byte, so a non-ASCII piece never equals its (ASCII)
    compact encoding.  The pieces are joined into one JSON array text,
    parsed once and re-encoded once.  That alone proves nothing:
    ``{"p":1},{"q":2}``, ``{"a":[{"x":1}`` and ``{"y":2}]}`` join into
    three valid objects, none of them a piece.
    So the joins must also be the array's own element boundaries: when the
    ``n`` elements are all objects, their canonical text holds ``},{`` at
    its ``n - 1`` element boundaries, and when it holds no other ``},{``,
    the ``n - 1`` joins (each a ``},{`` too) are exactly those boundaries.
    Then each piece is one element's compact encoding.  (Elements that are
    not all objects prove nothing: ``{"p":0},[{"a":1}``, ``{"b":2}`` and
    ``{"c":3}],{"q":0}`` join into three values with two ``},{``.)
    Otherwise each piece is scanned alone.
    """
    n = len(starts)
    separators = np.full(n, len(data) + 1, dtype=np.int64)  # ","
    separators[0] = len(data)  # "["
    index = _ragged_index(
        np.stack((separators, starts), axis=1).reshape(-1),
        np.stack((np.ones(n, dtype=np.int64), lengths), axis=1).reshape(-1),
    )
    text = np.append(data, _ARRAY_MARKS)[index].tobytes().decode("latin-1") + "]"
    try:
        values = json.loads(text)
        if (
            len(values) == n
            and set(map(type, values)) == {dict}
            and text.count("},{") == n - 1
            and _compact_json(values) == text
        ):
            return np.ones(n, dtype=bool)
    except (ValueError, RecursionError):
        pass
    commas = np.cumsum(lengths + 1) - (lengths + 1)
    return np.array(
        [
            _is_canonical(text[comma + 1 : comma + 1 + length])
            for comma, length in zip(commas.tolist(), lengths.tolist())
        ],
        dtype=bool,
    )


def _is_canonical(piece: str) -> bool:
    """Whether ``piece`` parses alone to a value it is the compact encoding of."""
    try:
        value, end = _SCAN_ONCE(piece, 0)
        return end == len(piece) and _compact_json(value) == piece
    except (StopIteration, ValueError, RecursionError):
        return False


# ---------------------------------------------------------------------- #
# Assembly
# ---------------------------------------------------------------------- #
class _Pool:
    """Byte arrays laid end to end; pieces are gathered from the join."""

    def __init__(self) -> None:
        self._parts: list[np.ndarray] = []
        self._size = 0

    def add(self, part: np.ndarray | bytes) -> int:
        """Append ``part``; return its offset in the pool."""
        if isinstance(part, bytes):
            part = np.frombuffer(part, dtype=np.uint8)
        offset = self._size
        self._parts.append(part.reshape(-1))
        self._size += part.size
        return offset

    def gather(self, starts: np.ndarray, lengths: np.ndarray) -> tuple[bytes, np.ndarray]:
        """The pieces (row-major over the ``(events, pieces)`` arrays)
        concatenated, and where each row ends in the result."""
        pool = np.concatenate(self._parts) if self._parts else np.empty(0, np.uint8)
        blob = pool[_ragged_index(starts.reshape(-1), lengths.reshape(-1))].tobytes()
        ends = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths.sum(axis=1), out=ends[1:])
        return blob, ends


def _table(pool: _Pool, entries: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """Add ``entries`` to ``pool``; return their starts and lengths."""
    lengths = np.array([len(entry) for entry in entries], dtype=np.int64)
    base = pool.add(b"".join(entries))
    return base + np.cumsum(lengths) - lengths, lengths


def _varints(pool: _Pool, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add each value's varint to ``pool``; return their starts and lengths."""
    lengths = _extra_varint_bytes(values) + 1
    width = int(lengths.max()) if len(values) else 1
    steps = np.arange(width, dtype=np.int64)
    matrix = (values[:, None] >> (7 * steps)) & 0x7F
    matrix |= np.where(steps < lengths[:, None] - 1, 0x80, 0)
    base = pool.add(matrix.astype(np.uint8))
    return base + width * np.arange(len(values), dtype=np.int64), lengths


def _assemble_binary(
    events: _RunEvents, keep: np.ndarray, deltas: np.ndarray, counts: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """One binary segment per window: header, then each record.

    A record is the timestamp delta, the window's fresh-registry type code
    (first-appearance order), the core byte, then the length-prefixed task
    name and payload.
    """
    window = events.window[keep]
    n = len(window)
    firsts = np.flatnonzero(np.diff(window, prepend=-1))
    codes, registries = _window_codes(window, firsts, events.type_ids[keep], len(events.type_names))
    pool = _Pool()
    starts = np.zeros((n, 7), dtype=np.int64)
    lengths = np.zeros((n, 7), dtype=np.int64)
    # Column 0: the segment header, on each window's first record, encoded
    # as the codec encodes it.
    names = events.type_names
    headers = []
    for registry, count in zip(registries, counts[window[firsts]].tolist()):
        header = _encode_header(
            {
                "version": _VERSION,
                "count": count,
                "registry": dict(zip([names[t] for t in registry], range(len(registry)))),
            }
        )
        headers.append(_MAGIC + struct.pack("<I", len(header)) + header.encode("ascii"))
    header_starts, header_lengths = _table(pool, headers)
    starts[firsts, 0] = header_starts
    lengths[firsts, 0] = header_lengths
    payload_lengths = events.payload_lengths[keep]
    varint_starts, varint_lengths = _varints(pool, np.concatenate((deltas, codes, payload_lengths)))
    starts[:, [1, 2, 5]] = varint_starts.reshape(3, n).T
    lengths[:, [1, 2, 5]] = varint_lengths.reshape(3, n).T
    starts[:, 3] = pool.add(_CORE_BYTES) + events.cores[keep]
    lengths[:, 3] = 1
    task_fields = []
    for name in events.task_names:
        raw = name.encode("utf-8")
        task_fields.append(_encode_varint(len(raw)) + raw)
    task_starts, task_lengths = _table(pool, task_fields)
    task_ids = events.task_ids[keep]
    starts[:, 4] = task_starts[task_ids]
    lengths[:, 4] = task_lengths[task_ids]
    starts[:, 6] = pool.add(events.payloads) + events.payload_starts[keep]
    lengths[:, 6] = payload_lengths
    return pool.gather(starts, lengths)


def _assemble_jsonl(events: _RunEvents, keep: np.ndarray) -> tuple[bytes, np.ndarray]:
    """One JSON line per record, keys sorted: args, core, t, task, type."""
    n = int(keep.sum())
    pool = _Pool()
    starts = np.zeros((n, 6), dtype=np.int64)
    lengths = np.zeros((n, 6), dtype=np.int64)
    head = pool.add(_JSON_HEAD)
    starts[:, 0] = head
    lengths[:, 0] = _JSON_HEAD_LENGTH
    payload_lengths = events.payload_lengths[keep]
    empty = payload_lengths == 0
    starts[:, 1] = np.where(
        empty,
        head + _JSON_HEAD_LENGTH,
        pool.add(events.payloads) + events.payload_starts[keep],
    )
    lengths[:, 1] = np.where(empty, 2, payload_lengths)
    cores = events.cores[keep]
    starts[:, 2] = pool.add(_CORE_POOL) + _CORE_STARTS[cores]
    lengths[:, 2] = _CORE_LENGTHS[cores]
    timestamps = events.timestamps[keep]
    digits = timestamps.astype("S19")
    starts[:, 3] = pool.add(digits.view(np.uint8)) + 19 * np.arange(n, dtype=np.int64)
    lengths[:, 3] = np.searchsorted(_POW10, timestamps, side="right") + 1
    task_starts, task_lengths = _table(
        pool,
        [
            f',"task":{encode_basestring_ascii(name)},"type":'.encode("ascii")
            for name in events.task_names
        ],
    )
    task_ids = events.task_ids[keep]
    starts[:, 4] = task_starts[task_ids]
    lengths[:, 4] = task_lengths[task_ids]
    type_starts, type_lengths = _table(
        pool,
        [f"{encode_basestring_ascii(name)}}}\n".encode("ascii") for name in events.type_names],
    )
    type_ids = events.type_ids[keep]
    starts[:, 5] = type_starts[type_ids]
    lengths[:, 5] = type_lengths[type_ids]
    return pool.gather(starts, lengths)


def _window_codes(
    window: np.ndarray, firsts: np.ndarray, type_ids: np.ndarray, n_types: int
) -> tuple[np.ndarray, list[list[int]]]:
    """Per-window fresh-registry codes, and each window's registry.

    ``firsts`` indexes each window's first event.  A window numbers its
    event types in first-appearance order, as a fresh
    :class:`~repro.trace.event.EventTypeRegistry` does; each registry is
    returned as run-local type ids in code order.
    """
    keys = window * n_types + type_ids
    _, seen = np.unique(keys, return_index=True)
    fresh = np.zeros(len(keys), dtype=bool)
    fresh[seen] = True
    # A first appearance's code: the first appearances before it in its window.
    rank = np.cumsum(fresh)
    rank -= np.repeat(rank[firsts], np.diff(np.append(firsts, len(keys))))
    code_of = np.zeros(int(keys.max()) + 1 if len(keys) else 0, dtype=np.int64)
    code_of[keys[fresh]] = rank[fresh]
    in_order = type_ids[fresh].tolist()
    bounds = np.cumsum(rank[np.append(firsts[1:], len(keys)) - 1] + 1).tolist() if len(keys) else []
    registries = [in_order[a:b] for a, b in zip([0] + bounds[:-1], bounds)]
    return code_of[keys], registries
