"""Streaming columnar ingest: live trace sources as window-batch streams.

Production monitoring means unbounded sources — a trace file still being
appended by the tracing hardware, or a pipe/socket delivering buffer
flushes.  This module is the columnar plane's one windowing machine; a
one-shot read of a complete file is a stream of one chunk:

* :class:`FileTail` — follow a (possibly still-growing, possibly not yet
  created) file, yielding byte chunks as they are appended, with a poll
  interval, an optional idle timeout and a stop event;
* :class:`PushFeed` — a thread-safe byte feed for pipes/sockets: a producer
  thread ``write()``\\ s chunks and the ingest side iterates them through a
  bounded :class:`~repro.trace.pipeline.BoundedHandoff`, so a slow consumer
  exerts backpressure on the producer instead of buffering without bound;
* :class:`StreamingWindowSource` — the heart of the module: consumes byte
  chunks through the resumable decoders
  (:class:`~repro.trace.columns.BinaryColumnsDecoder` /
  :class:`~repro.trace.columns.JsonColumnsDecoder`), cuts windows
  incrementally as events arrive, and emits
  :class:`~repro.trace.batch.WindowBatch` micro-batches that are **bit
  identical** to a one-shot read of the final file — same window extents,
  same registry growth, same byte accounting, same lazily materialised
  events.  Memory stays bounded: decoded events are discarded as soon as
  the batch that owns them has been handed over.

Every inter-stage queue follows the overrun/underrun policy of
:class:`repro.media.bufferqueue.FrameBuffer`: explicit bounded depth,
counted stalls on both ends, and occupancy sampling (see
:class:`~repro.trace.pipeline.HandoffStats`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from ..errors import TraceFormatError, TraceStreamError
from ..testing.faults import corrupt_chunk
from .batch import WindowBatch
from .codec import _MAGIC
from . import stream as _stream
from .columns import BinaryColumnsDecoder, JsonColumnsDecoder, TraceColumns
from .event import EventTypeRegistry
from .pipeline import BoundedHandoff, HandoffStats
from .stream import (
    ColumnWindowLayout,
    WindowPolicy,
    _build_column_batch,
    _ColumnCodeMapper,
)

__all__ = [
    "FileTail",
    "PushFeed",
    "StreamRecipe",
    "StreamStats",
    "StreamingWindowSource",
]


# ---------------------------------------------------------------------- #
# Byte-chunk sources
# ---------------------------------------------------------------------- #
class FileTail:
    """Iterate the bytes of a possibly still-growing trace file.

    Yields chunks of at most ``chunk_bytes`` as the file grows.  The
    iteration ends when ``stop`` is set or when the file has not grown for
    ``idle_timeout_s`` seconds (``None`` follows forever, like
    ``tail -f``).  A file that does not exist yet is waited for under the
    same idle/stop rules, so a monitor can be pointed at a trace path
    before the tracer creates it.
    """

    def __init__(
        self,
        path: "Path | str",
        poll_interval_s: float = 0.05,
        idle_timeout_s: float | None = None,
        stop: threading.Event | None = None,
        chunk_bytes: int = 1 << 20,
    ) -> None:
        if poll_interval_s <= 0:
            raise TraceStreamError(
                f"poll_interval_s must be positive (got {poll_interval_s})"
            )
        if idle_timeout_s is not None and idle_timeout_s < 0:
            raise TraceStreamError(
                f"idle_timeout_s must be >= 0 or None (got {idle_timeout_s})"
            )
        if chunk_bytes <= 0:
            raise TraceStreamError(
                f"chunk_bytes must be positive (got {chunk_bytes})"
            )
        self.path = Path(path)
        self.poll_interval_s = float(poll_interval_s)
        self.idle_timeout_s = (
            None if idle_timeout_s is None else float(idle_timeout_s)
        )
        self.chunk_bytes = int(chunk_bytes)
        self._stop = stop if stop is not None else threading.Event()
        self.bytes_read = 0

    def stop(self) -> None:
        """Ask the iteration to end at the next poll."""
        self._stop.set()

    def __iter__(self) -> Iterator[bytes]:
        handle = None
        deadline: float | None = None
        try:
            while not self._stop.is_set():
                if handle is None and self.path.exists():
                    handle = self.path.open("rb")
                if handle is not None:
                    data = handle.read(self.chunk_bytes)
                    if data:
                        deadline = None
                        self.bytes_read += len(data)
                        yield data
                        continue
                if self.idle_timeout_s is not None:
                    now = time.monotonic()
                    if deadline is None:
                        deadline = now + self.idle_timeout_s
                    if now >= deadline:
                        return
                time.sleep(self.poll_interval_s)
        finally:
            if handle is not None:
                handle.close()


class PushFeed:
    """Thread-safe byte feed with backpressure, for pipes and sockets.

    A producer thread (reading a socket, a subprocess pipe, …) calls
    :meth:`write` with byte chunks and :meth:`close` at end-of-stream; the
    ingest side iterates the feed.  The hand-off queue is bounded, so a
    producer that outruns the monitor blocks in :meth:`write` (one counted
    stall per wait) instead of buffering without bound.  Abandoning the
    consuming iterator unblocks any stuck writer with a
    :class:`~repro.errors.TraceStreamError`.
    """

    _DONE = ("done", None)

    def __init__(self, depth: int = 8, stats: HandoffStats | None = None) -> None:
        self._handoff: BoundedHandoff = BoundedHandoff(depth, stats=stats)
        self._closed = False
        self._abandoned = threading.Event()

    @property
    def stats(self) -> HandoffStats:
        """Occupancy/stall counters of the feed's hand-off queue."""
        return self._handoff.stats

    def write(self, data: bytes) -> None:
        """Queue ``data``, blocking while the monitor is ``depth`` behind."""
        if self._closed:
            raise TraceStreamError("cannot write to a closed feed")
        if not data:
            return
        if not self._handoff.put(("item", bytes(data)), stop=self._abandoned):
            raise TraceStreamError("feed consumer is gone (iterator abandoned)")

    def close(self) -> None:
        """Mark end-of-stream (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._handoff.put(self._DONE, stop=self._abandoned)

    def __iter__(self) -> Iterator[bytes]:
        try:
            while True:
                kind, value = self._handoff.get()
                if kind == "done":
                    return
                yield value
        finally:
            self._abandoned.set()
            self._handoff.drain()


# ---------------------------------------------------------------------- #
# Streaming windowing
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class StreamRecipe:
    """Windowing parameters of a streaming source (picklable).

    ``format`` applies to byte feeds only: ``"auto"`` sniffs the first
    four bytes for the binary magic, exactly like the file reader.
    ``window_duration_us`` left at ``None`` defers to the monitor
    configuration at activation, mirroring
    :class:`~repro.trace.stream.ColumnarWindowSource`.

    ``on_corrupt`` selects how the chunk decoders treat mangled records:
    ``"raise"`` (default) fails the stream on the first corrupt byte,
    ``"skip"`` quarantines the damaged region, resynchronises, and counts
    the loss in :class:`StreamStats` (``corrupt_records`` /
    ``corrupt_offsets``).
    """

    format: str = "auto"
    policy: WindowPolicy = WindowPolicy.BY_DURATION
    window_duration_us: int | None = None
    events_per_window: int = 256
    start_us: int = 0
    emit_empty: bool = True
    on_corrupt: str = "raise"

    def __post_init__(self) -> None:
        if self.format not in {"auto", "binary", "jsonl"}:
            raise TraceStreamError(f"unknown stream format: {self.format!r}")
        if self.window_duration_us is not None and self.window_duration_us <= 0:
            raise TraceStreamError("window_duration_us must be positive")
        if self.events_per_window <= 0:
            raise TraceStreamError("events_per_window must be positive")
        if self.on_corrupt not in {"raise", "skip"}:
            raise TraceStreamError(
                f"on_corrupt must be 'raise' or 'skip', got {self.on_corrupt!r}"
            )


@dataclass
class StreamStats:
    """Progress and memory-bound accounting of one streaming source."""

    chunks: int = 0
    events: int = 0
    windows: int = 0
    batches: int = 0
    #: High-water mark of decoded events buffered at once — the quantity
    #: the bounded-memory guarantee is about: it tracks batch size and
    #: window extent, not source size.
    peak_buffered_events: int = 0
    feed: HandoffStats | None = None
    #: Corrupt regions skipped by the decoder (``on_corrupt="skip"`` only):
    #: count, plus where each began — absolute byte offsets for binary
    #: streams, 1-based line numbers for JSON-lines streams.
    corrupt_records: int = 0
    corrupt_offsets: "tuple[int, ...]" = ()


def _windows(
    layout: ColumnWindowLayout, w0: int, w1: int, shift: int = 0
) -> ColumnWindowLayout:
    """Windows ``w0 <= w < w1`` of a layout, event offsets moved by ``shift``."""
    offsets = layout.event_offsets[w0 : w1 + 1]
    return ColumnWindowLayout(
        event_offsets=offsets + shift if shift else offsets,
        indices=layout.indices[w0:w1],
        start_us=layout.start_us[w0:w1],
        end_us=layout.end_us[w0:w1],
    )


def _joined(head: ColumnWindowLayout, tail: ColumnWindowLayout) -> ColumnWindowLayout:
    """Two contiguous layouts as one (``tail`` starts where ``head`` ends)."""
    if not head.n_windows:
        return tail
    return ColumnWindowLayout(
        event_offsets=np.concatenate((head.event_offsets[:-1], tail.event_offsets)),
        indices=np.concatenate((head.indices, tail.indices)),
        start_us=np.concatenate((head.start_us, tail.start_us)),
        end_us=np.concatenate((head.end_us, tail.end_us)),
    )


class StreamingWindowSource:
    """A live trace stream as monitor-ready window batches, bounded memory.

    Construct from ``byte_chunks`` (any iterable of byte chunks — a
    :class:`FileTail`, a :class:`PushFeed`, a socket reader) or from
    ``columns_chunks`` (already-decoded :class:`TraceColumns` chunks, as
    shipped over the parallel fleet's per-shard channels).  A one-shot
    read is this source over one chunk, ``columns_chunks=[columns]``
    (:class:`~repro.trace.stream.ColumnarWindowSource`).  The source is
    single-pass and duck-types
    :meth:`~repro.trace.stream.ColumnarWindowSource.batches`, so it is
    accepted anywhere a fleet shard is.

    Each chunk is windowed by one call of the array kernel
    (:func:`~repro.trace.stream.column_windows_by_duration` /
    :func:`~repro.trace.stream.column_windows_by_count`) over the events
    not yet in a completed window, continuing from the carried window
    index and slot start / boundary timestamp; batches come from the one
    columnar batch builder.  The emitted batches are therefore
    bit-identical to a one-shot read of the final stream contents, fed in
    any chunking: same window layout, same registry growth order, same
    ``dims``/byte-size accounting, same lazily materialised events.
    Decoded events are released once the batch owning them has been
    yielded, so the buffered high-water mark
    (``stats.peak_buffered_events``) scales with the chunk size plus
    ``batch_size`` times the window event count — never with the stream
    length.
    """

    def __init__(
        self,
        byte_chunks: Iterable[bytes] | None = None,
        *,
        columns_chunks: Iterable[TraceColumns] | None = None,
        recipe: StreamRecipe | None = None,
        stats: StreamStats | None = None,
    ) -> None:
        if (byte_chunks is None) == (columns_chunks is None):
            raise TraceStreamError(
                "exactly one of byte_chunks / columns_chunks must be given"
            )
        self.recipe = recipe if recipe is not None else StreamRecipe()
        self.stats = stats if stats is not None else StreamStats()
        self._byte_chunks = byte_chunks
        self._columns_chunks = columns_chunks
        self._columns_iter: Iterator[TraceColumns] | None = None
        self._exhausted = False
        self._batches_started = False
        self._duration: int | None = None
        self._last_ts: int | None = None
        self._events_total = 0
        # Decoded events not yet handed over, over the stream-global type
        # table (first-appearance order across chunks); element 0 is
        # absolute event ``_base``.  Unless a chunk is adopted as is, these
        # columns hold arrays only: the window kernels and the byte
        # accounting read nothing else, and events are materialised from
        # the retained chunks (keyed by absolute start).
        self._buffer = TraceColumns.from_events(())
        self._base = 0
        self._chunks: List[Tuple[int, TraceColumns]] = []
        # Completed windows, offsets into ``_buffer`` (none yet: the empty
        # layout); those before ``_cursor`` have been handed over.  The
        # last offset is the first event not yet in a completed window.
        self._layout = _stream.column_windows_by_count(self._buffer, 1)
        self._cursor = 0
        # Kernel carry: the next window's index, the start of the first
        # open duration slot, the last timestamp of the last count window.
        self._next_index = 0
        self._next_start_us = self.recipe.start_us
        self._boundary_us: int | None = None

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def follow(
        cls,
        path: "Path | str",
        *,
        recipe: StreamRecipe | None = None,
        poll_interval_s: float = 0.05,
        idle_timeout_s: float | None = None,
        stop: threading.Event | None = None,
        chunk_bytes: int = 1 << 20,
        stats: StreamStats | None = None,
    ) -> "StreamingWindowSource":
        """Follow ``path`` as it grows (see :class:`FileTail`)."""
        tail = FileTail(
            path,
            poll_interval_s=poll_interval_s,
            idle_timeout_s=idle_timeout_s,
            stop=stop,
            chunk_bytes=chunk_bytes,
        )
        source = cls(byte_chunks=tail, recipe=recipe, stats=stats)
        source.tail = tail
        return source

    # ------------------------------------------------------------------ #
    # Chunk intake
    # ------------------------------------------------------------------ #
    def _ensure_started(self, default_window_duration_us: int) -> None:
        if self._columns_iter is not None:
            return
        duration = (
            self.recipe.window_duration_us
            if self.recipe.window_duration_us is not None
            else default_window_duration_us
        )
        if duration <= 0:
            raise TraceStreamError("window_duration_us must be positive")
        self._duration = int(duration)
        if self._columns_chunks is not None:
            self._columns_iter = iter(self._columns_chunks)
        else:
            self._columns_iter = self._decode_chunks(self._byte_chunks)

    def _decode_chunks(self, byte_chunks: Iterable[bytes]) -> Iterator[TraceColumns]:
        fmt = self.recipe.format
        head = b""
        decoder = None
        for raw in byte_chunks:
            if not raw:
                continue
            data = corrupt_chunk("stream.chunk", bytes(raw))
            if decoder is None:
                head += data
                if fmt == "auto" and len(head) < 4:
                    continue
                decoder = self._make_decoder(head, fmt)
                data, head = head, b""
            columns = decoder.feed(data)
            self._note_corruption(decoder)
            if len(columns):
                yield columns
        if decoder is None:
            if not head:
                # Streaming analogue of the reader's empty-file error: the
                # stream *ended* (stop / idle timeout) without any bytes.
                raise TraceFormatError("empty trace stream")
            decoder = self._make_decoder(head, fmt)
            columns = decoder.feed(head)
            self._note_corruption(decoder)
            if len(columns):
                yield columns
        tail = decoder.finish()
        self._note_corruption(decoder)
        if len(tail):
            yield tail

    def _make_decoder(
        self, head: bytes, fmt: str
    ) -> "BinaryColumnsDecoder | JsonColumnsDecoder":
        if fmt == "auto":
            fmt = "binary" if _MAGIC.startswith(head[:4]) else "jsonl"
        on_corrupt = self.recipe.on_corrupt
        if fmt == "binary":
            return BinaryColumnsDecoder(on_corrupt=on_corrupt)
        return JsonColumnsDecoder(on_corrupt=on_corrupt)

    def _note_corruption(
        self, decoder: "BinaryColumnsDecoder | JsonColumnsDecoder"
    ) -> None:
        """Mirror the decoder's corruption tally into the stream stats."""
        if decoder.corrupt_records != self.stats.corrupt_records:
            self.stats.corrupt_records = decoder.corrupt_records
            self.stats.corrupt_offsets = decoder.corrupt_offsets

    def columns_chunks(self) -> Iterator[TraceColumns]:
        """The decoded chunk stream itself (single-pass; for shard feeders).

        Consuming this bypasses the windowing machinery — used by the
        parallel fleet, whose parent process pumps decoded chunks over a
        bounded channel while the worker rebuilds an identical source from
        them (:meth:`with_columns_chunks`).
        """
        if self._batches_started or self._columns_iter is not None:
            raise TraceStreamError("stream already consumed")
        self._batches_started = True
        if self._columns_chunks is not None:
            return iter(self._columns_chunks)
        return self._decode_chunks(self._byte_chunks)

    def with_columns_chunks(
        self, columns_chunks: Iterable[TraceColumns]
    ) -> "StreamingWindowSource":
        """A fresh source with the same recipe over pre-decoded chunks."""
        return StreamingWindowSource(
            columns_chunks=columns_chunks, recipe=self.recipe
        )

    def _pump(self) -> bool:
        """Advance by one chunk; ``False`` once exhausted (and finalised)."""
        if self._exhausted:
            return False
        assert self._columns_iter is not None
        try:
            chunk = next(self._columns_iter)
        except StopIteration:
            self._exhausted = True
            self._cut_windows(final=True)
            return False
        self.stats.chunks += 1
        if len(chunk):
            self._extend(chunk)
        self._cut_windows(final=False)
        if len(self._buffer) > self.stats.peak_buffered_events:
            self.stats.peak_buffered_events = len(self._buffer)
        return True

    def _extend(self, chunk: TraceColumns) -> None:
        first_ts = int(chunk.timestamps_us[0])
        if self._last_ts is not None and first_ts < self._last_ts:
            raise TraceStreamError(
                "event stream is not sorted by timestamp "
                f"({first_ts} after {self._last_ts})"
            )
        if self._last_ts is None and first_ts < self.recipe.start_us:
            raise TraceStreamError(
                f"event at t={first_ts} precedes stream start "
                f"{self.recipe.start_us}"
            )
        names, codes = self._global_codes(chunk)
        # Drop what was handed over.  Slicing keeps the old arrays alive
        # only until the concatenation below, so compaction never copies.
        cut = int(self._layout.event_offsets[self._cursor])
        old = self._buffer
        if cut == len(old):
            adopt = codes is chunk.type_codes and names == chunk.type_names
            self._buffer = chunk if adopt else TraceColumns(
                chunk.timestamps_us, codes, chunk.cores, names, chunk.static_sizes, "events"
            )
        else:
            self._buffer = TraceColumns(
                np.concatenate((old.timestamps_us[cut:], chunk.timestamps_us)),
                np.concatenate((old.type_codes[cut:], codes)),
                np.concatenate((old.cores[cut:], chunk.cores)),
                names,
                np.concatenate((old.static_sizes[cut:], chunk.static_sizes)),
                "events",
            )
        self._layout = _windows(
            self._layout, self._cursor, self._layout.n_windows, -cut
        )
        self._cursor = 0
        self._base += cut
        self._chunks.append((self._events_total, chunk))
        self._events_total += len(chunk)
        self.stats.events += len(chunk)
        self._last_ts = int(chunk.timestamps_us[-1])

    def _global_codes(
        self, chunk: TraceColumns
    ) -> Tuple[Tuple[str, ...], np.ndarray]:
        """The stream-global type table grown by ``chunk``, and its codes."""
        names = self._buffer.type_names
        if chunk.type_names[: len(names)] == names:
            # The decoders' chunks carry the stream's cumulative type
            # table, so their codes already are stream-global.
            return chunk.type_names, chunk.type_codes
        if names[: len(chunk.type_names)] == chunk.type_names:
            return names, chunk.type_codes
        index = {name: code for code, name in enumerate(names)}
        for name in chunk.type_names:
            index.setdefault(name, len(index))
        remap = np.array([index[name] for name in chunk.type_names], dtype=np.int32)
        return tuple(index), remap[chunk.type_codes]

    # ------------------------------------------------------------------ #
    # Windowing
    # ------------------------------------------------------------------ #
    def _cut_windows(self, final: bool) -> None:
        """Window the events not yet in a completed window.

        One kernel call over the buffered tail, continuing from the
        carried state.  A duration slot completes once an event at or
        after its end has arrived, a count window once it is full; at
        end-of-stream the open window completes too.
        """
        if not self._events_total and not final:
            return
        first = int(self._layout.event_offsets[-1])
        tail = self._buffer
        if first:
            tail = TraceColumns(
                tail.timestamps_us[first:],
                tail.type_codes[first:],
                tail.cores[first:],
                tail.type_names,
                tail.static_sizes[first:],
                "events",
            )
        policy = self.recipe.policy
        if policy is WindowPolicy.BY_DURATION:
            assert self._duration is not None
            # Resolved through the module at call time, so a wrapper
            # installed on ``stream.column_windows_by_duration`` sees it.
            cut = _stream.column_windows_by_duration(
                tail,
                self._duration,
                self._next_start_us,
                self.recipe.emit_empty,
                first_index=self._next_index,
            )
            # The slot holding the last event stays open until then.
            complete = cut.n_windows if final else cut.n_windows - 1
            if complete < cut.n_windows:
                self._next_start_us = int(cut.start_us[complete])
        elif policy is WindowPolicy.BY_COUNT:
            per_window = self.recipe.events_per_window
            cut = _stream.column_windows_by_count(
                tail,
                per_window,
                self.recipe.start_us,
                first_index=self._next_index,
                boundary_us=self._boundary_us,
            )
            complete = cut.n_windows if final else len(tail) // per_window
            if complete:
                self._boundary_us = int(cut.end_us[complete - 1]) - 1
        else:
            raise TraceStreamError(
                f"unknown window policy: {self.recipe.policy!r}"
            )
        if complete:
            self._layout = _joined(self._layout, _windows(cut, 0, complete, first))
            self._next_index += complete
            self.stats.windows += complete

    def _available(self) -> int:
        return self._layout.n_windows - self._cursor

    # ------------------------------------------------------------------ #
    # Consumption
    # ------------------------------------------------------------------ #
    def reference_batch(
        self,
        registry: EventTypeRegistry,
        reference_duration_us: int,
        default_window_duration_us: int = 40_000,
    ) -> WindowBatch:
        """Consume the stream's reference prefix as one columnar batch.

        The prefix is every window whose extent ends at or before
        ``start_us + reference_duration_us``, the windows
        :meth:`~repro.trace.stream.TraceStream.split_reference` returns.
        The batch holds what reference learning needs, type codes and
        counts, and materialises no event; unseen types grow ``registry``
        in event order.  Must be called before :meth:`batches`, which
        continues with the first live window.
        """
        if reference_duration_us <= 0:
            raise TraceStreamError("reference_duration_us must be positive")
        if self._batches_started:
            raise TraceStreamError("stream already consumed")
        self._ensure_started(default_window_duration_us)
        boundary = self.recipe.start_us + reference_duration_us
        while not self._available() or self._layout.end_us[-1] <= boundary:
            if not self._pump():
                break
        ends = self._layout.end_us[self._cursor :]
        count = int(np.searchsorted(ends, boundary, side="right"))
        return self._take(registry, _ColumnCodeMapper(registry), count)

    def _skip_windows(self, n_windows: int) -> None:
        """Consume the next ``n_windows`` windows without building them.

        Used by :class:`~repro.trace.stream.ColumnarWindowSource` to skip
        an already-learned reference prefix; global window indices are
        kept.
        """
        if n_windows < 0:
            raise TraceStreamError(f"first_window {n_windows} out of range")
        while self._available() < n_windows and self._pump():
            pass
        if self._available() < n_windows:
            raise TraceStreamError(
                f"first_window {n_windows} out of range for "
                f"{self._next_index} windows"
            )
        self._hand_over(self._cursor + n_windows)

    def batches(
        self,
        registry: EventTypeRegistry,
        batch_size: int,
        default_window_duration_us: int = 40_000,
    ) -> Iterator[WindowBatch]:
        """Yield the stream's window batches against ``registry``.

        Single-pass: pulls chunks from the source on demand, yields a
        batch as soon as ``batch_size`` windows have completed (only the
        final batch may be shorter), and releases buffered events once
        their batch is out.  Signature-compatible with
        :meth:`~repro.trace.stream.ColumnarWindowSource.batches`, so the
        fleet treats both source kinds uniformly.
        """
        if batch_size <= 0:
            raise TraceStreamError("batch_size must be positive")
        if self._batches_started:
            raise TraceStreamError("stream already consumed")
        self._batches_started = True
        self._ensure_started(default_window_duration_us)
        return self._generate(registry, batch_size)

    def _generate(
        self, registry: EventTypeRegistry, batch_size: int
    ) -> Iterator[WindowBatch]:
        mapper = _ColumnCodeMapper(registry)
        while True:
            while self._available() >= batch_size:
                yield self._take(registry, mapper, batch_size)
            if not self._pump():
                break
        while self._available():
            yield self._take(registry, mapper, min(batch_size, self._available()))

    def _take(
        self, registry: EventTypeRegistry, mapper: _ColumnCodeMapper, n_windows: int
    ) -> WindowBatch:
        """Hand over the next ``n_windows`` completed windows as a batch."""
        w0 = self._cursor
        w1 = w0 + n_windows
        offsets = self._layout.event_offsets
        batch = _build_column_batch(
            self._buffer,
            self._layout,
            registry,
            mapper,
            w0,
            w1,
            self._sources(int(offsets[w0]), int(offsets[w1])),
        )
        self._hand_over(w1)
        self.stats.batches += 1
        return batch

    def _hand_over(self, cursor: int) -> None:
        """Mark the windows before ``cursor`` handed over.

        Chunks holding only their events are released at once, before the
        next chunk is decoded; the buffered arrays go at the next intake.
        """
        self._cursor = cursor
        done = self._base + int(self._layout.event_offsets[cursor])
        self._chunks = [
            (start, chunk)
            for start, chunk in self._chunks
            if start + len(chunk) > done
        ]

    def _sources(self, lo: int, hi: int) -> list[Tuple[int, TraceColumns]]:
        """The retained chunks holding buffer positions ``lo <= i < hi``,
        each with the buffer position of its first event (the batch's span
        handle; see :func:`~repro.trace.stream._build_column_batch`)."""
        base = self._base
        return [
            (start - base, chunk)
            for start, chunk in self._chunks
            if start - base < hi and start - base + len(chunk) > lo
        ]
