"""Streaming access to traces: turning an event stream into window stream.

The tracing hardware delivers events grouped by buffer flushes; the monitor
consumes them window by window.  Two windowing policies are provided:

* :func:`windows_by_duration` — fixed time windows (the paper's experiment
  uses 40 ms windows);
* :func:`windows_by_count` — fixed number of events per window (the paper's
  "windows of N consecutive events" description, N tied to the hardware
  buffer size).

:class:`TraceStream` wraps an event iterable and exposes both policies plus a
few conveniences (peeking, splitting a reference prefix from the remainder)
used by the online monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..errors import TraceFormatError, TraceStreamError
from .batch import WindowBatch, batch_windows
from .columns import TraceColumns, encoded_window_sizes_columns
from .event import EventTypeRegistry, TraceEvent
from .window import TraceWindow

if TYPE_CHECKING:
    from .streaming import StreamingWindowSource

__all__ = [
    "WindowPolicy",
    "windows_by_duration",
    "windows_by_count",
    "TraceStream",
    "ColumnWindowLayout",
    "ColumnarWindowSource",
    "column_windows_by_duration",
    "column_windows_by_count",
    "iter_column_batches",
    "batches_from_layout",
    "reference_batch",
    "reference_window_count",
    "materialize_layout_windows",
]


class WindowPolicy(str, Enum):
    """How a stream of events is cut into windows."""

    BY_DURATION = "by_duration"
    BY_COUNT = "by_count"


def _check_monotonic(previous: int | None, event: TraceEvent) -> int:
    if previous is not None and event.timestamp_us < previous:
        raise TraceStreamError(
            "event stream is not sorted by timestamp "
            f"({event.timestamp_us} after {previous})"
        )
    return event.timestamp_us


def windows_by_duration(
    events: Iterable[TraceEvent],
    window_duration_us: int,
    start_us: int = 0,
    emit_empty: bool = True,
) -> Iterator[TraceWindow]:
    """Cut ``events`` into consecutive fixed-duration windows.

    Parameters
    ----------
    events:
        Timestamp-ordered events.
    window_duration_us:
        Window length in microseconds; must be positive.
    start_us:
        Timestamp of the start of window 0.
    emit_empty:
        When ``True`` (default), windows with no events are still emitted so
        window indices map directly to wall-clock time — this matters for
        ground-truth labelling.  When ``False``, empty windows are skipped
        (their indices are skipped as well).
    """
    if window_duration_us <= 0:
        raise TraceStreamError("window_duration_us must be positive")

    index = 0
    window_start = start_us
    window_end = start_us + window_duration_us
    pending: list[TraceEvent] = []
    previous: int | None = None

    for event in events:
        previous = _check_monotonic(previous, event)
        if event.timestamp_us < window_start:
            raise TraceStreamError(
                f"event at t={event.timestamp_us} precedes stream start {window_start}"
            )
        while event.timestamp_us >= window_end:
            if pending or emit_empty:
                yield TraceWindow(index, window_start, window_end, tuple(pending))
                index += 1
            pending = []
            window_start = window_end
            window_end += window_duration_us
        pending.append(event)

    if pending or (emit_empty and index == 0):
        yield TraceWindow(index, window_start, window_end, tuple(pending))


def windows_by_count(
    events: Iterable[TraceEvent],
    events_per_window: int,
    start_us: int = 0,
) -> Iterator[TraceWindow]:
    """Cut ``events`` into windows of ``events_per_window`` consecutive events.

    This mirrors the paper's description of the tracing hardware delivering
    the trace by buffers of ``N`` events.  The final, possibly shorter,
    window is emitted as well.
    """
    if events_per_window <= 0:
        raise TraceStreamError("events_per_window must be positive")

    index = 0
    pending: list[TraceEvent] = []
    previous: int | None = None
    # Start of the window being filled; ``None`` after a boundary, meaning
    # "derive it from boundary_ts and this window's first event".
    window_start: int | None = start_us
    boundary_ts = start_us

    def _window_start() -> int:
        if window_start is not None:
            return window_start
        # The stream may contain further events carrying the boundary
        # timestamp (hardware buffers flush several events with one clock
        # value); they must fall inside this window's half-open extent, so
        # only then does the window start *at* the boundary timestamp.
        # Otherwise the historical contiguous extent — one past the previous
        # window's last event — is preserved.
        if pending[0].timestamp_us == boundary_ts:
            return boundary_ts
        return boundary_ts + 1

    for event in events:
        previous = _check_monotonic(previous, event)
        pending.append(event)
        if len(pending) == events_per_window:
            last_ts = pending[-1].timestamp_us
            yield TraceWindow(index, _window_start(), last_ts + 1, tuple(pending))
            index += 1
            window_start = None
            boundary_ts = last_ts
            pending = []

    if pending:
        yield TraceWindow(
            index, _window_start(), pending[-1].timestamp_us + 1, tuple(pending)
        )


class TraceStream:
    """A (possibly lazily generated) stream of trace events.

    The stream is single-pass by design: it wraps an iterator the same way
    the real system wraps the tracing hardware output.  Materialising the
    whole stream (``list(stream.events())``) is possible but defeats the
    purpose — the monitor is meant to process it online.
    """

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self._iterator = iter(events)
        self._consumed = False

    @classmethod
    def from_windows(cls, windows: Iterable[TraceWindow]) -> "TraceStream":
        """Flatten windows back into an event stream."""

        def _generate() -> Iterator[TraceEvent]:
            for window in windows:
                yield from window.events

        return cls(_generate())

    def _take_iterator(self) -> Iterator[TraceEvent]:
        if self._consumed:
            raise TraceStreamError("trace stream already consumed")
        self._consumed = True
        return self._iterator

    def events(self) -> Iterator[TraceEvent]:
        """Iterate over the raw events (consumes the stream)."""
        return self._take_iterator()

    def windows(
        self,
        policy: WindowPolicy = WindowPolicy.BY_DURATION,
        window_duration_us: int = 40_000,
        events_per_window: int = 256,
        start_us: int = 0,
        emit_empty: bool = True,
    ) -> Iterator[TraceWindow]:
        """Iterate over windows according to ``policy`` (consumes the stream)."""
        events = self._take_iterator()
        if policy is WindowPolicy.BY_DURATION:
            return windows_by_duration(
                events, window_duration_us, start_us=start_us, emit_empty=emit_empty
            )
        if policy is WindowPolicy.BY_COUNT:
            return windows_by_count(events, events_per_window, start_us=start_us)
        raise TraceStreamError(f"unknown window policy: {policy!r}")

    def window_batches(
        self,
        registry: EventTypeRegistry,
        batch_size: int = 64,
        policy: WindowPolicy = WindowPolicy.BY_DURATION,
        window_duration_us: int = 40_000,
        events_per_window: int = 256,
        start_us: int = 0,
        emit_empty: bool = True,
    ) -> Iterator[WindowBatch]:
        """Iterate over columnar window micro-batches (consumes the stream).

        Windows are cut exactly as by :meth:`windows` and grouped into
        :class:`~repro.trace.batch.WindowBatch` chunks of ``batch_size`` for
        the vectorized scoring plane; the final batch may be shorter.
        """
        windows = self.windows(
            policy,
            window_duration_us=window_duration_us,
            events_per_window=events_per_window,
            start_us=start_us,
            emit_empty=emit_empty,
        )
        return batch_windows(windows, registry, batch_size=batch_size)

    def split_reference(
        self,
        reference_duration_us: int,
        window_duration_us: int = 40_000,
        start_us: int = 0,
    ) -> tuple[list[TraceWindow], Iterator[TraceWindow]]:
        """Split the stream into a reference prefix and the live remainder.

        Returns the list of windows covering ``[start_us, start_us +
        reference_duration_us)`` — used to learn the reference model — and a
        lazy iterator over the remaining windows, whose indices continue
        where the reference stopped.
        """
        if reference_duration_us <= 0:
            raise TraceStreamError("reference_duration_us must be positive")
        window_iterator = self.windows(
            WindowPolicy.BY_DURATION,
            window_duration_us=window_duration_us,
            start_us=start_us,
            emit_empty=True,
        )
        boundary = start_us + reference_duration_us
        reference: list[TraceWindow] = []
        first_live: TraceWindow | None = None
        for window in window_iterator:
            if window.end_us <= boundary:
                reference.append(window)
            else:
                first_live = window
                break

        def _remainder() -> Iterator[TraceWindow]:
            if first_live is not None:
                yield first_live
                yield from window_iterator

        return reference, _remainder()

    @staticmethod
    def merge(streams: Sequence["TraceStream"]) -> "TraceStream":
        """Merge several timestamp-ordered streams into one ordered stream."""
        import heapq

        def _generate() -> Iterator[TraceEvent]:
            iterators = [stream._take_iterator() for stream in streams]
            yield from heapq.merge(*iterators, key=lambda event: event.timestamp_us)

        return TraceStream(_generate())

    def filtered(self, predicate: Callable[[TraceEvent], bool]) -> "TraceStream":
        """Return a new stream containing only events matching ``predicate``."""
        events = self._take_iterator()
        return TraceStream(event for event in events if predicate(event))


# ---------------------------------------------------------------------- #
# Array-native windowing over TraceColumns
# ---------------------------------------------------------------------- #
class ColumnWindowLayout(NamedTuple):
    """Window boundaries of a columnar trace, as flat arrays.

    ``event_offsets`` is CSR-style (length ``n_windows + 1``): window ``w``
    owns events ``event_offsets[w] <= i < event_offsets[w + 1]`` of the
    source :class:`~repro.trace.columns.TraceColumns`.  ``indices`` /
    ``start_us`` / ``end_us`` mirror the per-window metadata the object
    windowing functions stamp on each :class:`TraceWindow`.
    """

    event_offsets: np.ndarray
    indices: np.ndarray
    start_us: np.ndarray
    end_us: np.ndarray

    @property
    def n_windows(self) -> int:
        """Number of windows in the layout."""
        return len(self.indices)


def _check_sorted_columns(timestamps: np.ndarray) -> None:
    if len(timestamps) > 1:
        bad = np.flatnonzero(timestamps[1:] < timestamps[:-1])
        if bad.size:
            position = int(bad[0])
            raise TraceStreamError(
                "event stream is not sorted by timestamp "
                f"({int(timestamps[position + 1])} after {int(timestamps[position])})"
            )


def _layout(
    offsets: np.ndarray, starts: np.ndarray, ends: np.ndarray, first_index: int
) -> ColumnWindowLayout:
    return ColumnWindowLayout(
        event_offsets=offsets,
        indices=np.arange(first_index, first_index + len(starts), dtype=np.int64),
        start_us=starts,
        end_us=ends,
    )


def column_windows_by_duration(
    columns: TraceColumns,
    window_duration_us: int,
    start_us: int = 0,
    emit_empty: bool = True,
    *,
    first_index: int = 0,
) -> ColumnWindowLayout:
    """Array-native mirror of :func:`windows_by_duration`.

    One ``searchsorted`` over the timestamp column replaces the per-event
    Python loop; the resulting layout describes exactly the windows the
    object path would emit (same indices, extents and event spans, the
    equivalence suite asserts it window by window).

    ``first_index`` numbers the first window.  A streaming source that
    has already cut windows passes its running window count here and the
    start of its first open slot as ``start_us``, so the kernel continues
    the stream where the previous call stopped.
    """
    if window_duration_us <= 0:
        raise TraceStreamError("window_duration_us must be positive")
    timestamps = columns.timestamps_us
    if len(timestamps):
        _check_sorted_columns(timestamps)
        if int(timestamps[0]) < start_us:
            raise TraceStreamError(
                f"event at t={int(timestamps[0])} precedes stream start {start_us}"
            )
        n_slots = int((int(timestamps[-1]) - start_us) // window_duration_us) + 1
    else:
        n_slots = 1 if emit_empty else 0
    bounds = start_us + window_duration_us * np.arange(n_slots + 1, dtype=np.int64)
    offsets = np.searchsorted(timestamps, bounds, side="left").astype(np.int64)
    starts = bounds[:-1]
    ends = bounds[1:]
    if not emit_empty:
        keep = np.flatnonzero(np.diff(offsets) > 0)
        # Dropped slots are empty (zero-length spans), so the kept spans
        # stay contiguous and the CSR offsets can simply be re-chained.
        offsets = np.append(offsets[keep], offsets[-1])
        starts = starts[keep]
        ends = ends[keep]
    return _layout(offsets, starts, ends, first_index)


def column_windows_by_count(
    columns: TraceColumns,
    events_per_window: int,
    start_us: int = 0,
    *,
    first_index: int = 0,
    boundary_us: int | None = None,
) -> ColumnWindowLayout:
    """Array-native mirror of :func:`windows_by_count`.

    Strided offsets replace the per-event accumulation loop; the window
    extents reproduce the duplicate-boundary-timestamp semantics of the
    object path (a window starts *at* the previous window's last timestamp
    exactly when its first event carries that timestamp, otherwise one
    microsecond past it).

    ``first_index`` numbers the first window and ``boundary_us`` is the
    last timestamp of the window cut before it: a streaming source passes
    both to continue the stream, and the first window then starts like
    every later one instead of at ``start_us``.
    """
    if events_per_window <= 0:
        raise TraceStreamError("events_per_window must be positive")
    timestamps = columns.timestamps_us
    n = len(timestamps)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return _layout(np.zeros(1, dtype=np.int64), empty, empty, first_index)
    _check_sorted_columns(timestamps)
    n_windows = -(-n // events_per_window)
    offsets = np.minimum(
        np.arange(n_windows + 1, dtype=np.int64) * events_per_window, n
    )
    lasts = timestamps[offsets[1:] - 1]
    ends = lasts + 1
    firsts = timestamps[offsets[:-1]]
    boundary = np.concatenate(([boundary_us or 0], lasts[:-1]))
    starts = np.where(firsts == boundary, boundary, boundary + 1)
    if boundary_us is None:
        starts[0] = start_us
        if int(timestamps[0]) < start_us:
            raise TraceFormatError(
                f"event at t={int(timestamps[0])} outside window "
                f"[{start_us}, {int(ends[0])})"
            )
    return _layout(offsets, starts, ends, first_index)


def materialize_layout_windows(
    columns: TraceColumns, layout: ColumnWindowLayout, start: int, stop: int
) -> list[TraceWindow]:
    """Materialise windows ``start <= w < stop`` of a layout as objects.

    Used where the object form is genuinely required (reference learning,
    recorder context) — everything else stays columnar.
    """
    offsets = layout.event_offsets
    return [
        TraceWindow(
            index=int(layout.indices[w]),
            start_us=int(layout.start_us[w]),
            end_us=int(layout.end_us[w]),
            events=columns.events(int(offsets[w]), int(offsets[w + 1])),
        )
        for w in range(start, stop)
    ]


class _ColumnCodeMapper:
    """Incremental file-code -> monitor-registry-code mapping.

    Registers unseen event-type names into the monitor registry in global
    event order, batch by batch — exactly the growth a sequential
    ``WindowBatch.from_windows`` over materialised windows would produce.
    The registry snapshot is taken once, at construction; a type table
    that grows later (a stream's later chunks naming new types) extends
    the map against that same snapshot, so a stream fed in chunks assigns
    the codes a one-shot read does.
    """

    __slots__ = ("map", "names", "_known")

    def __init__(self, registry: EventTypeRegistry) -> None:
        self.names: tuple[str, ...] = ()
        self._known = registry.to_dict()
        self.map = np.empty(0, dtype=np.int32)

    def extend(self, names: tuple[str, ...]) -> None:
        """Follow a type table that only ever grows by appending."""
        if len(names) == len(self.names):
            return
        fresh = names[len(self.names) :]
        self.names = names
        addition = np.fromiter(
            (self._known.get(name, -1) for name in fresh),
            dtype=np.int32,
            count=len(fresh),
        )
        self.map = np.concatenate((self.map, addition))

    def register_span(
        self, file_codes: np.ndarray, base: int, registry: EventTypeRegistry
    ) -> np.ndarray:
        """Register the span's unseen types; return their global positions.

        The returned (sorted) positions are where the registry grew — the
        inputs of the per-window ``dims`` computation.
        """
        if file_codes.size == 0:
            return np.empty(0, dtype=np.int64)
        unknown = np.flatnonzero(self.map[file_codes] < 0)
        if unknown.size == 0:
            return np.empty(0, dtype=np.int64)
        codes, first_seen = np.unique(file_codes[unknown], return_index=True)
        order = np.argsort(first_seen, kind="stable")
        growth = np.empty(len(order), dtype=np.int64)
        for rank, k in enumerate(order):
            file_code = int(codes[k])
            self.map[file_code] = registry.register(self.names[file_code])
            growth[rank] = base + int(unknown[first_seen[k]])
        return growth


def batches_from_layout(
    columns: TraceColumns,
    layout: ColumnWindowLayout,
    registry: EventTypeRegistry,
    batch_size: int = 64,
    first_window: int = 0,
) -> Iterator[WindowBatch]:
    """Yield columnar :class:`WindowBatch` micro-batches over a layout.

    The window stream starts at ``first_window`` (used to skip a reference
    prefix while keeping global window indices); batch boundaries fall
    every ``batch_size`` windows from there, exactly like
    :func:`~repro.trace.batch.batch_windows` over the corresponding window
    iterator.  Batches carry precomputed byte sizes and a lazy window
    factory instead of materialised windows.
    """
    if batch_size <= 0:
        raise TraceStreamError("batch_size must be positive")
    n_windows = layout.n_windows
    if first_window < 0 or first_window > n_windows:
        raise TraceStreamError(
            f"first_window {first_window} out of range for {n_windows} windows"
        )
    mapper = _ColumnCodeMapper(registry)
    for w0 in range(first_window, n_windows, batch_size):
        w1 = min(w0 + batch_size, n_windows)
        yield _build_column_batch(
            columns, layout, registry, mapper, w0, w1, ((0, columns),)
        )


def reference_window_count(
    layout: ColumnWindowLayout, reference_duration_us: int
) -> int:
    """Number of leading layout windows that form the reference prefix.

    Those are the windows that end by ``reference_duration_us``, the same
    windows :meth:`TraceStream.split_reference` returns; live monitoring
    starts at the next one.
    """
    return int(np.searchsorted(layout.end_us, reference_duration_us, side="right"))


def reference_batch(
    columns: TraceColumns,
    registry: EventTypeRegistry,
    reference_duration_us: int,
    window_duration_us: int = 40_000,
) -> tuple[WindowBatch, int]:
    """The reference prefix of a columnar trace as one columnar batch.

    Returns the batch and the index of the first live window: the prefix
    is every duration window that ends by ``reference_duration_us`` (see
    :func:`reference_window_count`).  The batch is what reference learning
    (:meth:`~repro.analysis.model.ReferenceModel.learn`) needs, type codes
    and counts, and no event is materialised.  Unseen event types grow
    ``registry`` in event order, exactly as ``WindowBatch.from_windows``
    over the materialised windows would.
    """
    source = ColumnarWindowSource(columns, window_duration_us=window_duration_us)
    batch = source._streaming_source().reference_batch(registry, reference_duration_us)
    return batch, len(batch)


def _build_column_batch(
    columns: TraceColumns,
    layout: ColumnWindowLayout,
    registry: EventTypeRegistry,
    mapper: _ColumnCodeMapper,
    w0: int,
    w1: int,
    sources: Sequence[tuple[int, TraceColumns]],
) -> WindowBatch:
    """Windows ``w0 <= w < w1`` of a layout as one lazy columnar batch.

    ``layout`` offsets index ``columns``.  ``sources`` is the span handle in
    those same coordinates: ``(start, chunk)`` pairs placing event 0 of
    each decoded ``chunk`` at ``start`` (``((0, columns),)`` for a whole
    trace, the retained chunks for a stream's buffer).  The batch keeps it
    so the recorder can encode windows straight from the chunks, and
    events are materialised from it only for windows that are resolved.
    """
    offsets = layout.event_offsets[w0 : w1 + 1]
    lo, hi = int(offsets[0]), int(offsets[-1])
    file_codes = columns.type_codes[lo:hi]
    mapper.extend(columns.type_names)
    dimension_before = len(registry)
    growth = mapper.register_span(file_codes, lo, registry)
    codes = mapper.map[file_codes]
    if growth.size:
        dims = dimension_before + np.searchsorted(growth, offsets[1:], side="left")
    else:
        dims = np.full(w1 - w0, dimension_before, dtype=np.int64)
    return WindowBatch._from_trusted(
        codes=codes,
        offsets=offsets - lo,
        indices=layout.indices[w0:w1],
        start_us=layout.start_us[w0:w1],
        end_us=layout.end_us[w0:w1],
        dims=dims,
        dimension=len(registry),
        window_sizes=encoded_window_sizes_columns(columns, offsets),
        sources=tuple((start - lo, chunk) for start, chunk in sources),
    )


def iter_column_batches(
    columns: TraceColumns,
    registry: EventTypeRegistry,
    batch_size: int = 64,
    policy: WindowPolicy = WindowPolicy.BY_DURATION,
    window_duration_us: int = 40_000,
    events_per_window: int = 256,
    start_us: int = 0,
    emit_empty: bool = True,
    first_window: int = 0,
) -> Iterator[WindowBatch]:
    """Columnar mirror of :meth:`TraceStream.window_batches`.

    The trace goes through a one-chunk
    :class:`~repro.trace.streaming.StreamingWindowSource`: windows are cut
    by the array kernels (``searchsorted`` for duration windows, strided
    offsets for count windows) and yielded as lazy :class:`WindowBatch`
    micro-batches — no per-event Python on the hot path, bit-identical
    decisions and byte accounting downstream.
    """
    source = ColumnarWindowSource(
        columns,
        policy=policy,
        window_duration_us=window_duration_us,
        events_per_window=events_per_window,
        start_us=start_us,
        emit_empty=emit_empty,
        first_window=first_window,
    )
    return source.batches(registry, batch_size)


@dataclass(frozen=True)
class ColumnarWindowSource:
    """A columnar trace plus its windowing recipe, usable as a fleet shard.

    The sharded fleet accepts these wherever it accepts window iterables:
    the inline executor cuts batches in-process, while the process-pool
    executor ships the whole object to a worker — a handful of flat arrays
    and one raw buffer, far cheaper to pickle than a list of event objects
    on spawn-only platforms.  The recipe is replayable: every call to
    :meth:`batches` windows the trace afresh, through a one-chunk
    :class:`~repro.trace.streaming.StreamingWindowSource`, so a failed
    fleet shard can be retried.

    ``window_duration_us`` left at ``None`` defers to the monitor
    configuration at activation (mirroring
    :meth:`~repro.analysis.fleet.ShardedTraceMonitor.run_on_streams`).
    ``first_window`` skips an already-learned reference prefix while
    preserving global window indices.
    """

    columns: TraceColumns
    policy: WindowPolicy = WindowPolicy.BY_DURATION
    window_duration_us: int | None = None
    events_per_window: int = 256
    start_us: int = 0
    emit_empty: bool = True
    first_window: int = 0

    def _streaming_source(self) -> "StreamingWindowSource":
        """A fresh single-pass streaming source over the trace as one chunk."""
        # Imported here: the streaming plane is built on this module.
        from .streaming import StreamingWindowSource, StreamRecipe

        recipe = StreamRecipe(
            policy=self.policy,
            window_duration_us=self.window_duration_us,
            events_per_window=self.events_per_window,
            start_us=self.start_us,
            emit_empty=self.emit_empty,
        )
        return StreamingWindowSource(columns_chunks=[self.columns], recipe=recipe)

    def batches(
        self,
        registry: EventTypeRegistry,
        batch_size: int,
        default_window_duration_us: int = 40_000,
    ) -> Iterator[WindowBatch]:
        """Yield the source's window batches against ``registry``."""
        source = self._streaming_source()
        batches = source.batches(
            registry,
            batch_size,
            default_window_duration_us=default_window_duration_us,
        )
        source._skip_windows(self.first_window)
        return batches
