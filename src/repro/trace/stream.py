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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..errors import TraceFormatError, TraceStreamError
from .batch import WindowBatch, batch_windows
from .columns import TraceColumns, encoded_window_sizes_columns
from .event import EventTypeRegistry, TraceEvent
from .window import TraceWindow

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


def column_windows_by_duration(
    columns: TraceColumns,
    window_duration_us: int,
    start_us: int = 0,
    emit_empty: bool = True,
) -> ColumnWindowLayout:
    """Array-native mirror of :func:`windows_by_duration`.

    One ``searchsorted`` over the timestamp column replaces the per-event
    Python loop; the resulting layout describes exactly the windows the
    object path would emit (same indices, extents and event spans, the
    equivalence suite asserts it window by window).
    """
    if window_duration_us <= 0:
        raise TraceStreamError("window_duration_us must be positive")
    timestamps = columns.timestamps_us
    n = len(timestamps)
    if n == 0:
        if emit_empty:
            return ColumnWindowLayout(
                event_offsets=np.zeros(2, dtype=np.int64),
                indices=np.zeros(1, dtype=np.int64),
                start_us=np.array([start_us], dtype=np.int64),
                end_us=np.array([start_us + window_duration_us], dtype=np.int64),
            )
        return ColumnWindowLayout(
            event_offsets=np.zeros(1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
            start_us=np.empty(0, dtype=np.int64),
            end_us=np.empty(0, dtype=np.int64),
        )
    _check_sorted_columns(timestamps)
    if int(timestamps[0]) < start_us:
        raise TraceStreamError(
            f"event at t={int(timestamps[0])} precedes stream start {start_us}"
        )
    n_slots = int((int(timestamps[-1]) - start_us) // window_duration_us) + 1
    bounds = start_us + window_duration_us * np.arange(n_slots + 1, dtype=np.int64)
    offsets = np.searchsorted(timestamps, bounds, side="left")
    starts = bounds[:-1]
    ends = bounds[1:]
    indices = np.arange(n_slots, dtype=np.int64)
    if not emit_empty:
        keep = np.flatnonzero(np.diff(offsets) > 0)
        # Dropped slots are empty (zero-length spans), so the kept spans
        # stay contiguous and the CSR offsets can simply be re-chained.
        offsets = np.concatenate((offsets[keep], offsets[keep[-1] + 1 :][:1]))
        starts = starts[keep]
        ends = ends[keep]
        indices = np.arange(len(keep), dtype=np.int64)
    return ColumnWindowLayout(
        event_offsets=offsets.astype(np.int64),
        indices=indices,
        start_us=starts.astype(np.int64),
        end_us=ends.astype(np.int64),
    )


def column_windows_by_count(
    columns: TraceColumns,
    events_per_window: int,
    start_us: int = 0,
) -> ColumnWindowLayout:
    """Array-native mirror of :func:`windows_by_count`.

    Strided offsets replace the per-event accumulation loop; the window
    extents reproduce the duplicate-boundary-timestamp semantics of the
    object path (a window starts *at* the previous window's last timestamp
    exactly when its first event carries that timestamp, otherwise one
    microsecond past it).
    """
    if events_per_window <= 0:
        raise TraceStreamError("events_per_window must be positive")
    timestamps = columns.timestamps_us
    n = len(timestamps)
    if n == 0:
        return ColumnWindowLayout(
            event_offsets=np.zeros(1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
            start_us=np.empty(0, dtype=np.int64),
            end_us=np.empty(0, dtype=np.int64),
        )
    _check_sorted_columns(timestamps)
    n_windows = -(-n // events_per_window)
    offsets = np.minimum(
        np.arange(n_windows + 1, dtype=np.int64) * events_per_window, n
    )
    lasts = timestamps[offsets[1:] - 1]
    ends = lasts + 1
    starts = np.empty(n_windows, dtype=np.int64)
    starts[0] = start_us
    if n_windows > 1:
        firsts = timestamps[offsets[1:-1]]
        boundary = lasts[:-1]
        starts[1:] = np.where(firsts == boundary, boundary, boundary + 1)
    if int(timestamps[0]) < start_us:
        raise TraceFormatError(
            f"event at t={int(timestamps[0])} outside window "
            f"[{start_us}, {int(ends[0])})"
        )
    return ColumnWindowLayout(
        event_offsets=offsets,
        indices=np.arange(n_windows, dtype=np.int64),
        start_us=starts,
        end_us=ends,
    )


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
    """

    __slots__ = ("map", "names")

    def __init__(self, type_names: Sequence[str], registry: EventTypeRegistry) -> None:
        self.names = tuple(type_names)
        known = registry.to_dict()
        self.map = np.fromiter(
            (known.get(name, -1) for name in self.names),
            dtype=np.int32,
            count=len(self.names),
        )

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
    mapper = _ColumnCodeMapper(columns.type_names, registry)
    for w0 in range(first_window, n_windows, batch_size):
        w1 = min(w0 + batch_size, n_windows)
        yield _build_column_batch(columns, layout, registry, mapper, w0, w1)


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
    layout: ColumnWindowLayout,
    registry: EventTypeRegistry,
    reference_duration_us: int,
) -> tuple[WindowBatch, int]:
    """The reference prefix of a layout as one columnar batch.

    Returns the batch and the index of the first live window (see
    :func:`reference_window_count`).  The batch is what reference learning
    (:meth:`~repro.analysis.model.ReferenceModel.learn`) needs, type codes
    and counts, and no event is materialised.  Unseen event types grow
    ``registry`` in event order, exactly as ``WindowBatch.from_windows``
    over the materialised windows would.
    """
    first_live = reference_window_count(layout, reference_duration_us)
    mapper = _ColumnCodeMapper(columns.type_names, registry)
    batch = _build_column_batch(columns, layout, registry, mapper, 0, first_live)
    return batch, first_live


def _build_column_batch(
    columns: TraceColumns,
    layout: ColumnWindowLayout,
    registry: EventTypeRegistry,
    mapper: _ColumnCodeMapper,
    w0: int,
    w1: int,
) -> WindowBatch:
    offsets = layout.event_offsets[w0 : w1 + 1]
    lo, hi = int(offsets[0]), int(offsets[-1])
    file_codes = columns.type_codes[lo:hi]
    dimension_before = len(registry)
    growth = mapper.register_span(file_codes, lo, registry)
    codes = mapper.map[file_codes]
    if growth.size:
        dims = dimension_before + np.searchsorted(growth, offsets[1:], side="left")
    else:
        dims = np.full(w1 - w0, dimension_before, dtype=np.int64)
    sizes = encoded_window_sizes_columns(columns, offsets)

    def factory(position: int) -> TraceWindow:
        w = w0 + position
        return TraceWindow(
            index=int(layout.indices[w]),
            start_us=int(layout.start_us[w]),
            end_us=int(layout.end_us[w]),
            events=columns.events(
                int(layout.event_offsets[w]), int(layout.event_offsets[w + 1])
            ),
        )

    return WindowBatch(
        codes=codes,
        offsets=offsets - lo,
        indices=layout.indices[w0:w1],
        start_us=layout.start_us[w0:w1],
        end_us=layout.end_us[w0:w1],
        dims=dims,
        dimension=len(registry),
        windows=None,
        window_sizes=sizes,
        window_factory=factory,
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

    Cuts the columns into windows array-natively (``searchsorted`` for
    duration windows, strided offsets for count windows) and yields lazy
    :class:`WindowBatch` micro-batches — no per-event Python on the hot
    path, bit-identical decisions and byte accounting downstream.
    """
    if policy is WindowPolicy.BY_DURATION:
        layout = column_windows_by_duration(
            columns, window_duration_us, start_us=start_us, emit_empty=emit_empty
        )
    elif policy is WindowPolicy.BY_COUNT:
        layout = column_windows_by_count(
            columns, events_per_window, start_us=start_us
        )
    else:
        raise TraceStreamError(f"unknown window policy: {policy!r}")
    return batches_from_layout(
        columns, layout, registry, batch_size=batch_size, first_window=first_window
    )


@dataclass(frozen=True)
class ColumnarWindowSource:
    """A columnar trace plus its windowing recipe, usable as a fleet shard.

    The sharded fleet accepts these wherever it accepts window iterables:
    the inline executor cuts batches in-process, while the process-pool
    executor ships the whole object to a worker — a handful of flat arrays
    and one raw buffer, far cheaper to pickle than a list of event objects
    on spawn-only platforms.

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

    def batches(
        self,
        registry: EventTypeRegistry,
        batch_size: int,
        default_window_duration_us: int = 40_000,
    ) -> Iterator[WindowBatch]:
        """Yield the source's window batches against ``registry``."""
        duration = (
            self.window_duration_us
            if self.window_duration_us is not None
            else default_window_duration_us
        )
        return iter_column_batches(
            self.columns,
            registry,
            batch_size=batch_size,
            policy=self.policy,
            window_duration_us=duration,
            events_per_window=self.events_per_window,
            start_us=self.start_us,
            emit_empty=self.emit_empty,
            first_window=self.first_window,
        )
