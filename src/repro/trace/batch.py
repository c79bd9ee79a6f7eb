"""Columnar window batches: the trace side of the vectorized scoring plane.

The per-window objects (:class:`~repro.trace.window.TraceWindow` wrapping
:class:`~repro.trace.event.TraceEvent` instances) are convenient but slow to
score one at a time: every window costs a Python loop over its events plus a
handful of small-object allocations.  :class:`WindowBatch` is the columnar
alternative — a micro-batch of consecutive windows stored as flat NumPy
arrays:

* ``codes`` — one ``int32`` event-type code per event, all windows
  concatenated in stream order;
* ``offsets`` — CSR-style window boundaries into ``codes``
  (window ``i`` owns ``codes[offsets[i]:offsets[i + 1]]``);
* ``indices`` / ``start_us`` / ``end_us`` — per-window metadata arrays;
* ``dims`` — the registry size observed right after each window's events
  were registered, so downstream consumers can reproduce the exact
  sequential registry-growth semantics of the per-window path.

The analysis layer turns a batch into a counts matrix with one ``bincount``
(:func:`~repro.analysis.pmf.pmf_matrix`) instead of one Python loop per
window.  A batch built with :meth:`WindowBatch.from_windows` keeps the source
windows, so it round-trips losslessly back to :class:`TraceWindow` objects
for the recorder.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import TraceFormatError, TraceStreamError
from .codec import encoded_window_sizes
from .columns import Span, TraceColumns, span_events
from .event import EventTypeRegistry, TraceEvent
from .window import TraceWindow

__all__ = ["WindowBatch", "LazyWindowRef", "batch_windows"]


class WindowBatch:
    """A micro-batch of consecutive trace windows in columnar form.

    Parameters
    ----------
    codes:
        Concatenated ``int32`` event-type codes, in event order.
    offsets:
        Window boundaries into ``codes``; length ``n_windows + 1``, starting
        at 0, non-decreasing, ending at ``len(codes)``.
    indices / start_us / end_us:
        Per-window stream index and time extent.
    dims:
        Per-window effective registry size (registry length right after the
        window's events were registered).  Defaults to ``dimension`` for
        every window when omitted.
    dimension:
        Number of event types the codes were assigned against (the registry
        size when the batch was built).  Defaults to ``codes.max() + 1``.
    windows:
        Optional source :class:`TraceWindow` objects for round-tripping.
    window_sizes:
        Optional precomputed binary-encoded size of each window.
    """

    __slots__ = ("codes", "offsets", "indices", "start_us", "end_us", "dims",
                 "dimension", "_windows", "_sizes", "_sources", "_lazy_cache")

    def __init__(
        self,
        codes: np.ndarray,
        offsets: np.ndarray,
        indices: np.ndarray,
        start_us: np.ndarray,
        end_us: np.ndarray,
        dims: np.ndarray | None = None,
        dimension: int | None = None,
        windows: Sequence[TraceWindow] | None = None,
        window_sizes: np.ndarray | None = None,
    ) -> None:
        self.codes = np.asarray(codes, dtype=np.int32)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.start_us = np.asarray(start_us, dtype=np.int64)
        self.end_us = np.asarray(end_us, dtype=np.int64)
        n = len(self.offsets) - 1
        if n < 0:
            raise TraceFormatError("offsets must contain at least one entry")
        for name, array in (("indices", self.indices),
                            ("start_us", self.start_us),
                            ("end_us", self.end_us)):
            if len(array) != n:
                raise TraceFormatError(
                    f"{name} length {len(array)} does not match window count {n}"
                )
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.codes):
            raise TraceFormatError("offsets must start at 0 and end at len(codes)")
        if np.any(np.diff(self.offsets) < 0):
            raise TraceFormatError("offsets must be non-decreasing")
        if np.any(self.end_us < self.start_us):
            raise TraceFormatError("window end before start in batch")
        if len(self.codes) and self.codes.min() < 0:
            raise TraceFormatError("event-type codes must be non-negative")
        if dimension is None:
            dimension = int(self.codes.max()) + 1 if len(self.codes) else 0
        self.dimension = int(dimension)
        if len(self.codes) and int(self.codes.max()) >= self.dimension:
            raise TraceFormatError(
                f"event-type code {int(self.codes.max())} out of range for "
                f"dimension {self.dimension}"
            )
        if dims is None:
            dims = np.full(n, self.dimension, dtype=np.int64)
        self.dims = np.asarray(dims, dtype=np.int64)
        if len(self.dims) != n:
            raise TraceFormatError("dims length does not match window count")
        if len(self.dims) and (
            self.dims.min() < 0 or self.dims.max() > self.dimension
        ):
            raise TraceFormatError(
                f"per-window dims must lie in [0, {self.dimension}]"
            )
        self._windows = tuple(windows) if windows is not None else None
        if window_sizes is not None:
            window_sizes = np.asarray(window_sizes, dtype=np.int64)
            if len(window_sizes) != n:
                raise TraceFormatError(
                    f"window_sizes length {len(window_sizes)} does not match "
                    f"window count {n}"
                )
        self._sizes = window_sizes
        self._sources: tuple[tuple[int, TraceColumns], ...] | None = None
        self._lazy_cache: list[TraceWindow | None] | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_trusted(
        cls,
        codes: np.ndarray,
        offsets: np.ndarray,
        indices: np.ndarray,
        start_us: np.ndarray,
        end_us: np.ndarray,
        dims: np.ndarray,
        dimension: int,
        window_sizes: np.ndarray,
        sources: tuple[tuple[int, TraceColumns], ...],
    ) -> "WindowBatch":
        """Wrap arrays the columnar batch builder made, without re-checking.

        The arrays must already have the dtypes and invariants the public
        constructor enforces (``int32`` codes below ``dimension``, ``int64``
        everything else, offsets from 0 to ``len(codes)``).  ``sources``
        is the span handle: ``(start, columns)`` pairs placing event 0 of
        each ``columns`` at batch event ``start``, so a window's events are
        the overlapping column spans (:meth:`window_spans`).
        """
        batch = object.__new__(cls)
        batch.codes = codes
        batch.offsets = offsets
        batch.indices = indices
        batch.start_us = start_us
        batch.end_us = end_us
        batch.dims = dims
        batch.dimension = dimension
        batch._windows = None
        batch._sizes = window_sizes
        batch._sources = sources
        batch._lazy_cache = None
        return batch

    @classmethod
    def from_windows(
        cls,
        windows: Iterable[TraceWindow],
        registry: EventTypeRegistry,
        register_unknown: bool = True,
        keep_windows: bool = True,
    ) -> "WindowBatch":
        """Build a columnar batch from window objects.

        Windows are converted in order; with ``register_unknown`` (default)
        new event types grow the registry exactly as the per-window
        :func:`~repro.analysis.pmf.pmf_from_window` would, and the registry
        size after each window is recorded in ``dims``.
        """
        windows = tuple(windows)
        offsets = np.empty(len(windows) + 1, dtype=np.int64)
        offsets[0] = 0
        for position, window in enumerate(windows):
            offsets[position + 1] = offsets[position] + len(window)
        # Fast path: when every event type is already registered the codes
        # come from one C-level gather straight into the int32 array (no
        # intermediate Python lists) and the registry cannot grow.
        known = registry.to_dict()
        try:
            codes = np.fromiter(
                (
                    known[event.etype]
                    for window in windows
                    for event in window.events
                ),
                dtype=np.int32,
                count=int(offsets[-1]),
            )
            dims = np.full(len(windows), len(registry), dtype=np.int64)
        except KeyError:
            # Unknown types: fall back to per-window registration so ``dims``
            # records the registry growth in exact sequential order (or so
            # the registry rejects the type when register_unknown is off).
            code_parts: list[np.ndarray] = []
            dims = np.empty(len(windows), dtype=np.int64)
            for position, window in enumerate(windows):
                code_parts.append(window.type_codes(registry, register_unknown))
                dims[position] = len(registry)
            codes = (
                np.concatenate(code_parts)
                if code_parts
                else np.empty(0, dtype=np.int32)
            )
        return cls(
            codes=codes,
            offsets=offsets,
            indices=np.fromiter((w.index for w in windows), dtype=np.int64,
                                count=len(windows)),
            start_us=np.fromiter((w.start_us for w in windows), dtype=np.int64,
                                 count=len(windows)),
            end_us=np.fromiter((w.end_us for w in windows), dtype=np.int64,
                               count=len(windows)),
            dims=dims,
            dimension=len(registry),
            windows=windows if keep_windows else None,
        )

    # ------------------------------------------------------------------ #
    # Container behaviour and views
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.indices)

    @property
    def n_events(self) -> int:
        """Total number of events across the batch."""
        return len(self.codes)

    @property
    def event_counts(self) -> np.ndarray:
        """Number of events per window (length ``len(self)``)."""
        return np.diff(self.offsets)

    def window_codes(self, position: int) -> np.ndarray:
        """Event-type codes of the window at ``position`` (a view)."""
        return self.codes[self.offsets[position]:self.offsets[position + 1]]

    # ------------------------------------------------------------------ #
    # Round-trip
    # ------------------------------------------------------------------ #
    @property
    def has_windows(self) -> bool:
        """Whether the source windows were kept for round-tripping."""
        return self._windows is not None

    @property
    def can_materialize(self) -> bool:
        """Whether windows can be produced (kept, or lazily constructible)."""
        return self._windows is not None or self._sources is not None

    def to_windows(self) -> tuple[TraceWindow, ...]:
        """Return the source :class:`TraceWindow` objects, in order.

        Batches built by the columnar ingest plane carry column spans
        instead of pre-built windows; for those every window is
        materialised (and cached) on the first call.
        """
        if self._windows is not None:
            return self._windows
        if self._sources is not None:
            return tuple(self.window(position) for position in range(len(self)))
        raise TraceStreamError(
            "this WindowBatch was built without its source windows "
            "(keep_windows=False or raw-array construction)"
        )

    def window(self, position: int) -> TraceWindow:
        """Return the source window at ``position`` (lazily materialised)."""
        if self._windows is not None:
            return self._windows[position]
        if self._sources is None:
            return self.to_windows()[position]  # raises the standard error
        if self._lazy_cache is None:
            self._lazy_cache = [None] * len(self)
        window = self._lazy_cache[position]
        if window is None:
            window = TraceWindow(
                index=int(self.indices[position]),
                start_us=int(self.start_us[position]),
                end_us=int(self.end_us[position]),
                events=span_events(self.window_spans(position)),
            )
            self._lazy_cache[position] = window
        return window

    def window_spans(self, position: int) -> list[Span]:
        """The column spans holding the window at ``position``'s events.

        In event order; more than one when the window straddles decoded
        chunks.  Only batches built by the columnar ingest plane have them.
        """
        if self._sources is None:
            raise TraceStreamError("this WindowBatch holds no column spans")
        lo = int(self.offsets[position])
        hi = int(self.offsets[position + 1])
        spans = []
        for start, columns in self._sources:
            first = max(lo - start, 0)
            stop = min(hi - start, len(columns))
            if first < stop:
                spans.append((columns, first, stop))
        return spans

    def window_sizes(self) -> list[int]:
        """Binary-encoded byte size of each window, in window order.

        Columnar batches carry sizes precomputed by the vectorized
        accounting (:func:`~repro.trace.columns.encoded_window_sizes_columns`);
        object-built batches fall back to sizing the source windows.  Both
        are bit-identical to
        :func:`~repro.trace.codec.encoded_window_sizes`.
        """
        if self._sizes is not None:
            return self._sizes.tolist()
        return encoded_window_sizes(self.to_windows())

    def window_refs(self) -> Sequence["TraceWindow | LazyWindowRef"]:
        """Per-window handles for the recorder, cheapest available form.

        Returns the kept source windows when present; otherwise lazy
        references that expose ``index`` / ``len()`` / time extent from the
        batch arrays and only materialise events via :meth:`window` when
        ``.events`` (or ``resolve()``) is touched — i.e. when the recorder
        actually writes the window.
        """
        if self._windows is not None:
            return self._windows
        if self._sources is None:
            return self.to_windows()  # raises the standard error
        return tuple(
            LazyWindowRef(self, *fields)
            for fields in enumerate(
                zip(
                    self.indices.tolist(),
                    self.start_us.tolist(),
                    self.end_us.tolist(),
                    np.diff(self.offsets).tolist(),
                )
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowBatch(n_windows={len(self)}, n_events={self.n_events}, "
            f"dimension={self.dimension})"
        )


class LazyWindowRef:
    """A window handle that defers event materialisation.

    Duck-types the slice of the :class:`~repro.trace.window.TraceWindow`
    API the recorder touches for *every* window (``index``, ``start_us`` /
    ``end_us``, ``len()``) while producing the actual events only when
    ``.events`` is read or :meth:`resolve` is called.  The recorder
    encodes the windows it writes from :meth:`spans` and resolves only
    those it keeps in memory or cannot encode from columns.
    """

    __slots__ = ("_batch", "position", "index", "start_us", "end_us", "_n_events")

    def __init__(
        self, batch: WindowBatch, position: int, fields: tuple[int, int, int, int]
    ) -> None:
        self._batch = batch
        self.position = position
        # The window's index, extent and event count, read off the batch
        # arrays by WindowBatch.window_refs.
        self.index, self.start_us, self.end_us, self._n_events = fields

    def __len__(self) -> int:
        return self._n_events

    @property
    def is_empty(self) -> bool:
        """Whether the window contains no events."""
        return self._n_events == 0

    def resolve(self) -> TraceWindow:
        """Materialise (and cache, batch-side) the full window object."""
        return self._batch.window(self.position)

    def spans(self) -> list[Span]:
        """The column spans holding the window's events (nothing decoded)."""
        return self._batch.window_spans(self.position)

    @property
    def events(self) -> "tuple[TraceEvent, ...]":
        """The window's events (materialises the window)."""
        return self.resolve().events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LazyWindowRef(index={self.index}, n_events={self._n_events})"


def batch_windows(
    windows: Iterable[TraceWindow],
    registry: EventTypeRegistry,
    batch_size: int = 64,
    register_unknown: bool = True,
    keep_windows: bool = True,
) -> Iterator[WindowBatch]:
    """Chunk a window iterable into :class:`WindowBatch` micro-batches.

    The final batch may be shorter.  Windows are consumed lazily, so this
    composes with the single-pass :class:`~repro.trace.stream.TraceStream`.
    """
    if batch_size <= 0:
        raise TraceStreamError("batch_size must be positive")
    chunk: list[TraceWindow] = []
    for window in windows:
        chunk.append(window)
        if len(chunk) == batch_size:
            yield WindowBatch.from_windows(
                chunk, registry, register_unknown=register_unknown,
                keep_windows=keep_windows,
            )
            chunk = []
    if chunk:
        yield WindowBatch.from_windows(
            chunk, registry, register_unknown=register_unknown,
            keep_windows=keep_windows,
        )
