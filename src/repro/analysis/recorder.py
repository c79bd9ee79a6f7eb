"""Selective trace recording and size accounting.

The whole point of the approach is to write only the suspicious portions of
the trace to storage.  :class:`SelectiveTraceRecorder` receives every window
together with the detector's verdict, keeps byte-accurate accounting of what
the full trace would have weighed versus what was actually recorded, and can
optionally persist the recorded windows to a JSON-lines file.  An optional
pre/post *context* of non-anomalous windows can be recorded around each
anomaly so post-mortem analysis keeps some surrounding activity.

:meth:`SelectiveTraceRecorder.observe_batch` is the entry point the
monitor's vectorized plane drives (:meth:`~SelectiveTraceRecorder.observe`
is a batch of one).  It first replays the per-window context semantics to
decide which windows the batch writes, in write order (pre-context windows
can come from an earlier batch), then encodes them all in one pass.
Windows decoded from a binary trace are encoded straight from their column
spans (:func:`~repro.trace.recording.encode_window_spans`), with no
:class:`~repro.trace.event.TraceEvent` per event; every other window, and
one whose raw source bytes are not provably canonical, is encoded from its
events by the codecs, which reproduces the same bytes (and raises the same
errors for corrupt sources).  Each window's block is then appended
to a write buffer that is flushed to the file handle every
``io_buffer_bytes`` bytes, so the flush points and write calls depend on
the windows only, not on how they were encoded or batched.

:class:`FullTraceRecorder` is the trivial "record everything" baseline the
reduction factor is measured against.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Iterable, Sequence

from ..errors import RecorderError
from ..testing.faults import fault_point
from ..trace.batch import LazyWindowRef
from ..trace.codec import BinaryTraceCodec, JsonTraceCodec, encoded_trace_size
from ..trace.event import TraceEvent
from ..trace.recording import encode_window_spans
from ..trace.window import TraceWindow

__all__ = [
    "DEFAULT_IO_BUFFER_BYTES",
    "RecorderReport",
    "SelectiveTraceRecorder",
    "FullTraceRecorder",
    "partial_output_path",
]

#: Default size of the recorder's write buffer.  64 KiB keeps the flush
#: granularity close to a filesystem block while bounding buffered memory.
DEFAULT_IO_BUFFER_BYTES = 64 * 1024


def partial_output_path(path: Path) -> Path:
    """In-progress sibling of a recorder output path (``<name>.partial``).

    Recorders write here and atomically rename onto ``path`` only when
    :meth:`SelectiveTraceRecorder.close` completes — so a crashed writer
    can never leave a truncated file under the final name.  Exposed so the
    fleet can clean up after hard-killed workers.
    """
    return path.with_name(path.name + ".partial")


@dataclass(frozen=True)
class RecorderReport:
    """Summary of a recording session.

    Attributes
    ----------
    total_windows / total_events / total_bytes:
        What the complete trace contained (the "record everything" volume).
    recorded_windows / recorded_events / recorded_bytes:
        What was actually written to storage.
    """

    total_windows: int
    total_events: int
    total_bytes: int
    recorded_windows: int
    recorded_events: int
    recorded_bytes: int

    @property
    def reduction_factor(self) -> float:
        """How many times smaller the recorded trace is than the full trace.

        The paper reports a 14-fold reduction (418 MB recorded vs 5.9 GB
        full).  When nothing was recorded the factor is infinite; when the
        full trace is empty it is defined as 1.0.
        """
        if self.total_bytes == 0:
            return 1.0
        if self.recorded_bytes == 0:
            return float("inf")
        return self.total_bytes / self.recorded_bytes

    @property
    def recorded_fraction(self) -> float:
        """Fraction of bytes kept (0 when the full trace is empty)."""
        if self.total_bytes == 0:
            return 0.0
        return self.recorded_bytes / self.total_bytes

    def merged_with(self, other: "RecorderReport") -> "RecorderReport":
        """Field-wise sum of two reports (used by fleet aggregation)."""
        return RecorderReport(
            total_windows=self.total_windows + other.total_windows,
            total_events=self.total_events + other.total_events,
            total_bytes=self.total_bytes + other.total_bytes,
            recorded_windows=self.recorded_windows + other.recorded_windows,
            recorded_events=self.recorded_events + other.recorded_events,
            recorded_bytes=self.recorded_bytes + other.recorded_bytes,
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by experiment reports)."""
        return {
            "total_windows": self.total_windows,
            "total_events": self.total_events,
            "total_bytes": self.total_bytes,
            "recorded_windows": self.recorded_windows,
            "recorded_events": self.recorded_events,
            "recorded_bytes": self.recorded_bytes,
            "reduction_factor": self.reduction_factor,
            "recorded_fraction": self.recorded_fraction,
        }


class SelectiveTraceRecorder:
    """Records only the windows the detector flagged (plus optional context).

    Parameters
    ----------
    context_windows:
        Number of non-anomalous windows recorded before and after each
        anomaly.
    output_path:
        Optional JSON-lines file the recorded events are persisted to.
    keep_events:
        Keep the recorded :class:`TraceWindow` objects in memory as well.
    io_buffer_bytes:
        Size of the write buffer; encoded windows are accumulated until the
        buffer holds at least this many bytes, then written in one call.
        ``0`` disables buffering (one write per recorded window).
    recording_format:
        ``"jsonl"`` (default) writes human-readable JSON lines;
        ``"binary"`` writes one self-describing
        :class:`~repro.trace.codec.BinaryTraceCodec` segment per recorded
        window — the segment *body* bytes equal the accounted
        ``window_bytes`` (fresh registry, deltas restarting per window),
        and the whole file round-trips through
        :func:`~repro.trace.reader.read_trace`.
    """

    def __init__(
        self,
        context_windows: int = 0,
        output_path: str | Path | None = None,
        keep_events: bool = False,
        io_buffer_bytes: int = DEFAULT_IO_BUFFER_BYTES,
        recording_format: str = "jsonl",
    ) -> None:
        if context_windows < 0:
            raise RecorderError("context_windows must be >= 0")
        if io_buffer_bytes < 0:
            raise RecorderError("io_buffer_bytes must be >= 0")
        if recording_format not in {"jsonl", "binary"}:
            raise RecorderError(
                f"unknown recording_format: {recording_format!r} "
                "(expected 'jsonl' or 'binary')"
            )
        self.context_windows = int(context_windows)
        self.keep_events = bool(keep_events)
        self.io_buffer_bytes = int(io_buffer_bytes)
        self.recording_format = recording_format
        self.output_path = Path(output_path) if output_path is not None else None
        self._codec = JsonTraceCodec()
        self._handle = None
        # Crash consistency: write to a ".partial" sibling and atomically
        # rename onto output_path only when close() completes, so a killed
        # process can never leave a truncated file under the final name.
        self._temp_path: Path | None = None
        if self.output_path is not None:
            self.output_path.parent.mkdir(parents=True, exist_ok=True)
            self._temp_path = partial_output_path(self.output_path)
            if recording_format == "binary":
                self._handle = self._temp_path.open("wb")
            else:
                self._handle = self._temp_path.open("w", encoding="utf-8")

        # Pre-context windows are buffered together with their encoded size,
        # so flushing them on an anomaly never re-encodes a window whose
        # size was already computed by observe().
        self._pre_context: Deque[tuple[TraceWindow, int]] = deque(
            maxlen=max(context_windows, 1)
        )
        self._post_context_remaining = 0
        self._recorded_indices: list[int] = []
        self._recorded_windows: list[TraceWindow] = []
        self._total_windows = 0
        self._total_events = 0
        self._total_bytes = 0
        self._recorded_events = 0
        self._recorded_bytes = 0
        # Holds encoded bytes blocks for the binary format, str for jsonl.
        self._write_buffer: list[bytes] | list[str] = []
        self._buffered_chars = 0
        self._n_io_writes = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Feeding
    # ------------------------------------------------------------------ #
    def observe(
        self, window: TraceWindow, record: bool, window_bytes: int | None = None
    ) -> bool:
        """Account for ``window`` and record it if requested (or as context).

        ``window_bytes`` may be supplied by the caller when it already
        computed the encoded size (the monitor does), avoiding a second
        encoding pass.  Returns ``True`` when the window was written to
        storage.
        """
        sizes = None if window_bytes is None else [window_bytes]
        return self.observe_batch([window], [record], sizes)[0]

    def observe_batch(
        self,
        windows: Sequence[TraceWindow] | Iterable[TraceWindow],
        record: Sequence[bool] | Iterable[bool],
        window_bytes: Sequence[int] | Iterable[int] | None = None,
    ) -> list[bool]:
        """Account for a batch of consecutive windows in one call.

        Semantically identical to calling :meth:`observe` per window in
        order (same context handling, same accounting, same recorded file
        contents); the batched entry point amortises the per-window call
        overhead, encodes every window it writes in one pass and lets the
        write buffer coalesce the file IO of several recorded windows.
        Returns one ``wrote`` flag per window.
        """
        if self._closed:
            raise RecorderError("recorder has already been closed")
        windows = list(windows)
        flags = [bool(flag) for flag in record]
        if len(flags) != len(windows):
            raise RecorderError(
                f"record flags length {len(flags)} does not match "
                f"window count {len(windows)}"
            )
        if window_bytes is None:
            sizes = [encoded_trace_size(window.events) for window in windows]
        else:
            sizes = [int(size) for size in window_bytes]
            if len(sizes) != len(windows):
                raise RecorderError(
                    f"window_bytes length {len(sizes)} does not match "
                    f"window count {len(windows)}"
                )
        # Decide what each window writes (context included) first, so the
        # written windows are encoded in one pass, in write order.
        self._total_windows += len(windows)
        self._total_events += sum(map(len, windows))
        self._total_bytes += sum(sizes)
        context = self.context_windows
        pre_context = self._pre_context
        post_context = self._post_context_remaining
        writes: list[tuple[TraceWindow, int]] = []
        wrote = []
        for window, flag, size in zip(windows, flags, sizes):
            if flag:
                # Flush the pre-context first so the saved trace stays ordered.
                writes.extend(pre_context)
                pre_context.clear()
                writes.append((window, size))
                post_context = context
            elif post_context > 0:
                writes.append((window, size))
                post_context -= 1
            else:
                if context > 0:
                    pre_context.append((window, size))
                wrote.append(False)
                continue
            wrote.append(True)
        self._post_context_remaining = post_context
        blocks = self._encode([window for window, _ in writes])
        for (window, size), block in zip(writes, blocks):
            self._write(window, size, block)
        return wrote

    def _encode(self, windows: list[TraceWindow]) -> list[bytes | str | None]:
        """Encoded blocks of ``windows``; ``None`` where the object path must
        encode.

        Lazy references into a decoded binary trace are encoded together
        from their column spans
        (:func:`~repro.trace.recording.encode_window_spans`); every other
        window, and one whose source bytes are not provably canonical, is
        left to :meth:`_write`.  Encoding runs without an output file too, so a
        corrupt recorded window raises the same error either way.
        """
        spans = [
            window.spans() if isinstance(window, LazyWindowRef) else None
            for window in windows
        ]
        if not any(span is not None for span in spans):
            return [None] * len(windows)
        blob, bounds, encoded = encode_window_spans(spans, self.recording_format)
        text: bytes | str = blob if self.recording_format == "binary" else blob.decode("ascii")
        return [
            text[start:stop] if ok else None
            for start, stop, ok in zip(bounds[:-1].tolist(), bounds[1:].tolist(), encoded.tolist())
        ]

    def _write(
        self, window: TraceWindow, window_bytes: int, block: bytes | str | None
    ) -> None:
        # Lazy window references are materialised only when the recorder
        # keeps the window or has to encode it from objects.
        if isinstance(window, LazyWindowRef) and (block is None or self.keep_events):
            window = window.resolve()
        self._recorded_indices.append(window.index)
        self._recorded_events += len(window)
        self._recorded_bytes += window_bytes
        if self.keep_events:
            self._recorded_windows.append(window)
        if self._handle is not None:
            if block is None:
                block = self._encode_events(window.events)
            if block:
                self._write_buffer.append(block)
                self._buffered_chars += len(block)
                if self._buffered_chars >= self.io_buffer_bytes:
                    self.flush()

    def _encode_events(self, events: Sequence[TraceEvent]) -> bytes | str:
        """The object path: one window's block from its events."""
        if self.recording_format == "binary":
            # One self-describing segment per window: fresh registry,
            # deltas restarting at the window — the body bytes equal the
            # accounted window_bytes by construction.  Empty windows write
            # nothing, mirroring the JSON empty-block skip.
            return BinaryTraceCodec().encode(events) if events else b""
        return self._codec.encode_events(events)

    def flush(self) -> None:
        """Write the buffered encoded windows to the output file."""
        if self._handle is not None and self._write_buffer:
            fault_point("recorder.write")
            joiner = b"" if self.recording_format == "binary" else ""
            self._handle.write(joiner.join(self._write_buffer))
            self._n_io_writes += 1
        self._write_buffer = []
        self._buffered_chars = 0

    def __getstate__(self) -> dict:
        # Recorders hold an open file handle and mutable buffers; shipping
        # one across a process boundary can only corrupt the output file.
        # The parallel fleet creates recorders inside each worker instead.
        raise RecorderError(
            "SelectiveTraceRecorder is not picklable: recorders are "
            "worker-local (create one per process, next to its output file)"
        )

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (the output file is flushed shut)."""
        return self._closed

    @property
    def recorded_indices(self) -> list[int]:
        """Indices of every recorded window, in recording order."""
        return list(self._recorded_indices)

    @property
    def recorded_windows(self) -> list[TraceWindow]:
        """Recorded windows (only populated when ``keep_events`` is true)."""
        if not self.keep_events:
            raise RecorderError("recorder was created with keep_events=False")
        return list(self._recorded_windows)

    @property
    def io_write_count(self) -> int:
        """Number of write calls issued to the output file so far."""
        return self._n_io_writes

    def report(self) -> RecorderReport:
        """Return the size-accounting summary."""
        return RecorderReport(
            total_windows=self._total_windows,
            total_events=self._total_events,
            total_bytes=self._total_bytes,
            recorded_windows=len(self._recorded_indices),
            recorded_events=self._recorded_events,
            recorded_bytes=self._recorded_bytes,
        )

    def close(self) -> None:
        """Flush and close the output file (idempotent, exception-safe).

        The OS handle is released and the recorder marked closed even when
        the final flush fails mid-write; the flush error still propagates.
        Only a fully successful close commits the temp file onto
        ``output_path`` (atomic rename); after a failed close the
        ``.partial`` file is left behind for :meth:`discard` / the fleet's
        cleanup to remove, and the final name never appears.
        """
        handle = self._handle
        if handle is not None:
            try:
                self.flush()
            finally:
                self._handle = None
                self._closed = True
                handle.close()
            # Reached only when flush and the OS-level close both
            # succeeded: commit the finished file under its real name.
            if self._temp_path is not None and self.output_path is not None:
                os.replace(self._temp_path, self.output_path)
                self._temp_path = None
        self._closed = True

    def discard(self) -> None:
        """Close without committing: drop buffers, delete the temp file.

        Used when the shard this recorder serves failed — the output must
        not appear under its final name, and no half-written ``.partial``
        should linger.  Idempotent; never raises on a missing temp file.
        """
        handle = self._handle
        self._handle = None
        self._closed = True
        self._write_buffer = []
        self._buffered_chars = 0
        if handle is not None:
            handle.close()
        if self._temp_path is not None:
            self._temp_path.unlink(missing_ok=True)
            self._temp_path = None

    def __enter__(self) -> "SelectiveTraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FullTraceRecorder:
    """Baseline recorder that keeps every window (what the paper compares to)."""

    def __init__(
        self,
        output_path: str | Path | None = None,
        io_buffer_bytes: int = DEFAULT_IO_BUFFER_BYTES,
        recording_format: str = "jsonl",
    ) -> None:
        self._inner = SelectiveTraceRecorder(
            output_path=output_path,
            io_buffer_bytes=io_buffer_bytes,
            recording_format=recording_format,
        )

    def observe(self, window: TraceWindow) -> bool:
        """Record ``window`` unconditionally."""
        return self._inner.observe(window, record=True)

    def observe_batch(
        self,
        windows: Sequence[TraceWindow] | Iterable[TraceWindow],
        window_bytes: Sequence[int] | Iterable[int] | None = None,
    ) -> list[bool]:
        """Record a batch of windows unconditionally."""
        windows = list(windows)
        return self._inner.observe_batch(
            windows, [True] * len(windows), window_bytes=window_bytes
        )

    def report(self) -> RecorderReport:
        """Size-accounting summary (recorded == total by construction)."""
        return self._inner.report()

    def close(self) -> None:
        """Close the underlying recorder."""
        self._inner.close()

    def __enter__(self) -> "FullTraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
