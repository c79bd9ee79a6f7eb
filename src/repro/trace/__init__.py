"""Trace substrate: events, windows, streams, codecs and IO.

This subpackage models the data produced by the (simulated) low-intrusive
tracing hardware of an MPSoC platform: timestamped events, grouped into
windows of consecutive events, streamed to the online monitor.
"""

from __future__ import annotations

from ..lazy import lazy_exports

#: Public names by defining module, imported on first use (PEP 562): a
#: caller pays only for the modules whose names it touches.
_EXPORTS = {
    "event": ("EventType", "EventTypeRegistry", "TraceEvent", "DEFAULT_REGISTRY"),
    "window": ("TraceWindow",),
    "batch": ("LazyWindowRef", "WindowBatch", "batch_windows"),
    "columns": ("TraceColumns", "encoded_window_sizes_columns"),
    "stream": (
        "ColumnWindowLayout", "ColumnarWindowSource", "TraceStream", "WindowPolicy",
        "column_windows_by_count", "column_windows_by_duration", "iter_column_batches",
        "materialize_layout_windows", "reference_batch", "reference_window_count",
        "windows_by_count", "windows_by_duration",
    ),
    "codec": (
        "BinaryTraceCodec", "JsonTraceCodec", "encoded_event_size",
        "encoded_trace_size",
    ),
    "pipeline": ("prefetch_batches",),
    "reader": (
        "iter_trace_file", "iter_window_batches", "read_trace", "read_trace_columns",
    ),
    "writer": ("write_trace",),
    "stats": ("TraceStatistics", "summarize"),
    "generator": ("SyntheticTraceGenerator", "PeriodicTraceGenerator"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
