"""Trace substrate: events, windows, streams, codecs and IO.

This subpackage models the data produced by the (simulated) low-intrusive
tracing hardware of an MPSoC platform: timestamped events, grouped into
windows of consecutive events, streamed to the online monitor.
"""

from .event import EventType, EventTypeRegistry, TraceEvent, DEFAULT_REGISTRY
from .window import TraceWindow
from .batch import LazyWindowRef, WindowBatch, batch_windows
from .columns import TraceColumns, encoded_window_sizes_columns
from .stream import (
    ColumnWindowLayout,
    ColumnarWindowSource,
    TraceStream,
    WindowPolicy,
    column_windows_by_count,
    column_windows_by_duration,
    iter_column_batches,
    materialize_layout_windows,
    reference_batch,
    reference_window_count,
    windows_by_count,
    windows_by_duration,
)
from .codec import BinaryTraceCodec, JsonTraceCodec, encoded_event_size, encoded_trace_size
from .pipeline import prefetch_batches
from .reader import iter_trace_file, iter_window_batches, read_trace, read_trace_columns
from .writer import write_trace
from .stats import TraceStatistics, summarize
from .generator import SyntheticTraceGenerator, PeriodicTraceGenerator

__all__ = [
    "EventType",
    "EventTypeRegistry",
    "TraceEvent",
    "DEFAULT_REGISTRY",
    "TraceWindow",
    "WindowBatch",
    "LazyWindowRef",
    "batch_windows",
    "TraceColumns",
    "encoded_window_sizes_columns",
    "TraceStream",
    "WindowPolicy",
    "ColumnWindowLayout",
    "ColumnarWindowSource",
    "column_windows_by_count",
    "column_windows_by_duration",
    "iter_column_batches",
    "materialize_layout_windows",
    "reference_batch",
    "reference_window_count",
    "windows_by_count",
    "windows_by_duration",
    "BinaryTraceCodec",
    "JsonTraceCodec",
    "encoded_event_size",
    "encoded_trace_size",
    "prefetch_batches",
    "read_trace",
    "iter_trace_file",
    "read_trace_columns",
    "iter_window_batches",
    "write_trace",
    "TraceStatistics",
    "summarize",
    "SyntheticTraceGenerator",
    "PeriodicTraceGenerator",
]
