"""End-to-end trace monitor: learning + online detection + selective recording.

:class:`TraceMonitor` is the public entry point a user of the library drives:
give it a trace stream (from the simulator, from a file, or from any iterable
of events), it learns the reference model on the configured prefix — or uses
a model from the curated reference database — then monitors the remainder of
the stream, recording only the anomalous windows.  The returned
:class:`MonitorResult` bundles the per-window decisions, the recording report
and the model, i.e. everything the evaluation layer needs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..config import DetectorConfig, MonitorConfig
from ..errors import ModelError
from ..logging_util import get_logger
from ..trace.batch import WindowBatch, batch_windows
from ..trace.columns import TraceColumns
from ..trace.event import EventTypeRegistry, TraceEvent
from ..trace.pipeline import prefetch_batches as _prefetch_batches
from ..trace.stream import ColumnarWindowSource, TraceStream
from ..trace.streaming import StreamRecipe, StreamingWindowSource, StreamStats
from ..trace.window import TraceWindow
from .detector import OnlineAnomalyDetector, WindowDecision
from .model import ReferenceModel
from .recorder import RecorderReport, SelectiveTraceRecorder

__all__ = [
    "MonitorResult",
    "ShardOutcome",
    "TraceMonitor",
    "build_shard_pipeline",
    "detector_stats_snapshot",
    "shard_batches",
    "shard_output_path",
]

_LOGGER = get_logger("analysis.monitor")


def _check_prefetch(prefetch_batches: int) -> None:
    """Reject negative prefetch depths instead of silently disabling."""
    if prefetch_batches < 0:
        from ..errors import ConfigurationError

        raise ConfigurationError(
            f"prefetch_batches must be >= 0 (got {prefetch_batches}); "
            "use 0 to disable prefetching"
        )


def build_shard_pipeline(
    model: ReferenceModel,
    detector_config: DetectorConfig,
    monitor_config: MonitorConfig,
    registry: EventTypeRegistry | Iterable[str],
    output_path: str | Path | None = None,
    keep_events: bool = False,
) -> tuple[EventTypeRegistry, OnlineAnomalyDetector, SelectiveTraceRecorder]:
    """Build one scoring pipeline: registry, detector, recorder.

    Single definition used by :class:`TraceMonitor` and by the fleet's one
    per-shard body (:func:`~repro.analysis.parallel._run_shard`) for either
    executor: the fleet advertises results bit-identical to single-stream
    runs, so the objects it scores with must be constructed in exactly one
    place.  An :class:`EventTypeRegistry` is used as is (the monitor's own,
    which grows with the stream); type names are cloned into a fresh
    registry (a fleet shard's).
    """
    if not isinstance(registry, EventTypeRegistry):
        registry = EventTypeRegistry(tuple(registry))
    detector = OnlineAnomalyDetector(model, detector_config, registry)
    recorder = SelectiveTraceRecorder(
        context_windows=monitor_config.record_context_windows,
        output_path=output_path,
        keep_events=keep_events,
        io_buffer_bytes=monitor_config.io_buffer_bytes,
        recording_format=monitor_config.recording_format,
    )
    return registry, detector, recorder


def shard_output_path(
    output_dir: str | Path, label: str, monitor_config: MonitorConfig
) -> Path:
    """Output file of one fleet shard (suffix follows the recording format).

    Single definition shared by the fleet scheduler and the manifest
    writer so their on-disk layouts cannot drift apart.
    """
    suffix = ".bin" if monitor_config.recording_format == "binary" else ".jsonl"
    return Path(output_dir) / f"{label}{suffix}"


def shard_batches(
    source: "Iterable[TraceWindow] | TraceColumns | ColumnarWindowSource",
    registry: EventTypeRegistry,
    monitor_config: MonitorConfig,
) -> "Iterable[WindowBatch]":
    """Window-batch iterator for one fleet shard, object or columnar.

    Accepts what the fleet accepts as a shard value — an iterable of
    :class:`~repro.trace.window.TraceWindow`, a raw
    :class:`~repro.trace.columns.TraceColumns` (cut into duration windows
    with the configured ``window_duration_us``), a fully parameterised
    :class:`~repro.trace.stream.ColumnarWindowSource`, or a live
    :class:`~repro.trace.streaming.StreamingWindowSource` (whose batches
    are pulled chunk by chunk with bounded memory).  Used by the fleet's
    per-shard body for either executor, so every worker count batches
    identically.
    """
    batch_size = max(monitor_config.batch_size, 1)
    if isinstance(source, TraceColumns):
        source = ColumnarWindowSource(source)
    if isinstance(source, (ColumnarWindowSource, StreamingWindowSource)):
        return source.batches(
            registry,
            batch_size,
            default_window_duration_us=monitor_config.window_duration_us,
        )
    return batch_windows(iter(source), registry, batch_size)


def detector_stats_snapshot(detector: OnlineAnomalyDetector) -> dict[str, float]:
    """Counter snapshot of a detector, as stored in ``MonitorResult``.

    Single definition shared by :class:`TraceMonitor` and the fleet's
    per-shard body, so the stats dictionaries compared by the equivalence
    suites cannot drift apart structurally.
    """
    return {
        "windows_processed": detector.n_processed,
        "windows_merged": detector.n_merged,
        "lof_computations": detector.n_lof_computed,
        "lof_computation_rate": detector.lof_computation_rate,
    }


def score_and_record_batch(
    detector: OnlineAnomalyDetector,
    recorder: SelectiveTraceRecorder,
    batch: WindowBatch,
) -> list[WindowDecision]:
    """Score one columnar batch, record it, return its decisions.

    This is the single definition of the batched score -> size -> record
    step: both :meth:`TraceMonitor.monitor_windows` and the sharded fleet
    (:mod:`repro.analysis.fleet`) call it, so their per-window decisions and
    byte accounting cannot drift apart.

    Byte sizes come from :meth:`~repro.trace.batch.WindowBatch.window_sizes`
    (precomputed vectorized accounting on columnar batches, a codec pass on
    object-built ones — bit-identical either way) and the recorder receives
    :meth:`~repro.trace.batch.WindowBatch.window_refs`, so columnar batches
    materialise event objects only for the windows actually written.  The
    sizes are stamped into the decisions as the detector builds them.
    """
    sizes = batch.window_sizes()
    decisions = detector.process_batch(batch, sizes)
    recorder.observe_batch(
        batch.window_refs(),
        [decision.anomalous for decision in decisions],
        window_bytes=sizes,
    )
    return decisions


@dataclass
class MonitorResult:
    """Everything produced by one monitoring session.

    Attributes
    ----------
    decisions:
        Per-window decisions, in stream order (reference windows excluded).
    report:
        Byte-accurate recording report.
    model:
        The reference model that was used.
    recorded_indices:
        Indices of the windows written to storage (includes context windows).
    reference_window_count:
        Number of windows consumed by the learning step.
    detector_stats:
        Counters from the detector (windows merged, LOF computations, ...).
    stream_stats:
        Ingest accounting of the columnar source (chunk/window counters,
        corrupt-record quarantine tallies); ``None`` for object-path runs.
    """

    decisions: list[WindowDecision]
    report: RecorderReport
    model: ReferenceModel
    recorded_indices: list[int]
    reference_window_count: int = 0
    detector_stats: dict[str, float] = field(default_factory=dict)
    stream_stats: StreamStats | None = None

    @property
    def n_windows(self) -> int:
        """Number of monitored (non-reference) windows."""
        return len(self.decisions)

    @property
    def n_anomalous(self) -> int:
        """Number of windows declared anomalous."""
        return sum(1 for decision in self.decisions if decision.anomalous)

    @property
    def anomaly_rate(self) -> float:
        """Fraction of monitored windows declared anomalous."""
        if not self.decisions:
            return 0.0
        return self.n_anomalous / len(self.decisions)

    def anomalous_windows(self) -> list[WindowDecision]:
        """Decisions of the anomalous windows only."""
        return [decision for decision in self.decisions if decision.anomalous]

    def lof_scores(self) -> list[float | None]:
        """LOF score per monitored window (``None`` when not computed)."""
        return [decision.lof_score for decision in self.decisions]


@dataclass(frozen=True)
class ShardOutcome:
    """Terminal status of one shard in a fleet run.

    Every shard submitted to :class:`~repro.analysis.fleet.ShardedTraceMonitor`
    gets exactly one outcome, whether it succeeded or was quarantined under
    ``MonitorConfig.shard_failure_policy="isolate"`` — failures are reported,
    never silently dropped.

    Attributes
    ----------
    label:
        The shard's label.
    status:
        ``"ok"`` (a :class:`MonitorResult` exists for the shard) or
        ``"failed"`` (the shard was quarantined; no result, no output file).
    attempts:
        Number of runs the shard took, including retries
        (``MonitorConfig.shard_retries``).
    error:
        Summary of the final failure, ``None`` for succeeded shards.
    """

    label: str
    status: str
    attempts: int = 1
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the shard completed successfully."""
        return self.status == "ok"

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form (fleet summaries, the output manifest)."""
        return {
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
        }


class TraceMonitor:
    """Drives reference learning, online detection and selective recording."""

    def __init__(
        self,
        detector_config: DetectorConfig | None = None,
        monitor_config: MonitorConfig | None = None,
        registry: EventTypeRegistry | None = None,
    ) -> None:
        self.detector_config = detector_config or DetectorConfig()
        self.monitor_config = monitor_config or MonitorConfig()
        self.registry = registry if registry is not None else EventTypeRegistry()

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #
    def learn_reference(
        self, windows: Iterable[TraceWindow] | WindowBatch
    ) -> ReferenceModel:
        """Learn a reference model from the given windows (or one batch)."""
        model = ReferenceModel(
            k_neighbours=self.detector_config.k_neighbours,
            index_kind=self.monitor_config.knn_backend,
        )
        model.learn(windows, self.registry)
        _LOGGER.info(
            "learned reference model from %d windows (%d usable)",
            model.n_windows_seen,
            model.n_reference_windows,
        )
        return model

    # ------------------------------------------------------------------ #
    # Monitoring
    # ------------------------------------------------------------------ #
    def monitor_windows(
        self,
        windows: Iterable[TraceWindow],
        model: ReferenceModel,
        output_path: str | Path | None = None,
        keep_events: bool = False,
        reference_window_count: int = 0,
    ) -> MonitorResult:
        """Monitor an already-windowed stream against a learned model.

        Windows are scored as columnar micro-batches of
        ``monitor_config.batch_size`` — a batch of one is still a batch —
        so the codec and file writes are amortised across windows.  The
        per-window :meth:`~repro.analysis.detector.OnlineAnomalyDetector.process`
        remains the paper-faithful oracle the equivalence suites compare
        against.
        """
        return self.monitor_batches(
            batch_windows(windows, self.registry, self.monitor_config.batch_size),
            model,
            output_path=output_path,
            keep_events=keep_events,
            reference_window_count=reference_window_count,
        )

    def monitor_batches(
        self,
        batches: Iterable[WindowBatch],
        model: ReferenceModel,
        output_path: str | Path | None = None,
        keep_events: bool = False,
        reference_window_count: int = 0,
    ) -> MonitorResult:
        """Monitor pre-built window batches against a learned model.

        The batch-iterable entry point of the monitor: accepts either
        object-built batches (:func:`~repro.trace.batch.batch_windows`) or
        the lazy batches of the columnar ingest plane
        (:func:`~repro.trace.stream.iter_column_batches`,
        :func:`~repro.trace.reader.iter_window_batches`) and produces
        results bit-identical to :meth:`monitor_windows` over the same
        windows.
        """
        _, detector, recorder = build_shard_pipeline(
            model,
            self.detector_config,
            self.monitor_config,
            self.registry,
            output_path=output_path,
            keep_events=keep_events,
        )
        decisions: list[WindowDecision] = []
        try:
            for batch in batches:
                decisions.extend(score_and_record_batch(detector, recorder, batch))
        finally:
            recorder.close()
        return self._finish(
            decisions, recorder, detector, model, reference_window_count
        )

    def _finish(
        self,
        decisions: list[WindowDecision],
        recorder: SelectiveTraceRecorder,
        detector: OnlineAnomalyDetector,
        model: ReferenceModel,
        reference_window_count: int,
    ) -> MonitorResult:
        result = MonitorResult(
            decisions=decisions,
            report=recorder.report(),
            model=model,
            recorded_indices=recorder.recorded_indices,
            reference_window_count=reference_window_count,
            detector_stats=detector_stats_snapshot(detector),
        )
        _LOGGER.info(
            "monitoring done: %d windows, %d anomalous, reduction factor %.1f",
            result.n_windows,
            result.n_anomalous,
            result.report.reduction_factor,
        )
        return result

    def run_on_stream(
        self,
        stream: TraceStream,
        model: ReferenceModel | None = None,
        output_path: str | Path | None = None,
        keep_events: bool = False,
    ) -> MonitorResult:
        """Learn (if needed) and monitor a full trace stream.

        When ``model`` is ``None`` the stream's first
        ``monitor_config.reference_duration_us`` microseconds are used as the
        reference trace; otherwise the provided (curated) model is used and
        the whole stream is monitored.
        """
        window_duration = self.monitor_config.window_duration_us
        if model is None:
            reference_windows, live_windows = stream.split_reference(
                self.monitor_config.reference_duration_us,
                window_duration_us=window_duration,
            )
            model = self.learn_reference(reference_windows)
            reference_count = len(reference_windows)
        else:
            if not model.is_fitted:
                raise ModelError("provided reference model is not fitted")
            live_windows = stream.windows(window_duration_us=window_duration)
            reference_count = 0
        return self.monitor_windows(
            live_windows,
            model,
            output_path=output_path,
            keep_events=keep_events,
            reference_window_count=reference_count,
        )

    def run_on_events(
        self,
        events: Iterable[TraceEvent],
        model: ReferenceModel | None = None,
        output_path: str | Path | None = None,
        keep_events: bool = False,
    ) -> MonitorResult:
        """Convenience wrapper for plain event iterables."""
        return self.run_on_stream(
            TraceStream(events), model=model, output_path=output_path, keep_events=keep_events
        )

    def run_on_columns(
        self,
        columns: TraceColumns,
        model: ReferenceModel | None = None,
        output_path: str | Path | None = None,
        keep_events: bool = False,
        prefetch_batches: int = 0,
    ) -> MonitorResult:
        """Learn (if needed) and monitor a columnar trace.

        The columnar mirror of :meth:`run_on_stream`: the trace is one
        chunk of a :class:`~repro.trace.streaming.StreamingWindowSource`
        monitored by :meth:`run_streaming`, so windows are cut
        array-natively, batches carry lazy windows and precomputed byte
        sizes, and the reference prefix is learned from one columnar
        batch.  Results are bit-identical to the object path over the
        same trace.
        """
        return self.run_streaming(
            StreamingWindowSource(columns_chunks=[columns]),
            model=model,
            output_path=output_path,
            keep_events=keep_events,
            prefetch_batches=prefetch_batches,
        )

    def run_on_file(
        self,
        path: str | Path,
        model: ReferenceModel | None = None,
        output_path: str | Path | None = None,
        keep_events: bool = False,
        prefetch_batches: int = 0,
    ) -> MonitorResult:
        """Columnar file-to-scores path: decode, window, batch, monitor.

        Reads ``path`` with :func:`~repro.trace.reader.read_trace_columns`
        and monitors it as a one-chunk stream via :meth:`run_on_columns` —
        the default CLI route for file-fed monitoring.
        """
        from ..trace.reader import read_trace_columns

        return self.run_on_columns(
            read_trace_columns(path),
            model=model,
            output_path=output_path,
            keep_events=keep_events,
            prefetch_batches=prefetch_batches,
        )

    def run_streaming(
        self,
        source: StreamingWindowSource,
        model: ReferenceModel | None = None,
        output_path: str | Path | None = None,
        keep_events: bool = False,
        prefetch_batches: int = 0,
    ) -> MonitorResult:
        """Learn (if needed) and monitor a columnar streaming source.

        The one columnar monitoring body: a live stream and a one-shot
        read (a stream of one chunk, :meth:`run_on_columns`) both come
        here.  Chunks are pulled from ``source`` on demand, windows are cut
        incrementally, and the decisions, report and recording are
        **bit-identical** to a one-shot read of the stream's final
        contents — fed in any chunking whatsoever.  The ingest buffer is
        bounded (``source.stats.peak_buffered_events`` follows the chunk
        and batch sizes, not the stream length), but the result is not:
        ``MonitorResult.decisions`` and ``recorded_indices`` grow with the
        stream (ROADMAP, "Memory bounded by the batch, not the run").

        When ``model`` is ``None`` the stream's reference prefix
        (``monitor_config.reference_duration_us``) is consumed and learned
        from one columnar batch first; if the stream ends inside the
        reference period, every window is reference and nothing is
        monitored.

        ``prefetch_batches > 0`` overlaps batch construction with scoring
        through a bounded producer/consumer hand-off
        (:func:`~repro.trace.pipeline.prefetch_batches`); decisions and
        recordings are unaffected.
        """
        _check_prefetch(prefetch_batches)
        window_duration = self.monitor_config.window_duration_us
        reference_count = 0
        if model is None:
            reference = source.reference_batch(
                self.registry,
                self.monitor_config.reference_duration_us,
                default_window_duration_us=window_duration,
            )
            model = self.learn_reference(reference)
            reference_count = len(reference)
        elif not model.is_fitted:
            raise ModelError("provided reference model is not fitted")
        batches = source.batches(
            self.registry,
            self.monitor_config.batch_size,
            default_window_duration_us=window_duration,
        )
        if prefetch_batches > 0:
            batches = _prefetch_batches(batches, prefetch_batches)
        result = self.monitor_batches(
            batches,
            model,
            output_path=output_path,
            keep_events=keep_events,
            reference_window_count=reference_count,
        )
        result.stream_stats = source.stats
        return result

    def follow_file(
        self,
        path: str | Path,
        model: ReferenceModel | None = None,
        output_path: str | Path | None = None,
        keep_events: bool = False,
        prefetch_batches: int = 0,
        poll_interval_s: float = 0.05,
        idle_timeout_s: float | None = None,
        stop: threading.Event | None = None,
        chunk_bytes: int = 1 << 20,
        on_corrupt: str = "raise",
    ) -> MonitorResult:
        """Follow a (possibly still-growing) trace file and monitor it live.

        The streaming counterpart of :meth:`run_on_file`: bytes are
        consumed as the tracer appends them (see
        :class:`~repro.trace.streaming.FileTail` for the poll / idle /
        stop semantics) and the result is bit-identical to a one-shot read
        of the final file.  ``on_corrupt="skip"`` quarantines mangled
        records instead of failing the stream; the skip tally lands in
        ``result.stream_stats``.
        """
        source = StreamingWindowSource.follow(
            path,
            recipe=StreamRecipe(on_corrupt=on_corrupt),
            poll_interval_s=poll_interval_s,
            idle_timeout_s=idle_timeout_s,
            stop=stop,
            chunk_bytes=chunk_bytes,
        )
        return self.run_streaming(
            source,
            model=model,
            output_path=output_path,
            keep_events=keep_events,
            prefetch_batches=prefetch_batches,
        )
