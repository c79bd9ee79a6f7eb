"""The paper's endurance experiment, end to end.

``run_endurance_experiment`` reproduces Section III of the paper on the
simulated substrate:

1. simulate the endurance run (video decoding + periodic CPU perturbations),
2. learn the reference model on the first ``reference_duration`` of the
   trace (300 s in the paper),
3. monitor the remainder online, recording only anomalous windows,
4. estimate the impact delays (Δs / Δe) from the perturbation schedule and
   the QoS error log,
5. label every monitored window (TP / FP / FN / TN) and compute precision,
   recall and the trace-size reduction factor.

``run_experiment_on_trace`` performs steps 2-5 on an already simulated trace,
which is how the parameter sweeps avoid re-simulating the same workload for
every parameter value.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..analysis.detector import WindowDecision
from ..analysis.fleet import FleetResult, ShardedTraceMonitor
from ..analysis.labeling import GroundTruth, label_windows
from ..analysis.metrics import ConfusionCounts, DetectionMetrics, compute_metrics
from ..analysis.monitor import MonitorResult, TraceMonitor
from ..config import DetectorConfig, EnduranceConfig, MonitorConfig
from ..errors import ExperimentError
from ..logging_util import get_logger
from ..media.app import EnduranceRun, EnduranceTrace
from ..trace.columns import TraceColumns
from ..trace.event import EventTypeRegistry
from ..trace.stream import (
    ColumnarWindowSource,
    column_windows_by_duration,
    reference_batch,
    reference_window_count,
)

__all__ = [
    "EnduranceExperimentResult",
    "FleetEnduranceResult",
    "run_endurance_experiment",
    "run_experiment_on_trace",
    "run_fleet_endurance_experiment",
]

_LOGGER = get_logger("experiments.endurance")


@dataclass
class EnduranceExperimentResult:
    """Everything produced by one endurance experiment.

    Attributes
    ----------
    config:
        The experiment configuration.
    trace:
        The simulated endurance trace (events, QoS errors, perturbations).
    monitor_result:
        Per-window decisions and recording report from the online monitor.
    ground_truth:
        Impact intervals (with estimated Δs / Δe) and error timestamps.
    metrics:
        Detection metrics at the configured LOF threshold ``alpha``.
    """

    config: EnduranceConfig
    trace: EnduranceTrace
    monitor_result: MonitorResult
    ground_truth: GroundTruth
    metrics: DetectionMetrics
    extras: dict = field(default_factory=dict)

    @property
    def alpha(self) -> float:
        """The LOF threshold the monitor ran with."""
        return self.config.detector.lof_threshold

    @property
    def decisions(self) -> list[WindowDecision]:
        """Per-window decisions of the monitored (non-reference) part."""
        return self.monitor_result.decisions

    def metrics_at(self, alpha: float) -> DetectionMetrics:
        """Re-evaluate precision/recall/reduction for a different ``alpha``.

        The LOF score of a window does not depend on ``alpha`` and the KL
        gate is threshold-independent, so a single monitoring pass supports
        evaluating any threshold exactly (this is how Figure 1 is produced).
        """
        if alpha <= 0:
            raise ExperimentError("alpha must be positive")
        labels = label_windows(self.decisions, self.ground_truth, alpha=alpha)
        recorded_bytes = sum(
            decision.window_bytes
            for decision in self.decisions
            if decision.anomalous_at(alpha)
        )
        return DetectionMetrics(
            counts=ConfusionCounts.from_labels(labels),
            recorded_bytes=recorded_bytes,
            total_bytes=self.monitor_result.report.total_bytes,
        )

    def summary(self) -> dict:
        """Compact JSON-serialisable summary used by reports and benchmarks."""
        report = self.monitor_result.report
        return {
            "duration_s": self.trace.duration_s,
            "n_events": self.trace.n_events,
            "n_qos_errors": len(self.trace.qos_messages),
            "n_perturbations": len(self.trace.perturbation_intervals),
            "n_windows_monitored": self.monitor_result.n_windows,
            "n_windows_anomalous": self.monitor_result.n_anomalous,
            "alpha": self.alpha,
            "precision": self.metrics.precision,
            "recall": self.metrics.recall,
            "f1": self.metrics.f1,
            "total_bytes": report.total_bytes,
            "recorded_bytes": report.recorded_bytes,
            "reduction_factor": report.reduction_factor,
            "delta_start_s": self.ground_truth.delta_start_us / 1e6,
            "delta_end_s": self.ground_truth.delta_end_us / 1e6,
            "lof_computation_rate": self.monitor_result.detector_stats.get(
                "lof_computation_rate", 0.0
            ),
        }


def run_experiment_on_trace(
    trace: EnduranceTrace,
    config: EnduranceConfig,
    detector_config: DetectorConfig | None = None,
    monitor_config: MonitorConfig | None = None,
    keep_events: bool = False,
) -> EnduranceExperimentResult:
    """Run learning + monitoring + evaluation on an existing trace.

    ``detector_config`` / ``monitor_config`` default to the ones inside
    ``config``; passing different ones lets the sweeps explore parameters
    without re-simulating the workload.
    """
    detector_config = detector_config or config.detector
    monitor_config = monitor_config or config.monitor
    registry = EventTypeRegistry.with_default_types()
    monitor = TraceMonitor(detector_config, monitor_config, registry)
    monitor_result = monitor.run_on_stream(trace.stream(), keep_events=keep_events)

    ground_truth = GroundTruth.from_run(
        trace.perturbation_intervals, trace.qos_timestamps_us()
    )
    labels = label_windows(monitor_result.decisions, ground_truth)
    metrics = compute_metrics(labels, monitor_result.report)
    return EnduranceExperimentResult(
        config=config,
        trace=trace,
        monitor_result=monitor_result,
        ground_truth=ground_truth,
        metrics=metrics,
    )


@dataclass
class FleetEnduranceResult:
    """Outcome of a multi-stream (fleet) endurance experiment.

    ``n_streams`` simulated endurance runs — same configuration, different
    media seeds — are monitored as one sharded fleet over a reference model
    learned on the first stream's reference prefix (the "golden device"
    deployment model: one curated model shared by every unit under test).
    """

    config: EnduranceConfig
    traces: list[EnduranceTrace]
    fleet_result: FleetResult
    reference_window_count: int

    @property
    def n_streams(self) -> int:
        """Number of monitored streams in the fleet."""
        return len(self.traces)

    def summary(self) -> dict:
        """Compact JSON-serialisable summary (fleet aggregates + per shard)."""
        payload = self.fleet_result.to_dict()
        payload["fleet"]["n_streams"] = self.n_streams
        payload["fleet"]["reference_window_count"] = self.reference_window_count
        payload["fleet"]["duration_s"] = self.config.media.duration_s
        return payload


def run_fleet_endurance_experiment(
    config: EnduranceConfig | None = None,
    n_streams: int = 4,
    seed_stride: int = 101,
    keep_events: bool = False,
    fleet_workers: int | None = None,
    ingest: str = "objects",
) -> FleetEnduranceResult:
    """Simulate ``n_streams`` endurance runs and monitor them as one fleet.

    Stream ``i`` uses media seed ``config.media.seed + i * seed_stride``.
    The reference model is learned once, on the reference prefix of stream
    0; every stream's live remainder (after its own reference prefix, which
    models the shared warm-up period) is then monitored by a per-stream
    shard over that shared model.

    ``fleet_workers`` overrides ``config.monitor.fleet_workers``: with a
    value > 1 the shards run in a worker-process pool
    (:mod:`repro.analysis.parallel`) — results are bit-identical for any
    worker count.

    ``ingest`` selects the shard hand-off: ``"objects"`` (default) feeds
    per-window object iterators, ``"columnar"`` converts each simulated
    trace to :class:`~repro.trace.columns.TraceColumns` and drives the
    array-native ingest plane (windows cut by ``searchsorted``, lazy
    materialisation, flat-array worker hand-off).  Results are
    bit-identical either way.
    """
    if n_streams < 1:
        raise ExperimentError("n_streams must be >= 1")
    if ingest not in {"objects", "columnar"}:
        raise ExperimentError(
            f"unknown ingest mode: {ingest!r} (expected 'objects' or 'columnar')"
        )
    config = config or EnduranceConfig.scaled_paper_setup()
    if fleet_workers is not None:
        config = dataclasses.replace(
            config,
            monitor=dataclasses.replace(config.monitor, fleet_workers=fleet_workers),
        )
    _LOGGER.info(
        "running fleet endurance experiment: %d streams x %.0f s media "
        "(%d worker process%s)",
        n_streams,
        config.media.duration_s,
        config.monitor.fleet_workers,
        "" if config.monitor.fleet_workers == 1 else "es",
    )
    traces = []
    for position in range(n_streams):
        stream_config = dataclasses.replace(
            config,
            media=dataclasses.replace(
                config.media, seed=config.media.seed + position * seed_stride
            ),
        )
        traces.append(EnduranceRun(stream_config).run())

    registry = EventTypeRegistry.with_default_types()
    monitor = TraceMonitor(config.detector, config.monitor, registry)
    shards = {}
    reference_windows = None
    if ingest == "columnar":
        boundary = config.monitor.reference_duration_us
        duration = config.monitor.window_duration_us
        for position, trace in enumerate(traces):
            columns = TraceColumns.from_events(trace.events)
            if position == 0:
                reference_windows, first_live = reference_batch(
                    columns, registry, boundary, duration
                )
            else:
                first_live = reference_window_count(
                    column_windows_by_duration(columns, duration), boundary
                )
            shards[f"stream-{position:02d}"] = ColumnarWindowSource(
                columns, first_window=first_live
            )
    else:
        for position, trace in enumerate(traces):
            reference, live = trace.stream().split_reference(
                config.monitor.reference_duration_us,
                window_duration_us=config.monitor.window_duration_us,
            )
            if position == 0:
                reference_windows = reference
            shards[f"stream-{position:02d}"] = live
    model = monitor.learn_reference(reference_windows)

    fleet = ShardedTraceMonitor(config.detector, config.monitor, registry)
    fleet_result = fleet.monitor_shards(shards, model, keep_events=keep_events)
    return FleetEnduranceResult(
        config=config,
        traces=traces,
        fleet_result=fleet_result,
        reference_window_count=len(reference_windows),
    )


def run_endurance_experiment(
    config: EnduranceConfig | None = None,
    keep_events: bool = False,
) -> EnduranceExperimentResult:
    """Simulate the endurance run and evaluate the monitor on it."""
    config = config or EnduranceConfig.scaled_paper_setup()
    _LOGGER.info(
        "running endurance experiment: %.0f s media, window %.0f ms, K=%d, alpha=%.2f",
        config.media.duration_s,
        config.monitor.window_duration_us / 1e3,
        config.detector.k_neighbours,
        config.detector.lof_threshold,
    )
    trace = EnduranceRun(config).run()
    if not trace.qos_messages:
        _LOGGER.warning(
            "the endurance run produced no QoS error: perturbations may be too weak"
        )
    return run_experiment_on_trace(trace, config, keep_events=keep_events)
