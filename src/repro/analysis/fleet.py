"""Sharded multi-stream monitoring fleet.

A production deployment monitors many concurrent trace streams — one per
device under endurance test — against one shared reference model.
:class:`ShardedTraceMonitor` is that fleet: it fans N labelled window streams
out to per-shard :class:`~repro.analysis.detector.OnlineAnomalyDetector` and
:class:`~repro.analysis.recorder.SelectiveTraceRecorder` instances over a
single fitted :class:`~repro.analysis.model.ReferenceModel`, drives every
shard through the vectorized batch scoring plane
(:class:`~repro.trace.batch.WindowBatch` micro-batches of
``MonitorConfig.batch_size`` windows), and merges the per-shard
:class:`~repro.analysis.monitor.MonitorResult` objects into one aggregated
:class:`FleetResult`.

Isolation guarantees (what the equivalence suite locks down):

* every shard clones the fleet's base event-type registry, so unseen event
  types appearing on one stream never change another shard's pmf
  dimensionality;
* detector state (running past pmf, counters) and recorder state (context
  buffer, byte accounting, output file) are strictly per shard;
* the shared reference model is frozen after fitting and only read.

A sharded run is therefore decision- and byte-identical to N independent
:meth:`~repro.analysis.monitor.TraceMonitor.monitor_windows` runs over the
same model, while sharing the model memory.

One scheduler (:func:`~repro.analysis.parallel.schedule_shards`) runs
every fleet, over one of two executors that produce the same result:

* **inline** (``MonitorConfig.fleet_workers == 1``, the default) — shards
  run one after another in this process; sources are consumed in place;
* **pool** (``fleet_workers > 1``) — whole shards are partitioned across a
  worker-process pool; the fitted model ships to each worker once,
  recorders stay worker-local, and the per-shard results are merged
  deterministically in submission order.

Fault tolerance (one policy, for either executor):

* ``MonitorConfig.shard_failure_policy`` — ``"abort"`` (default) lets
  every submitted shard run to completion and commit its output, then
  raises the first shard failure in submission order: the original
  exception for a shard that ran in this process, a
  :class:`~repro.errors.FleetError` naming the shard for one that ran in a
  worker.  ``"isolate"`` quarantines the failing shard while its siblings
  run to completion, with the failure reported as a :class:`ShardOutcome`
  on the result.
* ``MonitorConfig.shard_retries`` / ``shard_retry_backoff_s`` — failed
  shards with a replayable source are re-run from scratch, producing
  bit-identical results to a fault-free run.
* Crash consistency — recorders write to ``.partial`` files committed by
  atomic rename only on a clean close, failed shards' partials are
  removed, and runs with an ``output_dir`` get a ``manifest.json`` naming
  every shard's status, attempts and output bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..config import DetectorConfig, MonitorConfig
from ..errors import FleetError, ModelError
from ..logging_util import get_logger
from ..trace.columns import TraceColumns
from ..trace.event import EventTypeRegistry
from ..trace.stream import ColumnarWindowSource, TraceStream
from ..trace.streaming import StreamingWindowSource
from ..trace.window import TraceWindow
from .model import ReferenceModel
from .monitor import MonitorResult, ShardOutcome, shard_output_path
from .parallel import schedule_shards
from .recorder import RecorderReport, partial_output_path

__all__ = ["FleetResult", "ShardOutcome", "ShardedTraceMonitor"]

#: File name of the per-run shard manifest written next to the outputs.
MANIFEST_NAME = "manifest.json"

_LOGGER = get_logger("analysis.fleet")


@dataclass
class FleetResult:
    """Aggregated outcome of one sharded monitoring run.

    Attributes
    ----------
    shard_results:
        Per-shard :class:`MonitorResult`, keyed by shard label in submission
        order.  Holds only the shards that completed; under
        ``shard_failure_policy="isolate"`` quarantined shards appear in
        ``outcomes`` instead, and every aggregate below covers the
        survivors.
    model:
        The shared reference model every shard was scored against.
    outcomes:
        One :class:`ShardOutcome` per *submitted* shard (status, attempts,
        error summary), in submission order.
    diagnostics:
        Teardown warnings that did not fail the run but should not be
        silent (e.g. a feeder thread abandoned after its join timeout).
    """

    shard_results: dict[str, MonitorResult]
    model: ReferenceModel
    outcomes: dict[str, ShardOutcome] = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    # ------------------------------------------------------------------ #
    # Shard access
    # ------------------------------------------------------------------ #
    @property
    def shard_labels(self) -> tuple[str, ...]:
        """Shard labels in submission order."""
        return tuple(self.shard_results)

    @property
    def n_shards(self) -> int:
        """Number of shards in the fleet."""
        return len(self.shard_results)

    def shard(self, label: str) -> MonitorResult:
        """Return the result of the shard named ``label``."""
        try:
            return self.shard_results[label]
        except KeyError:
            raise FleetError(f"unknown shard label: {label!r}") from None

    # ------------------------------------------------------------------ #
    # Failure accounting
    # ------------------------------------------------------------------ #
    @property
    def failed_labels(self) -> tuple[str, ...]:
        """Labels of quarantined shards, in submission order."""
        return tuple(
            label for label, outcome in self.outcomes.items() if not outcome.ok
        )

    @property
    def n_failed(self) -> int:
        """Number of quarantined shards."""
        return len(self.failed_labels)

    @property
    def degraded(self) -> bool:
        """Whether the run completed with at least one quarantined shard."""
        return self.n_failed > 0

    # ------------------------------------------------------------------ #
    # Fleet-wide reductions
    # ------------------------------------------------------------------ #
    @property
    def n_windows(self) -> int:
        """Total number of monitored windows across the fleet."""
        return sum(result.n_windows for result in self.shard_results.values())

    @property
    def n_anomalous(self) -> int:
        """Total number of anomalous windows across the fleet."""
        return sum(result.n_anomalous for result in self.shard_results.values())

    @property
    def anomaly_rate(self) -> float:
        """Fraction of fleet windows declared anomalous."""
        n_windows = self.n_windows
        if n_windows == 0:
            return 0.0
        return self.n_anomalous / n_windows

    @property
    def report(self) -> RecorderReport:
        """Field-wise sum of every shard's recording report."""
        merged = RecorderReport(0, 0, 0, 0, 0, 0)
        for result in self.shard_results.values():
            merged = merged.merged_with(result.report)
        return merged

    @property
    def reduction_factor(self) -> float:
        """Fleet-wide trace-size reduction factor."""
        return self.report.reduction_factor

    @property
    def recorded_indices(self) -> dict[str, list[int]]:
        """Recorded window indices per shard."""
        return {
            label: list(result.recorded_indices)
            for label, result in self.shard_results.items()
        }

    @property
    def detector_stats(self) -> dict[str, float]:
        """Summed detector counters with the fleet-wide LOF computation rate."""
        totals = {
            "windows_processed": 0.0,
            "windows_merged": 0.0,
            "lof_computations": 0.0,
        }
        for result in self.shard_results.values():
            for key in totals:
                totals[key] += result.detector_stats.get(key, 0.0)
        processed = totals["windows_processed"]
        totals["lof_computation_rate"] = (
            totals["lof_computations"] / processed if processed else 0.0
        )
        return totals

    def to_dict(self) -> dict:
        """JSON-serialisable summary (fleet aggregates plus per-shard rows)."""
        return {
            "fleet": {
                "n_shards": self.n_shards,
                "n_windows": self.n_windows,
                "n_anomalous": self.n_anomalous,
                "anomaly_rate": self.anomaly_rate,
                "n_failed": self.n_failed,
                "degraded": self.degraded,
                "detector_stats": self.detector_stats,
                **self.report.to_dict(),
            },
            "outcomes": {
                label: outcome.to_dict()
                for label, outcome in self.outcomes.items()
            },
            "diagnostics": list(self.diagnostics),
            "shards": {
                label: {
                    "n_windows": result.n_windows,
                    "n_anomalous": result.n_anomalous,
                    "anomaly_rate": result.anomaly_rate,
                    "recorded_indices": list(result.recorded_indices),
                    "detector_stats": dict(result.detector_stats),
                    **result.report.to_dict(),
                }
                for label, result in self.shard_results.items()
            },
        }


class ShardedTraceMonitor:
    """Monitors many labelled window streams over one shared reference model.

    Construction mirrors :class:`~repro.analysis.monitor.TraceMonitor`; the
    ``registry`` argument is the *base* registry every shard clones when it
    starts, so shards observe registry growth exactly as an independent
    single-stream run seeded with the same registry would.
    """

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
    # Entry points
    # ------------------------------------------------------------------ #
    def run_on_streams(
        self,
        streams: Mapping[str, TraceStream] | Sequence[TraceStream],
        model: ReferenceModel,
        output_dir: str | Path | None = None,
        keep_events: bool = False,
    ) -> FleetResult:
        """Monitor several trace streams as one fleet.

        ``streams`` is either a mapping from shard label to
        :class:`TraceStream` or a plain sequence (labelled ``stream-00``,
        ``stream-01``, ...).  Every stream is cut into windows with the
        configured ``window_duration_us``.
        """
        labelled = self._label_streams(streams)
        duration = self.monitor_config.window_duration_us
        shards = {
            label: stream.windows(window_duration_us=duration)
            for label, stream in labelled.items()
        }
        return self.monitor_shards(
            shards, model, output_dir=output_dir, keep_events=keep_events
        )

    def run_on_columns(
        self,
        columns: Mapping[str, TraceColumns] | Sequence[TraceColumns],
        model: ReferenceModel,
        output_dir: str | Path | None = None,
        keep_events: bool = False,
    ) -> FleetResult:
        """Monitor several columnar traces as one fleet.

        The columnar mirror of :meth:`run_on_streams`: every shard's windows
        are cut array-natively with the configured ``window_duration_us``
        and scored through lazy :class:`~repro.trace.batch.WindowBatch`
        micro-batches.  With ``fleet_workers > 1`` the workers receive the
        flat column arrays — far cheaper to pickle than event lists on
        spawn-only platforms.  Results are bit-identical to the object path.
        """
        labelled = self._label_streams(columns)
        return self.monitor_shards(
            labelled, model, output_dir=output_dir, keep_events=keep_events
        )

    def monitor_shards(
        self,
        shards: "Mapping[str, Iterable[TraceWindow] | TraceColumns | ColumnarWindowSource | StreamingWindowSource]",
        model: ReferenceModel,
        output_dir: str | Path | None = None,
        keep_events: bool = False,
    ) -> FleetResult:
        """Monitor shard streams (windowed or columnar) against a fitted model.

        Shard values may be window iterables (the historical form), raw
        :class:`~repro.trace.columns.TraceColumns` (cut into duration
        windows with the configured ``window_duration_us``),
        :class:`~repro.trace.stream.ColumnarWindowSource` objects carrying
        their own windowing recipe, or live
        :class:`~repro.trace.streaming.StreamingWindowSource` streams
        (single-pass, bounded memory; the process pool feeds them to
        workers chunk-by-chunk over bounded channels instead of
        materialising them up front).  When ``output_dir`` is given each
        shard records its anomalous windows to
        ``<output_dir>/<label>.jsonl`` (``.bin`` with the binary recording
        format).  With ``MonitorConfig.fleet_workers > 1`` the shards are
        partitioned across a process pool instead of running one after
        another in this process; the merged result is bit-identical either
        way.
        """
        if not model.is_fitted:
            raise ModelError("the shared reference model must be fitted")
        labels = list(shards)
        if len(set(labels)) != len(labels):
            raise FleetError("shard labels must be unique")
        ordered, outcomes, diagnostics = schedule_shards(
            shards,
            model,
            self.detector_config,
            self.monitor_config,
            self.registry.names,
            output_dir=output_dir,
            keep_events=keep_events,
        )
        result = FleetResult(
            shard_results=ordered,
            model=model,
            outcomes=outcomes,
            diagnostics=diagnostics,
        )
        if output_dir is not None:
            self._write_manifest(Path(output_dir), outcomes)
        _LOGGER.info(
            "fleet done: %d shards, %d windows, %d anomalous, %d failed, "
            "reduction factor %.1f",
            result.n_shards,
            result.n_windows,
            result.n_anomalous,
            result.n_failed,
            result.report.reduction_factor,
        )
        return result

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _write_manifest(
        self, output_dir: Path, outcomes: Mapping[str, ShardOutcome]
    ) -> Path:
        """Atomically write ``manifest.json`` describing every shard's output.

        Failed shards get their leftover ``.partial`` file removed here (a
        hard-killed worker cannot clean up after itself), so after any run
        the directory holds only committed outputs plus the manifest —
        never a truncated file that looks valid.
        """
        config = self.monitor_config
        shards: dict[str, dict[str, object]] = {}
        for label, outcome in outcomes.items():
            path = shard_output_path(output_dir, label, config)
            entry = dict(outcome.to_dict())
            if outcome.ok and path.exists():
                entry["output"] = path.name
                entry["output_bytes"] = path.stat().st_size
            else:
                partial_output_path(path).unlink(missing_ok=True)
                entry["output"] = None
                entry["output_bytes"] = None
            shards[label] = entry
        manifest = {
            "policy": config.shard_failure_policy,
            "recording_format": config.recording_format,
            "shards": shards,
        }
        manifest_path = output_dir / MANIFEST_NAME
        temp_path = manifest_path.with_name(manifest_path.name + ".partial")
        temp_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        os.replace(temp_path, manifest_path)
        return manifest_path

    @staticmethod
    def _label_streams(
        streams: Mapping[str, TraceStream] | Sequence[TraceStream],
    ) -> dict[str, TraceStream]:
        if isinstance(streams, Mapping):
            return dict(streams)
        return {
            f"stream-{position:02d}": stream
            for position, stream in enumerate(streams)
        }
