"""repro — reproduction of "Reducing trace size in multimedia applications
endurance tests" (DATE 2015).

The library has three layers:

* **Substrates** — :mod:`repro.trace` (events, windows, codecs, IO),
  :mod:`repro.platform` (discrete-event MPSoC simulator) and
  :mod:`repro.media` (GStreamer-like decoding pipeline, perturbations, QoS
  errors).  Together they stand in for the paper's real hardware + GStreamer
  setup and produce realistic endurance-test traces.
* **Analysis** — :mod:`repro.analysis`: the paper's contribution (pmf
  abstraction, Kullback-Leibler gate, Local Outlier Factor, online monitor,
  selective recorder) plus the evaluation protocol (labelling, metrics),
  baselines and the periodicity extension.
* **Batch scoring plane** — a vectorized fast path cutting across the trace
  and analysis layers: :class:`~repro.trace.batch.WindowBatch` stores a
  micro-batch of windows columnar (int32 event codes + CSR offsets),
  :func:`~repro.analysis.pmf.pmf_matrix` turns it into a counts matrix with
  one ``bincount``, and
  :meth:`~repro.analysis.detector.OnlineAnomalyDetector.process_batch`
  applies the KL gate and batched LOF with decisions identical to the
  per-window path (``MonitorConfig(batch_size=...)`` enables it end-to-end).
* **Columnar ingest plane** — the scoring plane's mirror on the input side:
  :class:`~repro.trace.columns.TraceColumns` holds a whole trace as flat
  arrays (vectorized ``decode_columns`` on both codecs), array-native
  windowing cuts it with ``searchsorted``/strided offsets straight into
  lazy :class:`~repro.trace.batch.WindowBatch` micro-batches
  (:func:`~repro.trace.reader.read_trace_columns`,
  :func:`~repro.trace.reader.iter_window_batches`), and a bounded
  producer/consumer hand-off overlaps batch building with scoring
  (``prefetch_batches`` of
  :meth:`~repro.analysis.monitor.TraceMonitor.run_on_file`, which decodes
  the file first; ``--follow`` decodes chunk by chunk instead) — results
  are bit-identical to the object path.  The recorder encodes the windows
  it writes straight from the columns
  (:func:`~repro.trace.recording.encode_window_spans`).
* **Experiments** — :mod:`repro.experiments`: the endurance experiment of
  the paper's Section III, parameter sweeps and plain-text reports; the
  benchmarks under ``benchmarks/`` drive these to regenerate the paper's
  figure and headline numbers.

Quickstart::

    from repro import EnduranceConfig, run_endurance_experiment

    config = EnduranceConfig.scaled_paper_setup(duration_s=900.0)
    result = run_endurance_experiment(config)
    print(result.metrics.precision, result.metrics.recall)
    print(result.monitor_result.report.reduction_factor)
"""

from __future__ import annotations

from .lazy import lazy_exports
from .version import __version__

#: Public names by defining module or subpackage, imported on first use
#: (PEP 562): ``import repro`` stays cheap, and so does every CLI start,
#: which loads only what its subcommand uses.
_EXPORTS = {
    "errors": (
        "ReproError", "ConfigurationError", "TraceFormatError", "TraceStreamError",
        "SimulationError", "PipelineError", "ModelError", "NotFittedError",
        "LabelingError", "RecorderError", "ExperimentError",
    ),
    "config": (
        "DetectorConfig", "MonitorConfig", "PlatformConfig", "MediaConfig",
        "PerturbationConfig", "EnduranceConfig", "load_config", "save_config",
    ),
    "trace": (
        "EventType", "EventTypeRegistry", "TraceEvent", "TraceWindow", "TraceStream",
        "TraceColumns", "ColumnarWindowSource", "WindowBatch", "batch_windows",
        "read_trace", "read_trace_columns", "iter_window_batches", "write_trace",
    ),
    "analysis": (
        "Pmf", "pmf_matrix", "kl_divergence", "symmetric_kl_divergence",
        "LocalOutlierFactor", "ReferenceModel", "ReferenceDatabase",
        "OnlineAnomalyDetector", "TraceMonitor", "MonitorResult",
        "ShardedTraceMonitor", "FleetResult", "SelectiveTraceRecorder",
        "compute_metrics",
    ),
    "media": ("EnduranceRun", "EnduranceTrace"),
    "experiments": (
        "EnduranceExperimentResult", "FleetEnduranceResult",
        "run_endurance_experiment", "run_fleet_endurance_experiment", "alpha_sweep",
    ),
}
_names, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__ = ["__version__", *_names]
