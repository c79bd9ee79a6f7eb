"""Analysis layer: the paper's contribution.

Windows of trace events are abstracted as probability mass functions
(:mod:`~repro.analysis.pmf`), compared with Kullback-Leibler divergence
(:mod:`~repro.analysis.divergence`), scored against a learned reference model
with the Local Outlier Factor (:mod:`~repro.analysis.lof`), and only windows
deemed anomalous are recorded (:mod:`~repro.analysis.recorder`).  The
:mod:`~repro.analysis.monitor` module ties everything into the online
monitoring loop; :mod:`~repro.analysis.labeling` and
:mod:`~repro.analysis.metrics` implement the paper's evaluation protocol;
:mod:`~repro.analysis.baselines` provides the comparison recorders and
:mod:`~repro.analysis.periodic` the periodicity extension sketched in the
paper's conclusion.
"""

from __future__ import annotations

from ..lazy import lazy_exports

#: Public names by defining module, imported on first use (PEP 562): a
#: caller pays only for the modules whose names it touches.
_EXPORTS = {
    "pmf": ("Pmf", "merge_counts", "pmf_from_counts", "pmf_from_window", "pmf_matrix"),
    "divergence": (
        "kl_divergence", "symmetric_kl_divergence", "kl_divergence_matrix",
        "symmetric_kl_divergence_matrix", "js_divergence", "total_variation_distance",
    ),
    "knn": ("BruteForceKnn", "KnnIndex"),
    "lof": ("LocalOutlierFactor",),
    "model": ("ReferenceModel",),
    "refdb": ("ReferenceDatabase",),
    "detector": ("DetectionOutcome", "OnlineAnomalyDetector", "WindowDecision"),
    "recorder": ("FullTraceRecorder", "RecorderReport", "SelectiveTraceRecorder"),
    "monitor": ("MonitorResult", "TraceMonitor"),
    "fleet": ("FleetResult", "ShardedTraceMonitor"),
    "labeling": (
        "GroundTruth", "WindowLabel", "estimate_impact_delays", "label_windows",
    ),
    "metrics": (
        "ConfusionCounts", "DetectionMetrics", "compute_metrics", "reduction_factor",
    ),
    "baselines": (
        "BaselineResult", "KlOnlyDetectorBaseline", "PeriodicSamplingBaseline",
        "RandomSamplingBaseline", "ZScoreBaseline", "run_baseline",
    ),
    "periodic": ("PeriodicityCompactor", "estimate_dominant_period"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
