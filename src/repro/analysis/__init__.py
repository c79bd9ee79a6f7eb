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

from .pmf import Pmf, merge_counts, pmf_from_counts, pmf_from_window, pmf_matrix
from .divergence import (
    kl_divergence,
    symmetric_kl_divergence,
    kl_divergence_matrix,
    symmetric_kl_divergence_matrix,
    js_divergence,
    total_variation_distance,
)
from .knn import BruteForceKnn, KnnIndex
from .lof import LocalOutlierFactor
from .model import ReferenceModel
from .refdb import ReferenceDatabase
from .detector import DetectionOutcome, OnlineAnomalyDetector, WindowDecision
from .recorder import FullTraceRecorder, RecorderReport, SelectiveTraceRecorder
from .monitor import MonitorResult, TraceMonitor
from .fleet import FleetResult, ShardedTraceMonitor
from .labeling import GroundTruth, WindowLabel, estimate_impact_delays, label_windows
from .metrics import ConfusionCounts, DetectionMetrics, compute_metrics, reduction_factor
from .baselines import (
    BaselineResult,
    KlOnlyDetectorBaseline,
    PeriodicSamplingBaseline,
    RandomSamplingBaseline,
    ZScoreBaseline,
    run_baseline,
)
from .periodic import PeriodicityCompactor, estimate_dominant_period

__all__ = [
    "Pmf",
    "pmf_from_counts",
    "pmf_from_window",
    "pmf_matrix",
    "merge_counts",
    "kl_divergence",
    "symmetric_kl_divergence",
    "kl_divergence_matrix",
    "symmetric_kl_divergence_matrix",
    "js_divergence",
    "total_variation_distance",
    "KnnIndex",
    "BruteForceKnn",
    "LocalOutlierFactor",
    "ReferenceModel",
    "ReferenceDatabase",
    "OnlineAnomalyDetector",
    "WindowDecision",
    "DetectionOutcome",
    "SelectiveTraceRecorder",
    "FullTraceRecorder",
    "RecorderReport",
    "TraceMonitor",
    "MonitorResult",
    "FleetResult",
    "ShardedTraceMonitor",
    "GroundTruth",
    "WindowLabel",
    "estimate_impact_delays",
    "label_windows",
    "ConfusionCounts",
    "DetectionMetrics",
    "compute_metrics",
    "reduction_factor",
    "BaselineResult",
    "RandomSamplingBaseline",
    "PeriodicSamplingBaseline",
    "ZScoreBaseline",
    "KlOnlyDetectorBaseline",
    "run_baseline",
    "PeriodicityCompactor",
    "estimate_dominant_period",
]
