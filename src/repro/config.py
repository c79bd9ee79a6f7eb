"""Central configuration objects for the reproduction.

The paper's approach has a small number of user-facing parameters (window
size, number of LOF neighbours ``K``, LOF threshold ``alpha``, KL similarity
threshold) and the experiment of Section III has its own parameters
(perturbation period/duration, reference length, ...).  All of them are
grouped here as frozen-by-default dataclasses with validation, plus helpers to
load/dump them as plain dictionaries or JSON files so experiments are easy to
script and archive.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigurationError

__all__ = [
    "DetectorConfig",
    "MonitorConfig",
    "PlatformConfig",
    "MediaConfig",
    "PerturbationConfig",
    "EnduranceConfig",
    "config_to_dict",
    "config_from_dict",
    "load_config",
    "save_config",
    "KNN_BACKENDS",
]

#: k-NN backend names older configurations and model files carry.  Each one
#: selects the one exact search, :class:`~repro.analysis.knn.BruteForceKnn`
#: (the retired tree backends returned bit-identical neighbours).
KNN_BACKENDS = ("auto", "brute", "kdtree", "grid", "balltree")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class DetectorConfig:
    """Parameters of the online anomaly detector (paper Section II).

    Attributes
    ----------
    k_neighbours:
        Number of neighbours used by the Local Outlier Factor computation
        (``K`` in the paper; the experiment of Section III uses 20).
    lof_threshold:
        The ``alpha`` threshold above which a window is declared anomalous
        (the paper sweeps it in Figure 1 and uses 1.2 for the headline
        numbers).
    kl_threshold:
        Threshold on the (symmetrised, smoothed) Kullback-Leibler divergence
        between the current window pmf and the running past pmf.  Below this
        value the window is considered "similar" and merged into the past
        pmf without running LOF.
    kl_smoothing:
        Additive (Laplace) smoothing constant applied before computing KL so
        the divergence is finite even when supports differ.
    merge_decay:
        Exponential decay factor used when merging the current pmf into the
        running past pmf: ``P <- (1 - merge_decay) * P + merge_decay * N``.
    use_kl_gate:
        If ``False``, LOF is computed for every window (ablation C).
    """

    k_neighbours: int = 20
    lof_threshold: float = 1.2
    kl_threshold: float = 0.05
    kl_smoothing: float = 1e-6
    merge_decay: float = 0.2
    use_kl_gate: bool = True

    def __post_init__(self) -> None:
        _require(self.k_neighbours >= 1, "k_neighbours must be >= 1")
        _require(self.lof_threshold > 0.0, "lof_threshold must be positive")
        _require(self.kl_threshold >= 0.0, "kl_threshold must be >= 0")
        _require(self.kl_smoothing > 0.0, "kl_smoothing must be positive")
        _require(0.0 < self.merge_decay <= 1.0, "merge_decay must be in (0, 1]")

    def with_alpha(self, alpha: float) -> "DetectorConfig":
        """Return a copy with a different LOF threshold (used by sweeps)."""
        return dataclasses.replace(self, lof_threshold=alpha)


@dataclass(frozen=True)
class MonitorConfig:
    """Parameters of the trace monitor wrapping the detector.

    Attributes
    ----------
    window_duration_us:
        Duration of a trace window in microseconds (the paper uses 40 ms
        windows, i.e. 40_000 us).
    window_event_capacity:
        Optional cap on the number of events per window, mirroring the size
        of the tracing-hardware buffer.  ``None`` disables the cap.
    reference_duration_us:
        Length of the reference prefix used for learning when no curated
        reference database is supplied (300 s in the paper).
    record_context_windows:
        Number of extra windows recorded before and after an anomalous
        window, so the saved trace retains some context for debugging.
    batch_size:
        Number of windows the monitor hands to the detector at once.  1 (the
        default) keeps the historical per-window path bit-for-bit; larger
        values route the stream through the vectorized batch scoring plane
        (:meth:`~repro.analysis.detector.OnlineAnomalyDetector.process_batch`),
        which produces identical decisions at a fraction of the cost.
    io_buffer_bytes:
        Size of the selective recorder's write buffer: recorded windows are
        encoded into memory and flushed to the output file in chunks of at
        least this many bytes.  ``0`` disables buffering (one write per
        recorded window, the historical behaviour).
    recording_format:
        On-disk format of recorded windows.  ``"jsonl"`` (default) keeps the
        historical human-readable JSON-lines output; ``"binary"`` routes the
        recorders through :class:`~repro.trace.codec.BinaryTraceCodec`, one
        self-describing segment per recorded window, so the persisted body
        bytes match the accounted ``window_bytes`` exactly and the file
        round-trips through :func:`~repro.trace.reader.read_trace`.
    fleet_workers:
        Executor of the sharded fleet's scheduler
        (:mod:`repro.analysis.parallel`).  ``1`` (default) runs shards one
        after another in this process, consuming each source in place;
        larger values partition whole shards across that many worker
        processes of a :class:`concurrent.futures.ProcessPoolExecutor` for
        multi-core scaling.  Results, output files and the manifest are
        bit-identical for any worker count.
    knn_backend:
        Retired: one of the :data:`KNN_BACKENDS` names (default ``"auto"``),
        accepted so older configurations still load.  Every name means the
        one exact k-NN search; an unknown name is rejected.
    stream_queue_depth:
        Depth of the bounded hand-off queues used by the streaming ingest
        plane (:mod:`repro.trace.streaming`) and the chunked per-shard
        channels of the fleet's process-pool executor.  Deeper queues smooth
        producer/consumer jitter at the cost of more buffered chunks in
        memory; must be >= 1.
    shard_chunk_windows:
        When set, the fleet's process-pool executor feeds plain window-iterable
        shards to workers in bounded chunks of this many windows instead of
        materialising the full shard list up front (streaming shards are
        always fed chunked).  ``None`` (default) keeps the historical
        fully-materialised hand-off for list/iterator shards.
    shard_failure_policy:
        What the sharded fleet does when one shard fails.  Either way the
        failing shard's partial output file is discarded and every sibling
        shard runs to completion with bit-identical results and committed
        output.  ``"abort"`` (default) then raises the first failure in
        submission order: the original exception when the shard ran in
        this process (``fleet_workers == 1``), a
        :class:`~repro.errors.FleetError` naming the shard when it ran in a
        worker.  ``"isolate"`` instead quarantines the failing shard and
        reports its failure as a
        :class:`~repro.analysis.fleet.ShardOutcome` on the
        :class:`~repro.analysis.fleet.FleetResult`.
    shard_retries:
        Number of times a failed shard is re-run from scratch before it is
        quarantined (``"isolate"``) or aborts the fleet (``"abort"``).  Only
        shards whose window source can be replayed (materialised sequences
        and columnar sources) are retried; one-shot iterators and live
        streams fail terminally on their first error.  ``0`` (default)
        disables retry.
    shard_retry_backoff_s:
        Delay in seconds before each retry attempt, scaled linearly by the
        attempt number (attempt ``n`` sleeps ``n * shard_retry_backoff_s``).
        ``0.0`` (default) retries immediately.
    """

    window_duration_us: int = 40_000
    window_event_capacity: int | None = None
    reference_duration_us: int = 300_000_000
    record_context_windows: int = 0
    batch_size: int = 1
    io_buffer_bytes: int = 65_536
    recording_format: str = "jsonl"
    fleet_workers: int = 1
    knn_backend: str = "auto"
    stream_queue_depth: int = 8
    shard_chunk_windows: int | None = None
    shard_failure_policy: str = "abort"
    shard_retries: int = 0
    shard_retry_backoff_s: float = 0.0

    def __post_init__(self) -> None:
        _require(self.window_duration_us > 0, "window_duration_us must be > 0")
        _require(
            self.window_event_capacity is None or self.window_event_capacity > 0,
            "window_event_capacity must be None or > 0",
        )
        _require(self.reference_duration_us > 0, "reference_duration_us must be > 0")
        _require(self.record_context_windows >= 0, "record_context_windows must be >= 0")
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        _require(self.io_buffer_bytes >= 0, "io_buffer_bytes must be >= 0")
        _require(
            self.recording_format in {"jsonl", "binary"},
            "recording_format must be 'jsonl' or 'binary'",
        )
        _require(self.fleet_workers >= 1, "fleet_workers must be >= 1")
        _require(
            self.knn_backend in KNN_BACKENDS,
            f"knn_backend must be one of {', '.join(map(repr, KNN_BACKENDS))}",
        )
        _require(
            self.stream_queue_depth >= 1, "stream_queue_depth must be >= 1"
        )
        _require(
            self.shard_chunk_windows is None or self.shard_chunk_windows >= 1,
            "shard_chunk_windows must be None or >= 1",
        )
        _require(
            self.shard_failure_policy in {"abort", "isolate"},
            "shard_failure_policy must be 'abort' or 'isolate'",
        )
        _require(self.shard_retries >= 0, "shard_retries must be >= 0")
        _require(
            self.shard_retry_backoff_s >= 0.0, "shard_retry_backoff_s must be >= 0"
        )


@dataclass(frozen=True)
class PlatformConfig:
    """Parameters of the simulated MPSoC platform.

    The paper runs GStreamer pinned to a single core of an Intel i7; the
    default platform therefore exposes one general purpose core, but the
    simulator supports several cores and hardware accelerators.
    """

    n_cores: int = 1
    core_frequency_mhz: int = 2000
    scheduler_quantum_us: int = 4_000
    trace_buffer_events: int = 256
    context_switch_cost_us: int = 5
    memory_bandwidth_mbps: int = 6_400
    trace_scope: str = "application"

    def __post_init__(self) -> None:
        _require(self.n_cores >= 1, "n_cores must be >= 1")
        _require(self.core_frequency_mhz > 0, "core_frequency_mhz must be > 0")
        _require(self.scheduler_quantum_us > 0, "scheduler_quantum_us must be > 0")
        _require(self.trace_buffer_events > 0, "trace_buffer_events must be > 0")
        _require(self.context_switch_cost_us >= 0, "context_switch_cost_us must be >= 0")
        _require(self.memory_bandwidth_mbps > 0, "memory_bandwidth_mbps must be > 0")
        _require(
            self.trace_scope in {"application", "full"},
            "trace_scope must be 'application' or 'full'",
        )


@dataclass(frozen=True)
class MediaConfig:
    """Parameters of the simulated multimedia (video decoding) workload.

    ``qos_errors_in_trace`` controls whether the pipeline's QoS error
    messages are mirrored into the trace itself.  The paper reads the
    GStreamer error log as a side channel (ground truth only), so the
    default is ``False``; enabling it models platforms whose tracing layer
    captures framework errors and makes detection markedly easier.
    """

    frame_rate_fps: float = 25.0
    duration_s: float = 600.0
    gop_length: int = 12
    buffer_capacity_frames: int = 25
    audio_sample_rate_hz: int = 48_000
    frame_complexity_mean: float = 1.0
    frame_complexity_jitter: float = 0.15
    qos_errors_in_trace: bool = False
    seed: int = 1234

    def __post_init__(self) -> None:
        _require(self.frame_rate_fps > 0, "frame_rate_fps must be > 0")
        _require(self.duration_s > 0, "duration_s must be > 0")
        _require(self.gop_length >= 1, "gop_length must be >= 1")
        _require(self.buffer_capacity_frames >= 1, "buffer_capacity_frames must be >= 1")
        _require(self.audio_sample_rate_hz > 0, "audio_sample_rate_hz must be > 0")
        _require(self.frame_complexity_mean > 0, "frame_complexity_mean must be > 0")
        _require(self.frame_complexity_jitter >= 0, "frame_complexity_jitter must be >= 0")

    @property
    def frame_period_us(self) -> float:
        """Nominal frame period in microseconds."""
        return 1_000_000.0 / self.frame_rate_fps

    @property
    def n_frames(self) -> int:
        """Total number of video frames in the workload."""
        return int(round(self.duration_s * self.frame_rate_fps))


@dataclass(frozen=True)
class PerturbationConfig:
    """Schedule of CPU perturbations injected during the endurance run.

    The paper injects a 20 s perturbation every 3 minutes through a heavy
    processing application; the simulated equivalent adds a CPU-bound task
    competing with the decoder for the core.
    """

    period_s: float = 180.0
    duration_s: float = 20.0
    start_offset_s: float = 330.0
    load_factor: float = 3.0
    jitter_s: float = 0.0
    seed: int = 99

    def __post_init__(self) -> None:
        _require(self.period_s > 0, "period_s must be > 0")
        _require(self.duration_s > 0, "duration_s must be > 0")
        _require(self.duration_s < self.period_s, "duration_s must be < period_s")
        _require(self.start_offset_s >= 0, "start_offset_s must be >= 0")
        _require(self.load_factor > 0, "load_factor must be > 0")
        _require(self.jitter_s >= 0, "jitter_s must be >= 0")


@dataclass(frozen=True)
class EnduranceConfig:
    """Full description of an endurance-test experiment (paper Section III)."""

    detector: DetectorConfig = field(default_factory=DetectorConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    platform: PlatformConfig = field(default_factory=PlatformConfig)
    media: MediaConfig = field(default_factory=MediaConfig)
    perturbation: PerturbationConfig = field(default_factory=PerturbationConfig)

    def __post_init__(self) -> None:
        reference_s = self.monitor.reference_duration_us / 1e6
        _require(
            reference_s < self.media.duration_s,
            "reference duration must be shorter than the media duration",
        )
        _require(
            self.perturbation.start_offset_s >= reference_s,
            "perturbations must start after the reference period "
            f"(start_offset_s={self.perturbation.start_offset_s}, reference={reference_s}s)",
        )

    @classmethod
    def scaled_paper_setup(
        cls,
        duration_s: float = 1800.0,
        reference_s: float = 300.0,
        seed: int = 1234,
    ) -> "EnduranceConfig":
        """Return the paper's experimental setup scaled to ``duration_s``.

        The paper decodes a 6 h 17 m video; simulating the full run is
        unnecessary for reproducing the *shape* of Figure 1, so the default
        scales the run down while keeping the window size (40 ms), K (20),
        reference length (300 s) and perturbation schedule (20 s every
        3 minutes) identical to the paper.
        """
        _require(duration_s > reference_s + 60, "duration_s too short for a scaled run")
        return cls(
            detector=DetectorConfig(k_neighbours=20, lof_threshold=1.2),
            monitor=MonitorConfig(
                window_duration_us=40_000,
                reference_duration_us=int(reference_s * 1e6),
            ),
            platform=PlatformConfig(n_cores=1),
            media=MediaConfig(duration_s=duration_s, seed=seed),
            perturbation=PerturbationConfig(start_offset_s=reference_s + 30.0),
        )


#: Keys older versions of :func:`save_config` wrote that no longer configure
#: anything; :func:`config_from_dict` drops them so old files still load.
_RETIRED_KEYS: Mapping[str, frozenset[str]] = {
    "monitor": frozenset({"max_active_shards"}),
}

_CONFIG_TYPES: Mapping[str, type] = {
    "detector": DetectorConfig,
    "monitor": MonitorConfig,
    "platform": PlatformConfig,
    "media": MediaConfig,
    "perturbation": PerturbationConfig,
}


def config_to_dict(config: Any) -> dict[str, Any]:
    """Convert any configuration dataclass (possibly nested) to a dict."""
    if not dataclasses.is_dataclass(config):
        raise ConfigurationError(f"not a configuration object: {config!r}")
    return dataclasses.asdict(config)


def config_from_dict(data: Mapping[str, Any]) -> EnduranceConfig:
    """Build an :class:`EnduranceConfig` from a (possibly partial) mapping.

    Unknown keys raise :class:`ConfigurationError` instead of being silently
    ignored, so typos in experiment scripts are caught early; only the
    retired keys in :data:`_RETIRED_KEYS` are dropped.
    """
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key not in _CONFIG_TYPES:
            raise ConfigurationError(f"unknown configuration section: {key!r}")
        section_type = _CONFIG_TYPES[key]
        field_names = {f.name for f in dataclasses.fields(section_type)}
        retired = _RETIRED_KEYS.get(key, frozenset())
        unknown = set(value) - field_names - retired
        if unknown:
            raise ConfigurationError(
                f"unknown keys in section {key!r}: {sorted(unknown)}"
            )
        kwargs[key] = section_type(
            **{name: item for name, item in value.items() if name not in retired}
        )
    return EnduranceConfig(**kwargs)


def save_config(config: EnduranceConfig, path: str | Path) -> Path:
    """Serialise an experiment configuration to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True))
    return path


def load_config(path: str | Path) -> EnduranceConfig:
    """Load an experiment configuration previously written by :func:`save_config`."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot load configuration from {path}: {exc}") from exc
    return config_from_dict(data)
