"""``repro-trace`` command line interface.

Subcommands::

    repro-trace simulate   --duration 900 --output trace.jsonl [--qos qos.json]
    repro-trace stats      trace.jsonl
    repro-trace learn      trace.jsonl --reference-s 300 --model model.npz
    repro-trace monitor    trace.jsonl --model model.npz --output recorded.jsonl
    repro-trace fleet      a.jsonl b.jsonl --model model.npz --output-dir recorded/ [--workers 4]
    repro-trace experiment --duration 900 [--alpha 1.2] [--report report.txt]
    repro-trace sweep      --duration 900 --alphas 1.0,1.2,1.5,2.0,3.0

``monitor`` and ``fleet`` read trace files through the columnar ingest plane
by default (``--ingest columnar``): vectorized decode into flat arrays,
array-native windowing and a bounded decode/score overlap
(``--prefetch``).  ``--ingest objects`` restores the per-event object path;
results are bit-identical either way.  ``--recording-format binary`` writes
recorded windows as compact binary segments whose body bytes equal the
accounted window sizes.  ``monitor --follow`` tails a trace file that is
still being appended (streaming columnar ingest, bounded memory) and stops
once the file has been idle for ``--idle-timeout`` seconds; the results are
bit-identical to a one-shot run over the final file.

``fleet --failure-policy isolate`` keeps healthy shards running when a
sibling fails (optionally retrying failures with ``--shard-retries`` /
``--retry-backoff``); ``monitor --follow --on-corrupt skip`` quarantines
mangled records in the tailed stream instead of aborting.

Every subcommand prints a plain-text report on stdout; ``--json`` switches to
machine-readable JSON output.  Exit codes: ``0`` for a clean run, ``2`` for
an error, ``3`` for a *degraded* run — the command completed and produced
output, but some shards failed under ``--failure-policy isolate`` or corrupt
records were skipped under ``--on-corrupt skip``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from ..analysis.model import ReferenceModel
from ..analysis.monitor import TraceMonitor
from ..config import DetectorConfig, EnduranceConfig, MonitorConfig
from ..errors import ConfigurationError, ReproError
from ..logging_util import configure_logging
from ..trace.batch import WindowBatch
from ..trace.columns import TraceColumns
from ..trace.event import EventTypeRegistry
from ..trace.reader import read_trace, read_trace_columns
from ..trace.stats import summarize
from ..trace.stream import TraceStream
from ..trace.streaming import StreamingWindowSource
from ..trace.writer import write_trace

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """Argparse type: integer >= 1, rejected with a clear message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer (got {text!r})")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {value})")
    return value


def _non_negative_int(text: str) -> int:
    """Argparse type: integer >= 0 (0 = disabled), rejected clearly."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer (got {text!r})")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {value})")
    return value


def _positive_float(text: str) -> float:
    """Argparse type: float > 0, rejected with a clear message."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number (got {text!r})")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0 (got {value})")
    return value


def _non_negative_float(text: str) -> float:
    """Argparse type: float >= 0, rejected with a clear message."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number (got {text!r})")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {value})")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Online trace-size reduction for multimedia endurance tests",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser("simulate", help="simulate an endurance run")
    simulate.add_argument("--duration", type=float, default=900.0, help="run length in seconds")
    simulate.add_argument("--reference-s", type=float, default=300.0)
    simulate.add_argument("--seed", type=int, default=1234)
    simulate.add_argument("--output", type=Path, required=True, help="trace output file")
    simulate.add_argument("--qos", type=Path, default=None, help="QoS error log output (JSON)")

    stats = subparsers.add_parser("stats", help="summarise a trace file")
    stats.add_argument("trace", type=Path)

    learn = subparsers.add_parser("learn", help="learn a reference model from a trace")
    learn.add_argument("trace", type=Path)
    learn.add_argument("--reference-s", type=float, default=300.0)
    learn.add_argument("--window-ms", type=float, default=40.0)
    learn.add_argument("--k", type=int, default=20)
    learn.add_argument("--model", type=Path, required=True, help="output model file (.npz)")

    monitor = subparsers.add_parser("monitor", help="monitor a trace with a learned model")
    monitor.add_argument("trace", type=Path)
    monitor.add_argument("--model", type=Path, default=None, help="reference model (.npz)")
    monitor.add_argument("--reference-s", type=float, default=300.0)
    monitor.add_argument("--window-ms", type=float, default=40.0)
    monitor.add_argument("--alpha", type=float, default=1.2)
    monitor.add_argument("--k", type=int, default=20)
    monitor.add_argument("--batch-size", type=_positive_int, default=64)
    monitor.add_argument(
        "--ingest",
        choices=["columnar", "objects"],
        default="columnar",
        help="file ingest path: vectorized columnar decode (default) or the "
        "historical per-event object decode; results are bit-identical",
    )
    monitor.add_argument(
        "--prefetch",
        type=_non_negative_int,
        default=4,
        help="batches the columnar ingest pipeline decodes ahead of scoring "
        "(bounded producer/consumer hand-off; 0 disables the overlap)",
    )
    monitor.add_argument(
        "--follow",
        action="store_true",
        help="tail the trace file as it is appended (streaming columnar "
        "ingest with bounded memory); requires --ingest columnar and stops "
        "after --idle-timeout seconds without growth",
    )
    monitor.add_argument(
        "--poll-interval",
        type=_positive_float,
        default=0.05,
        metavar="SECONDS",
        help="how often --follow re-checks the file for growth",
    )
    monitor.add_argument(
        "--idle-timeout",
        type=_non_negative_float,
        default=None,
        metavar="SECONDS",
        help="stop --follow after this long without new bytes "
        "(default: follow forever, like tail -f)",
    )
    monitor.add_argument(
        "--on-corrupt",
        choices=["raise", "skip"],
        default="raise",
        help="with --follow: fail the stream on the first corrupt record "
        "(default) or skip damaged regions, count them, and exit 3 when any "
        "were skipped",
    )
    monitor.add_argument(
        "--recording-format",
        choices=["jsonl", "binary"],
        default="jsonl",
        help="on-disk format of the recorded windows (binary matches the "
        "accounted window bytes exactly)",
    )
    monitor.add_argument("--output", type=Path, default=None, help="recorded trace output")

    fleet = subparsers.add_parser(
        "fleet", help="monitor several traces as one sharded fleet"
    )
    fleet.add_argument("traces", type=Path, nargs="+", help="one trace file per stream")
    fleet.add_argument("--model", type=Path, default=None, help="shared model (.npz)")
    fleet.add_argument(
        "--reference-s",
        type=float,
        default=300.0,
        help="reference prefix of the first trace used for learning "
        "when no --model is given",
    )
    fleet.add_argument("--window-ms", type=float, default=40.0)
    fleet.add_argument("--alpha", type=float, default=1.2)
    fleet.add_argument("--k", type=int, default=20)
    fleet.add_argument("--batch-size", type=_positive_int, default=64)
    fleet.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes for the fleet (1 = serial; results are "
        "bit-identical for any worker count)",
    )
    fleet.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=8,
        help="depth of the bounded per-shard channels used by the parallel "
        "backend's chunked transport (streaming shards and --chunk-windows)",
    )
    fleet.add_argument(
        "--chunk-windows",
        type=_positive_int,
        default=None,
        help="feed window-iterable shards to parallel workers in bounded "
        "chunks of this many windows instead of materialising whole shards",
    )
    fleet.add_argument(
        "--failure-policy",
        choices=["abort", "isolate"],
        default="abort",
        help="what a shard failure does to the fleet: abort the whole run "
        "(default) or quarantine the failing shard while its siblings "
        "complete (the run then exits 3 and the manifest marks the failure)",
    )
    fleet.add_argument(
        "--shard-retries",
        type=_non_negative_int,
        default=0,
        help="resubmit a failed shard up to this many times before its "
        "failure counts (retried results are bit-identical to fault-free)",
    )
    fleet.add_argument(
        "--retry-backoff",
        type=_non_negative_float,
        default=0.0,
        metavar="SECONDS",
        help="base delay before a shard retry, scaled by the attempt number",
    )
    fleet.add_argument(
        "--ingest",
        choices=["columnar", "objects"],
        default="columnar",
        help="file ingest path: vectorized columnar decode (default, and the "
        "cheap flat-array worker hand-off) or per-event object decode; "
        "results are bit-identical",
    )
    fleet.add_argument(
        "--recording-format",
        choices=["jsonl", "binary"],
        default="jsonl",
        help="on-disk format of the recorded shard files",
    )
    fleet.add_argument(
        "--output-dir", type=Path, default=None, help="record each shard here"
    )

    experiment = subparsers.add_parser(
        "experiment", help="run the paper's endurance experiment end to end"
    )
    experiment.add_argument("--duration", type=float, default=900.0)
    experiment.add_argument("--reference-s", type=float, default=300.0)
    experiment.add_argument("--alpha", type=float, default=1.2)
    experiment.add_argument("--seed", type=int, default=1234)
    experiment.add_argument("--report", type=Path, default=None, help="write the report here")

    sweep = subparsers.add_parser("sweep", help="precision/recall vs alpha (Figure 1)")
    sweep.add_argument("--duration", type=float, default=900.0)
    sweep.add_argument("--reference-s", type=float, default=300.0)
    sweep.add_argument("--seed", type=int, default=1234)
    sweep.add_argument(
        "--alphas", type=str, default="1.0,1.1,1.2,1.3,1.5,1.75,2.0,2.5,3.0"
    )
    sweep.add_argument("--report", type=Path, default=None)
    return parser


def _emit(args: argparse.Namespace, text: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        print(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = EnduranceConfig.scaled_paper_setup(
        duration_s=args.duration, reference_s=args.reference_s, seed=args.seed
    )
    from ..media.app import EnduranceRun

    trace = EnduranceRun(config).run()
    write_trace(trace.events, args.output)
    if args.qos is not None:
        args.qos.parent.mkdir(parents=True, exist_ok=True)
        args.qos.write_text(
            json.dumps(
                {
                    "perturbations": [
                        {"start_s": i.start_s, "end_s": i.end_s}
                        for i in trace.perturbation_intervals
                    ],
                    "errors": [dataclasses.asdict(m) for m in trace.qos_messages],
                },
                indent=2,
            )
        )
    payload = {
        "n_events": trace.n_events,
        "n_qos_errors": len(trace.qos_messages),
        "duration_s": trace.duration_s,
        "output": str(args.output),
    }
    _emit(
        args,
        f"simulated {trace.duration_s:.0f}s: {trace.n_events} events, "
        f"{len(trace.qos_messages)} QoS errors -> {args.output}",
        payload,
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    events = read_trace(args.trace)
    statistics = summarize(events)
    text = "\n".join(
        [
            f"events          : {statistics.n_events}",
            f"duration        : {statistics.duration_s:.1f} s",
            f"event rate      : {statistics.events_per_second:.0f} events/s",
            f"encoded size    : {statistics.encoded_bytes} bytes",
            f"bandwidth       : {statistics.bytes_per_second:.0f} bytes/s",
            "top event types : "
            + ", ".join(
                f"{name} ({count})"
                for name, count in sorted(
                    statistics.type_counts.items(), key=lambda item: -item[1]
                )[:8]
            ),
        ]
    )
    _emit(args, text, statistics.to_dict())
    return 0


def _monitor_configs(args: argparse.Namespace) -> tuple[DetectorConfig, MonitorConfig]:
    detector = DetectorConfig(k_neighbours=args.k, lof_threshold=getattr(args, "alpha", 1.2))
    monitor = MonitorConfig(
        window_duration_us=int(args.window_ms * 1000),
        reference_duration_us=int(args.reference_s * 1e6),
        batch_size=getattr(args, "batch_size", 1),
        recording_format=getattr(args, "recording_format", "jsonl"),
    )
    return detector, monitor


def _reference_batch(
    columns: TraceColumns,
    monitor_config: MonitorConfig,
    registry: EventTypeRegistry,
) -> WindowBatch:
    """The reference prefix of a decoded trace, as one columnar batch."""
    return StreamingWindowSource(columns_chunks=[columns]).reference_batch(
        registry,
        monitor_config.reference_duration_us,
        default_window_duration_us=monitor_config.window_duration_us,
    )


def _cmd_learn(args: argparse.Namespace) -> int:
    args.alpha = 1.2
    detector_config, monitor_config = _monitor_configs(args)
    registry = EventTypeRegistry.with_default_types()
    monitor = TraceMonitor(detector_config, monitor_config, registry)
    model = monitor.learn_reference(
        _reference_batch(read_trace_columns(args.trace), monitor_config, registry)
    )
    model.save(args.model)
    payload = {
        "reference_windows": model.n_reference_windows,
        "dimension": model.dimension,
        "suggested_alpha": model.suggest_alpha(),
        "model": str(args.model),
    }
    _emit(
        args,
        f"learned model from {model.n_reference_windows} windows "
        f"(dimension {model.dimension}, suggested alpha "
        f"{model.suggest_alpha():.2f}) -> {args.model}",
        payload,
    )
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    detector_config, monitor_config = _monitor_configs(args)
    registry = EventTypeRegistry.with_default_types()
    monitor = TraceMonitor(detector_config, monitor_config, registry)
    model = ReferenceModel.load(args.model) if args.model else None
    if args.on_corrupt != "raise" and not args.follow:
        raise ConfigurationError(
            "--on-corrupt applies to streaming ingest only (add --follow)"
        )
    if args.follow:
        if args.ingest != "columnar":
            raise ConfigurationError(
                "--follow requires the columnar ingest path "
                "(drop --ingest objects)"
            )
        result = monitor.follow_file(
            args.trace,
            model=model,
            output_path=args.output,
            prefetch_batches=args.prefetch,
            poll_interval_s=args.poll_interval,
            idle_timeout_s=args.idle_timeout,
            on_corrupt=args.on_corrupt,
        )
    elif args.ingest == "columnar":
        # Default path: file bytes -> flat arrays -> lazy WindowBatches,
        # with decode/batch construction overlapped with scoring.
        result = monitor.run_on_file(
            args.trace,
            model=model,
            output_path=args.output,
            prefetch_batches=args.prefetch,
        )
    else:
        events = read_trace(args.trace)
        result = monitor.run_on_stream(
            TraceStream(iter(events)), model=model, output_path=args.output
        )
    report = result.report
    payload = {
        "windows": result.n_windows,
        "anomalous": result.n_anomalous,
        "recorded_bytes": report.recorded_bytes,
        "total_bytes": report.total_bytes,
        "reduction_factor": report.reduction_factor,
    }
    text = (
        f"monitored {result.n_windows} windows: {result.n_anomalous} anomalous, "
        f"{report.recorded_bytes}/{report.total_bytes} bytes recorded "
        f"({report.reduction_factor:.1f}x reduction)"
    )
    corrupt = (
        result.stream_stats.corrupt_records
        if result.stream_stats is not None
        else 0
    )
    if corrupt:
        assert result.stream_stats is not None
        payload["corrupt_records"] = corrupt
        payload["corrupt_offsets"] = list(result.stream_stats.corrupt_offsets)
        text += f"\ndegraded: {corrupt} corrupt record region(s) skipped"
    _emit(args, text, payload)
    return 3 if corrupt else 0


def _shard_labels(paths: list[Path]) -> list[str]:
    """Unique shard labels derived from the trace file names."""
    labels: list[str] = []
    used: set[str] = set()
    for path in paths:
        base = path.stem or "stream"
        label = base
        suffix = 1
        while label in used:
            label = f"{base}-{suffix}"
            suffix += 1
        used.add(label)
        labels.append(label)
    return labels


def _cmd_fleet(args: argparse.Namespace) -> int:
    detector_config = DetectorConfig(k_neighbours=args.k, lof_threshold=args.alpha)
    monitor_config = MonitorConfig(
        window_duration_us=int(args.window_ms * 1000),
        reference_duration_us=int(args.reference_s * 1e6),
        batch_size=args.batch_size,
        recording_format=args.recording_format,
        fleet_workers=args.workers,
        stream_queue_depth=args.queue_depth,
        shard_chunk_windows=args.chunk_windows,
        shard_failure_policy=args.failure_policy,
        shard_retries=args.shard_retries,
        shard_retry_backoff_s=args.retry_backoff,
    )
    registry = EventTypeRegistry.with_default_types()
    labels = _shard_labels(args.traces)
    from ..analysis.fleet import ShardedTraceMonitor

    fleet = ShardedTraceMonitor(detector_config, monitor_config, registry)
    if args.ingest == "columnar":
        # Default path: each trace is decoded straight to flat arrays; with
        # --workers > 1 those arrays (not event lists) are what reaches the
        # worker processes.
        columns_by_label = {
            label: read_trace_columns(path)
            for label, path in zip(labels, args.traces)
        }

        def reference_windows():
            return _reference_batch(
                columns_by_label[labels[0]], monitor_config, registry
            )

        def run(model):
            return fleet.run_on_columns(
                columns_by_label, model, output_dir=args.output_dir
            )

    else:
        events_by_label = {
            label: read_trace(path) for label, path in zip(labels, args.traces)
        }

        def reference_windows():
            reference, _ = TraceStream(
                iter(events_by_label[labels[0]])
            ).split_reference(
                monitor_config.reference_duration_us,
                monitor_config.window_duration_us,
            )
            return reference

        def run(model):
            streams = {
                label: TraceStream(iter(events))
                for label, events in events_by_label.items()
            }
            return fleet.run_on_streams(streams, model, output_dir=args.output_dir)

    if args.model is not None:
        model = ReferenceModel.load(args.model)
    else:
        # Learn the shared model on the reference prefix of the first trace
        # ("golden device"); every trace is then monitored in full.
        model = TraceMonitor(
            detector_config, monitor_config, registry
        ).learn_reference(reference_windows())
    result = run(model)
    report = result.report
    lines = [
        f"{label}: {shard.n_windows} windows, {shard.n_anomalous} anomalous, "
        f"{shard.report.recorded_bytes}/{shard.report.total_bytes} bytes recorded"
        for label, shard in result.shard_results.items()
    ]
    for label in result.failed_labels:
        outcome = result.outcomes[label]
        lines.append(
            f"{label}: FAILED after {outcome.attempts} attempt(s): "
            f"{outcome.error}"
        )
    lines.append(
        f"fleet: {result.n_shards} shards, {result.n_windows} windows, "
        f"{result.n_anomalous} anomalous, "
        f"{report.recorded_bytes}/{report.total_bytes} bytes recorded "
        f"({report.reduction_factor:.1f}x reduction)"
    )
    if result.degraded:
        lines.append(
            f"degraded: {result.n_failed} shard(s) quarantined "
            f"(see manifest.json in --output-dir)"
        )
    _emit(args, "\n".join(lines), result.to_dict())
    return 3 if result.degraded else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from ..experiments.endurance import run_endurance_experiment
    from ..experiments.report import render_headline

    config = EnduranceConfig.scaled_paper_setup(
        duration_s=args.duration, reference_s=args.reference_s, seed=args.seed
    )
    config = dataclasses.replace(
        config, detector=config.detector.with_alpha(args.alpha)
    )
    result = run_endurance_experiment(config)
    text = render_headline(result.summary())
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(text + "\n")
    _emit(args, text, result.summary())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from ..experiments.endurance import run_endurance_experiment
    from ..experiments.report import render_alpha_sweep
    from ..experiments.sweep import alpha_sweep

    alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    config = EnduranceConfig.scaled_paper_setup(
        duration_s=args.duration, reference_s=args.reference_s, seed=args.seed
    )
    result = run_endurance_experiment(config)
    points = alpha_sweep(result, alphas)
    text = render_alpha_sweep(points)
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(text + "\n")
    _emit(args, text, {"points": [point.to_dict() for point in points]})
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "stats": _cmd_stats,
    "learn": _cmd_learn,
    "monitor": _cmd_monitor,
    "fleet": _cmd_fleet,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
