"""Single-stream workloads (``replay-bin``, ``follow-jsonl``): library side.

Two subcommands, each run in its own process by ``run.py``:

``reference``
    The per-seed reference the CLI runs are checked against, computed
    through a path the repository's bit-identity contracts promise is equal
    to the CLI's: ``TraceMonitor.run_on_file`` with ``prefetch_batches=0``
    (the CLI overlaps decode and scoring with ``--prefetch 4``; ``--follow``
    tails the file in chunks, while the reference reads it in one shot).

``trace``
    The traced run.  It drives the same public functions ``repro monitor``
    composes (file decode or the chunked decoder's ``feed``/``finish``,
    windowing and batch building, ``process_batch``, ``window_sizes``,
    ``observe_batch``/``close``) with a span around each call, and wraps
    ``pmf_matrix``, ``symmetric_kl_divergence_matrix`` and
    ``ReferenceModel.score_vectors`` for the pass.  Untraced and traced
    passes alternate; every pass must reproduce the reference bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import time
from pathlib import Path

import numpy as np

from common import (
    BATCH_SIZE,
    REFERENCE_US,
    WINDOW_US,
    cli_configs,
    decisions_digest,
    emit,
    environment,
    file_digest,
    model_descriptor,
    result_summary,
    scoring_layers,
    scoring_targets,
)
from repro.analysis.model import ReferenceModel
from repro.analysis.monitor import TraceMonitor, build_shard_pipeline
from repro.trace.columns import JsonColumnsDecoder
from repro.trace.event import EventTypeRegistry
from repro.trace.reader import read_trace, read_trace_columns
from repro.trace.stream import (
    TraceStream,
    batches_from_layout,
    column_windows_by_duration,
)
from repro.trace.streaming import StreamingWindowSource
from tracing import NullTracer, Tracer, instrument, traced_steps, write_spans

#: Chunk size of ``repro monitor --follow`` (``follow_file``'s default).
FOLLOW_CHUNK_BYTES = 1 << 20


def reference(args: argparse.Namespace) -> None:
    detector_config, monitor_config = cli_configs()
    model = ReferenceModel.load(args.model)
    monitor = TraceMonitor(
        detector_config, monitor_config, EventTypeRegistry.with_default_types()
    )
    result = monitor.run_on_file(
        args.input, model=model, output_path=args.output, prefetch_batches=0
    )
    stats = result.detector_stats
    report = result.report
    emit(
        {
            **result_summary(result),
            "recorded_sha256": file_digest(args.output),
            "cli_payload": {
                "windows": result.n_windows,
                "anomalous": result.n_anomalous,
                "recorded_bytes": report.recorded_bytes,
                "total_bytes": report.total_bytes,
                "reduction_factor": report.reduction_factor,
            },
            "descriptors": {
                "events": report.total_events,
                "windows": result.n_windows,
                "input_bytes": Path(args.input).stat().st_size,
                "detector.lof_rate": stats["lof_computation_rate"],
                "detector.merge_rate": stats["windows_merged"]
                / max(stats["windows_processed"], 1),
                "anomaly_rate": result.anomaly_rate,
                "recorder.reduction_factor": report.reduction_factor,
                **model_descriptor(model),
                **environment(),
            },
        }
    )


# ---------------------------------------------------------------------- #
# Traced run
# ---------------------------------------------------------------------- #
def _drive(tracer, batches, detector, recorder) -> list:
    """The batched score -> size -> record loop of ``TraceMonitor``."""
    decisions: list = []
    try:
        for batch in traced_steps(tracer, "stream.window", batches):
            tracer.add("stream.batches")
            with tracer.span("detector.batch"):
                batch_decisions = detector.process_batch(batch)
            with tracer.span("monitor.size"):
                sizes = batch.window_sizes()
            stamped = [
                dataclasses.replace(decision, window_bytes=size)
                for decision, size in zip(batch_decisions, sizes)
            ]
            decisions.extend(stamped)
            with tracer.span("recorder.s"):
                recorder.observe_batch(
                    batch.window_refs(),
                    [decision.anomalous for decision in stamped],
                    window_bytes=sizes,
                )
    finally:
        with tracer.span("recorder.s"):
            recorder.close()
    return decisions


def _pipeline(model: ReferenceModel, output: Path):
    detector_config, monitor_config = cli_configs()
    return build_shard_pipeline(
        model,
        detector_config,
        monitor_config,
        EventTypeRegistry.with_default_types().names,
        output_path=output,
    )


def replay_pass(tracer, trace_path: Path, model, output: Path) -> dict:
    registry, detector, recorder = _pipeline(model, output)
    with tracer.span("run"):
        with tracer.span("columns.decode"):
            columns = read_trace_columns(trace_path)
        with tracer.span("stream.window"):
            layout = column_windows_by_duration(columns, WINDOW_US)
        batches = batches_from_layout(columns, layout, registry, batch_size=BATCH_SIZE)
        decisions = _drive(tracer, batches, detector, recorder)
    return {
        "decisions": decisions,
        "detector": detector,
        "recorder": recorder,
        "events": len(columns),
        "windows": layout.n_windows,
        # A one-shot read is one chunk that buffers the whole trace.
        "chunks": 1,
        "peak_buffered_events": len(columns),
        "corrupt_records": 0,
    }


def follow_pass(tracer, trace_path: Path, model, output: Path) -> dict:
    registry, detector, recorder = _pipeline(model, output)

    def decoded_chunks():
        decoder = JsonColumnsDecoder()
        with trace_path.open("rb") as handle:
            while data := handle.read(FOLLOW_CHUNK_BYTES):
                with tracer.span("columns.decode"):
                    columns = decoder.feed(data)
                if len(columns):
                    yield columns
        with tracer.span("columns.decode"):
            tail = decoder.finish()
        if len(tail):
            yield tail

    source = StreamingWindowSource(columns_chunks=decoded_chunks())
    with tracer.span("run"):
        batches = source.batches(
            registry, BATCH_SIZE, default_window_duration_us=WINDOW_US
        )
        decisions = _drive(tracer, batches, detector, recorder)
    stats = source.stats
    return {
        "decisions": decisions,
        "detector": detector,
        "recorder": recorder,
        "events": stats.events,
        "windows": stats.windows,
        "chunks": stats.chunks,
        "peak_buffered_events": stats.peak_buffered_events,
        "corrupt_records": stats.corrupt_records,
    }


def _check(outcome: dict, expected: dict, output: Path) -> bool:
    report = outcome["recorder"].report()
    return (
        decisions_digest(outcome["decisions"]) == expected["decisions"]
        and report.to_dict() == expected["report"]
        and file_digest(output) == expected["recorded_sha256"]
    )


def _layer_metrics(tracer: Tracer, outcome: dict, input_bytes: int, model) -> dict:
    totals = tracer.totals()
    detector = outcome["detector"]
    report = outcome["recorder"].report()
    wall = totals["run"]["total_s"]
    decode_s = totals["columns.decode"]["total_s"]
    return {
        **scoring_layers(
            tracer,
            detector.n_processed,
            detector.n_merged,
            detector.n_lof_computed,
            len(model.points),
        ),
        "columns.decode_s": decode_s,
        "columns.decode_mb_per_s": input_bytes / decode_s / 1e6,
        "columns.events": outcome["events"],
        "stream.window_s": totals["stream.window"]["self_s"],
        "stream.windows": outcome["windows"],
        "stream.batches": tracer.counters["stream.batches"],
        "streaming.chunks": outcome["chunks"],
        "streaming.peak_buffered_events": outcome["peak_buffered_events"],
        "streaming.corrupt_records": outcome["corrupt_records"],
        "recorder.bytes": report.recorded_bytes,
        "recorder.write_calls": outcome["recorder"].io_write_count,
        "recorder.reduction_factor": report.reduction_factor,
        # A single stream is a one-shard fleet run serially in-process.
        "fleet.wall_s": wall,
        "fleet.serial_s": wall,
        "fleet.efficiency": 1.0,
        "fleet.shard_s_p50": wall,
        "fleet.shard_s_max": wall,
        "fleet.attempts": 1,
        "fleet.failed": 0,
        "tracing.uncovered_share": totals["run"]["self_s"] / wall,
    }


def trace(args: argparse.Namespace) -> None:
    expected = json.loads(args.expected.read_text())
    run_pass = replay_pass if args.workload == "replay-bin" else follow_pass
    input_bytes = args.input.stat().st_size
    output = args.workdir / "traced_rec.jsonl"

    # Set-up layers, composed as ``repro learn`` composes them.
    setup_tracer = Tracer()
    with setup_tracer.span("setup.decode"):
        events = read_trace(args.input)
    with setup_tracer.span("setup.learn"):
        detector_config, monitor_config = cli_configs()
        monitor = TraceMonitor(
            detector_config, monitor_config, EventTypeRegistry.with_default_types()
        )
        reference_windows, _ = TraceStream(iter(events)).split_reference(
            REFERENCE_US, WINDOW_US
        )
        learned = monitor.learn_reference(reference_windows)
    del events, reference_windows

    attempted = failed = 0
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    load_times: list[float] = []
    tracers: list[Tracer] = []
    layers: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while not layers or time.perf_counter() < deadline:
        start = time.perf_counter()
        model = ReferenceModel.load(args.model)
        load_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        outcome = run_pass(NullTracer(), args.input, model, output)
        untraced_walls.append(time.perf_counter() - start)
        attempted += 1
        failed += not _check(outcome, expected, output)

        tracer = Tracer()
        with instrument(tracer, scoring_targets()):
            start = time.perf_counter()
            outcome = run_pass(tracer, args.input, model, output)
            traced_walls.append(time.perf_counter() - start)
        attempted += 1
        failed += not _check(outcome, expected, output)
        tracers.append(tracer)
        layers.append(_layer_metrics(tracer, outcome, input_bytes, model))

    # The traced ``repro learn`` composition must learn the model the CLI did.
    attempted += 1
    failed += not np.array_equal(learned.points, model.points)
    metrics = {
        name: statistics.median(layer[name] for layer in layers) for name in layers[0]
    }
    setup_totals = setup_tracer.totals()
    metrics["setup.decode_s"] = setup_totals["setup.decode"]["total_s"]
    metrics["setup.learn_s"] = setup_totals["setup.learn"]["total_s"]
    metrics["cli.model_load_s"] = statistics.median(load_times)
    metrics["tracing.overhead_ratio"] = statistics.median(
        traced_walls
    ) / statistics.median(untraced_walls)
    write_spans(
        args.workdir / "spans.jsonl",
        [("setup", setup_tracer)]
        + [(f"traced-{i}", tracer) for i, tracer in enumerate(tracers)],
    )
    emit(
        {
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "library_untraced_s": statistics.median(untraced_walls),
        }
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("command", choices=["reference", "trace"])
    parser.add_argument("--workload", choices=["replay-bin", "follow-jsonl"])
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--model", type=Path, required=True)
    parser.add_argument("--output", type=Path)
    parser.add_argument("--expected", type=Path)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    if args.command == "reference":
        reference(args)
    else:
        trace(args)


if __name__ == "__main__":
    main()
