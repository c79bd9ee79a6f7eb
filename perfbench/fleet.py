"""The ``fleet-knn`` workload: library ``ShardedTraceMonitor.monitor_shards``.

Three subcommands, each run in its own process by ``run.py``:

``setup``
    Decodes the reference stream, learns the reference model ``repeats``
    times with ``ReferenceModel.learn`` (the timed set-up, index fit
    included), saves it, and computes the per-seed reference with the
    serial fleet (``fleet_workers=1``), which the bit-identity contracts
    promise equals any worker count.

``measure``
    Loads the model, decodes the 16 shards (both outside the timed phase),
    then runs the fleet with ``fleet_workers = nproc`` and binary recording
    into an output directory, in a closed loop for ``--seconds``.  Every
    iteration's decisions, reports, recorded files and manifest are checked
    against the reference.  The process starts lean and resets its RSS
    high-water mark before the loop, so ``peak_rss_mb`` covers the measured
    phase: the larger of this process's peak and the fleet workers' peaks.

``trace``
    Alternates an untraced parallel run (``fleet.wall_s``), an untraced
    serial pass that runs each shard as a one-shard fleet (per-shard times,
    ``fleet.serial_s``) and the same serial pass traced, with the detector,
    batch sizing, recorder, windowing and scoring entry points wrapped.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import repro.trace.stream as stream_module
from common import (
    WINDOW_US,
    emit,
    environment,
    model_descriptor,
    result_summary,
    scoring_layers,
    scoring_targets,
)
from repro.analysis.detector import OnlineAnomalyDetector
from repro.analysis.fleet import ShardedTraceMonitor
from repro.analysis.model import ReferenceModel
from repro.analysis.recorder import SelectiveTraceRecorder
from repro.config import DetectorConfig, MonitorConfig
from repro.trace.batch import WindowBatch
from repro.trace.event import EventTypeRegistry
from repro.trace.reader import read_trace_columns
from repro.trace.stream import column_windows_by_duration, materialize_layout_windows
from tracing import NullTracer, Tracer, instrument, traced_steps, write_spans

WORKERS = os.cpu_count() or 1
#: ``auto`` must resolve to the ball tree: at least this many points.
MIN_REFERENCE_POINTS = 8192


def _fleet(workers: int) -> ShardedTraceMonitor:
    """Default detector config, CLI-default batch size, binary recording.

    The base registry is the one ``repro fleet`` uses, so the CLI run of
    the traced pass scores identically.
    """
    return ShardedTraceMonitor(
        DetectorConfig(),
        MonitorConfig(batch_size=64, fleet_workers=workers, recording_format="binary"),
        EventTypeRegistry.with_default_types(),
    )


def _tree_digest(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def _summaries(result) -> dict:
    return {label: result_summary(shard) for label, shard in result.shard_results.items()}


def _decode_shards(paths: dict) -> dict:
    return {label: read_trace_columns(path) for label, path in paths["shards"].items()}


def _reference_windows(paths: dict) -> list:
    """The whole reference stream as window objects (learning needs them)."""
    columns = read_trace_columns(paths["reference"])
    layout = column_windows_by_duration(columns, WINDOW_US)
    return materialize_layout_windows(columns, layout, 0, layout.n_windows)


def _learn(windows: list) -> ReferenceModel:
    """The timed set-up: ``ReferenceModel.learn``, index fit included."""
    model = ReferenceModel(k_neighbours=DetectorConfig().k_neighbours, index_kind="auto")
    return model.learn(windows, EventTypeRegistry())


def setup(args: argparse.Namespace) -> None:
    paths = json.loads(args.inputs.read_text())
    windows = _reference_windows(paths)
    learn_s, models = [], []
    for _ in range(args.repeats):
        start = time.perf_counter()
        models.append(_learn(windows))
        learn_s.append(time.perf_counter() - start)
    model = models[0]
    ok = all(np.array_equal(m.points, model.points) for m in models)
    ok = ok and len(model.points) >= MIN_REFERENCE_POINTS
    model.save(args.workdir / "model.npz")
    del windows, models

    shards = _decode_shards(paths)
    out = args.workdir / "reference_out"
    shutil.rmtree(out, ignore_errors=True)
    result = _fleet(1).monitor_shards(shards, model, output_dir=out)
    outputs = _tree_digest(out)
    shutil.rmtree(out)
    (args.workdir / "expected.json").write_text(
        json.dumps({"shards": _summaries(result), "outputs": outputs})
    )
    stats = result.detector_stats
    emit(
        {
            "ok": ok and not result.degraded,
            "learn_s": learn_s,
            "outputs": outputs,
            "descriptors": {
                "events": result.report.total_events,
                "windows": result.n_windows,
                "shards": len(shards),
                "detector.lof_rate": stats["lof_computation_rate"],
                "detector.merge_rate": stats["windows_merged"]
                / max(stats["windows_processed"], 1),
                "anomaly_rate": result.anomaly_rate,
                "recorder.reduction_factor": result.reduction_factor,
                "workers": WORKERS,
                **model_descriptor(model),
                **environment(),
            },
        }
    )


def _load(args: argparse.Namespace):
    paths = json.loads(args.inputs.read_text())
    expected = json.loads((args.workdir / "expected.json").read_text())
    start = time.perf_counter()
    model = ReferenceModel.load(args.workdir / "model.npz")
    load_s = time.perf_counter() - start
    start = time.perf_counter()
    shards = _decode_shards(paths)
    decode_s = time.perf_counter() - start
    return paths, expected, model, load_s, shards, decode_s


def _run_checked(fleet, shards, model, out: Path, expected: dict):
    """One fleet run into a fresh ``out``.

    Returns the result, whether it matches the reference, and the wall and
    CPU seconds (workers included) of the ``monitor_shards`` call alone.
    """
    shutil.rmtree(out, ignore_errors=True)
    cpu = _cpu_s()
    start = time.perf_counter()
    result = fleet.monitor_shards(shards, model, output_dir=out)
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu
    ok = _summaries(result) == expected["shards"] and _tree_digest(out) == expected["outputs"]
    return result, ok and not result.degraded, wall, cpu


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _reset_peak_rss() -> None:
    """Restart this process's RSS high-water mark (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _own_peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def measure(args: argparse.Namespace) -> None:
    _, expected, model, _, shards, _ = _load(args)
    fleet = _fleet(WORKERS)
    out = args.workdir / "measure_out"
    samples: list[dict] = []
    failed = 0
    gc.collect()
    _reset_peak_rss()
    deadline = time.perf_counter() + args.seconds
    while len(samples) < 3 or time.perf_counter() < deadline:
        _, ok, wall, cpu = _run_checked(fleet, shards, model, out, expected)
        samples.append({"wall_s": wall, "cpu_s": cpu})
        failed += not ok
    workers_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    shutil.rmtree(out, ignore_errors=True)
    emit(
        {
            "attempted": len(samples),
            "failed": failed,
            "samples": samples,
            "peak_rss_mb": max(_own_peak_rss_mb(), workers_peak),
        }
    )


# ---------------------------------------------------------------------- #
# Traced run
# ---------------------------------------------------------------------- #
def _recorder_closed(tracer, args, result):
    recorder = args[0]
    tracer.add("recorder.write_calls", recorder.io_write_count)
    tracer.add("recorder.bytes", recorder.report().recorded_bytes)
    return result


def _stepwise(tracer, args, result):
    return traced_steps(tracer, "stream.window", result)


def _layer_targets() -> list:
    """Entry points the fleet's shard loop calls, plus the scoring ones."""
    return scoring_targets() + [
        (stream_module, "column_windows_by_duration", "stream.window", None),
        (stream_module, "batches_from_layout", "stream.window", _stepwise),
        (OnlineAnomalyDetector, "process_batch", "detector.batch", None),
        (WindowBatch, "window_sizes", "monitor.size", None),
        (SelectiveTraceRecorder, "observe_batch", "recorder.s", None),
        (SelectiveTraceRecorder, "close", "recorder.s", _recorder_closed),
    ]


def _serial_pass(tracer, shards, model, out: Path, expected: dict):
    """Each shard as a one-shard serial fleet.

    Returns the per-shard seconds, the number of shards whose output
    differs from the reference, and the summed detector counters
    (windows processed, merged, LOF computations).
    """
    fleet = _fleet(1)
    shard_s, failed, counts = [], 0, np.zeros(3)
    with tracer.span("fleet.serial"):
        for label, columns in shards.items():
            shutil.rmtree(out, ignore_errors=True)
            start = time.perf_counter()
            with tracer.span("fleet.shard"):
                result = fleet.monitor_shards({label: columns}, model, output_dir=out)
            shard_s.append(time.perf_counter() - start)
            name = f"{label}.bin"
            ok = _summaries(result) == {label: expected["shards"][label]}
            ok = ok and _tree_digest(out)[name] == expected["outputs"][name]
            failed += not ok
            stats = result.detector_stats
            counts += [
                stats["windows_processed"],
                stats["windows_merged"],
                stats["lof_computations"],
            ]
    return shard_s, failed, counts


def trace(args: argparse.Namespace) -> None:
    paths, expected, model, load_s, shards, decode_s = _load(args)
    setup_tracer = Tracer()
    with setup_tracer.span("setup.decode"):
        windows = _reference_windows(paths)
    with setup_tracer.span("setup.learn"):
        learned = _learn(windows)
    attempted, failed = 1, int(not np.array_equal(learned.points, model.points))
    del windows, learned

    parallel = _fleet(WORKERS)
    out = args.workdir / "trace_out"
    walls, serial, traced, tracers, layers = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while not layers or time.perf_counter() < deadline:
        result, ok, wall, _ = _run_checked(parallel, shards, model, out, expected)
        walls.append(wall)
        attempted += 1
        failed += not ok

        shard_s, bad, _ = _serial_pass(NullTracer(), shards, model, out, expected)
        serial.append(shard_s)
        attempted += len(shards)
        failed += bad

        tracer = Tracer()
        with instrument(tracer, _layer_targets()):
            start = time.perf_counter()
            _, bad, counts = _serial_pass(tracer, shards, model, out, expected)
            traced.append(time.perf_counter() - start)
        attempted += len(shards)
        failed += bad
        tracers.append(tracer)
        totals = tracer.totals()
        processed, merged, lof_computed = (int(c) for c in counts)
        layers.append(
            {
                **scoring_layers(tracer, processed, merged, lof_computed, len(model.points)),
                "stream.window_s": totals["stream.window"]["self_s"],
                "stream.windows": processed,
                "stream.batches": totals["detector.batch"]["calls"],
                "recorder.bytes": tracer.counters["recorder.bytes"],
                "recorder.write_calls": tracer.counters["recorder.write_calls"],
                "recorder.reduction_factor": result.reduction_factor,
                "fleet.attempts": sum(o.attempts for o in result.outcomes.values()),
                "fleet.failed": result.n_failed,
                "tracing.uncovered_share": totals["fleet.shard"]["self_s"]
                / totals["fleet.serial"]["total_s"],
            }
        )
    shutil.rmtree(out, ignore_errors=True)

    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    serial_s = statistics.median(sum(s) for s in serial)
    wall_s = statistics.median(walls)
    per_shard = [statistics.median(times) for times in zip(*serial)]
    input_bytes = sum(Path(p).stat().st_size for p in paths["shards"].values())
    setup_totals = setup_tracer.totals()
    metrics.update(
        {
            # The shards are decoded in set-up; decode does no measured work.
            "columns.decode_s": decode_s,
            "columns.decode_mb_per_s": input_bytes / decode_s / 1e6,
            "columns.events": sum(len(c) for c in shards.values()),
            # One-shot decode: one chunk per shard, each fully buffered.
            "streaming.chunks": len(shards),
            "streaming.peak_buffered_events": max(len(c) for c in shards.values()),
            "streaming.corrupt_records": 0,
            "fleet.wall_s": wall_s,
            "fleet.serial_s": serial_s,
            "fleet.efficiency": serial_s / (WORKERS * wall_s),
            "fleet.shard_s_p50": statistics.median(per_shard),
            "fleet.shard_s_max": max(per_shard),
            "setup.decode_s": setup_totals["setup.decode"]["total_s"],
            "setup.learn_s": setup_totals["setup.learn"]["total_s"],
            "cli.model_load_s": load_s,
            "tracing.overhead_ratio": statistics.median(traced) / serial_s,
        }
    )
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
            # What ``repro fleet`` does besides import and model load.
            "library_untraced_s": decode_s + wall_s,
        }
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("command", choices=["setup", "measure", "trace"])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    {"setup": setup, "measure": measure, "trace": trace}[args.command](args)


if __name__ == "__main__":
    main()
