"""Process-parallel execution backend for the sharded monitoring fleet.

The serial :class:`~repro.analysis.fleet.ShardedTraceMonitor` interleaves
every shard in one Python thread, so adding streams adds wall-clock time
almost linearly.  This module moves whole shards to worker processes:

* the fitted :class:`~repro.analysis.model.ReferenceModel` is pickled **once**
  and shipped to each worker at pool start-up (the model drops its
  identity-keyed projection cache on pickling and is strictly read-only
  afterwards — workers never write to it);
* each shard is one unit of work: the worker clones the fleet's base
  event-type registry, builds its own detector and recorder (recorders are
  worker-local by construction — they refuse to pickle), and drives the
  shard's windows through the exact same
  :func:`~repro.analysis.monitor.score_and_record_batch` plane the serial
  fleet uses;
* per-shard outcomes are marshalled back as plain picklable pieces
  (decisions, report, recorded indices, detector counters) and merged in
  **submission order**, so the resulting
  :class:`~repro.analysis.fleet.FleetResult` is bit-identical to the serial
  fleet's regardless of which worker finished first (the PR 2 equivalence
  suite runs against both backends).

Failure propagation: a worker exception is caught inside the worker, carried
back as data and re-raised in the parent as :class:`~repro.errors.FleetError`
naming the failing shard — never a hang, and never a lost traceback.  All
shards run to completion (closing their output files) before the error is
raised, so a single bad stream cannot leave sibling recordings truncated.

The one semantic difference from the serial backend: shard window iterables
are materialised in the parent before submission (workers must be able to
see them), so the parallel path trades memory proportional to the fleet for
multi-core scaling.  ``MonitorConfig.max_active_shards`` does not apply —
at most ``fleet_workers`` shards are in flight at any moment.  Two shard
kinds escape the up-front materialisation through **bounded per-shard
channels** instead (see `Chunked transport`_ below): live
:class:`~repro.trace.streaming.StreamingWindowSource` shards (always), and
plain window iterables when ``MonitorConfig.shard_chunk_windows`` is set.

Window transport
----------------
Scoring a window costs far less CPU than pickling its events (the batch
plane reduced per-window compute to a few microseconds, while a
``TraceWindow`` of a few hundred events costs milliseconds to serialise),
so shipping windows through the pool's pickle queue would make the parallel
fleet slower than the serial one at any core count.  On platforms with the
``fork`` start method the materialised shard windows are therefore
**inherited**: the parent parks them in a module global, pins a fork
context, and the work order carries only the shard label — the bulk data
crosses the process boundary through copy-on-write fork memory at zero
serialisation cost.  Where fork is unavailable the windows travel inside
the (pickled) work order instead; both transports are exercised by the
equivalence suite and produce bit-identical results.

Chunked transport
-----------------
A live :class:`~repro.trace.streaming.StreamingWindowSource` shard cannot
be materialised up front (it may be unbounded, and bounding memory is its
whole point), so the parent instead pumps its *decoded chunk stream*
(:meth:`~repro.trace.streaming.StreamingWindowSource.columns_chunks`) over
a bounded per-shard channel — ``MonitorConfig.stream_queue_depth`` chunks
deep — from one feeder thread per shard, and the worker rebuilds an
identical source over the channel with
:meth:`~repro.trace.streaming.StreamingWindowSource.with_columns_chunks`.
The same channel machinery feeds plain window-iterable shards in bounded
chunks of ``MonitorConfig.shard_chunk_windows`` windows when that knob is
set, so a wide fleet of generator-backed shards no longer needs the whole
fleet's windows in memory at once.  Backpressure is end-to-end: a full
channel blocks the feeder, which stops pulling from the source.  On fork
platforms the channels are fork-inherited :class:`multiprocessing.Queue`
objects (parked in :data:`_SHARD_CHANNELS`); elsewhere they are manager
proxies travelling inside the pickled work order.  Feeder-side failures
(e.g. a decode error halfway through a stream) are marshalled over the
channel as data and re-raised in the worker, so the resulting
:class:`~repro.errors.FleetError` still names the failing shard; a worker
that loses its parent mid-stream raises instead of waiting forever.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as _queue
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..config import DetectorConfig, MonitorConfig
from ..errors import FleetError, TraceStreamError
from ..logging_util import get_logger
from ..testing.faults import fault_point, shard_scope
from ..trace.columns import TraceColumns
from ..trace.stream import ColumnarWindowSource
from ..trace.streaming import StreamingWindowSource, StreamRecipe
from ..trace.window import TraceWindow
from .detector import WindowDecision
from .model import ReferenceModel
from .monitor import (
    MonitorResult,
    ShardOutcome,
    build_shard_pipeline,
    detector_stats_snapshot,
    score_and_record_batch,
    shard_batches,
    shard_output_path,
)
from .recorder import RecorderReport

__all__ = [
    "fork_transport_available",
    "monitor_shards_parallel",
    "source_replayable",
]

_LOGGER = get_logger("analysis.parallel")


@dataclass(frozen=True)
class _WorkerState:
    """Read-only context shipped to every worker once, at pool start-up."""

    model: ReferenceModel
    detector_config: DetectorConfig
    monitor_config: MonitorConfig
    registry_names: tuple[str, ...]


@dataclass(frozen=True)
class _ShardTask:
    """One shard's work order (everything here must pickle cheaply).

    ``windows`` is ``None`` when the shard's window source travels via fork
    inheritance (:data:`_SHARD_WINDOWS`) instead of the pickle queue.
    Columnar sources (:class:`~repro.trace.columns.TraceColumns` /
    :class:`~repro.trace.stream.ColumnarWindowSource`) are flat arrays plus
    one raw buffer, cheap enough to pickle that spawn-only platforms lose
    little to the queue.
    """

    label: str
    windows: (
        tuple[TraceWindow, ...] | TraceColumns | ColumnarWindowSource | None
    )
    output_path: Path | None
    keep_events: bool
    #: ``None`` for the materialised transports above; ``"columns"`` when
    #: the shard is fed decoded :class:`TraceColumns` chunks over a bounded
    #: channel (streaming sources), ``"windows"`` when it is fed bounded
    #: lists of :class:`TraceWindow` (``shard_chunk_windows``).
    chunk_kind: str | None = None
    #: Windowing recipe for ``chunk_kind == "columns"`` reconstruction.
    recipe: StreamRecipe | None = None
    #: Manager-queue proxy on pickle-transport platforms; ``None`` on fork
    #: platforms, where the channel is inherited via :data:`_SHARD_CHANNELS`.
    channel: object | None = None
    #: 1-based run number of this shard (grows across retry waves); threaded
    #: into the fault-injection scope so chaos plans stay deterministic.
    attempt: int = 1


@dataclass
class _ShardOutcome:
    """Picklable result of one shard run, model deliberately excluded.

    The parent re-attaches the shared model when assembling the
    :class:`MonitorResult`, so the (large) model never travels back through
    the result queue N times.
    """

    label: str
    decisions: list[WindowDecision] = field(default_factory=list)
    report: RecorderReport | None = None
    recorded_indices: list[int] = field(default_factory=list)
    detector_stats: dict[str, float] = field(default_factory=dict)
    error: str | None = None


#: Per-process worker context, set by :func:`_initialize_worker`.
_WORKER_STATE: _WorkerState | None = None  # repro: fork-shared

#: Fork-inheritance staging area: the parent parks every shard's
#: materialised window source (window tuple or columnar source) here
#: immediately before creating a fork-context pool, so the (forked) workers
#: read them from inherited copy-on-write memory instead of the pickle
#: queue.  Always reset to ``None`` in the parent once the pool is done.
_SHARD_WINDOWS: (
    dict[str, tuple[TraceWindow, ...] | TraceColumns | ColumnarWindowSource] | None
) = None  # repro: fork-shared

#: Fork-inheritance staging area for the chunked transport's per-shard
#: bounded channels (:class:`multiprocessing.Queue`), keyed by shard label.
#: Always reset to ``None`` in the parent once the pool is done.
_SHARD_CHANNELS: "dict[str, object] | None" = None  # repro: fork-shared

#: How long channel operations wait before re-checking for shutdown
#: (feeder side: the run was abandoned; worker side: the parent died).
_CHANNEL_POLL_S = 0.1

#: How long pool teardown waits for each feeder thread before abandoning it
#: (they are daemons); an abandoned feeder is surfaced as a diagnostic on
#: the fleet result, never silently ignored.  Module-level so tests can
#: shrink it.
_FEEDER_JOIN_TIMEOUT_S = 5.0


def source_replayable(source: object) -> bool:
    """Whether a shard's window source can be re-run from scratch.

    Retrying a shard re-builds its whole pipeline and re-iterates its
    windows, so only sources that yield the same windows again qualify:
    materialised sequences and columnar sources.  One-shot iterators and
    live streams are consumed by the failed attempt — retrying them would
    silently score a different (suffix) stream, so they fail terminally.
    """
    if isinstance(source, (TraceColumns, ColumnarWindowSource)):
        return True
    if isinstance(source, StreamingWindowSource):
        return False
    return isinstance(source, Sequence)


def fork_transport_available() -> bool:
    """Whether workers can inherit parent memory (fork start method).

    Deliberately keyed on the *configured default* start method rather than
    on fork being merely importable: on platforms where the default is
    spawn/forkserver (macOS, Windows, Linux from Python 3.14), forking from
    an arbitrary parent state is unsafe or unexpected, so the windows
    travel through the pickle queue instead.
    """
    return multiprocessing.get_start_method() == "fork"


def _channel_put(channel: Any, message: object, stop: threading.Event) -> bool:
    """Put ``message`` on a bounded channel; ``False`` once ``stop`` fires."""
    while not stop.is_set():
        try:
            channel.put(message, timeout=_CHANNEL_POLL_S)
            return True
        except _queue.Full:
            continue
    return False


def _feed_channel(
    channel: Any, chunks: Iterable, stop: threading.Event, label: str
) -> None:
    """Parent-side feeder: pump ``chunks`` over a bounded shard channel.

    Source failures (a decode error halfway through a live stream, a bad
    window iterable) are shipped to the worker as an ``("error", message)``
    message rather than raised here, so the shard's
    :class:`~repro.errors.FleetError` names the right shard and no worker
    is left waiting on a channel that will never complete.
    """
    try:
        for chunk in chunks:
            if not _channel_put(channel, ("chunk", chunk), stop):
                return
        _channel_put(channel, ("done", None), stop)
    except Exception as exc:  # noqa: BLE001 - re-raised worker-side
        _LOGGER.warning("shard %r feeder failed: %s", label, exc)
        _channel_put(
            channel, ("error", f"{type(exc).__name__}: {exc}"), stop
        )


def _window_chunks(
    source: Iterable[TraceWindow], size: int
) -> Iterator[list[TraceWindow]]:
    """Slice a window iterable into bounded lists of at most ``size``."""
    block: list[TraceWindow] = []
    for window in source:
        block.append(window)
        if len(block) >= size:
            yield block
            block = []
    if block:
        yield block


def _iter_channel_chunks(channel: Any, label: str) -> Iterator:
    """Worker-side channel reader: yield chunks until ``done`` or failure.

    Polls with a timeout and checks parent liveness between polls — a
    parent that died with the stream unfinished surfaces as a
    :class:`~repro.errors.TraceStreamError` instead of blocking the worker
    (and the pool shutdown behind it) forever.
    """
    parent = multiprocessing.parent_process()
    while True:
        try:
            kind, payload = channel.get(timeout=_CHANNEL_POLL_S)
        except _queue.Empty:
            if parent is not None and not parent.is_alive():
                raise TraceStreamError(
                    f"shard {label!r} chunk feeder (parent process) died "
                    "before completing the stream"
                ) from None
            continue
        if kind == "chunk":
            yield payload
        elif kind == "done":
            return
        else:
            raise TraceStreamError(
                f"shard {label!r} chunk feeder failed: {payload}"
            )


def _initialize_worker(payload: bytes) -> None:
    """Unpickle the shared worker context exactly once per worker process.

    The payload is pickled explicitly in the parent (rather than relying on
    ``initargs`` marshalling) so the model's ``__getstate__`` runs under
    every multiprocessing start method — fork included — and each worker
    gets its own deserialised model instance instead of a copy-on-write
    alias of the parent's.
    """
    global _WORKER_STATE
    fault_point("worker.boot")
    _WORKER_STATE = pickle.loads(payload)


def _run_shard(task: _ShardTask) -> _ShardOutcome:
    """Monitor one shard inside a worker process.

    Mirrors the serial fleet's per-shard pipeline exactly: cloned base
    registry, per-shard detector and recorder, ``score_and_record_batch``
    over ``batch_windows`` micro-batches.  Exceptions are marshalled back as
    data — raising across the pool boundary would lose the shard label and
    can hang brittle pool implementations on unpicklable exceptions.
    """
    state = _WORKER_STATE
    if state is None:
        return _ShardOutcome(
            label=task.label, error="worker process was never initialised"
        )
    recorder = None
    try:
        with shard_scope(task.label, task.attempt):
            fault_point("shard.start")
            if task.chunk_kind is not None:
                channel = task.channel
                if channel is None:
                    if _SHARD_CHANNELS is None or task.label not in _SHARD_CHANNELS:
                        return _ShardOutcome(
                            label=task.label,
                            error="shard channel was neither pickled nor "
                            "fork-inherited",
                        )
                    channel = _SHARD_CHANNELS[task.label]
                chunks = _iter_channel_chunks(channel, task.label)
                if task.chunk_kind == "columns":
                    recipe = (
                        task.recipe if task.recipe is not None else StreamRecipe()
                    )
                    windows = StreamingWindowSource(
                        columns_chunks=chunks, recipe=recipe
                    )
                else:
                    windows = chain.from_iterable(chunks)
            elif task.windows is not None:
                windows = task.windows
            elif _SHARD_WINDOWS is not None and task.label in _SHARD_WINDOWS:
                windows = _SHARD_WINDOWS[task.label]
            else:
                return _ShardOutcome(
                    label=task.label,
                    error="shard windows were neither pickled nor fork-inherited",
                )
            config = state.monitor_config
            registry, detector, recorder = build_shard_pipeline(
                state.model,
                state.detector_config,
                config,
                state.registry_names,
                output_path=task.output_path,
                keep_events=task.keep_events,
            )
            decisions: list[WindowDecision] = []
            for batch in shard_batches(windows, registry, config):
                fault_point("shard.batch")
                decisions.extend(score_and_record_batch(detector, recorder, batch))
            # Only a clean run commits the output file (atomic rename);
            # the failure path below discards the .partial instead, so a
            # failed shard never leaves output that looks valid.
            recorder.close()
        return _ShardOutcome(
            label=task.label,
            decisions=decisions,
            report=recorder.report(),
            recorded_indices=recorder.recorded_indices,
            detector_stats=detector_stats_snapshot(detector),
        )
    except Exception as exc:
        if recorder is not None:
            try:
                recorder.discard()
            except Exception:  # noqa: BLE001 - the original error must win
                _LOGGER.exception(
                    "shard %r recorder discard failed after shard error",
                    task.label,
                )
        return _ShardOutcome(
            label=task.label,
            error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
        )


def _run_wave(
    sources: "Mapping[str, Iterable[TraceWindow] | TraceColumns | ColumnarWindowSource | StreamingWindowSource]",
    attempts: Mapping[str, int],
    payload: bytes,
    monitor_config: MonitorConfig,
    output_dir: str | Path | None,
    keep_events: bool,
    diagnostics: list[str],
) -> dict[str, _ShardOutcome]:
    """Run one wave of shards through a fresh process pool.

    Every shard in the wave gets exactly one :class:`_ShardOutcome` — a
    worker exception arrives marshalled as data, and a pool-level failure
    (a worker hard-killed mid-shard breaks the whole
    :class:`ProcessPoolExecutor`) is converted into per-shard failures for
    the futures it took down — and, when the pool breaks between two
    submits, for every shard it then refused — so the retry/isolation
    logic upstream can treat both uniformly.  The pool, channels and feeder
    threads are wave-local: a retry wave after a broken pool starts from
    clean state.
    """
    global _SHARD_WINDOWS, _SHARD_CHANNELS
    labels = list(sources)
    use_fork = fork_transport_available()
    # Shards routed through bounded channels instead of materialisation:
    # live streaming sources always (they may be unbounded), plain window
    # iterables when the shard_chunk_windows knob asks for it.
    chunked: dict[str, tuple[str, object]] = {}
    for label, source in sources.items():
        if isinstance(source, StreamingWindowSource):
            chunked[label] = ("columns", source)
        elif isinstance(source, (TraceColumns, ColumnarWindowSource)):
            continue
        elif monitor_config.shard_chunk_windows is not None:
            chunked[label] = ("windows", source)
    materialised = {
        label: (
            source
            if isinstance(source, (TraceColumns, ColumnarWindowSource))
            else tuple(source)
        )
        for label, source in sources.items()
        if label not in chunked
    }
    context = multiprocessing.get_context("fork") if use_fork else None
    manager = None
    channels: dict[str, object] = {}
    if chunked:
        depth = monitor_config.stream_queue_depth
        if use_fork:
            # Created before the pool (workers fork at first submission and
            # must inherit them); parked in _SHARD_CHANNELS below.
            channels = {
                label: context.Queue(maxsize=depth) for label in chunked
            }
        else:
            manager = multiprocessing.Manager()
            channels = {
                label: manager.Queue(maxsize=depth) for label in chunked
            }
    tasks = []
    for label in labels:
        output_path = (
            shard_output_path(output_dir, label, monitor_config)
            if output_dir is not None
            else None
        )
        if label in chunked:
            kind, source = chunked[label]
            tasks.append(
                _ShardTask(
                    label,
                    None,
                    output_path,
                    keep_events,
                    chunk_kind=kind,
                    recipe=source.recipe if kind == "columns" else None,
                    channel=None if use_fork else channels[label],
                    attempt=attempts[label],
                )
            )
        else:
            tasks.append(
                _ShardTask(
                    label,
                    None if use_fork else materialised[label],
                    output_path,
                    keep_events,
                    attempt=attempts[label],
                )
            )
    workers = max(1, min(monitor_config.fleet_workers, len(tasks)))
    _LOGGER.info(
        "parallel fleet wave: %d shards across %d worker processes "
        "(%s transport, %d chunked)",
        len(tasks),
        workers,
        "fork" if use_fork else "pickle",
        len(chunked),
    )
    outcomes: dict[str, _ShardOutcome] = {}
    stop_feeders = threading.Event()
    feeders: list[tuple[str, threading.Thread]] = []
    try:
        if use_fork:
            # Workers fork at first submission, inheriting this snapshot.
            _SHARD_WINDOWS = materialised
            _SHARD_CHANNELS = channels if channels else None
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_initialize_worker,
            initargs=(payload,),
        ) as pool:
            futures = []
            for task in tasks:
                try:
                    futures.append((task.label, pool.submit(_run_shard, task)))
                except BrokenProcessPool as exc:
                    # A worker died (e.g. at boot) between two submits: the
                    # shards never submitted fail like the ones it took down,
                    # so isolation and the retry budget still apply.
                    error = f"worker process failed: {type(exc).__name__}: {exc}"
                    for unsubmitted in tasks[len(futures) :]:
                        outcomes[unsubmitted.label] = _ShardOutcome(
                            label=unsubmitted.label, error=error
                        )
                    break
            # Feeders start only after every submission: on fork platforms
            # the workers fork during the submits above, and forking a
            # process with live feeder threads could snapshot held locks.
            for label, (kind, source) in chunked.items():
                if label in outcomes:
                    continue  # never submitted: nothing would drain it
                chunks = (
                    source.columns_chunks()
                    if kind == "columns"
                    else _window_chunks(
                        source, monitor_config.shard_chunk_windows
                    )
                )
                feeder = threading.Thread(
                    target=_feed_channel,
                    args=(channels[label], chunks, stop_feeders, label),
                    name=f"repro-shard-feed-{label}",
                    daemon=True,
                )
                feeders.append((label, feeder))
                feeder.start()
            for label, future in futures:
                try:
                    outcomes[label] = future.result()
                except Exception as exc:
                    # A dead worker (hard kill, OOM) breaks the whole pool:
                    # every future it takes down becomes a per-shard
                    # failure, attributable and retriable like any other.
                    outcomes[label] = _ShardOutcome(
                        label=label,
                        error=f"worker process failed: "
                        f"{type(exc).__name__}: {exc}",
                    )
    finally:
        _SHARD_WINDOWS = None
        _SHARD_CHANNELS = None
        stop_feeders.set()
        for channel in channels.values():
            # Unblock any feeder stuck on a full channel (dead worker).
            while True:
                try:
                    channel.get_nowait()
                except _queue.Empty:
                    break
                except (OSError, ValueError):
                    break
        for label, feeder in feeders:
            feeder.join(timeout=_FEEDER_JOIN_TIMEOUT_S)
            if feeder.is_alive():
                # The 5 s grace expired with the (daemon) feeder still
                # running: surface the abandonment instead of silently
                # dropping it — it holds a chunk source that will never
                # finish cleanly.
                message = (
                    f"feeder thread for shard {label!r} did not exit within "
                    f"{_FEEDER_JOIN_TIMEOUT_S:g}s and was abandoned"
                )
                _LOGGER.warning(message)
                diagnostics.append(message)
        for channel in channels.values():
            close = getattr(channel, "close", None)
            if close is not None and manager is None:
                try:
                    channel.cancel_join_thread()
                    close()
                except (OSError, ValueError):
                    # Best-effort teardown: a channel whose queue feeder
                    # already died must not keep the rest from closing.
                    pass
        if manager is not None:
            manager.shutdown()
    return outcomes


def monitor_shards_parallel(
    shards: "Mapping[str, Iterable[TraceWindow] | TraceColumns | ColumnarWindowSource | StreamingWindowSource]",
    model: ReferenceModel,
    detector_config: DetectorConfig,
    monitor_config: MonitorConfig,
    registry_names: Sequence[str],
    output_dir: str | Path | None = None,
    keep_events: bool = False,
) -> tuple[dict[str, MonitorResult], dict[str, ShardOutcome], tuple[str, ...]]:
    """Run every shard in a process pool; results keyed in submission order.

    The caller (:meth:`ShardedTraceMonitor.monitor_shards`) has already
    validated the model and label uniqueness.  Failed shards are retried in
    fresh pool waves while ``MonitorConfig.shard_retries`` budget remains
    and their source is replayable (:func:`source_replayable`); a retried
    shard re-runs from scratch, so its results are bit-identical to a
    fault-free run.  Terminal failures follow
    ``MonitorConfig.shard_failure_policy``: ``"abort"`` raises
    :class:`FleetError` naming the first failing shard (in submission
    order) after every shard has finished, ``"isolate"`` quarantines the
    shard and returns the survivors.

    Returns ``(results, outcomes, diagnostics)``: per-shard
    :class:`MonitorResult` for succeeded shards, one
    :class:`~repro.analysis.monitor.ShardOutcome` per submitted shard, and
    teardown diagnostics (e.g. abandoned feeder threads).
    """
    labels = list(shards)
    retries = monitor_config.shard_retries
    backoff = monitor_config.shard_retry_backoff_s
    payload = pickle.dumps(
        _WorkerState(
            model, detector_config, monitor_config, tuple(registry_names)
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    diagnostics: list[str] = []
    final: dict[str, _ShardOutcome] = {}
    attempts: dict[str, int] = {label: 1 for label in labels}
    wave = labels
    try:
        while wave:
            wave_outcomes = _run_wave(
                {label: shards[label] for label in wave},
                attempts,
                payload,
                monitor_config,
                output_dir,
                keep_events,
                diagnostics,
            )
            retry_next: list[str] = []
            for label in wave:
                outcome = wave_outcomes[label]
                if outcome.error is None:
                    final[label] = outcome
                    continue
                attempt = attempts[label]
                if attempt <= retries and source_replayable(shards[label]):
                    _LOGGER.warning(
                        "shard %r attempt %d failed, retrying: %s",
                        label,
                        attempt,
                        outcome.error,
                    )
                    attempts[label] = attempt + 1
                    retry_next.append(label)
                else:
                    final[label] = outcome
            if retry_next and backoff > 0.0:
                # All shards in a retry wave share the same attempt number
                # (wave k holds exactly the shards that failed k-1 times).
                time.sleep(backoff * (attempts[retry_next[0]] - 1))
            wave = retry_next
    except FleetError:
        raise
    except Exception as exc:
        # Pool construction / task pickling failures: anything that escaped
        # both the in-worker marshalling and the per-future capture.
        raise FleetError(f"parallel fleet execution failed: {exc}") from exc
    results: dict[str, MonitorResult] = {}
    outcomes: dict[str, ShardOutcome] = {}
    first_failure: ShardOutcome | None = None
    for label in labels:
        worker_outcome = final[label]
        if worker_outcome.error is not None:
            outcomes[label] = ShardOutcome(
                label, "failed", attempts[label], error=worker_outcome.error
            )
            if first_failure is None:
                first_failure = outcomes[label]
            _LOGGER.error(
                "shard %r failed after %d attempt(s): %s",
                label,
                attempts[label],
                worker_outcome.error,
            )
            continue
        outcomes[label] = ShardOutcome(label, "ok", attempts[label])
        results[label] = MonitorResult(
            decisions=worker_outcome.decisions,
            report=worker_outcome.report,
            model=model,
            recorded_indices=worker_outcome.recorded_indices,
            reference_window_count=0,
            detector_stats=worker_outcome.detector_stats,
        )
    if (
        first_failure is not None
        and monitor_config.shard_failure_policy == "abort"
    ):
        raise FleetError(
            f"shard {first_failure.label!r} failed in a worker process: "
            f"{first_failure.error}"
        )
    return results, outcomes, tuple(diagnostics)
