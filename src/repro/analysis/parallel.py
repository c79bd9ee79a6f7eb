"""Fleet scheduler: one retry/isolate/abort loop over an inline or pool executor.

:meth:`~repro.analysis.fleet.ShardedTraceMonitor.monitor_shards` hands every
run to :func:`schedule_shards`.  The scheduler runs the fleet in **waves**:
each wave submits a set of shards to an *executor*, which runs every shard
to completion and returns one :class:`_ShardOutcome` per shard — it never
decides policy.  The scheduler then applies the failure policy, which
exists only here:

* failed shards with a replayable source (:func:`source_replayable`) and
  ``MonitorConfig.shard_retries`` budget left are re-run from scratch in
  the next wave, after ``n * shard_retry_backoff_s`` seconds for failed
  attempt ``n`` — a retried shard's results are bit-identical to a
  fault-free run;
* ``shard_failure_policy="isolate"`` quarantines terminal failures and
  returns the survivors;
* ``"abort"`` (the default) raises the first terminal failure in
  submission order — but only after every submitted shard has run to
  completion and committed its output, so a bad stream never leaves a
  sibling recording truncated.  A failure raised in this process is
  re-raised as the original exception; a failure in a worker process
  becomes :class:`~repro.errors.FleetError` naming the shard.

Both executors run the same per-shard body, :func:`_run_shard`: it clones
the fleet's base event-type registry, builds the shard's own detector and
recorder (:func:`~repro.analysis.monitor.build_shard_pipeline`), drives
the windows through :func:`~repro.analysis.monitor.score_and_record_batch`,
commits the output file by atomic rename only on a clean run and discards
the ``.partial`` file otherwise.  Results are merged in submission order,
so the :class:`~repro.analysis.fleet.FleetResult` is bit-identical for any
worker count.

* **inline** (``MonitorConfig.fleet_workers == 1``) — shards run one after
  another in this process against the parent's model.  Each source is
  passed through untouched: one-shot iterators and live
  :class:`~repro.trace.streaming.StreamingWindowSource` shards are
  consumed in place, never materialised, pickled or sent over a channel,
  so a streaming shard keeps its bounded memory.
* **pool** (``fleet_workers > 1``) — whole shards are partitioned across a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  The fitted
  :class:`~repro.analysis.model.ReferenceModel` is pickled **once** and
  shipped to each worker at pool start-up (it drops its identity-keyed
  projection cache on pickling and is read-only afterwards); recorders
  stay worker-local (they refuse to pickle); outcomes come back as plain
  picklable pieces.  A worker exception is caught inside the worker and
  carried back as data — never a hang, never a lost traceback — and a
  worker hard-killed mid-shard (which breaks the whole pool) becomes a
  per-shard failure for every shard it took down.  Each wave gets a fresh
  pool, so a retry wave after a broken pool starts from clean state.
  Plain window iterables are materialised in the parent before submission
  (workers must be able to see them); streaming shards, and window
  iterables when ``MonitorConfig.shard_chunk_windows`` is set, travel over
  **bounded per-shard channels** instead (see `Chunked transport`_ below).

Window transport
----------------
Scoring a window costs far less CPU than pickling its events (the batch
plane reduced per-window compute to a few microseconds, while a
``TraceWindow`` of a few hundred events costs milliseconds to serialise),
so shipping windows through the pool's pickle queue would make the pool
slower than the inline executor at any core count.  On platforms with the
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
from dataclasses import dataclass, field, replace
from functools import partial
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
    "schedule_shards",
    "source_replayable",
]

_LOGGER = get_logger("analysis.parallel")


@dataclass(frozen=True)
class _WorkerState:
    """Read-only shard context: the inline executor uses it as is, the pool
    ships it to every worker once, at pool start-up."""

    model: ReferenceModel
    detector_config: DetectorConfig
    monitor_config: MonitorConfig
    registry_names: tuple[str, ...]


@dataclass(frozen=True)
class _ShardTask:
    """One shard's work order.

    The inline executor puts the shard's source in ``windows`` untouched.
    For the pool everything here must pickle cheaply: ``windows`` is
    ``None`` when the shard's window source travels via fork inheritance
    (:data:`_SHARD_WINDOWS`) or a channel instead of the pickle queue.
    Columnar sources (:class:`~repro.trace.columns.TraceColumns` /
    :class:`~repro.trace.stream.ColumnarWindowSource`) are flat arrays plus
    one raw buffer, cheap enough to pickle that spawn-only platforms lose
    little to the queue.
    """

    label: str
    windows: (
        Iterable[TraceWindow]
        | TraceColumns
        | ColumnarWindowSource
        | StreamingWindowSource
        | None
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
    the result queue N times.  ``exception`` is the live failure, kept only
    in the process that raised it: it is dropped on pickling (an exception
    may not pickle, and its traceback never does), so ``abort`` re-raises
    it for inline shards and reports worker failures by ``error`` text.
    """

    label: str
    decisions: list[WindowDecision] = field(default_factory=list)
    report: RecorderReport | None = None
    recorded_indices: list[int] = field(default_factory=list)
    detector_stats: dict[str, float] = field(default_factory=dict)
    error: str | None = None
    exception: BaseException | None = None

    def __getstate__(self) -> dict[str, object]:
        return {**self.__dict__, "exception": None}


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


def _run_shard(task: _ShardTask, state: _WorkerState | None = None) -> _ShardOutcome:
    """Monitor one shard: the only per-shard body, for both executors.

    Cloned base registry, per-shard detector and recorder,
    ``score_and_record_batch`` over ``batch_size`` micro-batches.  The
    inline executor passes its own ``state``; pool workers use the
    :data:`_WORKER_STATE` installed at start-up and resolve windows the
    pool shipped by pickle, fork inheritance or channel.  Exceptions are
    marshalled back as data — raising across the pool boundary would lose
    the shard label and can hang brittle pool implementations on
    unpicklable exceptions — with the live exception kept on the outcome
    for in-process re-raising.
    """
    if state is None:
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
            exception=exc,
        )


def _run_inline_wave(
    state: _WorkerState,
    tasks: Sequence[_ShardTask],
    sources: "Mapping[str, Iterable[TraceWindow] | TraceColumns | ColumnarWindowSource | StreamingWindowSource]",
) -> dict[str, _ShardOutcome]:
    """Inline executor: run each shard to completion in this process.

    Sources are handed to :func:`_run_shard` untouched — no pickling, no
    fork staging, no channels — so one-shot iterators and live streams are
    consumed in place with their own memory bounds.
    """
    return {
        task.label: _run_shard(replace(task, windows=sources[task.label]), state)
        for task in tasks
    }


def _run_pool_wave(
    payload: bytes,
    monitor_config: MonitorConfig,
    diagnostics: list[str],
    tasks: Sequence[_ShardTask],
    sources: "Mapping[str, Iterable[TraceWindow] | TraceColumns | ColumnarWindowSource | StreamingWindowSource]",
) -> dict[str, _ShardOutcome]:
    """Pool executor: run one wave of shards through a fresh process pool.

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
    sources = {task.label: sources[task.label] for task in tasks}
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
    # Fill in each work order's transport: a channel, the pickled windows,
    # or nothing at all (fork inheritance through _SHARD_WINDOWS).
    orders = []
    for task in tasks:
        if task.label in chunked:
            kind, source = chunked[task.label]
            task = replace(
                task,
                chunk_kind=kind,
                recipe=source.recipe if kind == "columns" else None,
                channel=None if use_fork else channels[task.label],
            )
        elif not use_fork:
            task = replace(task, windows=materialised[task.label])
        orders.append(task)
    tasks = orders
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


def schedule_shards(
    shards: "Mapping[str, Iterable[TraceWindow] | TraceColumns | ColumnarWindowSource | StreamingWindowSource]",
    model: ReferenceModel,
    detector_config: DetectorConfig,
    monitor_config: MonitorConfig,
    registry_names: Sequence[str],
    output_dir: str | Path | None = None,
    keep_events: bool = False,
) -> tuple[dict[str, MonitorResult], dict[str, ShardOutcome], tuple[str, ...]]:
    """Run every shard through the executor ``fleet_workers`` selects.

    The caller (:meth:`ShardedTraceMonitor.monitor_shards`) has already
    validated the model and label uniqueness.  Shards run in waves; failed
    shards are retried in the next wave while ``MonitorConfig.shard_retries``
    budget remains and their source is replayable
    (:func:`source_replayable`).  Terminal failures follow
    ``MonitorConfig.shard_failure_policy``: ``"isolate"`` quarantines the
    shard and returns the survivors; ``"abort"`` raises the first failure
    in submission order once every shard has finished — the original
    exception when the shard ran in this process, :class:`FleetError`
    naming the shard when it ran in a worker.

    Returns ``(results, outcomes, diagnostics)``: per-shard
    :class:`MonitorResult` for succeeded shards, one
    :class:`~repro.analysis.monitor.ShardOutcome` per submitted shard, and
    teardown diagnostics (e.g. abandoned feeder threads).
    """
    labels = list(shards)
    retries = monitor_config.shard_retries
    backoff = monitor_config.shard_retry_backoff_s
    state = _WorkerState(
        model, detector_config, monitor_config, tuple(registry_names)
    )
    diagnostics: list[str] = []
    if monitor_config.fleet_workers == 1:
        run_wave = partial(_run_inline_wave, state)
    else:
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        run_wave = partial(_run_pool_wave, payload, monitor_config, diagnostics)
    final: dict[str, _ShardOutcome] = {}
    attempts: dict[str, int] = dict.fromkeys(labels, 1)
    wave = labels
    while wave:
        tasks = [
            _ShardTask(
                label,
                None,
                None
                if output_dir is None
                else shard_output_path(output_dir, label, monitor_config),
                keep_events,
                attempt=attempts[label],
            )
            for label in wave
        ]
        try:
            wave_outcomes = run_wave(tasks, shards)
        except Exception as exc:
            # Pool construction / task pickling failures: anything that
            # escaped both the per-shard marshalling and the per-future
            # capture.
            raise FleetError(f"fleet execution failed: {exc}") from exc
        retry_next: list[str] = []
        for label in wave:
            outcome = wave_outcomes[label]
            attempt = attempts[label]
            if (
                outcome.error is not None
                and attempt <= retries
                and source_replayable(shards[label])
            ):
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
    results: dict[str, MonitorResult] = {}
    outcomes: dict[str, ShardOutcome] = {}
    first_failure: _ShardOutcome | None = None
    for label in labels:
        shard_outcome = final[label]
        if shard_outcome.error is not None:
            outcomes[label] = ShardOutcome(
                label, "failed", attempts[label], error=shard_outcome.error
            )
            if first_failure is None:
                first_failure = shard_outcome
            _LOGGER.error(
                "shard %r failed after %d attempt(s): %s",
                label,
                attempts[label],
                shard_outcome.error,
            )
            continue
        outcomes[label] = ShardOutcome(label, "ok", attempts[label])
        results[label] = MonitorResult(
            decisions=shard_outcome.decisions,
            report=shard_outcome.report,
            model=model,
            recorded_indices=shard_outcome.recorded_indices,
            reference_window_count=0,
            detector_stats=shard_outcome.detector_stats,
        )
    if (
        first_failure is not None
        and monitor_config.shard_failure_policy == "abort"
    ):
        if first_failure.exception is not None:
            raise first_failure.exception
        raise FleetError(
            f"shard {first_failure.label!r} failed in a worker process: "
            f"{first_failure.error}"
        )
    return results, outcomes, tuple(diagnostics)
