"""Fault-tolerance bookkeeping must be free when nothing faults.

``MonitorConfig.shard_failure_policy="isolate"`` and a retry budget only
change what the fleet scheduler does with a *failed* shard: on a fault-free
fleet ``abort`` and ``isolate`` run the same code, so the policy must cost
nothing measurable:

* a 16-shard fault-free fleet under ``isolate`` (with a retry budget
  armed) produces a result bit-identical to the default ``abort`` policy
  (asserted here, unconditionally) and runs within 5% of it.  Back-to-back
  runs of one policy differ by far more than 5% on a shared machine, so
  this bench only records the isolate/abort wall ratio
  (``extra_info["timing_floor"]``); ``benchmarks/run_benchmarks.py``
  asserts the bound on the archived run;
* the dormant fault-injection hooks (:func:`repro.testing.faults.fault_point`
  with no plan armed) are a single environment lookup — sub-microsecond —
  so sprinkling them through per-batch code paths is safe.
"""

from __future__ import annotations

import time

from repro.analysis.fleet import ShardedTraceMonitor
from repro.analysis.model import ReferenceModel
from repro.config import DetectorConfig, MonitorConfig
from repro.testing import fault_point
from repro.trace.event import EventTypeRegistry
from repro.trace.generator import SyntheticTraceGenerator
from repro.trace.stream import windows_by_duration

from run_benchmarks import timing_floor
from test_bench_fleet import MIX, WINDOW_DURATION_US, EVENT_RATE_PER_S, best_of

N_SHARDS = 16
STREAM_DURATION_S = 4.0
BATCH_SIZE = 64
MAX_ISOLATE_OVERHEAD = 0.05

DETECTOR_CONFIG = DetectorConfig(k_neighbours=20, lof_threshold=1.2)


def _setup():
    registry = EventTypeRegistry.with_default_types()
    reference_generator = SyntheticTraceGenerator(
        MIX, rate_per_s=EVENT_RATE_PER_S, seed=1
    )
    reference = list(
        windows_by_duration(reference_generator.events(40.0), WINDOW_DURATION_US)
    )
    model = ReferenceModel(k_neighbours=20).learn(reference, registry)
    streams = {}
    for position in range(N_SHARDS):
        generator = SyntheticTraceGenerator(
            MIX, rate_per_s=EVENT_RATE_PER_S, seed=50 + position
        )
        streams[f"shard-{position:02d}"] = list(
            windows_by_duration(
                generator.events(STREAM_DURATION_S), WINDOW_DURATION_US
            )
        )
    return model, registry, streams


def _run(model, registry, streams, **config_kwargs):
    fleet = ShardedTraceMonitor(
        DETECTOR_CONFIG,
        MonitorConfig(batch_size=BATCH_SIZE, **config_kwargs),
        EventTypeRegistry(registry.names),
    )
    return fleet.monitor_shards(dict(streams), model)


def test_isolate_policy_overhead_on_fault_free_fleet(benchmark):
    model, registry, streams = _setup()

    abort_result = _run(model, registry, streams)
    isolate_result = _run(
        model,
        registry,
        streams,
        shard_failure_policy="isolate",
        shard_retries=2,
    )
    assert not isolate_result.degraded
    assert isolate_result.to_dict()["fleet"] == abort_result.to_dict()["fleet"]
    assert isolate_result.to_dict()["shards"] == abort_result.to_dict()["shards"]

    n_windows = benchmark(
        lambda: _run(
            model,
            registry,
            streams,
            shard_failure_policy="isolate",
            shard_retries=2,
        ).n_windows
    )

    abort_s = best_of(lambda: _run(model, registry, streams), repetitions=5)
    isolate_s = best_of(
        lambda: _run(
            model,
            registry,
            streams,
            shard_failure_policy="isolate",
            shard_retries=2,
        ),
        repetitions=5,
    )
    overhead = isolate_s / abort_s - 1.0
    print()
    print(
        f"fault-free {N_SHARDS}-shard fleet ({n_windows} windows): "
        f"abort {n_windows / abort_s:,.0f} windows/s | "
        f"isolate+retries {n_windows / isolate_s:,.0f} windows/s | "
        f"overhead {overhead * 100:+.1f}%"
    )
    benchmark.extra_info["timing_floor"] = timing_floor(
        "isolate/abort wall", isolate_s / abort_s, maximum=1.0 + MAX_ISOLATE_OVERHEAD
    )


def test_dormant_fault_hooks_are_nearly_free(monkeypatch):
    from repro.testing import faults

    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    calls = 100_000
    start = time.perf_counter()
    for _ in range(calls):
        fault_point("shard.batch")
    per_call_ns = (time.perf_counter() - start) / calls * 1e9
    print(f"\ndormant fault_point: {per_call_ns:.0f} ns/call")
    # A dormant hook is one os.environ lookup; anything beyond 5 us/call
    # would mean the harness accidentally grew work on the hot path.
    assert per_call_ns < 5_000
