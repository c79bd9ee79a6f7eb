"""Reference-scoring throughput on the queries the KL gate sends to LOF.

LOF scores only the windows that fail the KL gate — a few dozen per batch —
against the learned reference, so the k-NN queries that matter are those,
not a synthetic sweep.  The primary rows capture them: a detector run with
``batch_size=64`` monitors a trace whose second half shifts its event mix,
and every batch that reaches ``ReferenceModel.score_vectors`` is recorded.
The capture is then replayed through the same model, checked against the
scores the run produced, and timed.  Reference sizes run from the CLI
workloads' few hundred points to the fleet workload's several thousand.

The secondary rows keep the in-cluster sweep: queries drawn from the
reference's own clusters on the probability simplex, at larger reference
sizes than a learned model reaches here.

Every row archives ``us_per_row`` (best-of-N microseconds per query row) and
the reference size in ``extra_info``.

The kernel rows time the filter-and-refine search against the exact scan
at the ``fleet-knn`` shape: 2 400 LOF queries of an 8 589 x 12 reference of
20-event window pmfs at k = 20, and the k + 1 self-query a fit runs.  Both
routes must return the same bits; each row archives the exact/filtered
time ratio (floor 1.8) and the filtered search's CPU/wall ratio (at most
1.2: its BLAS calls stay on the calling thread) as timing floors, which
``benchmarks/run_benchmarks.py`` asserts.

``REPRO_BENCH_KNN_SMOKE=1`` shrinks every sweep to a seconds-long smoke run
(used by CI), which archives the ratios without asserting them.
"""

from __future__ import annotations

import os
import resource
import time

import numpy as np
import pytest

import repro.analysis.knn as knn_module
from repro.analysis.knn import BruteForceKnn
from repro.analysis.model import ReferenceModel
from repro.analysis.monitor import TraceMonitor
from repro.config import DetectorConfig, MonitorConfig
from repro.trace.event import EventTypeRegistry
from repro.trace.generator import PeriodicTraceGenerator, SyntheticTraceGenerator
from repro.trace.stream import windows_by_duration

from run_benchmarks import timing_floor

#: Smoke mode (REPRO_BENCH_KNN_SMOKE=1): tiny sweeps, one repetition —
#: exercises the harness, not the hardware.
SMOKE = os.environ.get("REPRO_BENCH_KNN_SMOKE") == "1"
REPETITIONS = 1 if SMOKE else 3

WINDOW_US = 40_000
BATCH_SIZE = 64
RATE_PER_S = 500.0
#: Twelve event types with one dominant decode event, like the fleet
#: workload's traffic; the shifted mix raises scheduling and cache pressure.
NORMAL_MIX = {
    "mb_row_decode": 10.0, "frame_decode_start": 1.0, "frame_decode_end": 1.0,
    "frame_display": 1.0, "vsync": 1.0, "audio_decode": 2.0, "buffer_push": 1.0,
    "buffer_pop": 1.0, "demux_packet": 1.0, "sched_switch": 2.0, "irq_enter": 1.0,
    "cache_miss": 1.0,
}
SHIFTED_MIX = {
    **NORMAL_MIX, "mb_row_decode": 5.0, "sched_switch": 6.0, "irq_enter": 2.0,
    "cache_miss": 4.0,
}
#: Reference prefix lengths: 12 s gives a few hundred points (the CLI
#: workloads' scale), 344 s several thousand (the fleet workload's).
REFERENCE_S = (4.0, 12.0) if SMOKE else (12.0, 80.0, 344.0)
MONITORED_S = 8.0 if SMOKE else 24.0

SIZES = (256, 512) if SMOKE else (4_096, 16_384, 65_536)
KS = (5,) if SMOKE else (5, 20)
DIMS = (8,) if SMOKE else (8, 24)
N_SWEEP_QUERIES = 32 if SMOKE else 256
N_CLUSTERS = 12

_SWEEP = [(size, k, dim) for size in SIZES for k in KS for dim in DIMS]

#: The ``fleet-knn`` kernel shape: reference points, LOF queries, k.
KERNEL_POINTS = 1_500 if SMOKE else 8_589
KERNEL_QUERIES = 200 if SMOKE else 2_400
KERNEL_K = 20
#: Events per reference window (500 events/s, 40 ms windows).
KERNEL_EVENTS = 20
MIN_KERNEL_SPEEDUP = None if SMOKE else 1.8
MAX_KERNEL_CPU_PER_WALL = None if SMOKE else 1.2


def best_of(fn, repetitions=REPETITIONS):
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def gate_queries(reference_s: float, monkeypatch):
    """Learn a reference, monitor a shifted stream, capture the LOF batches."""
    monitor = TraceMonitor(
        DetectorConfig(), MonitorConfig(batch_size=BATCH_SIZE), EventTypeRegistry()
    )
    reference = SyntheticTraceGenerator(NORMAL_MIX, rate_per_s=RATE_PER_S, seed=1)
    model = monitor.learn_reference(
        windows_by_duration(reference.events(reference_s), WINDOW_US)
    )
    live = PeriodicTraceGenerator(
        NORMAL_MIX,
        SHIFTED_MIX,
        anomaly_intervals=[(MONITORED_S / 2, MONITORED_S)],
        rate_per_s=RATE_PER_S,
        seed=2,
    )
    captured: list[tuple[np.ndarray, np.ndarray]] = []
    score_vectors = ReferenceModel.score_vectors

    def capture(self, vectors):
        scores = score_vectors(self, vectors)
        captured.append((np.array(vectors), scores.copy()))
        return scores

    with monkeypatch.context() as patch:
        patch.setattr(ReferenceModel, "score_vectors", capture)
        monitor.monitor_windows(
            windows_by_duration(live.events(MONITORED_S), WINDOW_US), model
        )
    return model, captured


@pytest.mark.parametrize(
    "reference_s", REFERENCE_S, ids=[f"gate-ref{int(s)}s" for s in REFERENCE_S]
)
def test_lof_gate_query_throughput(reference_s, benchmark, monkeypatch):
    model, captured = gate_queries(reference_s, monkeypatch)
    rows = sum(len(vectors) for vectors, _ in captured)
    assert rows > 0, "the shifted stream must send windows to LOF"

    # The replay must reproduce the scores the detector run saw.
    for vectors, scores in captured:
        np.testing.assert_array_equal(model.score_vectors(vectors), scores)

    def replay():
        for vectors, _ in captured:
            model.score_vectors(vectors)

    seconds = best_of(replay)
    benchmark.pedantic(replay, rounds=1, iterations=1)
    us_per_row = seconds / rows * 1e6
    print(
        f"\nreference {len(model.points)} x {model.dimension}: {rows} LOF rows "
        f"in {len(captured)} batches, {us_per_row:.1f} us/row"
    )
    benchmark.extra_info.update(
        reference_points=len(model.points),
        dimension=model.dimension,
        lof_rows=rows,
        batches=len(captured),
        us_per_row=us_per_row,
    )


def clustered_simplex_points(rng, centers, n: int) -> np.ndarray:
    """Points on the simplex in tight Dirichlet clusters (pmf-vector shaped)."""
    counts = np.bincount(rng.integers(0, len(centers), size=n), minlength=len(centers))
    parts = [
        rng.dirichlet(center * 300.0 + 1e-3, size=count)
        for center, count in zip(centers, counts)
        if count
    ]
    return rng.permutation(np.vstack(parts), axis=0)


@pytest.mark.parametrize(
    "size,k,dim", _SWEEP, ids=[f"n{size}-k{k}-d{dim}" for size, k, dim in _SWEEP]
)
def test_knn_in_cluster_sweep(size, k, dim, benchmark):
    """Queries from the reference's own clusters, at larger reference sizes."""
    rng = np.random.default_rng(size)
    centers = rng.dirichlet(np.ones(dim), size=N_CLUSTERS)
    points = clustered_simplex_points(rng, centers, size)
    queries = clustered_simplex_points(rng, centers, N_SWEEP_QUERIES)
    index = BruteForceKnn(points)

    seconds = best_of(lambda: index.query_many(queries, k))
    benchmark.pedantic(lambda: index.query_many(queries, k), rounds=1, iterations=1)
    us_per_row = seconds / N_SWEEP_QUERIES * 1e6
    print(f"\nn={size} k={k} d={dim}: {us_per_row:.1f} us/row")
    benchmark.extra_info.update(reference_points=size, us_per_row=us_per_row)


def window_pmfs(rng, mix: np.ndarray, n: int) -> np.ndarray:
    """Pmfs of ``n`` windows of about ``KERNEL_EVENTS`` events drawn from ``mix``."""
    events = np.maximum(rng.poisson(KERNEL_EVENTS, size=n), 1)
    counts = np.array([rng.multinomial(total, mix) for total in events])
    return counts / events[:, None]


def kernel_inputs():
    """A reference of distinct window pmfs and queries, half from a shifted mix."""
    rng = np.random.default_rng(8589)
    normal = np.array([10, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1], dtype=float)
    shifted = normal * np.array([0.5, 1, 1, 1, 1, 1, 1, 1, 1, 3, 2, 4])
    points = np.unique(window_pmfs(rng, normal / normal.sum(), 4 * KERNEL_POINTS), axis=0)
    points = rng.permutation(points)[:KERNEL_POINTS]
    assert len(points) == KERNEL_POINTS
    half = KERNEL_QUERIES // 2
    queries = np.vstack([
        window_pmfs(rng, normal / normal.sum(), half),
        window_pmfs(rng, shifted / shifted.sum(), KERNEL_QUERIES - half),
    ])
    return points, queries


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@pytest.mark.parametrize("kind", ["lof-queries", "fit-self-query"])
def test_knn_filter_refine_kernel(kind, benchmark, monkeypatch):
    """Filter and refine against the exact scan, at the fleet workload's shape."""
    points, queries = kernel_inputs()
    index = BruteForceKnn(points)
    if kind == "fit-self-query":
        queries, k = points, KERNEL_K + 1
        batches = [points]
    else:
        k = KERNEL_K
        # The detector's LOF batches: 50 rows each on the fleet workload.
        batches = [queries[start:start + 50] for start in range(0, len(queries), 50)]

    def search():
        return [index.query_many(batch, k) for batch in batches]

    filtered = search()
    with monkeypatch.context() as patch:
        patch.setattr(knn_module, "_FILTER_MIN_WIDTHS", len(points))
        exact = search()
        exact_s = best_of(search)
    for (got_d, got_i), (want_d, want_i) in zip(filtered, exact):
        np.testing.assert_array_equal(got_i, want_i)
        np.testing.assert_array_equal(got_d, want_d)

    cpu_start, wall_start = cpu_seconds(), time.perf_counter()
    filtered_s = best_of(search)
    cpu_per_wall = (cpu_seconds() - cpu_start) / (time.perf_counter() - wall_start)
    benchmark.pedantic(search, rounds=1, iterations=1)
    rows = len(queries)
    speedup = exact_s / filtered_s
    print(
        f"\n{kind}: {rows} rows of {len(points)} x {points.shape[1]}, k={k}: "
        f"exact {exact_s / rows * 1e6:.1f} us/row, filtered "
        f"{filtered_s / rows * 1e6:.1f} us/row ({speedup:.2f}x), "
        f"CPU/wall {cpu_per_wall:.2f}"
    )
    benchmark.extra_info.update(
        reference_points=len(points),
        rows=rows,
        k=k,
        exact_us_per_row=exact_s / rows * 1e6,
        us_per_row=filtered_s / rows * 1e6,
        cpu_per_wall=cpu_per_wall,
        timing_floor=[
            timing_floor("exact/filtered k-NN time", speedup, minimum=MIN_KERNEL_SPEEDUP),
            timing_floor("filtered k-NN CPU/wall", cpu_per_wall, maximum=MAX_KERNEL_CPU_PER_WALL),
        ],
    )
