"""Indexed k-NN plane throughput — batched queries versus brute force.

Reference scoring is one ``query_many`` against the fitted reference set per
batch, so monitoring cost over long endurance runs is dominated by k-NN
search.  This benchmark sweeps reference size x k x dims over clustered
points on the probability simplex (the shape real pmf vectors take: windows
from the same workload phase cluster tightly), checks that every indexed
backend returns *bit-identical* neighbours to :class:`BruteForceKnn`, then
times batched queries.  At the largest swept reference size the ball-tree
backend must be at least ``MIN_SPEEDUP_AT_LARGEST`` faster than brute force
— the sublinear contract that justifies the ``"auto"`` crossover.  The
speedups go into ``extra_info``; ``benchmarks/run_benchmarks.py`` asserts
the floor on the archived run.

Backends to time come from ``REPRO_BENCH_KNN_BACKENDS`` (comma-separated,
default ``balltree,grid``); ``REPRO_BENCH_KNN_SMOKE=1`` shrinks the sweep to
a seconds-long smoke run with no speedup floor (used by CI).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analysis.knn import BruteForceKnn, make_index

from run_benchmarks import timing_floor

#: Smoke mode (REPRO_BENCH_KNN_SMOKE=1): tiny sweep, one repetition, no
#: speedup floor — exercises the harness, not the hardware.
SMOKE = os.environ.get("REPRO_BENCH_KNN_SMOKE") == "1"
REPETITIONS = 1 if SMOKE else 3

BACKENDS = tuple(
    name.strip()
    for name in os.environ.get("REPRO_BENCH_KNN_BACKENDS", "balltree,grid").split(",")
    if name.strip()
)

SIZES = (256, 512) if SMOKE else (4_096, 16_384, 65_536)
KS = (5,) if SMOKE else (5, 20)
DIMS = (8,) if SMOKE else (8, 24)
N_TIMED_QUERIES = 32 if SMOKE else 1_024
N_CHECKED_QUERIES = 16 if SMOKE else 64
N_CLUSTERS = 12

#: Only the ball-tree backend carries a hard floor, and only at the largest
#: swept reference size (measured ~3-4x there; brute wins below the
#: crossover, which is exactly why "auto" exists).
MIN_SPEEDUP_AT_LARGEST = 2.0
FLOORED_BACKEND = "balltree"

_SWEEP = [
    (size, k, dim) for size in SIZES for k in KS for dim in DIMS
]


def clustered_simplex_points(rng, centers, n: int) -> np.ndarray:
    """Points on the simplex in tight Dirichlet clusters (pmf-vector shaped)."""
    counts = np.bincount(rng.integers(0, len(centers), size=n), minlength=len(centers))
    parts = [
        rng.dirichlet(center * 300.0 + 1e-3, size=count)
        for center, count in zip(centers, counts)
        if count
    ]
    return rng.permutation(np.vstack(parts), axis=0)


def reference_and_queries(seed: int, n: int, dim: int):
    """Reference set plus queries drawn from the *same* cluster centers.

    Live windows come from the same workload as the reference trace, so
    realistic queries land inside the reference clusters rather than in
    empty simplex regions.
    """
    rng = np.random.default_rng(seed)
    centers = rng.dirichlet(np.ones(dim), size=N_CLUSTERS)
    points = clustered_simplex_points(rng, centers, n)
    queries = clustered_simplex_points(rng, centers, N_TIMED_QUERIES)
    return points, queries


def best_of(fn, repetitions=REPETITIONS):
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize(
    "size,k,dim", _SWEEP, ids=[f"n{size}-k{k}-d{dim}" for size, k, dim in _SWEEP]
)
def test_knn_query_throughput(size, k, dim, benchmark):
    points, queries = reference_and_queries(size, size, dim)

    brute = BruteForceKnn(points)
    indexes = {name: make_index(name, points) for name in BACKENDS}

    # Equivalence first: a fast index that changes neighbour sets would
    # change LOF scores and monitor decisions, which is worthless.
    check = queries[:N_CHECKED_QUERIES]
    oracle_d, oracle_i = brute.query_many(check, k)
    for name, index in indexes.items():
        index_d, index_i = index.query_many(check, k)
        np.testing.assert_array_equal(index_i, oracle_i, err_msg=name)
        np.testing.assert_array_equal(index_d, oracle_d, err_msg=name)

    timed_backend = FLOORED_BACKEND if FLOORED_BACKEND in indexes else BACKENDS[0]
    benchmark(lambda: indexes[timed_backend].query_many(queries, k))

    brute_s = best_of(lambda: brute.query_many(queries, k))
    rates = {"brute": N_TIMED_QUERIES / brute_s}
    speedups = {}
    for name, index in indexes.items():
        indexed_s = best_of(lambda: index.query_many(queries, k))
        rates[name] = N_TIMED_QUERIES / indexed_s
        speedups[name] = brute_s / indexed_s
    print()
    print(
        f"n={size} k={k} d={dim}: "
        + " | ".join(f"{name}: {rate:,.0f} q/s" for name, rate in rates.items())
        + " | "
        + " ".join(f"{name} {speedup:.2f}x" for name, speedup in speedups.items())
    )

    benchmark.extra_info["speedups"] = speedups
    if size == max(SIZES) and FLOORED_BACKEND in speedups:
        benchmark.extra_info["timing_floor"] = timing_floor(
            f"{FLOORED_BACKEND}/brute queries/s at n={size}",
            speedups[FLOORED_BACKEND],
            minimum=None if SMOKE else MIN_SPEEDUP_AT_LARGEST,
        )
