"""Exactness suite for the one k-NN search, :class:`BruteForceKnn`.

The kernel selects neighbours on *squared* distances and takes ``sqrt`` of
the ``k`` selected values only, repairing the rows where an unselected
squared value could share the ``k``-th distance.  Every result must equal a
slow oracle kept in this file — the full ``sqrt`` distance matrix of the
same expansion and a per-row ``np.lexsort((index, distance))`` — bit for
bit.  The suite covers:

* duplicates, near-coincident points, negative squared values clamped to
  zero, and distinct squared values that share one ``sqrt``;
* every ``k`` edge (1, middle, ``n - 1``, ``n``, ``n + 2``) and
  hypothesis-driven random instances;
* query sets spanning several distance blocks (each row equals its solo
  query), incremental ``add_points`` versus a rebuild, pickle round-trips;
* the filter-and-refine route: lattice pmfs with mass distance ties, tie
  groups wider than the candidate width and magnitudes that put the filter
  out of range (both fall back to the exact scan), reference sizes around
  the route crossover and the candidate width for ``d`` from 1 to 64,
  ``add_points`` across the crossover and pickled filtered indexes;
* LOF ``partial_fit`` versus ``fit``, and monitor/fleet runs whose configs
  name a retired backend.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.knn as knn_module
from repro.analysis.fleet import ShardedTraceMonitor
from repro.analysis.knn import (
    _FILTER_MIN_WIDTHS,
    _TIE_BAND_ULPS,
    BruteForceKnn,
    _candidate_width,
    resolve_backend,
)
from repro.analysis.lof import LocalOutlierFactor
from repro.analysis.model import ReferenceModel
from repro.analysis.monitor import TraceMonitor
from repro.config import KNN_BACKENDS, DetectorConfig, MonitorConfig
from repro.errors import ConfigurationError, ModelError
from repro.trace.event import EventTypeRegistry
from repro.trace.generator import PeriodicTraceGenerator, SyntheticTraceGenerator
from repro.trace.stream import windows_by_duration

RETIRED_BACKENDS = ("kdtree", "grid", "balltree", "auto")


def dirichlet_points(seed: int, n: int, dim: int) -> np.ndarray:
    """Clustered points on the probability simplex, like real pmf vectors."""
    rng = np.random.default_rng(seed)
    if dim == 1:
        # Degenerate simplex: every pmf is exactly (1.0,); perturb a little
        # so distance ties and near-ties both occur.
        return 1.0 + rng.normal(scale=1e-9, size=(n, 1))
    centers = rng.dirichlet(np.ones(dim), size=4)
    assignments = rng.integers(0, len(centers), size=n)
    points = np.empty((n, dim))
    for row, center in enumerate(assignments):
        points[row] = rng.dirichlet(centers[center] * 50.0 + 1e-3)
    return points


def raw_squared(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The unclamped ``|q|^2 - 2 q.p + |p|^2`` expansion, as the kernel forms it."""
    return (
        np.einsum("ij,ij->i", queries, queries)[:, None]
        - 2.0 * np.einsum("qd,nd->qn", queries, points)
        + np.einsum("ij,ij->i", points, points)[None, :]
    )


def oracle(points: np.ndarray, queries: np.ndarray, k: int):
    """Slow reference: full sqrt matrix, per-row lexsort by (distance, index)."""
    distances = np.sqrt(np.maximum(raw_squared(points, queries), 0.0))
    k = min(k, len(points))
    index = np.arange(len(points))
    order = np.array([np.lexsort((index, row))[:k] for row in distances])
    return np.take_along_axis(distances, order, axis=1), order


def assert_matches_oracle(points, queries, k):
    """Distances and indices must match exactly — not just approximately."""
    distances, indices = BruteForceKnn(points).query_many(queries, k)
    oracle_distances, oracle_indices = oracle(points, queries, k)
    np.testing.assert_array_equal(indices, oracle_indices)
    np.testing.assert_array_equal(distances, oracle_distances)


#: The ``k`` edges every oracle test covers, one test case each.
K_CASES = ("one", "middle", "n_minus_1", "n", "n_plus_2")


def k_for(case: str, n: int) -> int:
    return {
        "one": 1,
        "middle": max(1, n // 3),
        "n_minus_1": max(1, n - 1),
        "n": n,
        "n_plus_2": n + 2,
    }[case]


def k_values(n: int) -> tuple[int, ...]:
    return tuple(k_for(case, n) for case in K_CASES)


class TestBackendNames:
    @pytest.mark.parametrize("name", KNN_BACKENDS)
    def test_every_legacy_name_resolves_to_brute(self, name):
        assert resolve_backend(name, 10) == "brute"
        assert resolve_backend(name, 1_000_000) == "brute"
        model = ReferenceModel.from_points(
            dirichlet_points(0, 20, 3), ("a", "b", "c"), k_neighbours=3, index_kind=name
        )
        assert model.index_kind == name
        assert isinstance(model._lof._index, BruteForceKnn)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ModelError):
            resolve_backend("octree", 100)
        with pytest.raises(ModelError):
            ReferenceModel(k_neighbours=3, index_kind="octree")
        with pytest.raises(ConfigurationError):
            MonitorConfig(knn_backend="octree")


class TestExactness:
    @pytest.mark.parametrize("k_case", K_CASES)
    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_clustered_points_match_oracle(self, dim, k_case):
        points = dirichlet_points(11, 300, dim)
        queries = np.vstack([points[:20], dirichlet_points(77, 25, dim)])
        assert_matches_oracle(points, queries, k_for(k_case, len(points)))

    def test_equal_distances_break_ties_by_ascending_index(self):
        # Every point identical: all distances tie, so the k nearest must be
        # exactly the k lowest point indices.
        points = np.tile(np.array([[0.25, 0.25, 0.5]]), (40, 1))
        index = BruteForceKnn(points)
        for k in (1, 7, 40):
            _, indices = index.query(np.array([0.25, 0.25, 0.5]), k)
            assert indices.tolist() == list(range(k))

    @pytest.mark.parametrize("k_case", K_CASES)
    def test_duplicate_points_match_oracle(self, k_case):
        rng = np.random.default_rng(21)
        base = dirichlet_points(21, 30, 4)
        # Triplicate every point and shuffle, so ties straddle the k-th
        # position in every row.
        points = np.vstack([base, base, base])[rng.permutation(90)]
        queries = np.vstack([base[:10], dirichlet_points(22, 5, 4)])
        assert_matches_oracle(points, queries, k_for(k_case, len(points)))

    @pytest.mark.parametrize("k_case", K_CASES)
    def test_near_coincident_points_match_oracle(self, k_case):
        rng = np.random.default_rng(23)
        base = dirichlet_points(23, 20, 5)
        jittered = base[rng.integers(0, 20, size=60)]
        jittered = jittered + rng.choice([-1e-16, 0.0, 1e-16], size=jittered.shape)
        points = np.vstack([base, jittered])
        queries = np.vstack([base[:8], jittered[:8], base[:4] + 1e-16])
        assert_matches_oracle(points, queries, k_for(k_case, len(points)))

    def test_negative_squared_values_clamp_to_zero(self):
        # Near-coincident pairs cancel in the expansion and can come out
        # below zero; such a distance is exactly 0.0, never NaN.
        rng = np.random.default_rng(0)
        points = rng.dirichlet(np.ones(12), size=200)
        queries = points + rng.normal(scale=1e-16, size=points.shape)
        negative = raw_squared(points, queries) < 0
        assert negative.any()
        rows = np.flatnonzero(negative.any(axis=1))[:10]
        distances, indices = BruteForceKnn(points).query_many(queries[rows], 3)
        assert np.all(np.isfinite(distances))
        for row, query_row in enumerate(rows):
            for column in np.flatnonzero(negative[query_row]):
                if column in indices[row]:
                    assert distances[row][indices[row] == column][0] == 0.0
        for k in (1, 3, 199, 200):
            assert_matches_oracle(points, queries[rows], k)

    def test_distinct_squared_values_sharing_one_sqrt(self):
        # From the origin the squared distances are 1 + 2**-52 (index 0) and
        # exactly 1 (index 1).  Both round to distance 1.0, so the tie must
        # go to index 0 although index 1 has the smaller squared value.
        points = np.array([[1.0, 1.5e-8], [1.0, 0.0], [2.0, 0.0], [1.0, 1.5e-8]])
        origin = np.zeros((1, 2))
        squared = raw_squared(points, origin)[0]
        assert squared[0] != squared[1] and np.sqrt(squared[0]) == np.sqrt(squared[1])
        distances, indices = BruteForceKnn(points).query(origin[0], 1)
        assert indices.tolist() == [0] and distances.tolist() == [1.0]
        for k in k_values(len(points)):
            assert_matches_oracle(points, origin, k)

    def test_tie_band_covers_every_shared_sqrt(self):
        # Every squared value whose sqrt equals the k-th distance lies in
        # the band the kernel checks, at any magnitude (subnormals included).
        rng = np.random.default_rng(3)
        values = np.concatenate([
            10.0 ** rng.uniform(-300, 10, size=2000),
            rng.uniform(0, 1, size=500) * 5e-324 * 1000,
            [0.0, 1.0, 4.0, 2.0 - 2.0**-52],
        ])
        for value in values:
            distance = np.sqrt(value)
            low = high = value
            while low > 0 and np.sqrt(np.nextafter(low, -np.inf)) == distance:
                low = np.nextafter(low, -np.inf)
            while np.sqrt(np.nextafter(high, np.inf)) == distance:
                high = np.nextafter(high, np.inf)
            assert high <= low + _TIE_BAND_ULPS * np.spacing(low), value

    def test_constant_column_degenerate_dims(self):
        rng = np.random.default_rng(31)
        points = np.zeros((80, 3))
        points[:, 0] = rng.uniform(size=80)
        points[:, 2] = 1.0 - points[:, 0]
        queries = points[:6] + rng.normal(scale=1e-3, size=(6, 3))
        assert_matches_oracle(points, queries, 10)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dim=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=2, max_value=70),
        k_choice=st.sampled_from(K_CASES),
        rounded=st.booleans(),
    )
    def test_random_instances_match_oracle(self, seed, dim, n, k_choice, rounded):
        points = dirichlet_points(seed, n, dim)
        queries = np.vstack([points[: min(4, n)], dirichlet_points(seed + 1, 4, dim)])
        if rounded:
            # Coarse grids make exact and near ties common.
            points, queries = np.round(points, 1), np.round(queries, 1)
        assert_matches_oracle(points, queries, k_for(k_choice, n))

    def test_query_sets_spanning_several_blocks(self, monkeypatch):
        points = dirichlet_points(5, 120, 6)
        queries = np.vstack([dirichlet_points(6, 17, 6), points[:6], points[:6]])
        # Three query rows per distance block.
        monkeypatch.setattr(BruteForceKnn, "_BLOCK_ELEMENTS", 3 * len(points))
        index = BruteForceKnn(points)
        for k in (1, 7, 120):
            distances, indices = index.query_many(queries, k)
            for row, query in enumerate(queries):
                solo_d, solo_i = index.query(query, k)
                np.testing.assert_array_equal(indices[row], solo_i)
                np.testing.assert_array_equal(distances[row], solo_d)
            assert_matches_oracle(points, queries, k)

    def test_batched_matches_single_queries(self):
        points = dirichlet_points(5, 120, 6)
        queries = dirichlet_points(6, 9, 6)
        index = BruteForceKnn(points)
        distances, indices = index.query_many(queries, k=7)
        for row, query in enumerate(queries):
            solo_d, solo_i = index.query(query, k=7)
            np.testing.assert_array_equal(indices[row], solo_i)
            np.testing.assert_array_equal(distances[row], solo_d)


def crossover(k: int) -> int:
    """The largest reference size the exact scan answers alone at ``k``."""
    return _FILTER_MIN_WIDTHS * _candidate_width(k)


def lattice_points(seed: int, n: int, dim: int = 12, events: int = 20) -> np.ndarray:
    """Window pmfs of ``events`` events: counts / events, full of exact ties."""
    rng = np.random.default_rng(seed)
    mix = rng.dirichlet(np.ones(dim) * 2.0)
    return rng.multinomial(events, mix, size=n) / events


@pytest.fixture
def exact_rows(monkeypatch):
    """Counts the query rows that take the exact scan, whatever the route."""
    routed = []
    exact_block = BruteForceKnn._exact_block

    def counting(self, chunk, k):
        routed.append(len(chunk))
        return exact_block(self, chunk, k)

    monkeypatch.setattr(BruteForceKnn, "_exact_block", counting)
    return routed


class TestFilterRefine:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_lattice_pmfs_match_oracle(self, k, exact_rows):
        points = lattice_points(1, crossover(k) + 400)
        queries = np.vstack([points[:30], lattice_points(2, 30)])
        assert_matches_oracle(points, queries, k)
        # Most rows are certified: the exact scan is the exception.
        assert sum(exact_rows) < len(queries) // 2

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_tie_group_wider_than_width_falls_back(self, k, exact_rows):
        rng = np.random.default_rng(3)
        width = _candidate_width(k)
        spread = dirichlet_points(4, crossover(k) + 50, 6)
        tied = np.tile(spread[:1], (width + 1, 1))
        points = np.vstack([spread, tied])[rng.permutation(len(spread) + width + 1)]
        queries = np.vstack([spread[:1], spread[1:4]])
        assert_matches_oracle(points, queries, k)
        # The first query ties with width + 1 points (itself included).
        assert sum(exact_rows) >= 1

    @pytest.mark.parametrize("magnitude", [1e150, 1e154])
    def test_huge_magnitudes_fall_back(self, magnitude, exact_rows, monkeypatch):
        # At 1e154 the expansion itself overflows: the answer is whatever
        # the exact scan makes of it, NaN distances included.
        rng = np.random.default_rng(5)
        k = 4
        points = rng.uniform(0.5, 1.5, size=(crossover(k) + 10, 12)) * magnitude
        queries = np.vstack([points[:3], rng.uniform(0.5, 1.5, size=(3, 12)) * magnitude])
        with np.errstate(over="ignore", invalid="ignore"):
            got = BruteForceKnn(points).query_many(queries, k)
            assert sum(exact_rows) == len(queries)
            with monkeypatch.context() as patch:
                patch.setattr(knn_module, "_FILTER_MIN_WIDTHS", len(points))
                want = BruteForceKnn(points).query_many(queries, k)
            if magnitude == 1e150:
                assert_matches_oracle(points, queries, k)
        for got_part, want_part in zip(got, want):
            np.testing.assert_array_equal(got_part, want_part)

    def test_non_finite_queries_take_the_exact_scan(self, exact_rows):
        points = dirichlet_points(6, crossover(3) + 10, 4)
        queries = np.vstack([points[:2], [[np.nan, 0.5, 0.25, 0.25]]])
        distances, indices = BruteForceKnn(points).query_many(queries, 3)
        assert exact_rows == [1]
        oracle_distances, oracle_indices = oracle(points, queries[:2], 3)
        np.testing.assert_array_equal(distances[:2], oracle_distances)
        np.testing.assert_array_equal(indices[:2], oracle_indices)
        assert np.isnan(distances[2]).all()

    @pytest.mark.parametrize("dim", [1, 2, 5, 12, 29, 64])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 300])
    def test_sizes_around_the_crossover(self, dim, offset):
        k = 6
        n = crossover(k) + offset
        points = dirichlet_points(dim * 100 + offset, n, dim)
        if dim > 1:
            # Duplicates and near-ties straddle the k-th position.
            points[n // 2 : n // 2 + 40] = points[:40]
        queries = np.vstack([points[:8], dirichlet_points(dim + 7, 8, dim)])
        for k_query in (1, k, 2 * k):
            assert_matches_oracle(points, queries, k_query)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2])
    def test_sizes_around_the_candidate_width(self, extra):
        k = 5
        n = _candidate_width(k) + extra
        points = lattice_points(7, n)
        queries = np.vstack([points[:6], lattice_points(8, 6)])
        for k_query in k_values(n):
            assert_matches_oracle(points, queries, k_query)

    def test_add_points_after_queries(self):
        k = 5
        full = lattice_points(9, crossover(k) * 2)
        queries = np.vstack([full[:10], lattice_points(10, 10)])
        # Start on the exact route, grow across the crossover, keep growing.
        index = BruteForceKnn(full[: crossover(k) // 2])
        for stop in (crossover(k) + 1, crossover(k) + 200, len(full)):
            index.query_many(queries, k)
            index.add_points(full[index.n_points : stop])
            assert index.n_points == stop
            rebuilt = BruteForceKnn(full[:stop])
            for got, want in zip(index.query_many(queries, k), rebuilt.query_many(queries, k)):
                np.testing.assert_array_equal(got, want)
            assert_matches_oracle(full[:stop], queries, k)

    def test_filtered_index_survives_pickle(self):
        k = 20
        points = lattice_points(11, crossover(k) + 100)
        queries = lattice_points(12, 25)
        index = BruteForceKnn(points)
        before = index.query_many(queries, k)
        clone = pickle.loads(pickle.dumps(index))
        for got, want in zip(clone.query_many(queries, k), before):
            np.testing.assert_array_equal(got, want)
        extra = lattice_points(13, 50)
        index.add_points(extra)
        clone.add_points(extra)
        for got, want in zip(clone.query_many(queries, k), index.query_many(queries, k)):
            np.testing.assert_array_equal(got, want)
        assert_matches_oracle(np.vstack([points, extra]), queries, k)

    def test_filtered_blocks_equal_solo_queries(self, monkeypatch):
        k = 5
        points = lattice_points(14, crossover(k) + 10)
        queries = np.vstack([lattice_points(15, 13), points[:5]])
        index = BruteForceKnn(points)
        monkeypatch.setattr(BruteForceKnn, "_BLOCK_ELEMENTS", 4 * len(points))
        distances, indices = index.query_many(queries, k)
        for row, query in enumerate(queries):
            solo_d, solo_i = index.query(query, k)
            np.testing.assert_array_equal(indices[row], solo_i)
            np.testing.assert_array_equal(distances[row], solo_d)


class TestAddPoints:
    def test_incremental_equals_from_scratch(self):
        full = dirichlet_points(41, 240, 5)
        queries = dirichlet_points(42, 12, 5)
        index = BruteForceKnn(full[:100])
        for start in range(100, 240, 35):
            index.add_points(full[start : start + 35])
        assert index.n_points == 240
        rebuilt = BruteForceKnn(full)
        for k in (1, 9, 240):
            grown_d, grown_i = index.query_many(queries, k)
            rebuilt_d, rebuilt_i = rebuilt.query_many(queries, k)
            np.testing.assert_array_equal(grown_i, rebuilt_i)
            np.testing.assert_array_equal(grown_d, rebuilt_d)
            assert_matches_oracle(full, queries, k)

    def test_add_points_validation(self):
        index = BruteForceKnn(dirichlet_points(45, 50, 3))
        with pytest.raises(ModelError):
            index.add_points(np.zeros((2, 5)))  # wrong dimension
        with pytest.raises(ModelError):
            index.add_points(np.array([[np.nan, 0.5, 0.5]]))


class TestPickleRoundTrip:
    def test_fitted_index_survives_pickle(self):
        points = dirichlet_points(51, 150, 4)
        queries = dirichlet_points(52, 10, 4)
        index = BruteForceKnn(points)
        index.add_points(dirichlet_points(53, 30, 4))
        clone = pickle.loads(pickle.dumps(index))
        assert clone.n_points == index.n_points
        for got, want in zip(clone.query_many(queries, 8), index.query_many(queries, 8)):
            np.testing.assert_array_equal(got, want)
        # The clone must keep absorbing points, same as the original.
        extra = dirichlet_points(54, 15, 4)
        index.add_points(extra)
        clone.add_points(extra)
        for got, want in zip(clone.query_many(queries, 8), index.query_many(queries, 8)):
            np.testing.assert_array_equal(got, want)


class TestLof:
    def test_partial_fit_equals_fit_on_combined(self):
        full = dirichlet_points(63, 200, 5)
        queries = dirichlet_points(64, 20, 5)
        grown = LocalOutlierFactor(k_neighbours=10).fit(full[:120])
        grown.partial_fit(full[120:160])
        grown.partial_fit(full[160:])
        fresh = LocalOutlierFactor(k_neighbours=10).fit(full)
        assert grown.n_reference_points == fresh.n_reference_points
        np.testing.assert_array_equal(grown.training_scores, fresh.training_scores)
        np.testing.assert_array_equal(
            grown.score_many(queries), fresh.score_many(queries)
        )

    def test_partial_fit_requires_fit(self):
        lof = LocalOutlierFactor(k_neighbours=5)
        with pytest.raises(Exception):
            lof.partial_fit(dirichlet_points(65, 10, 3))


# --------------------------------------------------------------------------- #
# Monitor-level: configs naming a retired backend change nothing
# --------------------------------------------------------------------------- #

WINDOW_US = 40_000
K = 10
NORMAL_MIX = {"mb_row_decode": 8.0, "frame_display": 1.0, "vsync": 1.0, "audio_decode": 2.0}
ANOMALY_MIX = {"mb_row_decode": 1.0, "frame_drop": 3.0, "buffer_underrun": 2.0}


@pytest.fixture(scope="module")
def monitor_registry() -> EventTypeRegistry:
    registry = EventTypeRegistry()
    for name in NORMAL_MIX:
        registry.register(name)
    return registry


@pytest.fixture(scope="module")
def reference_windows():
    generator = SyntheticTraceGenerator(NORMAL_MIX, rate_per_s=2_000, seed=7)
    return list(windows_by_duration(generator.events(20.0), WINDOW_US))


@pytest.fixture(scope="module")
def monitored_streams():
    streams = {}
    for position in range(3):
        generator = PeriodicTraceGenerator(
            NORMAL_MIX,
            ANOMALY_MIX,
            anomaly_intervals=[(2.0 + position, 3.5 + position)],
            rate_per_s=2_000,
            seed=100 + position,
        )
        streams[f"device-{position}"] = list(
            windows_by_duration(generator.events(8.0), WINDOW_US)
        )
    return streams


def monitor_with_backend(backend, monitor_registry, reference_windows, monitored_streams):
    monitor = TraceMonitor(
        DetectorConfig(k_neighbours=K, lof_threshold=1.2),
        MonitorConfig(batch_size=16, record_context_windows=1, knn_backend=backend),
        EventTypeRegistry(monitor_registry.names),
    )
    model = monitor.learn_reference(iter(reference_windows))
    label = next(iter(monitored_streams))
    return model, monitor.monitor_windows(iter(monitored_streams[label]), model)


class TestRetiredBackendConfigs:
    @pytest.mark.parametrize("backend", RETIRED_BACKENDS)
    def test_decisions_and_reports_match_brute(
        self, backend, monitor_registry, reference_windows, monitored_streams
    ):
        brute_model, brute_result = monitor_with_backend(
            "brute", monitor_registry, reference_windows, monitored_streams
        )
        model, result = monitor_with_backend(
            backend, monitor_registry, reference_windows, monitored_streams
        )
        assert model.points.shape == brute_model.points.shape
        assert result.decisions == brute_result.decisions
        assert result.lof_scores() == brute_result.lof_scores()
        assert result.recorded_indices == brute_result.recorded_indices
        assert result.report == brute_result.report
        assert result.detector_stats == brute_result.detector_stats

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fleet_output_files_identical_across_backend_names(
        self, workers, tmp_path, monitor_registry, reference_windows, monitored_streams
    ):
        outputs = {}
        for backend in ("brute", "balltree"):
            config = MonitorConfig(
                batch_size=8,
                record_context_windows=1,
                fleet_workers=workers,
                knn_backend=backend,
            )
            model = ReferenceModel(k_neighbours=K, index_kind=backend).learn(
                iter(reference_windows), EventTypeRegistry(monitor_registry.names)
            )
            fleet = ShardedTraceMonitor(
                DetectorConfig(k_neighbours=K, lof_threshold=1.2),
                config,
                EventTypeRegistry(monitor_registry.names),
            )
            output_dir = tmp_path / f"{backend}-{workers}"
            result = fleet.monitor_shards(
                {label: iter(windows) for label, windows in monitored_streams.items()},
                model,
                output_dir=output_dir,
            )
            outputs[backend] = (result.to_dict(), {
                path.name: path.read_bytes()
                for path in sorted(output_dir.iterdir())
            })
        assert outputs["balltree"][0] == outputs["brute"][0]
        assert outputs["balltree"][1].keys() == outputs["brute"][1].keys()
        for name in outputs["brute"][1]:
            assert outputs["balltree"][1][name] == outputs["brute"][1][name], name

    def test_model_survives_worker_pickle(self, monitor_registry, reference_windows):
        model = ReferenceModel(k_neighbours=K).learn(
            iter(reference_windows), EventTypeRegistry(monitor_registry.names)
        )
        clone = pickle.loads(pickle.dumps(model))
        queries = model.points[:10]
        np.testing.assert_array_equal(
            clone.score_vectors(queries), model.score_vectors(queries)
        )


class TestModelAdaptation:
    def test_learn_on_fitted_model_routes_to_adapt(
        self, monitor_registry, reference_windows
    ):
        registry = EventTypeRegistry(monitor_registry.names)
        model = ReferenceModel(k_neighbours=K).learn(
            iter(reference_windows[:300]), registry
        )
        n_before = model.n_reference_windows
        model.learn(iter(reference_windows[300:]), registry)
        assert model.n_windows_seen == len(reference_windows)
        assert model.n_reference_windows > n_before
        assert len(model.points) >= n_before

    def test_adapt_scores_equal_fit_on_combined(self, monitor_registry, reference_windows):
        registry = EventTypeRegistry(monitor_registry.names)
        adapted = ReferenceModel(k_neighbours=K).learn(
            iter(reference_windows[:300]), registry
        )
        adapted.adapt(iter(reference_windows[300:]), registry)
        fresh = ReferenceModel(k_neighbours=K).learn(iter(reference_windows), registry)
        np.testing.assert_array_equal(
            np.sort(adapted.points, axis=0), np.sort(fresh.points, axis=0)
        )
        queries = fresh.points[::10]
        np.testing.assert_array_equal(
            adapted.score_vectors(queries), fresh.score_vectors(queries)
        )

    def test_adapt_on_unfitted_model_raises(self, monitor_registry, reference_windows):
        model = ReferenceModel(k_neighbours=K)
        with pytest.raises(Exception):
            model.adapt(iter(reference_windows[:50]), monitor_registry)
