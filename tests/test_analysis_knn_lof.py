"""Tests for the k-NN index and the Local Outlier Factor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.knn import BruteForceKnn
from repro.analysis.lof import LocalOutlierFactor
from repro.analysis.model import ReferenceModel
from repro.errors import ModelError, NotFittedError


def make_cluster_points(seed=0, n=200, dim=5):
    rng = np.random.default_rng(seed)
    return rng.normal(loc=0.0, scale=1.0, size=(n, dim))


class TestKnnIndexes:
    def test_nearest_neighbour_of_a_training_point_is_itself(self):
        points = make_cluster_points()
        index = BruteForceKnn(points)
        distances, indices = index.query(points[17], k=1)
        assert indices[0] == 17
        assert distances[0] == pytest.approx(0.0, abs=1e-12)

    def test_distances_sorted_and_k_clamped(self):
        points = make_cluster_points(n=10)
        index = BruteForceKnn(points)
        distances, indices = index.query(np.zeros(points.shape[1]), k=50)
        assert len(distances) == 10
        assert list(distances) == sorted(distances)
        assert len(set(indices.tolist())) == 10

    def test_invalid_queries_rejected(self):
        index = BruteForceKnn(make_cluster_points(n=20, dim=3))
        with pytest.raises(ModelError):
            index.query(np.zeros(5), k=1)  # wrong dimension
        with pytest.raises(ModelError):
            index.query(np.zeros(3), k=0)

    def test_empty_or_bad_points_rejected(self):
        with pytest.raises(ModelError):
            BruteForceKnn(np.zeros((0, 3)))
        with pytest.raises(ModelError):
            BruteForceKnn(np.array([1.0, 2.0]))
        with pytest.raises(ModelError):
            BruteForceKnn(np.array([[np.nan, 1.0]]))

    def test_query_many_shapes(self):
        points = make_cluster_points(n=30, dim=4)
        index = BruteForceKnn(points)
        distances, indices = index.query_many(points[:5], k=3)
        assert distances.shape == (5, 3)
        assert indices.shape == (5, 3)

    def test_duplicate_points_tie_break_by_index(self):
        # Regression: exact distance ties break by ascending point index.
        rng = np.random.default_rng(8)
        base = make_cluster_points(seed=8, n=20, dim=3)
        points = np.vstack([base, base])[rng.permutation(40)]
        index = BruteForceKnn(points)
        for query in (points[3], np.zeros(3)):
            distances, indices = index.query(query, k=12)
            # Within each run of tied distances, indices must ascend.
            for a, b in zip(range(11), range(1, 12)):
                if distances[a] == distances[b]:
                    assert indices[a] < indices[b]


class TestLocalOutlierFactor:
    def test_scores_near_one_inside_a_uniform_cluster(self):
        points = make_cluster_points(n=300)
        lof = LocalOutlierFactor(k_neighbours=15).fit(points)
        inlier_score = lof.score(np.zeros(points.shape[1]))
        assert 0.8 < inlier_score < 1.3

    def test_outlier_scores_much_higher_than_inliers(self):
        points = make_cluster_points(n=300)
        lof = LocalOutlierFactor(k_neighbours=15).fit(points)
        outlier_score = lof.score(np.full(points.shape[1], 15.0))
        assert outlier_score > 2.0
        assert lof.is_anomalous(np.full(points.shape[1], 15.0), alpha=1.5)
        assert not lof.is_anomalous(np.zeros(points.shape[1]), alpha=1.5)

    def test_score_many_matches_individual_scores(self):
        points = make_cluster_points(n=100, dim=3)
        lof = LocalOutlierFactor(k_neighbours=10).fit(points)
        queries = make_cluster_points(seed=9, n=5, dim=3)
        batch = lof.score_many(queries)
        assert batch == pytest.approx([lof.score(q) for q in queries])

    def test_training_scores_mostly_near_one(self):
        points = make_cluster_points(n=200)
        lof = LocalOutlierFactor(k_neighbours=10).fit(points)
        scores = lof.training_scores
        assert np.median(scores) == pytest.approx(1.0, abs=0.15)

    def test_threshold_for_quantile_monotone(self):
        points = make_cluster_points(n=200)
        lof = LocalOutlierFactor(k_neighbours=10).fit(points)
        assert lof.threshold_for_quantile(0.5) <= lof.threshold_for_quantile(0.99)
        with pytest.raises(ModelError):
            lof.threshold_for_quantile(0.0)

    def test_scores_match_textbook_lof(self):
        # Breunig et al.'s definitions, evaluated on a directly differenced
        # distance matrix: an independent check of the reference quantities.
        points = make_cluster_points(n=150, dim=4)
        queries = make_cluster_points(seed=3, n=10, dim=4)
        k = 10
        lof = LocalOutlierFactor(k_neighbours=k).fit(points)

        def neighbours(rows, exclude_self):
            distances = np.linalg.norm(rows[:, None, :] - points[None, :, :], axis=2)
            if exclude_self:
                np.fill_diagonal(distances, np.inf)
            order = np.argsort(distances, axis=1, kind="stable")[:, :k]
            return np.take_along_axis(distances, order, axis=1), order

        train_d, train_i = neighbours(points, exclude_self=True)
        k_distance = train_d[:, -1]
        lrd = k / np.maximum(k_distance[train_i], train_d).sum(axis=1)
        query_d, query_i = neighbours(queries, exclude_self=False)
        query_lrd = k / np.maximum(k_distance[query_i], query_d).sum(axis=1)

        np.testing.assert_allclose(
            lof.training_scores, lrd[train_i].mean(axis=1) / lrd, rtol=1e-9
        )
        np.testing.assert_allclose(
            lof.score_many(queries), lrd[query_i].mean(axis=1) / query_lrd, rtol=1e-9
        )

    def test_two_density_clusters(self):
        rng = np.random.default_rng(1)
        dense = rng.normal(0.0, 0.05, size=(150, 2))
        sparse = rng.normal(5.0, 1.0, size=(150, 2))
        lof = LocalOutlierFactor(k_neighbours=10).fit(np.vstack([dense, sparse]))
        # a point at the edge of the dense cluster is more outlying relative to
        # its (dense) neighbourhood than a sparse-cluster member is to its own
        edge_of_dense = lof.score(np.array([0.4, 0.4]))
        sparse_member = lof.score(np.array([5.0, 1.0]))
        assert edge_of_dense > sparse_member

    def test_validation_errors(self):
        with pytest.raises(ModelError):
            LocalOutlierFactor(k_neighbours=0)
        with pytest.raises(ModelError):
            ReferenceModel(index_kind="weird")
        lof = LocalOutlierFactor(k_neighbours=5)
        with pytest.raises(NotFittedError):
            lof.score(np.zeros(3))
        with pytest.raises(ModelError):
            lof.fit(np.zeros((3, 2)))  # fewer points than k
        with pytest.raises(ModelError):
            lof.fit(np.zeros(5))  # not 2-D
        fitted = LocalOutlierFactor(k_neighbours=3).fit(make_cluster_points(n=20, dim=2))
        with pytest.raises(ModelError):
            fitted.is_anomalous(np.zeros(2), alpha=0.0)

    def test_duplicate_points_do_not_crash(self):
        points = np.vstack([np.zeros((30, 3)), make_cluster_points(n=30, dim=3)])
        lof = LocalOutlierFactor(k_neighbours=5).fit(points)
        assert np.isfinite(lof.score(np.zeros(3)))
        assert np.isfinite(lof.score(np.full(3, 0.01)))
