"""Local Outlier Factor (Breunig et al., SIGMOD 2000) — reference [3] of the paper.

LOF compares the local density around a query point with the local densities
around its ``k`` nearest neighbours:

* ``LOF ≈ 1``  — the point sits inside a cluster of "regular" points;
* ``LOF ≫ 1``  — the point is in a sparser region than its neighbours, i.e.
  it is likely an outlier (the paper records the window when
  ``LOF ≥ alpha > 1``).

The implementation follows the original definitions:

``k_distance(o)``
    distance from ``o`` to its ``k``-th nearest neighbour (within the model).
``reach_dist_k(p, o) = max(k_distance(o), d(p, o))``
    reachability distance of ``p`` from ``o``.
``lrd_k(p) = k / sum_o reach_dist_k(p, o)``
    local reachability density of ``p``.
``LOF_k(p) = mean_o( lrd_k(o) ) / lrd_k(p)``
    the Local Outlier Factor.

Duplicated points would make ``lrd`` infinite; a small epsilon keeps every
quantity finite while preserving the ordering of scores.

Neighbours come from :class:`~repro.analysis.knn.BruteForceKnn`, the one
exact k-NN search: distances are bit-identical however queries are batched,
and ties resolve to the lower reference index, so a score never depends on
batch size or on how the reference set was grown.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError, NotFittedError
from .knn import BruteForceKnn

__all__ = ["LocalOutlierFactor"]

_EPSILON = 1e-12


class LocalOutlierFactor:
    """Local Outlier Factor scorer over a growable reference point set.

    Parameters
    ----------
    k_neighbours:
        Number of neighbours (``K`` in the paper; its experiment uses 20).
    """

    def __init__(self, k_neighbours: int = 20) -> None:
        if k_neighbours < 1:
            raise ModelError("k_neighbours must be >= 1")
        self.k_neighbours = int(k_neighbours)
        self._index: BruteForceKnn | None = None
        self._k_distances: np.ndarray | None = None
        self._lrd: np.ndarray | None = None
        self._training_scores: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, points: np.ndarray) -> "LocalOutlierFactor":
        """Fit the model on the reference points (one row per pmf vector)."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ModelError(f"points must be 2-D, got shape {points.shape}")
        if len(points) <= self.k_neighbours:
            raise ModelError(
                f"need more than k_neighbours={self.k_neighbours} reference points, "
                f"got {len(points)}"
            )
        self._index = BruteForceKnn(points)
        self._finalise_fit()
        return self

    def partial_fit(self, new_points: np.ndarray) -> "LocalOutlierFactor":
        """Absorb additional reference points into the fitted model.

        The index grows incrementally (no rebuild) and the LOF quantities —
        k-distances, local reachability densities, training scores — are
        recomputed over the combined point set, so scoring behaves exactly
        as if :meth:`fit` had been called on all points at once.
        """
        index = self._require_fitted()
        new_points = np.atleast_2d(np.asarray(new_points, dtype=float))
        if new_points.size == 0:
            return self
        index.add_points(new_points)
        self._finalise_fit()
        return self

    def _finalise_fit(self) -> None:
        """(Re)compute the per-reference-point LOF quantities."""
        assert self._index is not None
        points = self._index.points
        k = self.k_neighbours
        # Ask for k + 1 because the point itself (distance 0) is usually among
        # the returned neighbours when querying with a fitted point.  With
        # duplicated points the tie-broken top k + 1 may *exclude* the point
        # itself, in which case the first k non-self entries are still exact.
        all_distances, all_indices = self._index.query_many(points, k + 1)
        neighbour_distances, neighbour_indices = self._drop_self_neighbours(
            points, all_distances, all_indices, k
        )

        self._k_distances = neighbour_distances[:, -1].copy()

        # Local reachability densities of the training points.
        reach = np.maximum(self._k_distances[neighbour_indices], neighbour_distances)
        self._lrd = self.k_neighbours / np.maximum(reach.sum(axis=1), _EPSILON)

        # LOF of the training points themselves (useful diagnostics and the
        # basis for contamination-style threshold calibration).
        neighbour_lrd = self._lrd[neighbour_indices]
        self._training_scores = neighbour_lrd.mean(axis=1) / np.maximum(self._lrd, _EPSILON)

    def _drop_self_neighbours(
        self,
        points: np.ndarray,
        distances: np.ndarray,
        indices: np.ndarray,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Remove each training point from its own neighbour list.

        A stable argsort on the "is self" mask pushes the (at most one) self
        entry to the back of each row while preserving distance order, so the
        first ``k`` columns are the k true neighbours — whether or not the
        point itself made the tie-broken top ``k + 1``.  A fitted model holds
        more than ``k`` points, so every row has ``k + 1`` entries.
        """
        n = len(points)
        self_mask = indices == np.arange(n)[:, None]
        order = np.argsort(self_mask, axis=1, kind="stable")
        rows = np.arange(n)[:, None]
        return (
            distances[rows, order][:, :k],
            indices[rows, order][:, :k],
        )

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._index is not None

    def _require_fitted(self) -> BruteForceKnn:
        if self._index is None or self._k_distances is None or self._lrd is None:
            raise NotFittedError("LocalOutlierFactor.score() called before fit()")
        return self._index

    @property
    def n_reference_points(self) -> int:
        """Number of reference points the model was fitted on."""
        return self._require_fitted().n_points

    @property
    def reference_points(self) -> np.ndarray:
        """The fitted reference points, including any added incrementally."""
        return self._require_fitted().points.copy()

    @property
    def training_scores(self) -> np.ndarray:
        """LOF scores of the reference points themselves."""
        self._require_fitted()
        assert self._training_scores is not None
        return self._training_scores.copy()

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def score(self, point: np.ndarray) -> float:
        """LOF score of a single query point against the reference set."""
        point = np.asarray(point, dtype=float).reshape(-1)
        return float(self.score_many(point[None, :])[0])

    def score_many(self, points: np.ndarray) -> np.ndarray:
        """LOF scores of several query points (one row per point).

        Fully vectorised: one multi-query k-NN search, then the reachability
        and density formulas as row-wise matrix expressions.  Each row's
        score is independent of the other rows, so batching never changes a
        result.
        """
        index = self._require_fitted()
        assert self._k_distances is not None and self._lrd is not None
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if len(points) == 0:
            return np.empty(0)
        distances, indices = index.query_many(points, self.k_neighbours)
        reach = np.maximum(self._k_distances[indices], distances)
        k_effective = indices.shape[1]
        lrd_query = k_effective / np.maximum(reach.sum(axis=1), _EPSILON)
        neighbour_lrd = self._lrd[indices]
        return neighbour_lrd.mean(axis=1) / np.maximum(lrd_query, _EPSILON)

    def is_anomalous(self, point: np.ndarray, alpha: float) -> bool:
        """Whether ``point`` exceeds the LOF threshold ``alpha``."""
        if alpha <= 0:
            raise ModelError("alpha must be positive")
        return self.score(point) >= alpha

    def threshold_for_quantile(self, quantile: float) -> float:
        """LOF value below which ``quantile`` of the reference points fall.

        Useful to pick ``alpha`` automatically: e.g. the 0.995 quantile of
        the training scores gives a threshold that flags at most ~0.5 % of
        reference-like windows.
        """
        if not 0.0 < quantile <= 1.0:
            raise ModelError("quantile must be in (0, 1]")
        self._require_fitted()
        assert self._training_scores is not None
        return float(np.quantile(self._training_scores, quantile))
