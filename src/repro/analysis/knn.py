"""Exact k-nearest-neighbour search used by the Local Outlier Factor.

:class:`BruteForceKnn` is the one k-NN index (``KnnIndex`` names the same
class): a blocked exhaustive scan that returns the
*distances to* and *indices of* the ``k`` nearest reference points under the
Euclidean metric on pmf probability vectors (the metric LOF's authors use;
the reference points live on the probability simplex so Euclidean and cosine
orderings are nearly identical there).

The LOF queries a detector run sends are a few dozen windows per batch that
failed the KL gate, against a reference of a few hundred to several
thousand points.  For those queries the vectorised scan beats every
sublinear index this module used to carry (k-d tree, simplex grid, blocked
ball tree): on the 2 400 LOF queries of an 8 589 × 12 reference (2-vCPU
VM) LOF scored at 160–255 µs per row, against 490–890 µs with the ball tree
and ~640 µs with the grid, with bit-identical results.

Determinism is the contract:

* a distance is always the same floating-point expression (the cdist-style
  ``|q|^2 - 2 q.p + |p|^2`` expansion with a fixed-order einsum reduction,
  clamped at zero, then ``sqrt``), so it never depends on how the queries
  are batched;
* ties are broken by ascending reference index — the ``k`` returned
  neighbours are the lexicographic minimum under ``(distance, index)`` —
  so duplicated reference points yield the same neighbour set everywhere;
* :meth:`BruteForceKnn.add_points` grows a fitted index incrementally and answers
  every query exactly as a from-scratch rebuild over the combined point set
  would.

:func:`resolve_backend` keeps the names older configurations and model files
carry (``"auto"``, ``"brute"``, ``"kdtree"``, ``"grid"``, ``"balltree"``):
each resolves to ``"brute"``, which is exact because every retired backend
returned bit-identical results.
"""

from __future__ import annotations

import numpy as np

from ..config import KNN_BACKENDS
from ..errors import ModelError

__all__ = [
    "KnnIndex",
    "BruteForceKnn",
    "resolve_backend",
]

#: Relative width, in ulps of the ``k``-th squared distance, of the band
#: within which an unselected squared distance could share the ``k``-th
#: distance's ``sqrt``.  ``sqrt`` is correctly rounded, so every ``x`` with
#: ``sqrt(x) == d`` lies within ``2 * d * ulp(d) <= 4 * spacing(d**2)`` of
#: any other such value.
_TIE_BAND_ULPS = 4.0


def _validate_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ModelError(f"points must be a 2-D array, got shape {points.shape}")
    if len(points) == 0:
        raise ModelError("cannot build a k-NN index over zero points")
    if not np.all(np.isfinite(points)):
        raise ModelError("points must be finite")
    return points


def resolve_backend(kind: str, n_points: int) -> str:
    """Resolve a backend name from :data:`KNN_BACKENDS` to ``"brute"``.

    ``n_points`` is accepted for callers written against the size-based
    ``"auto"`` choice; the answer no longer depends on it.  Unknown names
    raise :class:`~repro.errors.ModelError`.
    """
    if kind not in KNN_BACKENDS:
        raise ModelError(
            f"unknown k-NN backend: {kind!r} (expected one of "
            f"{', '.join(KNN_BACKENDS)})"
        )
    return "brute"


class BruteForceKnn:
    """Exact k-NN by exhaustive vectorised distance computation."""

    #: Cap on the number of floats materialised per distance block (~2 MB
    #: per matrix): large enough to amortise NumPy's per-call overhead over
    #: dozens of query rows, small enough that the block's few transient
    #: matrices do not raise the monitor's peak memory.
    _BLOCK_ELEMENTS = 262_144

    def __init__(self, points: np.ndarray) -> None:
        self.points = _validate_points(points)
        self._sq_norms = np.einsum("ij,ij->i", self.points, self.points)

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return len(self.points)

    @property
    def dimension(self) -> int:
        """Dimensionality of the indexed points."""
        return self.points.shape[1]

    def query(self, point: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(distances, indices)`` of the ``k`` nearest points.

        Distances are sorted in non-decreasing order, equal distances by
        ascending point index.  ``k`` is clamped to the number of indexed
        points.
        """
        point = np.asarray(point, dtype=float).reshape(-1)
        if len(point) != self.dimension:
            raise ModelError(
                f"query dimension {len(point)} does not match index dimension {self.dimension}"
            )
        distances, indices = self.query_many(point[None, :], k)
        return distances[0], indices[0]

    def query_many(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised multi-query search over a blocked squared-distance matrix.

        Each block computes the query-to-point squared distances with the
        cdist-style expansion ``|q - p|^2 = |q|^2 - 2 q.p + |p|^2`` in place,
        clamps the cancellation's negative values at zero, selects the ``k``
        smallest per row with ``argpartition`` and takes ``sqrt`` of those
        ``k`` only — no per-query Python.  ``sqrt`` is monotone but not
        injective, so two squared values can share a distance; a row with an
        unselected squared value within :data:`_TIE_BAND_ULPS` ulps of its
        ``k``-th could hold a tie the ``(distance, index)`` order must break
        by index, and is redone with a full-row stable sort of its distances.

        The cross term is an einsum rather than a BLAS matmul on purpose:
        BLAS picks different accumulation orders for different row counts,
        which would make a point's distances depend on its batch mates;
        einsum's fixed reduction order keeps every row bit-identical however
        the queries are batched (the batch/serial equivalence tests rely on
        it).
        """
        queries = self._check_queries(queries, k)
        n_queries = len(queries)
        k = min(k, self.n_points)
        out_distances = np.empty((n_queries, k))
        out_indices = np.empty((n_queries, k), dtype=int)
        block = max(1, self._BLOCK_ELEMENTS // self.n_points)
        for start in range(0, n_queries, block):
            chunk = queries[start:start + block]
            rows = slice(start, start + len(chunk))
            out_distances[rows], out_indices[rows] = self._query_block(chunk, k)
        return out_distances, out_indices

    def _query_block(self, chunk: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        squared = np.einsum("qd,nd->qn", chunk, self.points)
        squared *= -2.0
        squared += np.einsum("ij,ij->i", chunk, chunk)[:, None]
        squared += self._sq_norms
        # The expansion can go slightly negative through cancellation.
        np.maximum(squared, 0.0, out=squared)
        nearest = np.argpartition(squared, k - 1, axis=1)[:, :k]
        # Ascending index first, so the stable distance sort below breaks
        # ties inside the selected set by ascending index.
        nearest.sort(axis=1)
        selected = np.take_along_axis(squared, nearest, axis=1)
        kth = selected.max(axis=1)
        band = kth + _TIE_BAND_ULPS * np.spacing(kth)
        ambiguous = np.count_nonzero(squared <= band[:, None], axis=1) > k
        distances = np.sqrt(selected)
        suborder = np.argsort(distances, axis=1, kind="stable")
        order = np.take_along_axis(nearest, suborder, axis=1)
        distances = np.take_along_axis(distances, suborder, axis=1)
        for row in np.flatnonzero(ambiguous):
            row_distances = np.sqrt(squared[row])
            order[row] = np.argsort(row_distances, kind="stable")[:k]
            distances[row] = row_distances[order[row]]
        return distances, order

    def add_points(self, new_points: np.ndarray) -> None:
        """Absorb additional reference points into the fitted index.

        The new points receive indices ``n_points .. n_points + len - 1`` in
        row order.  Every subsequent query answers exactly as a from-scratch
        rebuild over the combined point set would (same distances, same
        neighbour indices, same tie-breaking) — that equivalence is what the
        online-adaptation tests lock down.
        """
        new_points = np.atleast_2d(np.asarray(new_points, dtype=float))
        if new_points.ndim != 2 or new_points.shape[1] != self.dimension:
            raise ModelError(
                f"new points shape {new_points.shape} does not match index "
                f"dimension {self.dimension}"
            )
        if len(new_points) == 0:
            return
        if not np.all(np.isfinite(new_points)):
            raise ModelError("points must be finite")
        self.points = np.vstack([self.points, new_points])
        self._sq_norms = np.concatenate(
            [self._sq_norms, np.einsum("ij,ij->i", new_points, new_points)]
        )

    def _check_queries(self, queries: np.ndarray, k: int) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if queries.ndim != 2 or queries.shape[1] != self.dimension:
            raise ModelError(
                f"query matrix shape {queries.shape} does not match index "
                f"dimension {self.dimension}"
            )
        if k <= 0:
            raise ModelError("k must be positive")
        return queries


#: The one index type; the name older code imported as the k-NN interface.
KnnIndex = BruteForceKnn
