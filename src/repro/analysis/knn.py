"""Exact k-nearest-neighbour search used by the Local Outlier Factor.

:class:`BruteForceKnn` is the one k-NN index (``KnnIndex`` names the same
class): a blocked exhaustive search that returns the
*distances to* and *indices of* the ``k`` nearest reference points under the
Euclidean metric on pmf probability vectors (the metric LOF's authors use;
the reference points live on the probability simplex so Euclidean and cosine
orderings are nearly identical there).

The LOF queries a detector run sends are a few dozen windows per batch that
failed the KL gate, against a reference of a few hundred to several
thousand points.  For those queries the vectorised search beats every
sublinear index this module used to carry (k-d tree, simplex grid, blocked
ball tree).

Determinism is the contract:

* a distance is always the same floating-point expression (the cdist-style
  ``|q|^2 - 2 q.p + |p|^2`` expansion with a fixed-order einsum reduction,
  clamped at zero, then ``sqrt``), so it never depends on how the queries
  are batched;
* ties are broken by ascending reference index -- the ``k`` returned
  neighbours are the lexicographic minimum under ``(distance, index)`` --
  so duplicated reference points yield the same neighbour set everywhere;
* :meth:`BruteForceKnn.add_points` grows a fitted index incrementally and answers
  every query exactly as a from-scratch rebuild over the combined point set
  would.

**Filter and refine.**  The einsum cross term is several times slower than
a BLAS matmul, but BLAS sums in an order that depends on the operand shapes
and thread count, so its values cannot be the returned ones.  On a
reference of more than :data:`_FILTER_MIN_WIDTHS` candidate widths (the
width is ``2 k + 32`` points; below the crossover the exact scan is as
fast) BLAS only *filters*: it ranks the points by ``F = |p|^2 + (-2 q).p``
in tiles small enough that OpenBLAS runs each call on the calling thread.
With ``u = 2**-53`` and ``S = (|q| + max |p|)^2``, ``F + |q|^2`` is within
``(2 d + 4) u S`` of the exact expression ``E`` on every point: the einsum
and the BLAS dot product each lie within ``d u |q| |p| <= d u S / 2`` of
the true one whatever their summation order, so the two ``-2 q.p`` terms
differ by at most ``2 d u S``, and each of the three roundings (two in
``E``, one in ``F``) adds at most ``1.01 u S``.  A point that is among
the ``k`` nearest, or ties the ``k``-th distance (whose squared values lie
within ``4`` ulps, ``<= 8.1 u S``, of the ``k``-th), therefore has ``F``
within ``(4 d + 16) u S`` of the row's ``k``-th smallest ``F``.  The filter
keeps every point within twice that margin (plus a subnormal slack for
products that underflow), in ascending index order, and refines: only
those candidates get the exact expression and the ``(distance, index)``
selection, so the answer is the exact scan's bit for bit.  A row the
filter cannot certify takes the exact scan: a query whose ``S`` is out of
range (the filter could overflow, or its norms underflow; non-finite
queries included), or one with more candidates than the width (mass ties,
e.g. duplicated points).
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

_UNIT_ROUNDOFF = 2.0**-53
#: The filter margin is ``(_MARGIN_PER_DIM * d + _MARGIN_BASE) * u * S``,
#: twice the ``(4 d + 16) u S`` bound the module docstring derives, plus
#: ``(d + 1) * _SUBNORMAL_SLACK``: twice the ``8 d + 8`` half-ulps of the
#: smallest subnormal that underflowing products and a subnormal ``k``-th
#: value's tie band can add.
_MARGIN_PER_DIM = 8.0
_MARGIN_BASE = 32.0
_SUBNORMAL_SLACK = 2.0**-1071
#: Rows whose ``S`` lies outside ``[_MIN_SCALE, _MAX_SCALE]`` take the
#: exact scan: above it the filter values could overflow, below it the
#: squared norms that give ``S`` could underflow.
_MIN_SCALE = 2.0**-800
_MAX_SCALE = 2.0**1000
#: Multiply-adds per filter matmul call.  OpenBLAS runs a gemm of at most
#: ``65 536 * 4`` multiply-adds on the calling thread, so the filter adds
#: no BLAS threads to the monitor's (or the fleet workers') own.
_TILE_MULTIPLY_ADDS = 262_144
#: The filter route is taken when the reference holds more than this many
#: candidate widths.  Measured at d = 12 and 29, k = 5 and 20, 25-row query
#: blocks: the two routes cross at 12-14 widths.
_FILTER_MIN_WIDTHS = 16
#: Column stride of the sample that bounds each row's ``k``-th filter
#: value.  The route guarantees more than ``k`` sampled columns.
_SAMPLE_STRIDE = 8


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
        """Vectorised multi-query search, blocked to bound peak memory.

        Every returned distance is the exact expression of the module
        docstring, sorted, and every neighbour set is its ``(distance,
        index)`` minimum.  On a reference larger than
        :data:`_FILTER_MIN_WIDTHS` candidate widths each block of queries is
        filtered by single-threaded BLAS and refined exactly
        (:meth:`_query_block`): a row keeps the points whose filter value is
        within ``(8 d + 32) u S`` of its ``k``-th smallest, twice the proven
        error bound, and falls back to the exact scan when it cannot be
        certified.  On a smaller reference the exact scan is the whole
        search.  Neither the route nor the batching changes a bit of any
        row's answer.
        """
        queries = self._check_queries(queries, k)
        n_queries = len(queries)
        k = min(k, self.n_points)
        out_distances = np.empty((n_queries, k))
        out_indices = np.empty((n_queries, k), dtype=int)
        block = max(1, self._BLOCK_ELEMENTS // self.n_points)
        width = _candidate_width(k)
        approx = max_norm = None
        if self.n_points > _FILTER_MIN_WIDTHS * width:
            approx = np.empty((min(block, n_queries), self.n_points))
            max_norm = float(np.sqrt(self._sq_norms.max()))
        for start in range(0, n_queries, block):
            chunk = queries[start:start + block]
            rows = slice(start, start + len(chunk))
            if approx is None:
                out_distances[rows], out_indices[rows] = self._exact_block(chunk, k)
            else:
                out_distances[rows], out_indices[rows] = self._query_block(
                    chunk, k, width, approx, max_norm
                )
        return out_distances, out_indices

    def _query_block(
        self,
        chunk: np.ndarray,
        k: int,
        width: int,
        approx: np.ndarray,
        max_norm: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Filter one block of query rows by BLAS and refine it exactly.

        ``approx`` is the caller's ``(block rows, n_points)`` buffer for the
        filter values; rows the filter cannot certify take
        :meth:`_exact_block`.
        """
        n_points, dim = self.points.shape
        query_sq = np.einsum("ij,ij->i", chunk, chunk)
        scale = (np.sqrt(query_sq) + max_norm) ** 2
        # NaN scales (non-finite queries) fail both comparisons.
        rows = np.flatnonzero((scale >= _MIN_SCALE) & (scale <= _MAX_SCALE))
        distances = np.empty((len(chunk), k))
        indices = np.empty((len(chunk), k), dtype=int)
        refined = np.zeros(len(chunk), dtype=bool)
        if len(rows):
            # F = |p|^2 + (-2 q).p; scaling by -2 is exact.
            filtered = approx[: len(rows)]
            scaled = chunk[rows] * -2.0
            tile = max(1, _TILE_MULTIPLY_ADDS // (len(rows) * dim))
            for start in range(0, n_points, tile):
                stop = start + tile
                np.matmul(scaled, self.points[start:stop].T, out=filtered[:, start:stop])
            filtered += self._sq_norms
            margin = (
                (_MARGIN_PER_DIM * dim + _MARGIN_BASE) * _UNIT_ROUNDOFF * scale[rows]
                + (dim + 1) * _SUBNORMAL_SLACK
            )
            # A subset's k-th smallest value is never below the whole row's,
            # so every _SAMPLE_STRIDE-th column bounds the k-th value from
            # above and cuts each row to a few multiples of k ...
            sample = np.partition(filtered[:, ::_SAMPLE_STRIDE], k - 1, axis=1)
            hits = np.flatnonzero(filtered <= (sample[:, k - 1] + margin)[:, None])
            hit_rows = hits // n_points
            counts = np.bincount(hit_rows, minlength=len(rows))
            values = filtered.ravel()[hits]
            # ... which hold every value within the margin of the row's own
            # k-th: the candidates.
            kth = np.partition(_pad(values, counts, np.inf), k - 1, axis=1)[:, k - 1]
            keep = values <= (kth + margin)[hit_rows]
            hits, hit_rows = hits[keep], hit_rows[keep]
            counts = np.bincount(hit_rows, minlength=len(rows))
            fits = counts <= width
            if not fits.all():
                keep = fits[hit_rows]
                hits, hit_rows = hits[keep], hit_rows[keep]
                rows, counts = rows[fits], counts[fits]
            refined[rows] = True
        if refined.any():
            # The exact expression on the candidates, in ascending index
            # order within each row; the gathered einsum sums each pair in
            # the same order as the full one.
            columns = hits - hit_rows * n_points
            pair_rows = rows.repeat(counts)
            squared = np.einsum("id,id->i", chunk[pair_rows], self.points[columns])
            squared *= -2.0
            squared += query_sq[pair_rows]
            squared += self._sq_norms[columns]
            np.maximum(squared, 0.0, out=squared)
            distances[rows], positions = _select(_pad(squared, counts, np.inf), k)
            indices[rows] = np.take_along_axis(_pad(columns, counts, 0), positions, axis=1)
        exact = np.flatnonzero(~refined)
        if len(exact):
            distances[exact], indices[exact] = self._exact_block(chunk[exact], k)
        return distances, indices

    def _exact_block(self, chunk: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The exact expression on every point: the unfiltered scan."""
        squared = np.einsum("qd,nd->qn", chunk, self.points)
        squared *= -2.0
        squared += np.einsum("ij,ij->i", chunk, chunk)[:, None]
        squared += self._sq_norms
        # The expansion can go slightly negative through cancellation.
        np.maximum(squared, 0.0, out=squared)
        return _select(squared, k)

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


def _candidate_width(k: int) -> int:
    """Most candidates a filtered row may keep before it takes the exact scan."""
    return 2 * k + 32


def _pad(values: np.ndarray, counts: np.ndarray, fill: float) -> np.ndarray:
    """Row-grouped ``values`` (``counts[r]`` of them for row ``r``), padded."""
    rows = np.arange(len(counts)).repeat(counts)
    slots = np.arange(len(values)) - (np.cumsum(counts) - counts).repeat(counts)
    padded = np.full((len(counts), counts.max()), fill, dtype=values.dtype)
    padded[rows, slots] = values
    return padded


def _select(squared: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest ``(sqrt(value), column)`` pairs of each row.

    Columns must be in ascending reference-index order, so that breaking
    ties by column breaks them by index.  ``argpartition`` selects on the
    squared values and ``sqrt`` is taken of the ``k`` selected only.
    ``sqrt`` is monotone but not injective, so two squared values can share
    a distance; a row with an unselected value within
    :data:`_TIE_BAND_ULPS` ulps of its ``k``-th could hold a tie the
    ``(distance, index)`` order must break by index, and is redone with a
    full-row stable sort of its distances.  Returns the sorted distances
    and their columns.
    """
    nearest = np.argpartition(squared, k - 1, axis=1)[:, :k]
    # Ascending column first, so the stable distance sort below breaks
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


#: The one index type; the name older code imported as the k-NN interface.
KnnIndex = BruteForceKnn
