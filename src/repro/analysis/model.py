"""Reference behaviour model (the paper's learning step).

The model of correct behaviour is simply the set of pmf points obtained from
the windows of a reference trace ("the trace of the first few minutes of
application execution, during which the developer noticed no QoS errors"),
plus the fitted :class:`~repro.analysis.lof.LocalOutlierFactor` over those
points.  The model also remembers the average reference pmf, which seeds the
online detector's running past pmf.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from ..errors import ModelError, NotFittedError
from ..trace.batch import WindowBatch
from ..trace.event import EventTypeRegistry
from ..trace.window import TraceWindow
from . import knn
from .lof import LocalOutlierFactor
from .pmf import Pmf, pmf_matrix

__all__ = ["ReferenceModel"]


class _RetiredIndexError(Exception):
    """A pickled LOF names a k-NN class this version no longer has."""


#: The globals a saved LOF payload may name: the fitted classes and NumPy's
#: array reconstructors (under ``numpy.core`` before NumPy 2, ``numpy._core``
#: since).
_PAYLOAD_GLOBALS = frozenset(
    {
        (LocalOutlierFactor.__module__, LocalOutlierFactor.__name__),
        (knn.__name__, knn.BruteForceKnn.__name__),
        ("numpy", "dtype"),
        ("numpy", "ndarray"),
    }
    | {
        (f"numpy.{core}.{module}", name)
        for core in ("core", "_core")
        for module, name in (("multiarray", "_reconstruct"), ("numeric", "_frombuffer"))
    }
)


class _LofUnpickler(pickle.Unpickler):
    """Unpickler that resolves only the globals a fitted LOF is made of.

    Any other global is refused before it can be called, so a crafted model
    file cannot run code while it loads.  Model files written while the
    tree indexes (k-d, grid, ball) existed pickle them inside the fitted
    LOF; a name missing from :mod:`~repro.analysis.knn` raises
    :class:`_RetiredIndexError` and :meth:`ReferenceModel.load` refits such
    a model from its stored points instead, which scores bit-identically
    because every backend returned the same neighbours.
    """

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) in _PAYLOAD_GLOBALS:
            return super().find_class(module, name)
        if module == knn.__name__ and not hasattr(knn, name):
            raise _RetiredIndexError(name)
        raise ModelError(f"fitted-index payload names a disallowed global {module}.{name}")


class ReferenceModel:
    """Model of correct behaviour learned from a reference trace.

    Parameters
    ----------
    k_neighbours:
        ``K`` used by the LOF computation.
    min_events_per_window:
        Reference windows with fewer events are skipped during learning: they
        correspond to start-up gaps and would pollute the model with
        near-empty pmfs.
    index_kind:
        One of the :data:`~repro.config.KNN_BACKENDS` names, stored in saved
        models so older configurations and model files load.  Every name
        selects the one exact k-NN search; unknown names raise
        :class:`~repro.errors.ModelError`.
    """

    def __init__(
        self,
        k_neighbours: int = 20,
        min_events_per_window: int = 1,
        index_kind: str = "brute",
        deduplicate: bool = True,
    ) -> None:
        if min_events_per_window < 0:
            raise ModelError("min_events_per_window must be >= 0")
        knn.resolve_backend(index_kind, 0)
        self.k_neighbours = int(k_neighbours)
        self.min_events_per_window = int(min_events_per_window)
        self.index_kind = index_kind
        self.deduplicate = bool(deduplicate)
        self._type_names: tuple[str, ...] | None = None
        self._points: np.ndarray | None = None
        self._lof: LocalOutlierFactor | None = None
        self._mean_pmf_counts: np.ndarray | None = None
        self._n_windows_seen = 0
        self._n_windows_used = 0
        # registry id -> (registry ref, registry length, model-position ->
        # code map).  Keeping the registry reference pins its id() for the
        # cache key; storing only the newest map per registry (rebuilt when
        # the registry grows) bounds the cache at one entry per registry.
        self._projection_cache: dict[
            int, tuple[EventTypeRegistry, int, np.ndarray]
        ] = {}

    # ------------------------------------------------------------------ #
    # Pickling (worker handoff)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Pickle support for shipping a fitted model to worker processes.

        The projection cache is dropped: it is keyed by the ``id()`` of live
        registry objects, which is meaningless in another process (a new
        registry could even collide with a stale key and return the wrong
        projection map).  The cache is rebuilt lazily on first use, so an
        unpickled model scores bit-identically to the original.
        """
        state = self.__dict__.copy()
        state["_projection_cache"] = {}
        return state

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #
    def learn(
        self,
        windows: Iterable[TraceWindow] | WindowBatch,
        registry: EventTypeRegistry,
    ) -> "ReferenceModel":
        """Fit the model from reference windows.

        The registry is snapshotted at this point: the model's point space is
        the set of event types known when learning finishes.  Later windows
        containing new event types are still scorable — their extra mass
        simply falls outside the reference support, pushing them away from
        the reference points, which is the desired behaviour.

        ``windows`` may also be one :class:`~repro.trace.batch.WindowBatch`
        already coded against ``registry`` (e.g.
        :func:`~repro.trace.stream.reference_batch` over decoded columns), so
        learning needs no event objects.  Window objects are coded into such
        a batch first, so both inputs learn the same model; every window,
        including one later dropped by ``min_events_per_window``, registers
        its event types.

        Calling :meth:`learn` again on a fitted model routes the windows into
        :meth:`adapt` — the running index absorbs them incrementally instead
        of being refit from scratch.
        """
        if self.is_fitted:
            if isinstance(windows, WindowBatch):
                windows = windows.to_windows()
            return self.adapt(windows, registry)
        if not isinstance(windows, WindowBatch):
            windows = WindowBatch.from_windows(
                list(windows), registry, keep_windows=False
            )
        self._n_windows_seen += len(windows)
        # One vectorized pass: columnar batch -> counts matrix -> row-normalised
        # probability points, instead of one Pmf object per window.
        usable = windows.event_counts >= max(self.min_events_per_window, 1)
        counts_matrix = pmf_matrix(windows, registry)[usable]
        n_usable = len(counts_matrix)
        if n_usable <= self.k_neighbours:
            raise ModelError(
                "not enough usable reference windows "
                f"({n_usable}) for K={self.k_neighbours}; use a longer reference trace"
            )
        self._n_windows_used = n_usable
        self._type_names = registry.names
        totals = counts_matrix.sum(axis=1)
        points = counts_matrix / totals[:, None]
        counts = counts_matrix.sum(axis=0) / n_usable
        if self.deduplicate:
            # Exactly duplicated reference points make the LOF densities
            # degenerate (k-distance collapses to zero and every slightly
            # different query looks infinitely anomalous).  Very regular
            # applications do produce identical windows, so collapse exact
            # duplicates as long as enough distinct points remain for K.
            unique = np.unique(np.round(points, decimals=9), axis=0)
            if len(unique) > self.k_neighbours:
                points = unique
        self._points = points
        self._mean_pmf_counts = counts
        self._lof = LocalOutlierFactor(k_neighbours=self.k_neighbours).fit(points)
        return self

    def adapt(
        self, windows: Iterable[TraceWindow], registry: EventTypeRegistry
    ) -> "ReferenceModel":
        """Absorb post-fit windows into the running model (online adaptation).

        The windows are projected onto the model's frozen point space (event
        types unknown to the model keep their mass outside the reference
        support, exactly as during scoring) and handed to the fitted index's
        incremental ``add_points`` path — no refit-and-redeploy.  Scoring
        after :meth:`adapt` is identical to a from-scratch fit over the
        combined point set.
        """
        self._require_fitted()
        assert self._points is not None and self._mean_pmf_counts is not None
        usable: list[TraceWindow] = []
        for window in windows:
            self._n_windows_seen += 1
            if len(window) < max(self.min_events_per_window, 1):
                continue
            usable.append(window)
        if not usable:
            return self
        batch = WindowBatch.from_windows(usable, registry, keep_windows=False)
        counts_matrix = pmf_matrix(batch, registry)
        totals = counts_matrix.sum(axis=1)
        probability_rows = counts_matrix / totals[:, None]
        vectors = self.vectors_for(probability_rows, registry)
        # Keep the seeded past pmf a running average over every window the
        # model has absorbed (projected onto the model space).
        new_counts = self.vectors_for(
            counts_matrix.sum(axis=0)[None, :] / len(usable), registry
        )[0]
        n_old = self._n_windows_used
        self._mean_pmf_counts = (
            self._mean_pmf_counts * n_old + new_counts * len(usable)
        ) / (n_old + len(usable))
        self._n_windows_used = n_old + len(usable)
        if self.deduplicate:
            # Mirror the learning-time deduplication: collapse duplicates
            # within the batch and drop points already in the reference set.
            vectors = np.unique(np.round(vectors, decimals=9), axis=0)
            existing = {row.tobytes() for row in np.round(self._points, decimals=9)}
            keep = [row for row in vectors if row.tobytes() not in existing]
            if not keep:
                return self
            vectors = np.asarray(keep)
        assert self._lof is not None
        self._lof.partial_fit(vectors)
        self._points = np.vstack([self._points, vectors])
        return self

    def fingerprint(self) -> dict:
        """Identity of the fitted model: dims, point count, registry hash.

        Stored in the reference-database catalogue and checked on load, so a
        stale catalogue entry fails loudly instead of silently scoring with
        the wrong model.
        """
        self._require_fitted()
        assert self._points is not None and self._type_names is not None
        registry_hash = hashlib.sha256(
            "\x00".join(self._type_names).encode("utf-8")
        ).hexdigest()[:16]
        return {
            "dimension": self.dimension,
            "n_points": int(len(self._points)),
            "type_registry_hash": registry_hash,
        }

    @classmethod
    def from_points(
        cls,
        points: np.ndarray,
        type_names: Sequence[str],
        k_neighbours: int = 20,
        index_kind: str = "brute",
    ) -> "ReferenceModel":
        """Build a model directly from pmf vectors (used by the reference DB).

        .. note::
           ``points`` are probability vectors, so the stored mean "counts"
           are really the mean reference *probabilities* (they sum to ~1
           instead of to a window's event count).  That is fine for every
           consumer — :meth:`mean_reference_pmf` feeds them into a
           :class:`~repro.analysis.pmf.Pmf`, which only ever uses the
           normalised form — but it does mean the seeded past pmf carries a
           nominal total of ~1 event rather than a realistic window total.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != len(type_names):
            raise ModelError(
                "points shape does not match the number of event-type names"
            )
        model = cls(k_neighbours=k_neighbours, index_kind=index_kind)
        model._type_names = tuple(str(name) for name in type_names)
        model._points = points
        model._mean_pmf_counts = points.mean(axis=0)
        model._n_windows_used = len(points)
        model._n_windows_seen = len(points)
        model._lof = LocalOutlierFactor(k_neighbours=k_neighbours).fit(points)
        return model

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`learn` (or :meth:`from_points`) has run."""
        return self._lof is not None

    def _require_fitted(self) -> LocalOutlierFactor:
        if self._lof is None or self._points is None or self._type_names is None:
            raise NotFittedError("ReferenceModel used before learn()")
        return self._lof

    @property
    def n_reference_windows(self) -> int:
        """Number of windows actually used to build the model."""
        self._require_fitted()
        return self._n_windows_used

    @property
    def n_windows_seen(self) -> int:
        """Number of windows offered during learning (including skipped ones)."""
        return self._n_windows_seen

    @property
    def type_names(self) -> tuple[str, ...]:
        """Event-type names defining the model's point space."""
        self._require_fitted()
        assert self._type_names is not None
        return self._type_names

    @property
    def dimension(self) -> int:
        """Dimensionality of the model's point space."""
        return len(self.type_names)

    @property
    def points(self) -> np.ndarray:
        """The reference pmf vectors (copy)."""
        self._require_fitted()
        assert self._points is not None
        return self._points.copy()

    def mean_reference_pmf(self, registry: EventTypeRegistry) -> Pmf:
        """Average reference pmf, expressed against ``registry``.

        This is what seeds the detector's running past pmf at start-up.
        """
        self._require_fitted()
        assert self._mean_pmf_counts is not None and self._type_names is not None
        for name in self._type_names:
            registry.register(name)
        counts = np.zeros(len(registry))
        for name, value in zip(self._type_names, self._mean_pmf_counts):
            counts[registry.code(name)] = value
        return Pmf(counts, registry)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def _projection_codes(self, registry: EventTypeRegistry) -> np.ndarray:
        """Registry code of each model type name (-1 when unknown), cached.

        The map only depends on the registry contents, which change solely by
        appending, so it is cached per (registry, length) and rebuilt when
        the registry grows.
        """
        assert self._type_names is not None
        cached = self._projection_cache.get(id(registry))
        if cached is not None and cached[1] == len(registry):
            return cached[2]
        codes = np.fromiter(
            (
                registry.code(name) if name in registry else -1
                for name in self._type_names
            ),
            dtype=np.int64,
            count=len(self._type_names),
        )
        self._projection_cache[id(registry)] = (registry, len(registry), codes)
        return codes

    def vector_for(self, pmf: Pmf) -> np.ndarray:
        """Project ``pmf`` onto the model's point space.

        Mass carried by event types unknown to the model is *not*
        redistributed: the projected vector then sums to less than one, which
        places it away from every reference point — new event types are by
        definition suspicious.
        """
        self._require_fitted()
        probabilities = pmf.probabilities()
        codes = self._projection_codes(pmf.registry)
        usable = (codes >= 0) & (codes < len(probabilities))
        vector = np.zeros(self.dimension)
        vector[usable] = probabilities[codes[usable]]
        return vector

    def vectors_for(
        self, probability_rows: np.ndarray, registry: EventTypeRegistry
    ) -> np.ndarray:
        """Project a matrix of probability rows onto the model's point space.

        Batched :meth:`vector_for`: ``probability_rows`` holds one window's
        probability vector per row, expressed against ``registry``; the
        result has one model-space point per row, produced by a single
        fancy-indexing gather (no per-name dict lookups).
        """
        self._require_fitted()
        rows = np.atleast_2d(np.asarray(probability_rows, dtype=float))
        codes = self._projection_codes(registry)
        usable = (codes >= 0) & (codes < rows.shape[1])
        vectors = np.zeros((len(rows), self.dimension))
        vectors[:, usable] = rows[:, codes[usable]]
        return vectors

    def lof_score(self, pmf: Pmf) -> float:
        """LOF score of a window pmf against the reference model."""
        lof = self._require_fitted()
        return lof.score(self.vector_for(pmf))

    def score_vectors(self, vectors: np.ndarray) -> np.ndarray:
        """Batched LOF scores of already-projected model-space points."""
        return self._require_fitted().score_many(vectors)

    def is_anomalous(self, pmf: Pmf, alpha: float) -> bool:
        """Whether the window pmf exceeds the LOF threshold ``alpha``."""
        return self.lof_score(pmf) >= alpha

    def training_scores(self) -> np.ndarray:
        """LOF scores of the reference windows themselves (diagnostics)."""
        return self._require_fitted().training_scores

    def suggest_alpha(self, quantile: float = 0.995) -> float:
        """Suggest an ``alpha`` from the distribution of training scores."""
        return max(1.0, self._require_fitted().threshold_for_quantile(quantile))

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path, include_index: bool = True) -> Path:
        """Save the model (point set + metadata) to ``path`` as ``.npz``.

        With ``include_index`` (the default) the fitted LOF — including its
        built k-NN index — is pickled into the archive, so :meth:`load` can
        restore the model without re-running the index build.  Pass
        ``include_index=False`` for a smaller, pickle-free file; loading then
        refits from the stored points (bit-identical scores either way).  A
        file whose pickled LOF holds a retired tree index loads the same
        way, by refitting.
        """
        self._require_fitted()
        assert self._points is not None and self._mean_pmf_counts is not None
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        metadata = {
            "k_neighbours": self.k_neighbours,
            "index_kind": self.index_kind,
            "type_names": list(self.type_names),
            "n_windows_seen": self._n_windows_seen,
            "n_windows_used": self._n_windows_used,
        }
        arrays: dict[str, np.ndarray] = {
            "points": self._points,
            "mean_counts": self._mean_pmf_counts,
            "metadata": np.frombuffer(
                json.dumps(metadata).encode("utf-8"), dtype=np.uint8
            ),
        }
        if include_index:
            arrays["lof_state"] = np.frombuffer(
                pickle.dumps(self._lof), dtype=np.uint8
            )
        np.savez_compressed(path, **arrays)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ReferenceModel":
        """Load a model previously written by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise ModelError(f"reference model file does not exist: {path}")
        with np.load(path) as data:
            try:
                metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
                points = np.asarray(data["points"], dtype=float)
                mean_counts = np.asarray(data["mean_counts"], dtype=float)
                lof_blob = bytes(data["lof_state"]) if "lof_state" in data else None
            except (KeyError, json.JSONDecodeError) as exc:
                raise ModelError(f"malformed reference model file: {path}") from exc
        lof = None
        if lof_blob is not None:
            try:
                lof = _LofUnpickler(io.BytesIO(lof_blob)).load()
            except _RetiredIndexError:
                pass  # refit from the stored points below
            except Exception as exc:
                raise ModelError(
                    f"malformed fitted-index payload in model file: {path}"
                ) from exc
            else:
                if not isinstance(lof, LocalOutlierFactor) or not lof.is_fitted:
                    raise ModelError(
                        f"model file {path} does not hold a fitted LOF index"
                    )
        if lof is not None:
            model = cls(
                k_neighbours=int(metadata["k_neighbours"]),
                index_kind=str(metadata.get("index_kind", "brute")),
            )
            model._type_names = tuple(
                str(name) for name in metadata["type_names"]
            )
            model._points = points
            model._lof = lof
        else:
            model = cls.from_points(
                points,
                metadata["type_names"],
                k_neighbours=int(metadata["k_neighbours"]),
                index_kind=str(metadata.get("index_kind", "brute")),
            )
        model._mean_pmf_counts = mean_counts
        model._n_windows_seen = int(metadata.get("n_windows_seen", len(points)))
        model._n_windows_used = int(metadata.get("n_windows_used", len(points)))
        return model
