"""Online anomaly detection over the window stream (paper Section II).

For every incoming window the detector:

1. computes the window pmf ``Npmf``;
2. compares it with the running past pmf ``Ppmf`` using the (symmetrised,
   smoothed) Kullback-Leibler divergence;
3. if the two are similar, merges ``Npmf`` into ``Ppmf`` — no LOF test is
   performed (this both saves computation and lets the detector follow slow
   drifts of the correct behaviour);
4. otherwise computes the LOF of ``Npmf`` against the learned reference
   model and declares the window anomalous when ``LOF >= alpha``.

The outcome of each window is captured in a :class:`WindowDecision`; the
decisions are what the recorder, the evaluation code and the threshold
sweeps consume.  Note that the LOF score of a window does not depend on
``alpha``, so a single monitoring pass supports sweeping ``alpha``
afterwards (that is how the Figure 1 benchmark is generated).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from ..config import DetectorConfig
from ..errors import ModelError
from ..trace.batch import WindowBatch
from ..trace.event import EventTypeRegistry
from ..trace.window import TraceWindow
from .divergence import (
    _symmetric_kl_raw,
    symmetric_kl_divergence,
    symmetric_kl_divergence_matrix,
)
from .model import ReferenceModel
from .pmf import Pmf, _zero_extended, merge_counts, pmf_from_window, pmf_matrix

__all__ = ["DetectionOutcome", "WindowDecision", "OnlineAnomalyDetector"]

#: Fraction of the KL threshold above which a window's LOF score is computed
#: speculatively during batch processing.  The speculative KL is measured
#: against the past pmf as of batch entry, while the authoritative gate sees
#: a past pmf that drifts with every merge; the margin makes near-threshold
#: windows part of the one batched LOF pass instead of falling back to an
#: individual query.  Correctness does not depend on the value — missed
#: windows are simply scored on demand.
_SPECULATION_MARGIN = 0.5


class DetectionOutcome(str, Enum):
    """What the detector did with a window."""

    #: The window pmf was close to the running past pmf; it was merged and no
    #: LOF test was run.
    MERGED = "merged"
    #: LOF was computed and stayed below the threshold: the window is normal.
    NORMAL = "normal"
    #: LOF was computed and reached the threshold: the window is anomalous.
    ANOMALOUS = "anomalous"
    #: The window contained no events; nothing could be computed.
    EMPTY = "empty"


@dataclass(frozen=True)
class WindowDecision:
    """Decision record for one monitored window.

    Attributes
    ----------
    window_index:
        Index of the window in the stream.
    start_us / end_us:
        Time extent of the window.
    n_events:
        Number of events in the window.
    kl_to_past:
        Symmetrised KL divergence between the window pmf and the running
        past pmf at the time the window was processed (``nan`` for empty
        windows).
    lof_score:
        LOF score of the window, or ``None`` when the KL gate skipped the
        LOF computation (or the window was empty).
    outcome:
        What the detector concluded.
    window_bytes:
        Binary-encoded size of the window (filled in by the monitor; the
        detector itself leaves it at 0).  Threshold sweeps use it to compute
        the recorded volume for any ``alpha`` without replaying the stream.
    """

    window_index: int
    start_us: int
    end_us: int
    n_events: int
    kl_to_past: float
    lof_score: float | None
    outcome: DetectionOutcome
    window_bytes: int = 0

    @property
    def anomalous(self) -> bool:
        """Whether the window was declared anomalous (and hence recorded)."""
        return self.outcome is DetectionOutcome.ANOMALOUS

    @property
    def lof_checked(self) -> bool:
        """Whether a LOF computation was actually performed."""
        return self.lof_score is not None

    def anomalous_at(self, alpha: float) -> bool:
        """Re-evaluate the decision for a different LOF threshold ``alpha``.

        Windows whose LOF score was never computed (merged or empty windows)
        remain non-anomalous for every threshold, exactly as they would have
        been in a live run with that threshold, because the KL gate does not
        depend on ``alpha``.
        """
        if self.lof_score is None:
            return False
        return self.lof_score >= alpha


class OnlineAnomalyDetector:
    """Stateful detector driving the KL gate and the LOF test."""

    def __init__(
        self,
        model: ReferenceModel,
        config: DetectorConfig,
        registry: EventTypeRegistry,
    ) -> None:
        if not model.is_fitted:
            raise ModelError("the reference model must be learned before monitoring")
        self.model = model
        self.config = config
        self.registry = registry
        self._past_pmf: Pmf = model.mean_reference_pmf(registry)
        self._n_processed = 0
        self._n_lof_computed = 0
        self._n_merged = 0

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def past_pmf(self) -> Pmf:
        """Current running past pmf ``Ppmf``."""
        return self._past_pmf

    @property
    def n_processed(self) -> int:
        """Number of windows processed so far."""
        return self._n_processed

    @property
    def n_lof_computed(self) -> int:
        """Number of windows for which a LOF score was computed."""
        return self._n_lof_computed

    @property
    def n_merged(self) -> int:
        """Number of windows merged into the past pmf by the KL gate."""
        return self._n_merged

    @property
    def lof_computation_rate(self) -> float:
        """Fraction of windows that required a LOF computation."""
        if self._n_processed == 0:
            return 0.0
        return self._n_lof_computed / self._n_processed

    # ------------------------------------------------------------------ #
    # Processing
    # ------------------------------------------------------------------ #
    def process(self, window: TraceWindow) -> WindowDecision:
        """Process one window and return the decision."""
        self._n_processed += 1
        if window.is_empty:
            return WindowDecision(
                window_index=window.index,
                start_us=window.start_us,
                end_us=window.end_us,
                n_events=0,
                kl_to_past=float("nan"),
                lof_score=None,
                outcome=DetectionOutcome.EMPTY,
            )

        current = pmf_from_window(window, self.registry)
        kl = symmetric_kl_divergence(
            current, self._past_pmf, smoothing=self.config.kl_smoothing
        )

        if self.config.use_kl_gate and kl < self.config.kl_threshold:
            self._merge(current)
            self._n_merged += 1
            return WindowDecision(
                window_index=window.index,
                start_us=window.start_us,
                end_us=window.end_us,
                n_events=len(window),
                kl_to_past=kl,
                lof_score=None,
                outcome=DetectionOutcome.MERGED,
            )

        score = self.model.lof_score(current)
        self._n_lof_computed += 1
        anomalous = score >= self.config.lof_threshold
        if not anomalous:
            # A window that passed the LOF test is "regular" even though it
            # drifted away from the recent past: fold it into Ppmf so slow
            # behaviour changes keep being tracked (paper Section II).
            self._merge(current)
        return WindowDecision(
            window_index=window.index,
            start_us=window.start_us,
            end_us=window.end_us,
            n_events=len(window),
            kl_to_past=kl,
            lof_score=score,
            outcome=DetectionOutcome.ANOMALOUS if anomalous else DetectionOutcome.NORMAL,
        )

    def process_batch(
        self, batch: WindowBatch, window_bytes: Sequence[int] | None = None
    ) -> list[WindowDecision]:
        """Process a micro-batch of windows, vectorized.

        Drop-in equivalent of calling :meth:`process` on each window in
        order — same outcomes, same KL divergences, same LOF scores, same
        running past pmf afterwards — but computed on the columnar batch:

        * the counts matrix comes from one ``bincount``
          (:func:`~repro.analysis.pmf.pmf_matrix`) instead of per-event
          Python loops;
        * LOF scores are *speculated* in one batched k-NN pass for the
          windows whose KL against the batch-entry past pmf fails the gate
          (LOF scores only depend on the frozen model, never on the running
          past pmf, so a speculated score is exact whenever it is needed);
        * the window-side terms of the gate and the merge — smoothed
          probabilities, their logs and ``decay * counts / totals`` — are
          computed once per batch as matrix operations;
        * a lean sequential replay then reproduces the exact gate -> merge
          -> LOF decision chain, because each merge changes the past pmf the
          *next* window is gated against.  The past's smoothed form and its
          log are refreshed only after a merge, and the KL is
          ``0.5 * (sum(p * d) - sum(q * d))`` with ``d = log p - log q``,
          which equals the serial ``0.5 * (D(p||q) + D(q||p))`` bit for bit
          (IEEE negation is exact).  A window whose KL width differs from
          the batch width (the registry grew mid-batch and neither the
          window nor the past spans it yet) takes the serial
          ``_symmetric_kl_raw``/``merge_counts`` path instead.

        Windows gated away by the replay keep ``lof_score=None`` even when a
        speculative score existed, matching the serial path; the rare
        gate-failure that was not speculated (the past pmf drifted across
        the threshold mid-batch) is scored individually on demand.

        ``window_bytes`` (one size per window, e.g.
        :meth:`~repro.trace.batch.WindowBatch.window_sizes`) is stamped into
        the decisions as they are built; without it ``window_bytes`` stays
        0, as :meth:`process` leaves it.
        """
        decisions: list[WindowDecision] = []
        n_windows = len(batch)
        if n_windows == 0:
            return decisions
        config = self.config
        smoothing = config.kl_smoothing
        decay = config.merge_decay
        keep = 1.0 - decay
        gate_threshold = config.kl_threshold if config.use_kl_gate else -np.inf
        lof_threshold = config.lof_threshold
        counts = pmf_matrix(batch, self.registry)
        width = counts.shape[1]
        event_counts = batch.event_counts
        past_counts = self._past_pmf.counts
        sizes = [0] * n_windows if window_bytes is None else list(window_bytes)
        # Plain-int copies for the replay loop: per-element numpy scalar
        # extraction would cost more than the arithmetic it feeds.
        indices_list = batch.indices.tolist()
        starts_list = batch.start_us.tolist()
        ends_list = batch.end_us.tolist()
        counts_list = event_counts.tolist()
        dims_list = batch.dims.tolist()

        # Speculative batched LOF over the likely gate failures, and the
        # window-side terms of the replay.
        speculated: dict[int, float] = {}
        nonempty = np.flatnonzero(event_counts > 0)
        if nonempty.size:
            totals = counts.sum(axis=1)
            probabilities = counts / np.where(totals > 0.0, totals, 1.0)[:, None]
            if config.use_kl_gate:
                speculative_kl = symmetric_kl_divergence_matrix(
                    counts[nonempty], past_counts, smoothing=smoothing
                )
                candidates = nonempty[
                    speculative_kl >= _SPECULATION_MARGIN * config.kl_threshold
                ]
            else:
                candidates = nonempty
            if candidates.size:
                vectors = self.model.vectors_for(
                    probabilities[candidates], self.registry
                )
                scores = self.model.score_vectors(vectors)
                speculated = dict(zip(candidates.tolist(), scores.tolist()))
            # Each row equals the serial path's 1-D ``_smooth_normalise``
            # and ``np.log`` of the window padded to ``width``.
            smoothed = counts + smoothing
            smoothed /= smoothed.sum(axis=1)[:, None]
            log_smoothed = np.log(smoothed)
            blend_in = decay * probabilities
            totals_list = totals.tolist()

        # Exact sequential replay of the gate -> merge -> LOF chain.  The
        # counters are accumulated locally and committed together with the
        # past pmf after the loop, so an exception mid-batch leaves the
        # detector in its batch-entry state instead of half-updated.
        n_merged = 0
        n_lof_computed = 0
        add_reduce = np.add.reduce  # ``ndarray.sum`` minus its Python wrapper
        # The past padded to ``width``, smoothed, and its log: refreshed on
        # the first full-width window after a merge.
        past_smoothed: np.ndarray | None = None
        log_past: np.ndarray
        for i in range(n_windows):
            n_events = counts_list[i]
            if n_events == 0:
                decisions.append(
                    WindowDecision(
                        window_index=indices_list[i],
                        start_us=starts_list[i],
                        end_us=ends_list[i],
                        n_events=0,
                        kl_to_past=float("nan"),
                        lof_score=None,
                        outcome=DetectionOutcome.EMPTY,
                        window_bytes=sizes[i],
                    )
                )
                continue
            # dims[i] is the registry size right after this window was coded,
            # so the serial KL pads the window and the past to
            # max(dims[i], len(past)) (KL smoothing is sensitive to the width).
            dims = dims_list[i]
            full_width = dims == width or len(past_counts) == width
            if full_width:
                if past_smoothed is None:
                    past_smoothed = _zero_extended(past_counts, width) + smoothing
                    past_smoothed /= add_reduce(past_smoothed)
                    log_past = np.log(past_smoothed)
                d = log_smoothed[i] - log_past
                kl = 0.5 * (
                    float(add_reduce(smoothed[i] * d))
                    - float(add_reduce(past_smoothed * d))
                )
            else:
                kl = _symmetric_kl_raw(counts[i, :dims], past_counts, smoothing)
            score: float | None = None
            if kl < gate_threshold:
                n_merged += 1
                outcome = DetectionOutcome.MERGED
                merge = True
            else:
                score = speculated.get(i)
                if score is None:
                    vector = self.model.vectors_for(
                        probabilities[i : i + 1], self.registry
                    )
                    score = float(self.model.score_vectors(vector)[0])
                n_lof_computed += 1
                anomalous = score >= lof_threshold
                merge = not anomalous
                outcome = (
                    DetectionOutcome.ANOMALOUS if anomalous else DetectionOutcome.NORMAL
                )
            if merge:
                # ``merge_counts`` with the window side precomputed.
                past_total = float(add_reduce(past_counts))
                if full_width and past_total > 0.0:
                    past_counts = (
                        keep * _zero_extended(past_counts / past_total, width)
                        + blend_in[i]
                    ) * (keep * past_total + decay * totals_list[i])
                else:
                    past_counts = merge_counts(past_counts, counts[i, :dims], decay)
                past_smoothed = None
            decisions.append(
                WindowDecision(
                    window_index=indices_list[i],
                    start_us=starts_list[i],
                    end_us=ends_list[i],
                    n_events=n_events,
                    kl_to_past=kl,
                    lof_score=score,
                    outcome=outcome,
                    window_bytes=sizes[i],
                )
            )
        self._past_pmf = Pmf._from_trusted(past_counts, self.registry)
        self._n_processed += n_windows
        self._n_merged += n_merged
        self._n_lof_computed += n_lof_computed
        return decisions

    def _merge(self, current: Pmf) -> None:
        self._past_pmf = self._past_pmf.merge(current, decay=self.config.merge_decay)
