"""Helpers shared by the benchmark's worker processes (they import NumPy).

The launcher (``run.py``) never imports this module: it stays small so
the peak-RSS figures of the processes it launches carry no inherited
high-water mark.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

import repro.analysis.detector as detector_module
from repro.analysis.knn import resolve_backend
from repro.analysis.model import ReferenceModel
from repro.config import DetectorConfig, MonitorConfig

#: Window length, reference prefix and batch size of the CLI defaults.
WINDOW_US = 40_000
REFERENCE_US = 300_000_000
BATCH_SIZE = 64
#: ``repro monitor`` reads with this decode/score overlap by default.
CLI_PREFETCH = 4


def cli_configs(recording_format: str = "jsonl") -> tuple[DetectorConfig, MonitorConfig]:
    """The detector/monitor configuration ``repro monitor`` runs with."""
    return (
        DetectorConfig(k_neighbours=20, lof_threshold=1.2),
        MonitorConfig(
            window_duration_us=WINDOW_US,
            reference_duration_us=REFERENCE_US,
            batch_size=BATCH_SIZE,
            recording_format=recording_format,
            knn_backend="auto",
        ),
    )


def decisions_digest(decisions) -> str:
    """SHA-256 over every field of every window decision, in order."""
    digest = hashlib.sha256()
    for d in decisions:
        digest.update(
            f"{d.window_index},{d.start_us},{d.end_us},{d.n_events},"
            f"{d.kl_to_past!r},{d.lof_score!r},{d.outcome.value},"
            f"{d.window_bytes}\n".encode()
        )
    return digest.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def result_summary(result) -> dict:
    """What the correctness check compares for one monitor result."""
    return {
        "decisions": decisions_digest(result.decisions),
        "report": result.report.to_dict(),
        "windows": result.n_windows,
        "anomalous": result.n_anomalous,
        "recorded_indices": hashlib.sha256(
            json.dumps(list(result.recorded_indices)).encode()
        ).hexdigest(),
    }


def model_descriptor(model) -> dict:
    points = len(model.points)
    return {
        "knn_backend": resolve_backend(model.index_kind, points),
        "reference_points": points,
        "dimension": model.dimension,
    }


def _count_rows(tracer, args, result):
    tracer.add("lof.rows", len(result))
    return result


def scoring_targets() -> list:
    """Library functions ``process_batch`` calls, wrapped from outside.

    ``pmf_matrix`` and the KL matrix are wrapped where the detector module
    looks them up, so learning (which uses ``pmf_matrix`` from the model
    module) stays untraced.
    """
    return [
        (detector_module, "pmf_matrix", "pmf.matrix", None),
        (detector_module, "symmetric_kl_divergence_matrix", "divergence.kl", None),
        (ReferenceModel, "score_vectors", "lof.score", _count_rows),
    ]


def scoring_layers(tracer, processed: int, merged: int, lof_computed: int,
                   reference_points: int) -> dict:
    """Per-layer metrics of the detector, pmf, KL, LOF and record spans."""
    totals = tracer.totals()

    def total(name: str) -> float:
        return totals[name]["total_s"] if name in totals else 0.0

    rows = tracer.counters.get("lof.rows", 0)
    return {
        "pmf.matrix_s": total("pmf.matrix"),
        "divergence.kl_s": total("divergence.kl"),
        "detector.batch_s": total("detector.batch"),
        "detector.replay_self_s": totals["detector.batch"]["self_s"],
        "detector.lof_rate": lof_computed / max(processed, 1),
        "detector.merge_rate": merged / max(processed, 1),
        "detector.speculation_useful": lof_computed / max(rows, 1),
        "lof.score_s": total("lof.score"),
        "lof.rows": rows,
        "lof.us_per_row": total("lof.score") / max(rows, 1) * 1e6,
        "knn.reference_points": reference_points,
        "monitor.size_s": total("monitor.size"),
        "recorder.s": total("recorder.s"),
    }


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def emit(payload: dict) -> None:
    """Hand a result to ``run.py``: one JSON object on the last stdout line."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
