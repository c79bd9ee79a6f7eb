"""Seeded, cached input generation for the benchmark workloads.

``python3 perfbench/inputs.py {paper,fleet} --seed N --cache DIR`` writes
the inputs of one seed under ``DIR`` (once; later calls reuse them) and
prints a JSON object naming the files.  The program under test only ever
sees the generated files.

* ``paper``: a ``repro simulate``-style endurance run (40 ms windows, the
  paper's perturbation schedule, payload-carrying events) written both as a
  binary trace and as JSON lines.  It is just long enough for the 300 s
  reference prefix plus the first perturbation.
* ``fleet``: NumPy-generated traffic: one reference stream long enough to
  give more than ``AUTO_CROSSOVER_POINTS`` distinct reference points (so
  ``knn_backend="auto"`` resolves to the ball tree), and 16 shard streams,
  half of them drawn from a shifted event mix.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from pathlib import Path

import numpy as np

from repro.config import EnduranceConfig
from repro.media.app import EnduranceRun
from repro.trace.event import TraceEvent
from repro.trace.writer import write_trace

PAPER_DURATION_S = 370.0

FLEET_RATE_PER_S = 500.0
FLEET_REFERENCE_S = 344.0
FLEET_SHARDS = 16
FLEET_SHARD_S = 6.0
#: Event types of the fleet traffic, with the task each is emitted by.
FLEET_TYPES = (
    ("mb_row_decode", "video-dec"),
    ("frame_decode_start", "video-dec"),
    ("frame_decode_end", "video-dec"),
    ("frame_display", "display"),
    ("vsync", ""),
    ("audio_decode", "audio-dec"),
    ("buffer_push", "demux"),
    ("buffer_pop", "video-dec"),
    ("demux_packet", "demux"),
    ("sched_switch", ""),
    ("irq_enter", ""),
    ("cache_miss", "video-dec"),
)
FLEET_MIX = np.array([10, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1], dtype=float)
#: The shifted mix: scheduling and cache pressure up, decode work down.
FLEET_SHIFTED_MIX = FLEET_MIX * np.array([0.5, 1, 1, 1, 1, 1, 1, 1, 1, 3, 2, 4])


def _publish(build, target: Path) -> None:
    """Run ``build(tmp_dir)`` and move the result to ``target`` atomically.

    An existing ``target`` is reused; its mtime is refreshed so that the
    eviction of the oldest inputs in ``run.py`` spares it.
    """
    if target.exists():
        os.utime(target)
        return
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp)
    try:
        tmp.rename(target)
    except OSError:  # another process published first
        shutil.rmtree(tmp, ignore_errors=True)


def paper_inputs(cache: Path, seed: int) -> dict:
    target = cache / f"paper-d{PAPER_DURATION_S:g}-s{seed}"

    def build(tmp: Path) -> None:
        config = EnduranceConfig.scaled_paper_setup(
            duration_s=PAPER_DURATION_S, reference_s=300.0, seed=seed
        )
        events = EnduranceRun(config).run().events
        write_trace(events, tmp / "trace.bin")
        write_trace(events, tmp / "trace.jsonl")

    _publish(build, target)
    return {"bin": str(target / "trace.bin"), "jsonl": str(target / "trace.jsonl")}


def _fleet_events(rng: np.random.Generator, duration_s: float, mix: np.ndarray):
    n = int(rng.poisson(FLEET_RATE_PER_S * duration_s))
    timestamps = np.sort(rng.integers(0, int(duration_s * 1e6), n)).tolist()
    codes = rng.choice(len(FLEET_TYPES), n, p=mix / mix.sum()).tolist()
    cores = rng.integers(0, 2, n).tolist()
    frames = rng.integers(0, 10_000, n).tolist()
    return [
        TraceEvent(t, FLEET_TYPES[c][0], k, FLEET_TYPES[c][1], {"frame": f})
        for t, c, k, f in zip(timestamps, codes, cores, frames)
    ]


def fleet_inputs(cache: Path, seed: int) -> dict:
    target = cache / (
        f"fleet-r{FLEET_RATE_PER_S:g}-ref{FLEET_REFERENCE_S:g}"
        f"-{FLEET_SHARDS}x{FLEET_SHARD_S:g}-s{seed}"
    )

    def build(tmp: Path) -> None:
        rng = np.random.default_rng(seed)
        write_trace(
            _fleet_events(rng, FLEET_REFERENCE_S, FLEET_MIX), tmp / "reference.bin"
        )
        for shard in range(FLEET_SHARDS):
            mix = FLEET_MIX if shard < FLEET_SHARDS // 2 else FLEET_SHIFTED_MIX
            write_trace(
                _fleet_events(rng, FLEET_SHARD_S, mix), tmp / f"shard{shard:02d}.bin"
            )

    _publish(build, target)
    return {
        "reference": str(target / "reference.bin"),
        "shards": {
            f"shard{shard:02d}": str(target / f"shard{shard:02d}.bin")
            for shard in range(FLEET_SHARDS)
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("kind", choices=["paper", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", type=Path, required=True)
    args = parser.parse_args()
    make = paper_inputs if args.kind == "paper" else fleet_inputs
    print(json.dumps(make(args.cache, args.seed)))


if __name__ == "__main__":
    main()
