#!/usr/bin/env python
"""Run the benchmark suite and archive the pytest-benchmark statistics.

The default invocation runs the throughput benchmarks (per-window loop,
batched scoring plane, the sharded multi-stream fleet and the columnar
file-to-scores ingest plane) and writes their pytest-benchmark statistics
to ``BENCH_throughput.json`` at the repository root, so successive PRs
leave a machine-readable performance trajectory behind::

    python benchmarks/run_benchmarks.py                 # throughput only
    python benchmarks/run_benchmarks.py --all           # every benchmark
    python benchmarks/run_benchmarks.py -o custom.json  # different output

Any extra arguments after ``--`` are forwarded to pytest verbatim.

Timing floors that depend on the machine (core count, noisy neighbours)
are not Tier-1 pass/fail: those benches assert equivalence, record their
ratios in ``extra_info`` and this archived run asserts the floors on them
(:func:`timing_floor_failures`), exiting nonzero when one is missed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

THROUGHPUT_BENCHMARKS = [
    "benchmarks/test_bench_throughput.py",
    "benchmarks/test_bench_throughput_batched.py",
    "benchmarks/test_bench_fleet.py",
    "benchmarks/test_bench_ingest.py",
    "benchmarks/test_bench_streaming.py",
    "benchmarks/test_bench_knn.py",
    "benchmarks/test_bench_fault_tolerance.py",
]


def timing_floor(
    ratio: str,
    value: float,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
) -> dict:
    """The ``extra_info["timing_floor"]`` record of one timing ratio.

    A bench always records the measured ``value``; it passes the bound
    (``minimum`` or ``maximum``) only when the bound applies, so a smoke run
    archives the ratio without asserting it.
    """
    floor: dict = {"ratio": ratio, "value": value}
    if minimum is not None:
        floor["min"] = minimum
    if maximum is not None:
        floor["max"] = maximum
    return floor


def timing_floor_failures(stats: dict, cpu_count: int) -> list[str]:
    """Floors missed by the ratios the benches recorded in ``extra_info``.

    * ``timing_floor`` (see :func:`timing_floor`, or a list of them): each
      recorded value must reach its ``min`` / stay within its ``max``.  Used by the batched
      scoring speedup, the fleet speedup over sequential monitoring, the
      columnar ingest speedup, the streaming ingest overhead and the
      isolate policy's wall time over ``abort`` on a fault-free fleet.
    * fleet worker sweep: the best speedup over the inline fleet among the
      worker counts this machine can run in parallel (2 to ``cpu_count``)
      must reach ``min_speedup``.  Not applied on one core, and not without
      the fork window transport (pickling the windows costs more than
      scoring them).
    """
    failures = []
    for bench in stats.get("benchmarks", []):
        info = bench.get("extra_info", {})
        name = bench.get("fullname", bench.get("name", "?"))
        floors = info.get("timing_floor") or []
        for floor in floors if isinstance(floors, list) else [floors]:
            value = floor["value"]
            if "min" in floor and value < floor["min"]:
                failures.append(
                    f"{name}: {floor['ratio']} {value:.2f}x is below "
                    f"{floor['min']}x"
                )
            if "max" in floor and value > floor["max"]:
                failures.append(
                    f"{name}: {floor['ratio']} {value:.2f}x exceeds "
                    f"{floor['max']}x"
                )
        speedups = {
            int(workers): speedup
            for workers, speedup in info.get("worker_speedups", {}).items()
            if 1 < int(workers) <= cpu_count
        }
        if speedups and info.get("fork_transport"):
            workers, best = max(speedups.items(), key=lambda item: item[1])
            if best < info["min_speedup"]:
                failures.append(
                    f"{name}: best parallel speedup {best:.2f}x "
                    f"({workers} workers, {cpu_count} cpus) is below "
                    f"{info['min_speedup']}x"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_throughput.json",
        help="pytest-benchmark JSON output path (default: %(default)s)",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="run the whole benchmarks/ directory instead of the throughput pair",
    )
    parser.add_argument(
        "--fleet-workers",
        default=None,
        metavar="N,N,...",
        help="comma-separated worker counts for the fleet worker sweep "
        "(sets REPRO_BENCH_FLEET_WORKERS; default: the bench's 1,2,4)",
    )
    args, passthrough = parser.parse_known_args(argv)
    if passthrough and passthrough[0] == "--":
        passthrough = passthrough[1:]

    targets = ["benchmarks"] if args.all else list(THROUGHPUT_BENCHMARKS)
    command = [
        sys.executable,
        "-m",
        "pytest",
        *targets,
        "-q",
        f"--benchmark-json={args.output}",
        *passthrough,
    ]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    if args.fleet_workers is not None:
        env["REPRO_BENCH_FLEET_WORKERS"] = args.fleet_workers
    print("+", " ".join(command))
    code = subprocess.call(command, cwd=REPO_ROOT, env=env)
    stats_path = REPO_ROOT / args.output
    if not stats_path.exists():
        return code
    failures = timing_floor_failures(
        json.loads(stats_path.read_text()), os.cpu_count() or 1
    )
    for failure in failures:
        print(f"timing floor missed: {failure}")
    return code or (1 if failures else 0)


if __name__ == "__main__":
    raise SystemExit(main())
