#!/usr/bin/env python3
"""Endurance-monitor benchmark: the command that runs one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {replay-bin,follow-jsonl,fleet-knn} \
        --seed N --seconds S --trace {0,1}

Prints human-readable progress lines, then, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, taken
from a separate traced run.  Every result, with its workload descriptors and
raw samples, is also archived under ``perfbench/.cache/results/``.

This process only imports the standard library and holds no trace data:
the processes it launches for measurement start from a small address
space, so their peak RSS carries no high-water mark inherited from it.
Input generation, reference computation, learning and tracing run in
child processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("replay-bin", "follow-jsonl", "fleet-knn")
#: ``setup_s`` is the median of this many set-ups in one run.
SETUP_REPEATS = 3
#: Fewest measured iterations per run, whatever ``--seconds`` says.
MIN_ITERATIONS = 3
#: Per-process time limit; a process that exceeds it fails the run.
PROCESS_TIMEOUT_S = 150.0
#: Generated inputs kept in the cache (oldest seeds are evicted).
CACHED_INPUTS = 12

BENCH = Path(__file__).resolve().parent
CACHE = BENCH / ".cache"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli.main; "
    "print(time.perf_counter() - t)"
)


class BenchError(Exception):
    """Set-up failed; the run cannot produce metrics."""


@dataclass
class Proc:
    """Outcome of one child process: wall, CPU, peak RSS, exit code, output."""

    wall: float
    cpu: float
    maxrss_mb: float
    code: int
    stdout: str
    stderr: str

    def last_json(self) -> dict:
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            raise BenchError(f"child failed ({self.code}): {self.stderr[-2000:]}")
        return json.loads(lines[-1])


class Bench:
    def __init__(self, root: Path, args: argparse.Namespace) -> None:
        self.root = root
        self.args = args
        self.spec = json.loads((root / "BENCHMARK.json").read_text())
        tag = f"{args.workload}-s{args.seed}-t{args.trace}"
        self.work = CACHE / "results" / tag
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else f"{src}{os.pathsep}{old}"
        self.attempted = 0
        self.failed = 0
        self.archive: dict = {"workload": args.workload, "seed": args.seed}

    # -------------------------------------------------------------- #
    # Processes
    # -------------------------------------------------------------- #
    def spawn(self, argv: list[str], name: str = "proc") -> Proc:
        """Run ``argv`` to completion and collect its resource usage.

        ``os.wait4`` reports the child's own CPU time and peak RSS,
        including those of every descendant it waited for (fleet workers).
        """
        out_path = self.work / f"{name}.out"
        err_path = self.work / f"{name}.err"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            start = time.perf_counter()
            # Its own process group, so a timeout also kills fleet workers.
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=self.root,
                start_new_session=True,
            )
            timer = threading.Timer(
                PROCESS_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL)
            )
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
        )

    def python(self, script: str, *args: str, name: str) -> dict:
        proc = self.spawn([sys.executable, str(BENCH / script), *args], name)
        return proc.last_json()

    def cli(self, *args: str, name: str = "cli") -> Proc:
        return self.spawn([sys.executable, "-m", "repro.cli.main", "--json", *args], name)

    def inputs(self, kind: str) -> dict:
        CACHE.mkdir(exist_ok=True)
        made = self.python(
            "inputs.py", kind, "--seed", str(self.args.seed), "--cache", str(CACHE),
            name="inputs",
        )
        entries = sorted(
            (p for p in CACHE.iterdir() if p.is_dir() and p.name.startswith(("paper-", "fleet-"))),
            key=lambda p: p.stat().st_mtime,
        )
        for stale in entries[:-CACHED_INPUTS]:
            shutil.rmtree(stale, ignore_errors=True)
        return made

    def import_seconds(self) -> float:
        times = []
        for i in range(3):
            proc = self.spawn([sys.executable, "-c", IMPORT_PROBE], f"import{i}")
            times.append(float(proc.last_json()))
        return statistics.median(times)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    # -------------------------------------------------------------- #
    # Single-stream CLI workloads
    # -------------------------------------------------------------- #
    def single(self) -> dict:
        paths = self.inputs("paper")
        source = Path(paths["bin" if self.args.workload == "replay-bin" else "jsonl"])
        learns = self.learn(source, SETUP_REPEATS if not self.args.trace else 1)
        model = self.work / "model0.npz"
        expected_path = self.work / "expected.json"
        expected = self.python(
            "single.py", "reference", "--input", str(source), "--model", str(model),
            "--output", str(self.work / "reference_rec.jsonl"),
            name="reference",
        )
        expected_path.write_text(json.dumps(expected))
        self.archive["descriptors"] = expected["descriptors"]
        events = expected["descriptors"]["events"]
        argv = ["monitor", str(source), "--model", str(model)]
        if self.args.workload == "follow-jsonl":
            argv += ["--follow", "--idle-timeout", "0", "--poll-interval", "0.01"]
        rec = self.work / "rec.jsonl"

        def iteration(i: int) -> Proc:
            rec.unlink(missing_ok=True)
            proc = self.cli(*argv, "--output", str(rec), name=f"monitor{i}")
            ok = proc.code == 0 and rec.exists()
            if ok:
                payload = json.loads(proc.stdout)
                ok = payload == expected["cli_payload"] and _sha256(rec) == expected[
                    "recorded_sha256"
                ]
            self.check(ok)
            return proc

        if not self.args.trace:
            samples = self.measure(iteration)
            peak = statistics.median(s["maxrss_mb"] for s in samples)
            return self.end_to_end(events, samples, peak, learns)

        cli_runs = [iteration(i) for i in range(MIN_ITERATIONS)]
        import_s = self.import_seconds()
        traced = self.python(
            "single.py", "trace", "--workload", self.args.workload,
            "--input", str(source), "--model", str(model),
            "--expected", str(expected_path), "--workdir", str(self.work),
            "--seconds", str(self.args.seconds),
            name="trace",
        )
        return self.merge_traced(
            traced, statistics.median(r.wall for r in cli_runs), import_s
        )

    def learn(self, source: Path, repeats: int) -> list[float]:
        """Time ``repro learn`` on the trace's 300 s prefix, ``repeats`` times."""
        walls, payloads = [], []
        for i in range(repeats):
            proc = self.cli("learn", str(source), "--model", str(self.work / f"model{i}.npz"),
                            name=f"learn{i}")
            if proc.code != 0:
                raise BenchError(f"repro learn failed: {proc.stderr[-2000:]}")
            walls.append(proc.wall)
            payloads.append(json.loads(proc.stdout)["reference_windows"])
        self.check(len(set(payloads)) == 1)
        return walls

    def measure(self, iteration) -> list[dict]:
        """Closed loop: the next iteration starts when the previous ends."""
        runs: list[Proc] = []
        deadline = time.perf_counter() + self.args.seconds
        while len(runs) < MIN_ITERATIONS or time.perf_counter() < deadline:
            runs.append(iteration(len(runs)))
        return [{"wall_s": r.wall, "cpu_s": r.cpu, "maxrss_mb": r.maxrss_mb} for r in runs]

    def end_to_end(self, events: int, samples: list[dict], peak_rss_mb: float,
                   setup_s: list[float]) -> dict:
        """End-to-end metrics from the measured iterations and set-ups.

        Throughput and CPU cost come from the best iteration: interference
        from other tenants of a shared host only ever slows an iteration, so
        the best of N is the steadiest estimate of the program's own speed.
        Every sample is archived next to it.
        """
        self.archive.update(samples=samples, setup_s_samples=setup_s)
        return {
            "events_per_s": events / min(s["wall_s"] for s in samples),
            "cpu_s_per_mevent": min(s["cpu_s"] for s in samples) / events * 1e6,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_s),
        }

    def merge_traced(self, traced: dict, cli_wall: float, import_s: float) -> dict:
        self.attempted += traced["attempted"]
        self.failed += traced["failed"]
        metrics = traced["metrics"]
        metrics["cli.import_s"] = import_s
        metrics["cli.unaccounted_s"] = (
            cli_wall - import_s - metrics["cli.model_load_s"] - traced["library_untraced_s"]
        )
        self.archive["cli_wall_s"] = cli_wall
        self.archive["library_untraced_s"] = traced["library_untraced_s"]
        return metrics

    # -------------------------------------------------------------- #
    # Fleet workload (library)
    # -------------------------------------------------------------- #
    def fleet(self) -> dict:
        paths = self.inputs("fleet")
        inputs_path = self.work / "inputs.json"
        inputs_path.write_text(json.dumps(paths))
        common = ["--inputs", str(inputs_path), "--workdir", str(self.work)]
        repeats = SETUP_REPEATS if not self.args.trace else 1
        setup = self.python("fleet.py", "setup", *common, "--repeats", str(repeats),
                            name="setup")
        self.check(setup["ok"])
        self.archive["descriptors"] = setup["descriptors"]
        events = setup["descriptors"]["events"]
        if not self.args.trace:
            measured = self.python(
                "fleet.py", "measure", *common, "--seconds", str(self.args.seconds),
                name="measure",
            )
            self.attempted += measured["attempted"]
            self.failed += measured["failed"]
            return self.end_to_end(
                events, measured["samples"], measured["peak_rss_mb"], setup["learn_s"]
            )

        shard_files = list(paths["shards"].values())
        out_dir = self.work / "cli_out"
        cli_walls = []
        for i in range(MIN_ITERATIONS):
            shutil.rmtree(out_dir, ignore_errors=True)
            proc = self.cli(
                "fleet", *shard_files, "--model", str(self.work / "model.npz"),
                "--workers", str(os.cpu_count() or 1), "--recording-format", "binary",
                "--output-dir", str(out_dir), name=f"fleet{i}",
            )
            self.check(proc.code == 0 and _tree_digest(out_dir) == setup["outputs"])
            cli_walls.append(proc.wall)
        import_s = self.import_seconds()
        traced = self.python(
            "fleet.py", "trace", *common, "--seconds", str(self.args.seconds),
            name="trace",
        )
        return self.merge_traced(traced, statistics.median(cli_walls), import_s)

    # -------------------------------------------------------------- #
    def run(self) -> None:
        metrics = self.fleet() if self.args.workload == "fleet-knn" else self.single()
        kind = "per_layer" if self.args.trace else "end_to_end"
        wanted = {m["name"]: m["unit"] for m in self.spec[kind]}
        missing = sorted(set(wanted) - set(metrics))
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in wanted.items()
            },
        }
        self.archive.update(result)
        self.archive["error_rate"] = self.failed / self.attempted
        (self.work / "result.json").write_text(json.dumps(self.archive, indent=2))
        for recording in ("rec.jsonl", "reference_rec.jsonl", "traced_rec.jsonl"):
            (self.work / recording).unlink(missing_ok=True)
        shutil.rmtree(self.work / "cli_out", ignore_errors=True)
        print(f"perfbench: descriptors {json.dumps(self.archive.get('descriptors', {}))}")
        print(f"perfbench: error_rate {self.archive['error_rate']}")
        print(json.dumps(result))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digest(directory: Path) -> dict:
    """SHA-256 of every file in an output directory, by name."""
    if not directory.is_dir():
        return {}
    return {p.name: _sha256(p) for p in sorted(directory.iterdir())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        Bench(root, args).run()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
