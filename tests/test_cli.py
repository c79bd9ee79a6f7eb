"""End-to-end tests of the ``repro-trace`` command line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.monitor import TraceMonitor
from repro.cli.main import build_parser, main
from repro.config import DetectorConfig, MonitorConfig
from repro.trace.event import EventTypeRegistry, TraceEvent
from repro.trace.generator import PeriodicTraceGenerator
from repro.trace.reader import read_trace
from repro.trace.stream import TraceStream
from repro.trace.writer import write_trace


@pytest.fixture()
def trace_file(tmp_path, normal_mix, anomaly_mix):
    """A small synthetic trace written to disk for the CLI to consume."""
    generator = PeriodicTraceGenerator(
        normal_mix,
        anomaly_mix,
        anomaly_intervals=[(8.0, 10.0)],
        rate_per_s=2_000,
        seed=13,
    )
    path = tmp_path / "trace.jsonl"
    write_trace(generator.events(16.0), path)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in (
            "simulate", "stats", "learn", "monitor", "fleet", "experiment", "sweep"
        ):
            assert parser.parse_args([command] + (
                ["--output", "x"] if command == "simulate" else
                ["t"] if command in {"stats", "learn", "monitor", "fleet"} else []
            ) + (["--model", "m"] if command == "learn" else [])).command == command


class TestStats:
    def test_stats_text_output(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "event rate" in out

    def test_stats_json_output(self, trace_file, capsys):
        assert main(["--json", "stats", str(trace_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_events"] > 0

    def test_missing_trace_reports_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "missing.jsonl")]) == 2
        assert "error" in capsys.readouterr().err


class TestLearnAndMonitor:
    def test_learn_then_monitor_roundtrip(self, trace_file, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        assert (
            main(
                [
                    "learn",
                    str(trace_file),
                    "--reference-s",
                    "4",
                    "--k",
                    "10",
                    "--model",
                    str(model_path),
                ]
            )
            == 0
        )
        assert model_path.exists()
        capsys.readouterr()

        recorded = tmp_path / "recorded.jsonl"
        assert (
            main(
                [
                    "--json",
                    "monitor",
                    str(trace_file),
                    "--model",
                    str(model_path),
                    "--k",
                    "10",
                    "--alpha",
                    "1.3",
                    "--output",
                    str(recorded),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["windows"] > 0
        assert payload["reduction_factor"] > 1.0

    @pytest.mark.parametrize("fmt", ["jsonl", "bin"])
    def test_learn_equals_object_path_model(self, trace_file, tmp_path, capsys, fmt):
        """``learn`` decodes to columns and materialises only the reference
        prefix; the model must equal the whole-file object decode's."""
        events = read_trace(trace_file)
        source = tmp_path / f"source.{fmt}"
        write_trace(events, source)
        monitor = TraceMonitor(
            DetectorConfig(k_neighbours=10, lof_threshold=1.2),
            MonitorConfig(reference_duration_us=4_000_000),
            EventTypeRegistry.with_default_types(),
        )
        reference, _ = TraceStream(iter(read_trace(source))).split_reference(
            4_000_000, 40_000
        )
        oracle = monitor.learn_reference(reference)
        oracle_path = oracle.save(tmp_path / "oracle.npz")

        model_path = tmp_path / "model.npz"
        assert main([
            "--json", "learn", str(source), "--reference-s", "4",
            "--k", "10", "--model", str(model_path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "reference_windows": oracle.n_reference_windows,
            "dimension": oracle.dimension,
            "suggested_alpha": oracle.suggest_alpha(),
            "model": str(model_path),
        }
        with np.load(model_path) as learned, np.load(oracle_path) as expected:
            assert sorted(learned.files) == sorted(expected.files)
            for name in expected.files:
                np.testing.assert_array_equal(learned[name], expected[name])

    def test_monitor_without_model_learns_from_prefix(self, trace_file, capsys):
        assert (
            main(
                [
                    "--json",
                    "monitor",
                    str(trace_file),
                    "--reference-s",
                    "4",
                    "--k",
                    "10",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["anomalous"] >= 0


class TestFleet:
    @pytest.fixture()
    def trace_files(self, tmp_path, normal_mix, anomaly_mix):
        paths = []
        for position in range(3):
            generator = PeriodicTraceGenerator(
                normal_mix,
                anomaly_mix,
                anomaly_intervals=[(6.0 + position, 8.0 + position)],
                rate_per_s=2_000,
                seed=31 + position,
            )
            path = tmp_path / f"stream{position}.jsonl"
            write_trace(generator.events(14.0), path)
            paths.append(path)
        return paths

    def test_fleet_learns_from_first_trace_and_monitors_all(
        self, trace_files, tmp_path, capsys
    ):
        output_dir = tmp_path / "recorded"
        code = main(
            [
                "--json",
                "fleet",
                *[str(path) for path in trace_files],
                "--reference-s",
                "4",
                "--k",
                "10",
                "--batch-size",
                "32",
                "--output-dir",
                str(output_dir),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet"]["n_shards"] == 3
        assert payload["fleet"]["total_windows"] > 0
        assert set(payload["shards"]) == {"stream0", "stream1", "stream2"}
        for label in payload["shards"]:
            assert (output_dir / f"{label}.jsonl").exists()

    def test_fleet_text_output(self, trace_files, capsys):
        assert (
            main(["fleet", *[str(p) for p in trace_files], "--reference-s", "4", "--k", "10"])
            == 0
        )
        out = capsys.readouterr().out
        assert "fleet: 3 shards" in out
        assert "stream0:" in out

    def test_duplicate_stems_get_unique_labels(self, tmp_path, normal_mix, capsys):
        from repro.trace.generator import SyntheticTraceGenerator

        for sub in ("a", "b"):
            directory = tmp_path / sub
            directory.mkdir()
            generator = SyntheticTraceGenerator(normal_mix, rate_per_s=2_000, seed=5)
            write_trace(generator.events(10.0), directory / "trace.jsonl")
        code = main(
            [
                "--json",
                "fleet",
                str(tmp_path / "a" / "trace.jsonl"),
                str(tmp_path / "b" / "trace.jsonl"),
                "--reference-s",
                "4",
                "--k",
                "10",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["shards"]) == {"trace", "trace-1"}

    def test_dedup_suffix_colliding_with_real_stem(self):
        from pathlib import Path

        from repro.cli.main import _shard_labels

        labels = _shard_labels(
            [Path("a/trace.jsonl"), Path("b/trace.jsonl"), Path("c/trace-1.jsonl")]
        )
        # Every trace must keep its own shard: no silent drop when a dedup
        # suffix collides with a real file stem.
        assert len(set(labels)) == 3
        assert labels == ["trace", "trace-1", "trace-1-1"]


class TestSimulate:
    def test_simulate_writes_trace_and_qos_log(self, tmp_path, capsys):
        output = tmp_path / "sim.jsonl"
        qos = tmp_path / "qos.json"
        code = main(
            [
                "--json",
                "simulate",
                "--duration",
                "120",
                "--reference-s",
                "30",
                "--output",
                str(output),
                "--qos",
                str(qos),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_events"] > 0
        assert output.exists()
        qos_payload = json.loads(qos.read_text())
        assert "perturbations" in qos_payload and "errors" in qos_payload


class TestIngestFlags:
    """The columnar ingest plane is the CLI default and bit-identical."""

    def _monitor(self, trace_file, capsys, *extra):
        args = [
            "--json", "monitor", str(trace_file), "--reference-s", "4",
            "--k", "10", *extra,
        ]
        assert main(args) == 0
        return json.loads(capsys.readouterr().out)

    def test_monitor_ingest_modes_identical(self, trace_file, tmp_path, capsys):
        out_col = tmp_path / "col.jsonl"
        out_obj = tmp_path / "obj.jsonl"
        payload_col = self._monitor(
            trace_file, capsys, "--output", str(out_col)
        )
        payload_obj = self._monitor(
            trace_file, capsys, "--ingest", "objects", "--output", str(out_obj)
        )
        assert payload_col == payload_obj
        assert out_col.read_bytes() == out_obj.read_bytes()

    def test_monitor_prefetch_zero_identical(self, trace_file, capsys):
        with_prefetch = self._monitor(trace_file, capsys, "--prefetch", "4")
        without_prefetch = self._monitor(trace_file, capsys, "--prefetch", "0")
        assert with_prefetch == without_prefetch

    def test_monitor_binary_recording_format(self, trace_file, tmp_path, capsys):
        from repro.trace.reader import read_trace

        recorded = tmp_path / "recorded.bin"
        payload = self._monitor(
            trace_file, capsys,
            "--recording-format", "binary", "--output", str(recorded),
        )
        assert payload["recorded_bytes"] > 0
        assert recorded.read_bytes()[:4] == b"RTRC"
        assert len(read_trace(recorded)) > 0

    def test_monitor_empty_file_reports_clear_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        assert main(["monitor", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "empty trace file" in err and str(empty) in err

    @pytest.mark.parametrize("command", ["learn", "monitor", "fleet"])
    def test_knn_backend_flag_is_gone(self, command, trace_file):
        # One exact k-NN search remains, so there is no backend to choose.
        extra = ["--model", "m"] if command == "learn" else []
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [command, str(trace_file), *extra, "--knn-backend", "brute"]
            )

    def test_fleet_ingest_modes_identical(
        self, tmp_path, normal_mix, anomaly_mix, capsys
    ):
        paths = []
        for position in range(2):
            generator = PeriodicTraceGenerator(
                normal_mix,
                anomaly_mix,
                anomaly_intervals=[(6.0, 8.0)],
                rate_per_s=2_000,
                seed=61 + position,
            )
            path = tmp_path / f"shard{position}.jsonl"
            write_trace(generator.events(12.0), path)
            paths.append(str(path))
        dir_col = tmp_path / "col"
        dir_obj = tmp_path / "obj"
        base = ["--json", "fleet", *paths, "--reference-s", "4", "--k", "10"]
        assert main(base + ["--output-dir", str(dir_col)]) == 0
        payload_col = json.loads(capsys.readouterr().out)
        assert main(
            base + ["--ingest", "objects", "--output-dir", str(dir_obj)]
        ) == 0
        payload_obj = json.loads(capsys.readouterr().out)
        assert payload_col == payload_obj
        for shard in ("shard0", "shard1"):
            assert (dir_col / f"{shard}.jsonl").read_bytes() == (
                dir_obj / f"{shard}.jsonl"
            ).read_bytes()


def test_module_entry_point_runs_main_once():
    """``python -m repro.cli.main`` executes the module once: the package
    must not import ``repro.cli.main`` before runpy runs it as __main__."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.cli.main", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert "usage:" in result.stdout


def test_cli_start_imports_only_the_monitoring_path():
    """``learn``/``monitor`` need neither the fleet, the experiments nor the
    simulator; the CLI module imports them inside their subcommands."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, repro.cli.main; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "repro.analysis.monitor" in loaded
    for heavy in ("repro.analysis.fleet", "repro.experiments", "repro.media", "repro.platform"):
        assert heavy not in loaded
