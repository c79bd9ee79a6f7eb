"""Tests for the configuration dataclasses and their (de)serialisation."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.config import (
    DetectorConfig,
    EnduranceConfig,
    MediaConfig,
    MonitorConfig,
    PerturbationConfig,
    PlatformConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures"


class TestValidation:
    def test_defaults_are_valid(self):
        EnduranceConfig()  # should not raise

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_neighbours": 0},
            {"lof_threshold": 0.0},
            {"kl_threshold": -0.1},
            {"kl_smoothing": 0.0},
            {"merge_decay": 0.0},
            {"merge_decay": 1.5},
        ],
    )
    def test_detector_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            DetectorConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_duration_us": 0},
            {"window_event_capacity": 0},
            {"reference_duration_us": 0},
            {"record_context_windows": -1},
            {"knn_backend": "octree"},
        ],
    )
    def test_monitor_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            MonitorConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_cores": 0},
            {"scheduler_quantum_us": 0},
            {"trace_buffer_events": 0},
            {"trace_scope": "kernel-only"},
        ],
    )
    def test_platform_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            PlatformConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"frame_rate_fps": 0},
            {"duration_s": 0},
            {"gop_length": 0},
            {"buffer_capacity_frames": 0},
        ],
    )
    def test_media_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            MediaConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period_s": 0},
            {"duration_s": 0},
            {"duration_s": 200.0, "period_s": 100.0},
            {"load_factor": 0},
        ],
    )
    def test_perturbation_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            PerturbationConfig(**kwargs)

    def test_endurance_rejects_reference_longer_than_media(self):
        with pytest.raises(ConfigurationError):
            EnduranceConfig(
                monitor=MonitorConfig(reference_duration_us=700_000_000),
                media=MediaConfig(duration_s=600.0),
            )

    def test_endurance_rejects_perturbation_inside_reference(self):
        with pytest.raises(ConfigurationError):
            EnduranceConfig(
                monitor=MonitorConfig(reference_duration_us=300_000_000),
                media=MediaConfig(duration_s=600.0),
                perturbation=PerturbationConfig(start_offset_s=100.0),
            )


class TestDerivedValues:
    def test_media_frame_period_and_count(self):
        media = MediaConfig(frame_rate_fps=25.0, duration_s=10.0)
        assert media.frame_period_us == pytest.approx(40_000.0)
        assert media.n_frames == 250

    def test_detector_with_alpha(self):
        detector = DetectorConfig(lof_threshold=1.2)
        assert detector.with_alpha(2.5).lof_threshold == 2.5
        assert detector.lof_threshold == 1.2  # original untouched

    def test_scaled_paper_setup_keeps_paper_parameters(self):
        config = EnduranceConfig.scaled_paper_setup(duration_s=900.0)
        assert config.monitor.window_duration_us == 40_000
        assert config.detector.k_neighbours == 20
        assert config.monitor.reference_duration_us == 300_000_000
        assert config.perturbation.duration_s == pytest.approx(20.0)
        assert config.perturbation.period_s == pytest.approx(180.0)

    def test_scaled_paper_setup_rejects_too_short_runs(self):
        with pytest.raises(ConfigurationError):
            EnduranceConfig.scaled_paper_setup(duration_s=310.0, reference_s=300.0)


class TestSerialization:
    def test_dict_roundtrip(self):
        config = EnduranceConfig.scaled_paper_setup(duration_s=900.0)
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"nonsense": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"detector": {"k_neighbours": 5, "typo": 1}})

    def test_partial_dict_uses_defaults(self):
        config = config_from_dict({"detector": {"k_neighbours": 7}})
        assert config.detector.k_neighbours == 7
        assert config.media == MediaConfig()

    def test_file_roundtrip(self, tmp_path):
        config = EnduranceConfig.scaled_paper_setup(duration_s=1200.0, seed=9)
        path = save_config(config, tmp_path / "experiment.json")
        assert load_config(path) == config

    def test_loads_file_with_retired_max_active_shards(self):
        """A config saved while ``MonitorConfig.max_active_shards`` existed
        (checked in as written by that version) still loads."""
        path = FIXTURES / "config_with_max_active_shards.json"
        assert '"max_active_shards": null' in path.read_text()
        config = EnduranceConfig.scaled_paper_setup(duration_s=1200.0, seed=9)
        expected = dataclasses.replace(
            config,
            monitor=dataclasses.replace(
                config.monitor, batch_size=16, fleet_workers=2
            ),
        )
        assert load_config(path) == expected

    @pytest.mark.parametrize("backend", ["auto", "brute", "kdtree", "grid", "balltree"])
    def test_config_naming_a_retired_knn_backend_loads(self, backend):
        # Every name older files carry still loads; each one selects the one
        # exact k-NN search.
        config = config_from_dict({"monitor": {"knn_backend": backend}})
        assert config.monitor.knn_backend == backend

    def test_retired_key_is_not_a_field(self):
        assert "max_active_shards" not in {
            field.name for field in dataclasses.fields(MonitorConfig)
        }
        with pytest.raises(TypeError):
            MonitorConfig(max_active_shards=2)

    def test_load_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "missing.json")

    def test_load_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_config_to_dict_rejects_non_dataclass(self):
        with pytest.raises(ConfigurationError):
            config_to_dict({"not": "a dataclass"})
