"""Tests for the reference model and the curated reference database."""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.model import ReferenceModel
from repro.analysis.pmf import pmf_from_counts, pmf_from_window
from repro.analysis.refdb import ReferenceDatabase, ReferenceEntry
from repro.errors import ModelError, NotFittedError
from repro.trace.event import EventTypeRegistry, TraceEvent
from repro.trace.generator import SyntheticTraceGenerator
from repro.trace.stream import windows_by_duration
from repro.trace.window import TraceWindow

FIXTURES = Path(__file__).parent / "fixtures"


def make_reference_windows(mix, seed=0, duration_s=4.0, rate=2_000.0):
    generator = SyntheticTraceGenerator(mix, rate_per_s=rate, seed=seed)
    return list(windows_by_duration(generator.events(duration_s), 40_000))


@pytest.fixture()
def learned_model(normal_mix, registry):
    windows = make_reference_windows(normal_mix)
    return ReferenceModel(k_neighbours=10).learn(windows, registry), windows


_PAYLOAD_CALLS: list[str] = []


def _record_payload_call(tag: str) -> None:
    _PAYLOAD_CALLS.append(tag)


class _CallingPayload:
    """Unpickles by calling a function, as a crafted model file would."""

    def __reduce__(self):
        return (_record_payload_call, ("ran",))


class TestLearning:
    def test_learn_builds_point_cloud(self, learned_model, registry):
        model, windows = learned_model
        assert model.is_fitted
        assert model.n_windows_seen == len(windows)
        assert model.n_reference_windows <= len(windows)
        assert model.dimension == len(registry)
        assert model.points.shape[1] == model.dimension

    def test_learn_requires_enough_windows(self, normal_mix, registry):
        windows = make_reference_windows(normal_mix, duration_s=0.2)
        with pytest.raises(ModelError):
            ReferenceModel(k_neighbours=50).learn(windows, registry)

    def test_empty_windows_skipped(self, normal_mix, registry):
        windows = make_reference_windows(normal_mix)
        empties = [TraceWindow(index=1000 + i, start_us=0, end_us=10) for i in range(5)]
        model = ReferenceModel(k_neighbours=10).learn(windows + empties, registry)
        assert model.n_windows_seen == len(windows) + 5
        assert model.n_reference_windows <= len(windows)

    def test_unfitted_model_raises(self, registry):
        model = ReferenceModel()
        with pytest.raises(NotFittedError):
            model.lof_score(pmf_from_counts({"a": 1}, registry))
        with pytest.raises(NotFittedError):
            _ = model.dimension

    def test_from_points_validates_shape(self):
        with pytest.raises(ModelError):
            ReferenceModel.from_points(np.zeros((30, 3)), ["a", "b"], k_neighbours=5)

    def test_duplicated_windows_keep_model_usable(self, registry):
        # 200 windows with only two distinct event mixes: without the
        # deduplication step LOF densities collapse and everything looks
        # infinitely anomalous.
        windows = []
        for index in range(200):
            mix = (
                [("frame_display", 5), ("audio_decode", 3), ("vsync", 2)]
                if index % 2 == 0
                else [("frame_display", 4), ("audio_decode", 4), ("vsync", 2)]
            )
            events = []
            position = 0
            for name, count in mix:
                for _ in range(count):
                    events.append(TraceEvent(index * 1_000 + position, name))
                    position += 1
            windows.append(TraceWindow.from_events(events, index=index))
        model = ReferenceModel(k_neighbours=5).learn(windows, registry)
        # a window identical to the reference content must not look anomalous
        score = model.lof_score(pmf_from_window(windows[0], registry))
        assert score < 2.0


class TestScoring:
    def test_reference_like_windows_score_low(self, learned_model, normal_mix, registry):
        model, _ = learned_model
        fresh = make_reference_windows(normal_mix, seed=99)
        scores = [
            model.lof_score(pmf_from_window(window, registry)) for window in fresh[:50]
        ]
        assert np.median(scores) < 1.3

    def test_anomalous_windows_score_high(self, learned_model, anomaly_mix, registry):
        model, _ = learned_model
        weird = make_reference_windows(anomaly_mix, seed=5)
        scores = [
            model.lof_score(pmf_from_window(window, registry)) for window in weird[:50]
        ]
        assert np.median(scores) > 1.5
        assert model.is_anomalous(pmf_from_window(weird[0], registry), alpha=1.2)

    def test_unknown_event_types_push_score_up(self, learned_model, registry):
        model, _ = learned_model
        exotic = pmf_from_counts({"never_seen_before": 40}, registry)
        assert model.lof_score(exotic) > 1.5

    def test_mean_reference_pmf(self, learned_model, registry):
        model, _ = learned_model
        mean_pmf = model.mean_reference_pmf(registry)
        assert mean_pmf.total > 0
        assert mean_pmf.probabilities().sum() == pytest.approx(1.0)

    def test_suggest_alpha_is_at_least_one(self, learned_model):
        model, _ = learned_model
        assert model.suggest_alpha() >= 1.0


class TestPersistence:
    def test_save_load_roundtrip(self, learned_model, normal_mix, registry, tmp_path):
        model, _ = learned_model
        path = model.save(tmp_path / "model.npz")
        loaded = ReferenceModel.load(path)
        assert loaded.dimension == model.dimension
        assert loaded.type_names == model.type_names
        probe = pmf_from_window(make_reference_windows(normal_mix, seed=7)[3], registry)
        assert loaded.lof_score(probe) == pytest.approx(model.lof_score(probe), rel=1e-6)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ModelError):
            ReferenceModel.load(tmp_path / "nope.npz")

    def test_save_before_learning_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            ReferenceModel().save(tmp_path / "model.npz")

    def test_saved_index_restores_without_refit(self, normal_mix, registry, tmp_path):
        model = ReferenceModel(k_neighbours=10).learn(
            make_reference_windows(normal_mix), registry
        )
        loaded = ReferenceModel.load(model.save(tmp_path / "model.npz"))
        # The fitted index travels inside the archive: the loaded model
        # scores bit-identically, no refit involved.
        queries = model.points[:20]
        np.testing.assert_array_equal(
            loaded.score_vectors(queries), model.score_vectors(queries)
        )
        np.testing.assert_array_equal(loaded.points, model.points)

    def test_save_without_index_refits_identically(self, learned_model, tmp_path):
        model, _ = learned_model
        path = model.save(tmp_path / "small.npz", include_index=False)
        with np.load(path) as data:
            assert "lof_state" not in data
        loaded = ReferenceModel.load(path)
        queries = model.points[:20]
        np.testing.assert_array_equal(
            loaded.score_vectors(queries), model.score_vectors(queries)
        )

    def test_corrupt_index_payload_rejected(self, learned_model, tmp_path):
        model, _ = learned_model
        path = model.save(tmp_path / "model.npz")
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["lof_state"] = np.frombuffer(b"definitely not a pickle", dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ModelError):
            ReferenceModel.load(path)

    def test_payload_naming_a_callable_rejected_before_it_runs(
        self, learned_model, tmp_path
    ):
        blob = pickle.dumps(_CallingPayload())
        pickle.loads(blob)
        assert _PAYLOAD_CALLS == ["ran"]  # a plain unpickle would run it
        _PAYLOAD_CALLS.clear()
        model, _ = learned_model
        path = model.save(tmp_path / "model.npz")
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["lof_state"] = np.frombuffer(blob, dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ModelError, match="malformed fitted-index payload"):
            ReferenceModel.load(path)
        assert _PAYLOAD_CALLS == []

    def test_model_with_retired_tree_index_loads_by_refit(self):
        # Written by ReferenceModel.save at commit 125e885 with
        # index_kind="balltree": the pickled LOF holds a BallTreeKnn, a
        # class this version no longer has.  Loading refits the one exact
        # search from the stored points, which scores like a fresh model.
        loaded = ReferenceModel.load(FIXTURES / "model_with_balltree_index.npz")
        assert loaded.index_kind == "balltree"
        fresh = ReferenceModel.from_points(
            loaded.points, loaded.type_names, k_neighbours=loaded.k_neighbours
        )
        queries = np.vstack([
            loaded.points[::7],
            np.random.default_rng(5).dirichlet(np.ones(loaded.dimension), size=20),
        ])
        np.testing.assert_array_equal(
            loaded.score_vectors(queries), fresh.score_vectors(queries)
        )
        np.testing.assert_array_equal(
            loaded.training_scores(), fresh.training_scores()
        )

    def test_fingerprint_tracks_identity(self, learned_model, registry):
        model, _ = learned_model
        fingerprint = model.fingerprint()
        assert fingerprint["dimension"] == model.dimension
        assert fingerprint["n_points"] == len(model.points)
        assert len(fingerprint["type_registry_hash"]) == 16
        with pytest.raises(NotFittedError):
            ReferenceModel().fingerprint()


class TestReferenceDatabase:
    def test_add_get_roundtrip(self, learned_model, tmp_path):
        model, _ = learned_model
        db = ReferenceDatabase(tmp_path / "refdb")
        db.add("gstreamer-1080p", model, description="healthy decode", tags=("video",))
        assert "gstreamer-1080p" in db
        assert db.names() == ["gstreamer-1080p"]
        loaded = db.get("gstreamer-1080p")
        assert loaded.dimension == model.dimension

    def test_duplicate_name_needs_overwrite(self, learned_model, tmp_path):
        model, _ = learned_model
        db = ReferenceDatabase(tmp_path / "refdb")
        db.add("m", model)
        with pytest.raises(ModelError):
            db.add("m", model)
        db.add("m", model, overwrite=True)

    def test_catalog_persists_across_instances(self, learned_model, tmp_path):
        model, _ = learned_model
        root = tmp_path / "refdb"
        ReferenceDatabase(root).add("persisted", model, tags=("a", "b"))
        reopened = ReferenceDatabase(root)
        assert "persisted" in reopened
        assert reopened.entry("persisted").tags == ("a", "b")
        assert len(reopened) == 1

    def test_remove(self, learned_model, tmp_path):
        model, _ = learned_model
        db = ReferenceDatabase(tmp_path / "refdb")
        db.add("gone", model)
        db.remove("gone")
        assert "gone" not in db
        with pytest.raises(ModelError):
            db.remove("gone")
        with pytest.raises(ModelError):
            db.get("gone")

    def test_find_by_tag(self, learned_model, tmp_path):
        model, _ = learned_model
        db = ReferenceDatabase(tmp_path / "refdb")
        db.add("a", model, tags=("video",))
        db.add("b", model, tags=("audio",))
        assert [entry.name for entry in db.find_by_tag("video")] == ["a"]

    def test_entry_serialisation_roundtrip(self):
        entry = ReferenceEntry(name="n", filename="n.npz", description="d", tags=("t",))
        assert ReferenceEntry.from_dict(entry.to_dict()) == entry
        with pytest.raises(ModelError):
            ReferenceEntry.from_dict({"description": "missing name"})

    def test_entry_roundtrip_keeps_fingerprint(self):
        entry = ReferenceEntry(
            name="n",
            filename="n.npz",
            fingerprint={"dimension": 4, "n_points": 100, "type_registry_hash": "ab"},
        )
        rebuilt = ReferenceEntry.from_dict(entry.to_dict())
        assert dict(rebuilt.fingerprint) == dict(entry.fingerprint)

    def test_stale_model_file_fails_fingerprint_check(self, learned_model, tmp_path):
        model, _ = learned_model
        db = ReferenceDatabase(tmp_path / "refdb")
        entry = db.add("gstreamer-1080p", model)
        # Replace the stored file behind the catalogue's back with a model
        # of a different shape — get() must refuse to score with it.
        imposter = ReferenceModel.from_points(
            model.points[:15], model.type_names, k_neighbours=10
        )
        imposter.save(db.root / entry.filename)
        with pytest.raises(ModelError, match="gstreamer-1080p.*fingerprint"):
            db.get("gstreamer-1080p")

    def test_fingerprint_check_passes_for_untouched_entry(self, learned_model, tmp_path):
        model, _ = learned_model
        db = ReferenceDatabase(tmp_path / "refdb")
        db.add("clean", model)
        loaded = ReferenceDatabase(tmp_path / "refdb").get("clean")
        assert loaded.fingerprint() == model.fingerprint()

    def test_empty_name_rejected(self, learned_model, tmp_path):
        model, _ = learned_model
        with pytest.raises(ModelError):
            ReferenceDatabase(tmp_path / "refdb").add("", model)
