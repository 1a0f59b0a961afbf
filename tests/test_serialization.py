"""Serialization tests: class paths, configs, detectors."""

import copy
import warnings

import numpy as np
import pytest

from repro.attacks import BIM
from repro.core import (
    ExtractionConfig,
    PtolemyDetector,
    config_from_dict,
    config_to_dict,
    load_class_paths,
    load_detector,
    save_class_paths,
    save_detector,
)


@pytest.fixture(scope="module")
def detector(trained_alexnet, small_dataset):
    det = PtolemyDetector(
        trained_alexnet, ExtractionConfig.bwcu(8, theta=0.5),
        n_trees=20, seed=0,
    )
    det.profile(small_dataset.x_train, small_dataset.y_train,
                max_per_class=10)
    adv = BIM(eps=0.08).generate(
        trained_alexnet, small_dataset.x_train[:20],
        small_dataset.y_train[:20],
    ).x_adv
    det.fit_classifier(small_dataset.x_train[20:40], adv)
    return det


class TestClassPathIO:
    def test_round_trip(self, detector, tmp_path):
        path = tmp_path / "paths.npz"
        save_class_paths(detector.class_paths, path)
        loaded = load_class_paths(path)
        assert loaded.layout == detector.class_paths.layout
        assert sorted(loaded.paths) == sorted(detector.class_paths.paths)
        for cid in loaded.paths:
            original = detector.class_paths.path_for(cid)
            restored = loaded.path_for(cid)
            assert restored.num_samples == original.num_samples
            for a, b in zip(restored.masks, original.masks):
                assert a == b


class TestConfigIO:
    @pytest.mark.parametrize("config", [
        ExtractionConfig.bwcu(8, theta=0.5),
        ExtractionConfig.bwab(8, phi=1.25, termination_layer=6),
        ExtractionConfig.fwab(4, phi=0.3, start_layer=2),
        ExtractionConfig.hybrid(6, theta=0.25, phi=0.1),
    ])
    def test_round_trip(self, config):
        restored = config_from_dict(config_to_dict(config))
        assert restored.direction == config.direction
        for a, b in zip(restored.layers, config.layers):
            assert a.mechanism == b.mechanism
            assert a.threshold == b.threshold
            assert a.extract == b.extract

    def test_retired_backend_key_is_ignored(self):
        data = config_to_dict(ExtractionConfig.fwab(4, phi=0.3))
        assert "backend" not in data
        restored = config_from_dict({**data, "backend": "tiled"})
        assert config_to_dict(restored) == data

    def test_json_safe(self, tmp_path):
        import json

        config = ExtractionConfig.hybrid(5, theta=0.5, phi=0.2)
        text = json.dumps(config_to_dict(config))
        assert config_from_dict(json.loads(text)).num_layers == 5


class TestDetectorIO:
    def test_state_with_retired_backend_scores_identically(
        self, detector, trained_alexnet, small_dataset, monkeypatch
    ):
        """States saved while kernel backends were selectable carry
        ``"backend": "tiled"`` in their config dict.  They must load,
        and neither that key nor a leftover REPRO_KERNEL_BACKEND in the
        environment may change startup or a single score bit."""
        from repro.core import detector_from_state, detector_to_state
        from repro.runtime import DetectionEngine

        xs = small_dataset.x_test[:16]
        state = detector_to_state(detector, include_model=False)
        old_state = copy.deepcopy(state)
        old_state["config"]["backend"] = "tiled"
        reference = detector_from_state(trained_alexnet, state)
        expected = DetectionEngine(reference).run(xs).scores

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "tiled")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            old = detector_from_state(trained_alexnet, old_state)
            engine = DetectionEngine(old)
        assert old.kernels is reference.kernels
        np.testing.assert_array_equal(engine.run(xs).scores, expected)
        np.testing.assert_array_equal(old.scores_batch(xs), expected)

    def test_scores_preserved_exactly(self, detector, trained_alexnet,
                                      small_dataset, tmp_path):
        save_detector(detector, tmp_path / "det")
        restored = load_detector(trained_alexnet, tmp_path / "det")
        for i in range(5):
            x = small_dataset.x_test[i : i + 1]
            assert restored.score(x) == pytest.approx(detector.score(x),
                                                      abs=1e-12)

    def test_unprofiled_detector_rejected(self, trained_alexnet, tmp_path):
        det = PtolemyDetector(trained_alexnet, ExtractionConfig.bwcu(8))
        with pytest.raises(ValueError):
            save_detector(det, tmp_path / "nope")

    def test_unfitted_detector_round_trips(self, trained_alexnet,
                                           small_dataset, tmp_path):
        det = PtolemyDetector(trained_alexnet, ExtractionConfig.bwcu(8),
                              n_trees=10)
        det.profile(small_dataset.x_train[:20], small_dataset.y_train[:20])
        save_detector(det, tmp_path / "unfitted")
        restored = load_detector(trained_alexnet, tmp_path / "unfitted")
        assert restored.class_paths.num_classes == det.class_paths.num_classes
        with pytest.raises(RuntimeError):
            restored.score(small_dataset.x_test[:1])
