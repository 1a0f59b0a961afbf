"""Runtime subsystem tests: micro-batching, stats accounting, and the
detection engine's streaming front-end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import FGSM
from repro.core import ExtractionConfig, PtolemyDetector, calibrate_phi
from repro.runtime import (
    DetectionEngine,
    MicroBatcher,
    ThroughputStats,
    iter_microbatches,
)
from repro.runtime.stats import StageTimer


@pytest.fixture(scope="module")
def engine_detector(small_dataset, trained_alexnet):
    """A fitted FwAb detector (the engine's default serving variant)."""
    model = trained_alexnet
    config = calibrate_phi(
        model,
        ExtractionConfig.fwab(model.num_extraction_units()),
        small_dataset.x_train[:4],
        quantile=0.95,
    )
    detector = PtolemyDetector(model, config, n_trees=20, seed=0)
    detector.profile(
        small_dataset.x_train, small_dataset.y_train, max_per_class=8
    )
    adv = FGSM(eps=0.1).generate(
        model, small_dataset.x_train[:20], small_dataset.y_train[:20]
    ).x_adv
    detector.fit_classifier(small_dataset.x_train[20:40], adv)
    return detector


class TestMicroBatcher:
    def test_fills_and_flushes(self):
        batcher = MicroBatcher(3)
        assert batcher.add(np.zeros(4)) is None
        assert batcher.add(np.ones(4)) is None
        batch = batcher.add(np.full(4, 2.0))
        assert batch is not None and batch.shape == (3, 4)
        assert np.array_equal(batch[2], np.full(4, 2.0))
        assert batcher.pending == 0
        assert batcher.flush() is None

    def test_partial_flush(self):
        batcher = MicroBatcher(8)
        batcher.add(np.zeros(2))
        tail = batcher.flush()
        assert tail.shape == (1, 2)

    def test_shape_mismatch_rejected(self):
        batcher = MicroBatcher(4)
        batcher.add(np.zeros(3))
        with pytest.raises(ValueError):
            batcher.add(np.zeros(5))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            MicroBatcher(0)

    def test_iter_microbatches_views(self):
        xs = np.arange(10).reshape(10, 1)
        batches = list(iter_microbatches(xs, 4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert np.array_equal(np.concatenate(batches), xs)
        assert list(iter_microbatches(xs[:0], 4)) == []


class TestMicroBatcherFlushReset:
    def test_flush_resets_even_on_failure(self):
        """Regression: a failing flush (e.g. the final partial batch
        rejected downstream) must still reset the buffer, or the next
        stream inherits stale samples."""
        batcher = MicroBatcher(8)
        batcher.add(np.zeros(3))
        batcher._pending.append(np.zeros(5))  # corrupt behind the guard
        with pytest.raises(ValueError):
            batcher.flush()
        assert batcher.pending == 0
        assert batcher.flush() is None
        # the batcher is fully usable again
        batcher.add(np.ones(4))
        tail = batcher.flush()
        assert tail.shape == (1, 4)


class TestThroughputStats:
    def test_accounting(self):
        stats = ThroughputStats()
        stats.record(8, 0.5, stages={"extract": 0.3})
        stats.record(4, 0.5, stages={"extract": 0.1, "classify": 0.05})
        assert stats.samples == 12
        assert stats.batches == 2
        assert stats.samples_per_sec == pytest.approx(12.0)
        assert stats.stage_seconds["extract"] == pytest.approx(0.4)
        report = stats.report()
        assert report["samples_per_sec"] == pytest.approx(12.0)
        assert report["stage_classify_seconds"] == pytest.approx(0.05)
        assert "samples/s" in stats.summary()

    def test_empty_stats(self):
        stats = ThroughputStats()
        assert stats.samples_per_sec == 0.0
        assert stats.mean_batch_latency_ms == 0.0
        assert stats.latency_percentile_ms(95) == 0.0

    def test_latency_window_is_bounded(self):
        from repro.runtime.stats import LATENCY_WINDOW

        stats = ThroughputStats()
        for _ in range(LATENCY_WINDOW + 10):
            stats.record(1, 0.001)
        # totals stay exact; only the latency distribution is windowed
        assert stats.samples == LATENCY_WINDOW + 10
        assert stats.batches == LATENCY_WINDOW + 10
        assert len(stats.batch_latencies) == LATENCY_WINDOW

    def test_stage_timer(self):
        timer = StageTimer()
        with timer.stage("a"):
            pass
        with timer.stage("a"):
            pass
        assert timer.seconds["a"] >= 0.0
        other = StageTimer()
        other.add("b", 1.0)
        timer.merge(other)
        assert timer.seconds["b"] == 1.0


class TestDetectionEngine:
    def test_requires_fitted_detector(
        self, small_dataset, trained_alexnet
    ):
        config = ExtractionConfig.fwab(
            trained_alexnet.num_extraction_units()
        )
        unfitted = PtolemyDetector(trained_alexnet, config, n_trees=4)
        with pytest.raises(ValueError):
            DetectionEngine(unfitted)

    def test_run_matches_per_sample_detect(
        self, engine_detector, small_dataset
    ):
        engine = DetectionEngine(engine_detector, batch_size=8)
        xs = small_dataset.x_test[:20]
        result = engine.run(xs)
        assert result.num_samples == 20
        reference = np.array([
            engine_detector.detect(xs[i : i + 1]).score
            for i in range(len(xs))
        ])
        assert np.array_equal(result.scores, reference)
        assert engine.stats.samples == 20
        assert engine.stats.batches == 3  # 8 + 8 + 4
        assert engine.stats.total_seconds > 0

    def test_batch_size_does_not_change_decisions(
        self, engine_detector, small_dataset
    ):
        xs = small_dataset.x_test[:15]
        runs = [
            DetectionEngine(engine_detector, batch_size=bs).run(xs).scores
            for bs in (1, 4, 15)
        ]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])

    def test_streaming_submit_and_flush(
        self, engine_detector, small_dataset
    ):
        engine = DetectionEngine(engine_detector, batch_size=4)
        xs = small_dataset.x_test[:6]
        outputs = [engine.submit(x) for x in xs]
        assert [o is not None for o in outputs] == [
            False, False, False, True, False, False,
        ]
        assert engine.pending == 2
        tail = engine.flush()
        assert tail is not None and len(tail) == 2
        assert engine.pending == 0
        assert engine.flush() is None

    def test_run_stream_equals_run(self, engine_detector, small_dataset):
        xs = small_dataset.x_test[:10]
        bulk = DetectionEngine(engine_detector, batch_size=4).run(xs)
        streamed = DetectionEngine(engine_detector, batch_size=4).run_stream(
            iter(xs)
        )
        assert np.array_equal(bulk.scores, streamed.scores)
        assert np.array_equal(
            bulk.predicted_classes, streamed.predicted_classes
        )

    def test_deploy_calibrates_threshold(
        self, engine_detector, small_dataset
    ):
        engine = DetectionEngine.deploy(
            engine_detector,
            small_dataset.x_test[-20:],
            target_fpr=0.25,
            batch_size=8,
        )
        result = engine.run(small_dataset.x_test[-20:])
        # threshold was chosen so at most ~25% of calibration data flags
        assert result.rejection_rate <= 0.25 + 1e-9

    def test_run_result_stats_are_per_run(
        self, engine_detector, small_dataset
    ):
        engine = DetectionEngine(engine_detector, batch_size=8)
        first = engine.run(small_dataset.x_test[:12])
        second = engine.run(small_dataset.x_test[:20])
        # each result carries only its own run's accounting...
        assert first.stats.samples == 12
        assert second.stats.samples == 20
        # ...while the engine keeps the lifetime totals
        assert engine.stats.samples == 32
        assert engine.stats.batches == first.stats.batches + second.stats.batches

    def test_measure_throughput_harness(
        self, engine_detector, small_dataset
    ):
        from repro.runtime import measure_throughput

        traffic = small_dataset.x_test[:12]
        results = measure_throughput(
            engine_detector, traffic, batch_sizes=(1, 4), repeats=1
        )
        assert set(results) == {1, 4}
        for report in results.values():
            assert report["samples"] == 12
            assert report["samples_per_sec"] > 0
            assert 0.0 <= report["rejection_rate"] <= 1.0
        assert np.array_equal(results[1]["scores"], results[4]["scores"])

    def test_empty_run(self, engine_detector, small_dataset):
        engine = DetectionEngine(engine_detector, batch_size=4)
        result = engine.run(small_dataset.x_test[:0])
        assert result.num_samples == 0
        assert result.rejection_rate == 0.0

    def test_monitor_submit_batch_matches_submit(
        self, engine_detector, small_dataset
    ):
        from repro.core import InferenceMonitor

        xs = small_dataset.x_test[:8]
        mon_a = InferenceMonitor(engine_detector, threshold=0.5)
        mon_b = InferenceMonitor(engine_detector, threshold=0.5)
        singles = [mon_a.submit(x[None]) for x in xs]
        batched = mon_b.submit_batch(xs)
        assert len(singles) == len(batched)
        for a, b in zip(singles, batched):
            assert a.accepted == b.accepted
            assert a.score == b.score
            assert a.similarity == b.similarity
            assert a.predicted_class == b.predicted_class
        assert mon_a.served == mon_b.served
        assert mon_a.rejected == mon_b.rejected
        assert mon_a.stats() == mon_b.stats()
