"""Sharded-service tests: credit dispatch, class priority, ordered
aggregation, stats merging, state broadcast, stop, and worker-crash
recovery.

The service's contract is that sharding is invisible: any pool size,
any dispatch order, and any number of mid-run worker deaths must
produce decisions bit-identical to a single-process
:class:`~repro.runtime.DetectionEngine` over the same array.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import build_serving_model
from repro.core import (
    ExtractionConfig,
    PtolemyDetector,
    detector_from_state,
    detector_to_state,
)
from repro.runtime import (
    DetectionEngine,
    ServiceError,
    ServiceFuture,
    ServiceResult,
    ShardedDetectionService,
    ThroughputStats,
    measure_worker_scaling,
)
from repro.runtime.lifecycle import SHARD_CREDITS, LifecycleCore


# Worker-side model factory: a picklable module-level callable shared
# with the server test modules via conftest.
_build_service_model = build_serving_model


@pytest.fixture(scope="module")
def service_detector(serving_detector):
    """The shared session-scoped serving detector (one profiling pass
    feeds this module and the server test modules)."""
    return serving_detector


@pytest.fixture(scope="module")
def engine_reference(service_detector, small_dataset):
    """Single-process decisions over the shared test workload."""
    xs = small_dataset.x_test[:30]
    return xs, DetectionEngine(service_detector, batch_size=4).run(xs)


class TestStatsMerging:
    def test_merge_adds_exactly(self):
        a = ThroughputStats()
        a.record(8, 0.5, stages={"extract": 0.3})
        b = ThroughputStats()
        b.record(4, 0.25, stages={"extract": 0.1, "classify": 0.05})
        merged = ThroughputStats().merge(a).merge(b)
        assert merged.samples == 12
        assert merged.batches == 2
        assert merged.total_seconds == pytest.approx(0.75)
        assert merged.stage_seconds["extract"] == pytest.approx(0.4)
        assert merged.stage_seconds["classify"] == pytest.approx(0.05)
        assert len(merged.batch_latencies) == 2
        # inputs are untouched
        assert a.samples == 8 and b.samples == 4

    def test_merge_returns_self_for_chaining(self):
        stats = ThroughputStats()
        assert stats.merge(ThroughputStats()) is stats


class TestDetectorState:
    def test_state_roundtrip_is_bit_identical(
        self, service_detector, small_dataset
    ):
        state = detector_to_state(service_detector)
        rebuilt = detector_from_state(_build_service_model(), state)
        xs = small_dataset.x_test[:12]
        assert np.array_equal(
            rebuilt.scores_batch(xs), service_detector.scores_batch(xs)
        )

    def test_state_requires_profile(self, trained_alexnet):
        config = ExtractionConfig.fwab(
            trained_alexnet.num_extraction_units()
        )
        unprofiled = PtolemyDetector(trained_alexnet, config, n_trees=4)
        with pytest.raises(ValueError, match="class paths"):
            detector_to_state(unprofiled)

    def test_state_format_is_versioned(self, service_detector):
        state = detector_to_state(service_detector)
        state["format"] = 999
        with pytest.raises(ValueError, match="format"):
            detector_from_state(_build_service_model(), state)


class TestShardedDetectionService:
    def test_validation(self, service_detector):
        with pytest.raises(ValueError):
            ShardedDetectionService(
                service_detector,
                model_factory=_build_service_model,
                num_workers=0,
            )
        with pytest.raises(ValueError, match="detector or a prebuilt"):
            ShardedDetectionService(model_factory=_build_service_model)

    def test_bit_identical_and_ordered(
        self, service_detector, engine_reference
    ):
        """2 shards, interleaved chunks — results must come back in
        submission order, bit-identical to the single process."""
        xs, reference = engine_reference
        with ShardedDetectionService(
            service_detector,
            model_factory=_build_service_model,
            num_workers=2,
            batch_size=4,
        ) as service:
            result = service.run(xs)
            assert np.array_equal(result.scores, reference.scores)
            assert np.array_equal(
                result.predicted_classes, reference.predicted_classes
            )
            assert np.array_equal(
                result.is_adversarial, reference.is_adversarial
            )
            assert np.array_equal(
                result.similarities, reference.similarities
            )
            # the credits really spread the chunks over both shards
            assert set(result.chunk_shards) == {0, 1}

    @pytest.mark.parametrize("argument, accepted, refused, match", [
        pytest.param(argument, *rest, id=argument)
        for argument, *rest in (
            ("backend", "numpy", "tiled", "kernel backend"),
            ("transport", "queue", "shm", "transport"),
            ("slo_ms", None, 50.0, "slo_ms"),
            ("scheduler", None, "round-robin", "scheduler"),
            ("pin_workers", False, True, "pin_workers"),
        )
    ])
    def test_single_value_argument(
        self, service_detector, engine_reference, argument, accepted,
        refused, match,
    ):
        """Arguments kept for old callers take one value: it serves
        bit-identically over the pickle queue, and any other value is
        refused up front."""
        xs, reference = engine_reference
        with ShardedDetectionService(
            service_detector,
            model_factory=_build_service_model,
            num_workers=1,
            batch_size=4,
            **{argument: accepted},
        ) as service:
            result = service.run(xs)
            stats = service.transport_stats()
        assert np.array_equal(result.scores, reference.scores)
        assert np.array_equal(
            result.is_adversarial, reference.is_adversarial
        )
        assert stats["queue_batches"] == len(result.chunk_shards)
        assert stats["shm_batches"] == 0
        with pytest.raises(ValueError, match=match):
            ShardedDetectionService(
                service_detector,
                model_factory=_build_service_model,
                **{argument: refused},
            )

    def test_stats_merge_across_shards(
        self, service_detector, engine_reference
    ):
        xs, _ = engine_reference
        with ShardedDetectionService(
            service_detector,
            model_factory=_build_service_model,
            num_workers=2,
            batch_size=4,
        ) as service:
            result = service.run(xs)
            shard_stats = service.shard_stats()
            merged = service.stats()
        # request-level and service-level accounting both see every sample
        assert result.stats.samples == len(xs)
        assert result.stats.batches == 8  # ceil(30 / 4)
        assert merged.samples == len(xs)
        assert sum(s.samples for s in shard_stats.values()) == len(xs)
        assert merged.total_seconds == pytest.approx(
            sum(s.total_seconds for s in shard_stats.values())
        )
        assert result.wall_seconds > 0
        assert result.samples_per_sec > 0

    def test_submit_is_async_and_multi_request(
        self, service_detector, engine_reference
    ):
        """Several queued requests resolve independently, each in its
        own submission order."""
        xs, reference = engine_reference
        with ShardedDetectionService(
            service_detector,
            model_factory=_build_service_model,
            num_workers=2,
            batch_size=4,
        ) as service:
            futures = [service.submit(xs[:12]), service.submit(xs[12:])]
            second = futures[1].result(timeout=120)
            first = futures[0].result(timeout=120)
        assert np.array_equal(
            np.concatenate([first.scores, second.scores]),
            reference.scores,
        )

    def test_empty_and_malformed_requests_rejected(
        self, service_detector, small_dataset
    ):
        """Malformed/empty workloads fail loudly at the boundary, before
        anything enqueues — never a zero-division downstream."""
        service = ShardedDetectionService(
            service_detector,
            model_factory=_build_service_model,
            num_workers=1,
            batch_size=4,
        )
        with pytest.raises(ValueError, match="empty"):
            service.submit(small_dataset.x_test[:0])
        with pytest.raises(ValueError, match="scalar"):
            service.submit(np.float64(3.0))
        with pytest.raises(ValueError, match="object"):
            service.submit(np.array([None, {"x": 1}], dtype=object))
        with pytest.raises(ValueError, match="numeric"):
            service.submit(np.array([["a", "b"], ["c", "d"]]))
        with pytest.raises(ValueError, match="feature axis"):
            service.submit(np.array([1.0, 2.0, 3.0]))
        # validation happens before start: no worker pool was spawned
        assert service.alive_workers == 0

    def test_zero_sample_result_rates_are_zero(self):
        """A zero-sample ServiceResult reports 0.0 rates instead of
        dividing by zero (rejection_rate, samples_per_sec)."""
        result = ServiceResult(
            scores=np.empty(0),
            predicted_classes=np.empty(0, dtype=np.int64),
            is_adversarial=np.empty(0, dtype=bool),
            similarities=np.empty(0),
            stats=ThroughputStats(),
            chunk_shards=[],
            wall_seconds=0.0,
        )
        assert result.num_samples == 0
        assert result.rejection_rate == 0.0
        assert result.samples_per_sec == 0.0

    def test_worker_crash_recovery(
        self, service_detector, engine_reference
    ):
        """A shard dying mid-service must not lose or reorder work:
        in-flight batches are requeued and a replacement is spawned."""
        xs, reference = engine_reference
        with ShardedDetectionService(
            service_detector,
            model_factory=_build_service_model,
            num_workers=2,
            batch_size=4,
        ) as service:
            service.run(xs)  # warm, both shards known-good
            doomed = service.inject_crash()
            result = service.run(xs)
            assert np.array_equal(result.scores, reference.scores)
            assert np.array_equal(
                result.predicted_classes, reference.predicted_classes
            )
            # Recovery is asynchronous: the run above may finish on the
            # survivor before the health check reaps the corpse, so
            # poll for the respawn instead of asserting instantly.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and (
                service.restarts < 1 or service.alive_workers < 2
            ):
                time.sleep(0.05)
            assert service.restarts >= 1
            # the dead shard's accounting is retained for the lifetime
            # view, and the pool healed back to full strength
            assert doomed in service.shard_stats()
            assert service.alive_workers == 2
            # the healed pool still serves correctly
            assert np.array_equal(service.run(xs).scores, reference.scores)

    def test_alive_workers_counts_only_ready_shards(
        self, service_detector
    ):
        """A shard whose process runs but which has not yet sent its
        "ready" message cannot take traffic, so it is not counted (nor
        is a broken or stopping one).  ``alive_workers`` is the count
        of the lifecycle core's eligible shards."""
        service = ShardedDetectionService(
            service_detector, model_factory=_build_service_model,
        )
        assert service.alive_workers == 0
        core = LifecycleCore(max_restarts=0)
        shard = core.add_shard(set(), now=0.0)
        assert core.eligible() == []
        core.ready(shard.shard_id, now=0.1)
        assert core.eligible() == [shard]
        core.mark_broken(shard.shard_id)
        assert core.eligible() == []
        other = core.add_shard(set(), now=0.2)
        core.ready(other.shard_id, now=0.3)
        assert core.eligible() == [other]
        core.stop(now=0.4)
        assert core.eligible() == []

    def test_state_broadcast_shares_one_payload(
        self, service_detector, engine_reference
    ):
        """A pre-serialised state payload can feed a pool without the
        detector object (the serialize-once path)."""
        xs, reference = engine_reference
        state = detector_to_state(service_detector)
        with ShardedDetectionService(
            state=state,
            model_factory=_build_service_model,
            num_workers=1,
            batch_size=8,
        ) as service:
            result = service.run(xs)
        assert np.array_equal(result.scores, reference.scores)

    def test_measure_worker_scaling_harness(
        self, service_detector, small_dataset
    ):
        traffic = small_dataset.x_test[:16]
        results = measure_worker_scaling(
            service_detector,
            _build_service_model,
            traffic,
            worker_counts=(1, 2),
            batch_size=4,
            repeats=1,
        )
        assert set(results) == {1, 2}
        for report in results.values():
            assert report["samples"] == 16
            assert report["samples_per_sec"] > 0
        assert np.array_equal(results[1]["scores"], results[2]["scores"])

    def test_stop_is_idempotent_and_restartable(
        self, service_detector, small_dataset, engine_reference
    ):
        xs, reference = engine_reference
        service = ShardedDetectionService(
            service_detector,
            model_factory=_build_service_model,
            num_workers=1,
            batch_size=4,
        )
        service.start()
        service.run(small_dataset.x_test[:4])
        service.stop()
        service.stop()
        # submitting to an explicitly stopped pool fails fast and
        # deterministically — it never hangs on dead queues and never
        # silently resurrects the pool
        with pytest.raises(ServiceError, match="stopped"):
            service.submit(xs)
        # an explicit start() brings the pool back up
        try:
            service.start()
            result = service.run(xs, timeout=120)
        finally:
            service.stop()
        assert np.array_equal(result.scores, reference.scores)

    def test_unfitted_detector_rejected(
        self, small_dataset, trained_alexnet
    ):
        config = ExtractionConfig.fwab(
            trained_alexnet.num_extraction_units()
        )
        unfitted = PtolemyDetector(trained_alexnet, config, n_trees=4)
        unfitted.profile(
            small_dataset.x_train, small_dataset.y_train, max_per_class=4
        )
        with pytest.raises(ValueError, match="fitted"):
            ShardedDetectionService(
                unfitted, model_factory=_build_service_model
            )


    def test_cancel_abandons_request_without_wedging_pool(
        self, service_detector, engine_reference
    ):
        """A cancelled future resolves to ServiceError, its queued
        chunks are dropped, and the pool keeps serving (the HTTP 504
        path relies on this to avoid unbounded backlog)."""
        xs, reference = engine_reference
        with ShardedDetectionService(
            service_detector,
            model_factory=_build_service_model,
            num_workers=1,
            batch_size=4,
        ) as service:
            future = service.submit(np.concatenate([xs] * 4))
            cancelled = future.cancel()
            if cancelled:
                assert future.done()
                with pytest.raises(ServiceError, match="cancelled"):
                    future.result(timeout=30)
                assert future.cancel() is False  # already resolved
            else:
                # lost the race: the request completed first — fine
                future.result(timeout=120)
            # the pool is unaffected either way
            result = service.run(xs, timeout=120)
            assert np.array_equal(result.scores, reference.scores)


class TestCreditDispatch:
    """Chunks wait in the service's class queue until a shard has a
    free credit, so the queue's order acts on every dispatch."""

    #: Injected seconds per batch on both shards, so the queue order,
    #: not compute, decides who finishes first.
    DELAY = 0.25

    def _slowed(self, detector, xs):
        service = ShardedDetectionService(
            detector, model_factory=_build_service_model,
            num_workers=2, batch_size=4,
        ).start()
        service.run(xs[:4])  # both shards warm
        for shard_id in service.live_shards():
            service.inject_slowdown(self.DELAY, shard_id)
        return service

    def _overtakes(self, detector, xs, reference, large_class, small_class):
        """An 8-chunk request, then a 1-chunk one: the small one must
        resolve first, and both bit-identically."""
        large_xs = xs[:32]
        with self._slowed(detector, xs) as service:
            large = service.submit(large_xs, request_class=large_class)
            # well inside the first batch: every chunk that can leave
            # the queue has left it before the small request arrives
            time.sleep(self.DELAY / 5)
            small = service.submit(xs[:4], request_class=small_class)
            small_result = small.result(timeout=60)
            assert not large.done()
            large_result = large.result(timeout=60)
        assert len(large_result.chunk_shards) == 8 > 2 * SHARD_CREDITS
        assert np.array_equal(small_result.scores, reference.scores[:4])
        assert np.array_equal(
            large_result.scores,
            DetectionEngine(detector, batch_size=4).run(large_xs).scores,
        )

    def test_interactive_request_overtakes_queued_batch_chunks(
        self, service_detector, engine_reference
    ):
        xs, reference = engine_reference
        xs = np.concatenate([xs, xs])
        self._overtakes(
            service_detector, xs, reference, "batch", "interactive"
        )

    def test_small_request_overtakes_a_large_requests_queued_tail(
        self, service_detector, engine_reference
    ):
        """Head-of-line delay within one class: a 1-chunk request
        waits only for what is in flight, not for the queued tail."""
        xs, reference = engine_reference
        xs = np.concatenate([xs, xs])
        self._overtakes(
            service_detector, xs, reference, "standard", "standard"
        )

    def test_stop_completes_every_accepted_request(
        self, service_detector, engine_reference
    ):
        """More chunks than the pool's credits, then stop() at once:
        the queue goes to the live shards before the stop message, so
        every future resolves, bit-identically."""
        xs, reference = engine_reference
        service = ShardedDetectionService(
            service_detector, model_factory=_build_service_model,
            num_workers=2, batch_size=4,
        ).start()
        futures = [service.submit(xs) for _ in range(3)]
        assert 3 * len(range(0, len(xs), 4)) > 2 * 2 * SHARD_CREDITS
        service.stop()
        for future in futures:
            assert future.done()
            result = future.result(timeout=0)
            assert np.array_equal(result.scores, reference.scores)
            assert np.array_equal(
                result.is_adversarial, reference.is_adversarial
            )


class TestServiceErrors:
    def test_error_type_is_runtime_error(self):
        assert issubclass(ServiceError, RuntimeError)

    def test_future_timeout_raises_not_partial(self):
        """An unresolved future raises TimeoutError on timeout — it
        never hands back a partially-populated result."""
        future = ServiceFuture()
        with pytest.raises(TimeoutError):
            future.result(timeout=0.01)
        assert not future.done()
        # and it still resolves normally afterwards
        sentinel = ServiceResult(
            scores=np.ones(1),
            predicted_classes=np.zeros(1, dtype=np.int64),
            is_adversarial=np.zeros(1, dtype=bool),
            similarities=np.ones(1),
            stats=ThroughputStats(),
            chunk_shards=[0],
            wall_seconds=0.1,
        )
        future._set_result(sentinel)
        assert future.result(timeout=1.0) is sentinel
