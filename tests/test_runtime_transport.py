"""Transport-argument tests: batches travel only over each shard's
pickle queue, so ``transport="queue"`` serves bit-identically to a
single-process :class:`~repro.runtime.DetectionEngine` and any other
transport (or the removed ``slab_slots`` option) is refused up front.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import build_serving_model
from repro.runtime import DetectionEngine, ShardedDetectionService

_build_service_model = build_serving_model


@pytest.fixture(scope="module")
def engine_reference(serving_detector, small_dataset):
    xs = small_dataset.x_test[:30]
    return xs, DetectionEngine(serving_detector, batch_size=4).run(xs)


def _service(detector, **kwargs):
    kwargs.setdefault("model_factory", _build_service_model)
    kwargs.setdefault("batch_size", 4)
    return ShardedDetectionService(detector, **kwargs)


class TestTransportService:
    def test_queue_transport_is_forced(
        self, serving_detector, engine_reference
    ):
        xs, reference = engine_reference
        with _service(
            serving_detector, num_workers=1, transport="queue"
        ) as service:
            result = service.run(xs)
            stats = service.transport_stats()
        assert np.array_equal(result.scores, reference.scores)
        assert stats["shm_batches"] == 0
        assert stats["queue_batches"] > 0
        assert stats["queue_batches"] == len(result.chunk_shards)

    def test_unknown_transport_rejected(self, serving_detector):
        with pytest.raises(ValueError, match="transport"):
            _service(serving_detector, transport="tcp")
        with pytest.raises(TypeError, match="slab_slots"):
            _service(serving_detector, slab_slots=0)
