"""Per-worker BLAS thread budget: the helper in
:mod:`repro.runtime.threads` and the counts the sharded service's
workers report once they are ready.

Every worker lowers numpy's OpenBLAS thread count to its CPU share
before it builds an engine; a thread count must never change a score
bit, so served scores are checked against a single-process
:class:`~repro.runtime.DetectionEngine` holding 2 BLAS threads.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import build_serving_model
from repro.runtime import DetectionEngine, ShardedDetectionService
from repro.runtime import threads
from repro.runtime.threads import cpu_share, limit_blas_threads

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

try:
    _GET, _SET = threads._load_openblas()
except (OSError, AttributeError):  # numpy built against another BLAS
    _GET = _SET = None

needs_openblas = pytest.mark.skipif(
    _GET is None, reason="numpy has no bundled OpenBLAS"
)


@pytest.fixture(scope="module")
def traffic(small_dataset):
    return small_dataset.x_test[:30]


def _service(detector, **kwargs):
    kwargs.setdefault("model_factory", build_serving_model)
    kwargs.setdefault("batch_size", 4)
    return ShardedDetectionService(detector, **kwargs)


def _await_blas_threads(service, count, deadline_s=30.0):
    """Poll until ``count`` shards have reported ready."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        reported = service.blas_threads()
        if len(reported) >= count:
            return reported
        time.sleep(0.05)
    return service.blas_threads()


def _run_helper(budget, **env):
    code = (
        "from repro.runtime.threads import limit_blas_threads;"
        f"print(limit_blas_threads({budget}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout.strip()


class TestHelper:
    def test_cpu_share(self):
        cpus = len(os.sched_getaffinity(0))
        assert cpu_share(1) == cpus
        assert cpu_share(2) == max(1, cpus // 2)
        assert cpu_share(10 * cpus) == 1

    @needs_openblas
    def test_operator_limit_still_holds(self):
        """The helper only lowers: under OPENBLAS_NUM_THREADS=1 asking
        for 2 threads leaves 1."""
        assert _run_helper(2, OPENBLAS_NUM_THREADS="1") == "1"

    @needs_openblas
    def test_lowers_to_the_budget(self):
        assert _run_helper(1, OPENBLAS_NUM_THREADS="2") == "1"

    @needs_openblas
    def test_library_names_its_build(self):
        """CI prints this string before the tests: the batch-invariance
        tests pin a property of the build's kernel set."""
        config = threads.openblas_library().scipy_openblas_get_config64_
        config.restype = ctypes.c_char_p
        assert config().decode().startswith("OpenBLAS ")

    def test_missing_library_warns_and_changes_nothing(self, monkeypatch):
        def missing():
            raise OSError("no bundled OpenBLAS")

        monkeypatch.setattr(threads, "_load_openblas", missing)
        threads._blas_controls.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="left unchanged"):
                assert limit_blas_threads(1) is None
        finally:
            threads._blas_controls.cache_clear()


class TestServiceBudget:
    @needs_openblas
    def test_unpinned_pool_and_respawn_report_their_share(
        self, serving_detector, traffic
    ):
        expected = min(cpu_share(2), _GET())
        with _service(serving_detector, num_workers=2) as service:
            assert _await_blas_threads(service, 2) == {
                0: expected, 1: expected
            }
            service.inject_crash(0)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and (
                set(service.blas_threads()) != {1, 2}
            ):
                time.sleep(0.05)
            assert service.blas_threads() == {1: expected, 2: expected}
            service.run(traffic)

    def test_pool_serves_without_the_library(
        self, serving_detector, traffic, monkeypatch
    ):
        """Forked workers inherit the failed lookup: they report None
        and still serve bit-identical scores."""
        def missing():
            raise OSError("no bundled OpenBLAS")

        monkeypatch.setattr(threads, "_load_openblas", missing)
        threads._blas_controls.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="left unchanged"):
                assert limit_blas_threads(1) is None
            reference = DetectionEngine(
                serving_detector, batch_size=4
            ).run(traffic)
            with _service(
                serving_detector, num_workers=2, start_method="fork"
            ) as service:
                served = service.run(traffic)
                assert service.blas_threads() == {0: None, 1: None}
        finally:
            threads._blas_controls.cache_clear()
        assert np.array_equal(served.scores, reference.scores)

    @needs_openblas
    @pytest.mark.parametrize("batch_size", [1, 16, 64])
    def test_budgeted_pool_is_bit_identical_to_two_thread_engine(
        self, serving_detector, small_dataset, batch_size
    ):
        xs = np.concatenate([small_dataset.x_test] * 2)[:80]
        before = _GET()
        _SET(2)
        try:
            assert _GET() == 2
            reference = DetectionEngine(
                serving_detector, batch_size=batch_size
            ).run(xs)
        finally:
            _SET(before)
        with _service(
            serving_detector, num_workers=2, batch_size=batch_size
        ) as service:
            served = service.run(xs)
            assert all(
                n == min(cpu_share(2), before)
                for n in service.blas_threads().values()
            )
        assert np.array_equal(served.scores, reference.scores)
        assert np.array_equal(
            served.predicted_classes, reference.predicted_classes
        )
        assert np.array_equal(served.similarities, reference.similarities)
