"""Chaos & self-healing tests: seeded fault plans, the heartbeat
watchdog, dropped-message redelivery, and the client-side
:class:`RetryPolicy`.

The contract under test is the chaos gate's: any injected fault —
worker hang, worker crash, dropped dispatch message — must be
recovered without losing a request and without perturbing a single
score bit relative to the single-process
:class:`~repro.runtime.DetectionEngine`.
"""

from __future__ import annotations

import email.message
import http.client
import io
import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from conftest import build_serving_model
from repro.runtime import (
    ChaosPlan,
    DetectionEngine,
    FaultSpec,
    RetryPolicy,
    ServiceError,
    ShardedDetectionService,
)
from repro.runtime.chaos import FAULT_KINDS, score_digest
from repro.runtime.server import post_json

_build_service_model = build_serving_model

@pytest.fixture(scope="module")
def engine_reference(serving_detector, small_dataset):
    xs = small_dataset.x_test[:30]
    return xs, DetectionEngine(serving_detector, batch_size=4).run(xs)


def _service(detector, **kwargs):
    kwargs.setdefault("model_factory", _build_service_model)
    kwargs.setdefault("batch_size", 4)
    return ShardedDetectionService(detector, **kwargs)


def _await_counters(service, deadline_s=30.0, **minimums):
    """Poll fault_stats() until every counter reaches its floor (fault
    recovery is asynchronous: reap/respawn run on the collector)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        stats = service.fault_stats()
        if all(stats[key] >= floor for key, floor in minimums.items()):
            return stats
        time.sleep(0.05)
    return service.fault_stats()


# -- chaos plans -------------------------------------------------------------

class TestChaosPlan:
    def test_storm_is_deterministic(self):
        a = ChaosPlan.storm(seed=3, num_requests=30)
        b = ChaosPlan.storm(seed=3, num_requests=30)
        assert a.faults == b.faults
        assert ChaosPlan.storm(seed=4, num_requests=30).faults != a.faults

    def test_storm_covers_every_fault_kind(self):
        plan = ChaosPlan.storm(seed=0, num_requests=24)
        assert set(FAULT_KINDS) == {"crash", "hang", "slow", "drop"}
        assert {f.kind for f in plan.faults} == set(FAULT_KINDS)
        # the slowdown window clears the chaos gate's 20% floor
        assert plan.slow_request_fraction >= 0.2
        # every fault is index-scheduled inside the stream
        for fault in plan.faults:
            assert 0 < fault.at_request <= plan.num_requests

    @pytest.mark.parametrize("seed", range(6))
    def test_storm_drops_after_the_crash_and_the_hang(self, seed):
        """The drop lands on a shard no reap recovers, so the drill
        proves task_timeout redelivery rather than a reap."""
        plan = ChaosPlan.storm(seed=seed, num_requests=24)
        at = {f.kind: f.at_request for f in plan.faults if f.kind != "slow"}
        assert at["drop"] > max(at["crash"], at["hang"])
        assert at["drop"] < plan.num_requests

    def test_storm_requires_enough_requests(self):
        with pytest.raises(ValueError, match="at least 6"):
            ChaosPlan.storm(seed=0, num_requests=5)

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("explode", at_request=1)
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec("crash", at_request=1, at_seconds=1.0)
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec("crash")

    def test_fault_spec_due(self):
        by_index = FaultSpec("hang", at_request=3)
        assert not by_index.due(2, 99.0)
        assert by_index.due(3, 0.0)
        by_clock = FaultSpec("slow", at_seconds=1.5, arg=0.01)
        assert not by_clock.due(99, 1.0)
        assert by_clock.due(0, 1.5)

    def test_score_digest_is_bitwise(self):
        xs = np.arange(8, dtype=np.float64)
        assert score_digest(xs) == score_digest(xs.copy())
        nudged = xs.copy()
        nudged[3] = np.nextafter(nudged[3], np.inf)  # one ulp
        assert score_digest(nudged) != score_digest(xs)


# -- client retry policy -----------------------------------------------------

def _http_error(code, retry_after=None, body=None):
    headers = email.message.Message()
    if retry_after is not None:
        headers["Retry-After"] = str(retry_after)
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    return urllib.error.HTTPError(
        "http://test/v1/detect", code, "err", headers, io.BytesIO(payload)
    )


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, jitter=0.0, max_delay=0.5
        )
        delays = [policy.delay_for(k) for k in range(5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_is_seeded_and_bounded(self):
        a = RetryPolicy(jitter=0.25, seed=7)
        b = RetryPolicy(jitter=0.25, seed=7)
        for k in range(4):
            da, db = a.delay_for(k), b.delay_for(k)
            assert da == db  # same seed, same stream
            base = min(a.max_delay, a.base_delay * a.multiplier ** k)
            assert base <= da <= min(a.max_delay, base * 1.25)

    def test_retry_after_is_honored_exactly(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.25, seed=0)
        assert policy.delay_for(0, retry_after=3.5) == 3.5
        # ...but still capped at max_delay
        assert policy.delay_for(0, retry_after=99.0) == policy.max_delay
        opt_out = RetryPolicy(jitter=0.0, base_delay=0.1)
        assert opt_out.delay_for(0, retry_after=3.5) == 3.5
        opt_out.honor_retry_after = False
        assert opt_out.delay_for(0, retry_after=3.5) == pytest.approx(0.1)

    def test_retry_after_from_header_and_body(self):
        assert RetryPolicy.retry_after_from(
            _http_error(503, retry_after=2.5)
        ) == 2.5
        assert RetryPolicy.retry_after_from(
            _http_error(429, body={"retry_after": 1.5})
        ) == 1.5
        assert RetryPolicy.retry_after_from(_http_error(503)) is None
        assert RetryPolicy.retry_after_from(ValueError("x")) is None

    def test_is_retryable_matrix(self):
        retryable = [
            _http_error(429),
            _http_error(503),
            ConnectionResetError(),
            ConnectionRefusedError(),
            http.client.RemoteDisconnected("gone"),
            urllib.error.URLError(ConnectionRefusedError()),
            urllib.error.URLError(ConnectionResetError()),
        ]
        for exc in retryable:
            assert RetryPolicy.is_retryable(exc), exc
        not_retryable = [
            _http_error(400),
            _http_error(404),
            _http_error(409),
            _http_error(500),  # the request WAS processed
            _http_error(504),
            urllib.error.URLError(TimeoutError()),
            ValueError("nope"),
        ]
        for exc in not_retryable:
            assert not RetryPolicy.is_retryable(exc), exc

    def test_call_honors_retry_after_then_succeeds(self):
        slept = []
        policy = RetryPolicy(jitter=0.0, sleep=slept.append)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise _http_error(503, retry_after=0.05)
            return {"ok": True}

        assert policy.call(flaky) == {"ok": True}
        assert len(attempts) == 3
        assert policy.retries_used == 2
        assert slept == [0.05, 0.05]  # Retry-After, not the backoff

    def test_call_exhausts_budget_and_reraises(self):
        slept = []
        policy = RetryPolicy(
            max_retries=3, jitter=0.0, base_delay=0.01, sleep=slept.append
        )

        def always_busy():
            raise _http_error(429)

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            policy.call(always_busy)
        assert excinfo.value.code == 429
        assert policy.retries_used == 3
        assert len(slept) == 3  # never sleeps after the last attempt

    def test_call_raises_non_retryable_immediately(self):
        slept = []
        policy = RetryPolicy(sleep=slept.append)
        with pytest.raises(urllib.error.HTTPError):
            policy.call(lambda: (_ for _ in ()).throw(_http_error(400)))
        assert slept == [] and policy.retries_used == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=-0.5)


class _FlakyHandler(BaseHTTPRequestHandler):
    """Returns 503 + Retry-After for the first N POSTs, then 200."""

    failures_left = 2

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        cls = type(self)
        if cls.failures_left > 0:
            cls.failures_left -= 1
            body = json.dumps(
                {"error": "busy", "code": "backpressure",
                 "retry_after": 0.01}
            ).encode("utf-8")
            self.send_response(503)
            self.send_header("Retry-After", "0.01")
        else:
            body = json.dumps({"ok": True}).encode("utf-8")
            self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestRetryOverHTTP:
    def test_post_json_retries_through_a_flaky_server(self):
        _FlakyHandler.failures_left = 2
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        slept = []
        policy = RetryPolicy(jitter=0.0, sleep=slept.append)
        try:
            out = post_json(url, "/v1/anything", {"x": 1}, retry=policy)
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)
        assert out == {"ok": True}
        assert policy.retries_used == 2
        assert slept == [0.01, 0.01]  # the server's Retry-After hint

    def test_post_json_without_policy_fails_fast(self):
        _FlakyHandler.failures_left = 1
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_json(url, "/v1/anything", {"x": 1})
            assert excinfo.value.code == 503
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)


# -- self-healing service ----------------------------------------------------

class TestSelfHealing:
    def test_hung_worker_is_reaped_and_results_stay_bit_identical(
        self, serving_detector, engine_reference
    ):
        """A live-but-silent worker must be caught by the heartbeat
        watchdog (no process death to observe), its in-flight chunks
        requeued, and the answers must not change by a bit."""
        xs, reference = engine_reference
        with _service(
            serving_detector, num_workers=2, hang_timeout=1.0,
        ) as service:
            service.run(xs)  # both shards warm + beating
            service.inject_hang()
            result = service.run(xs, timeout=120)
            assert np.array_equal(result.scores, reference.scores)
            assert score_digest(result.scores) == score_digest(
                reference.scores
            )
            stats = _await_counters(
                service, hung_reaps=1, dead_reaps=1, injected_hangs=1
            )
            assert stats["hung_reaps"] >= 1
            # hung reaps are counted inside dead_reaps, never beside it
            assert stats["dead_reaps"] >= stats["hung_reaps"]
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and (
                service.restarts < 1 or service.alive_workers < 2
            ):
                time.sleep(0.05)
            assert service.restarts >= 1
            assert service.alive_workers == 2
            # the healed pool still serves bit-identically
            assert np.array_equal(service.run(xs).scores, reference.scores)

    def test_descriptor_drop_is_redelivered_bit_identically(
        self, serving_detector, engine_reference
    ):
        """A dispatch descriptor that never reaches the worker must be
        redelivered by the task timeout, not waited on forever."""
        xs, reference = engine_reference
        with _service(
            serving_detector, num_workers=1, task_timeout=1.0,
        ) as service:
            service.inject_descriptor_drop(1)
            result = service.run(xs, timeout=120)
            assert np.array_equal(result.scores, reference.scores)
            stats = _await_counters(
                service, descriptor_drops=1, redelivered_tasks=1
            )
            assert stats["descriptor_drops"] == 1
            assert stats["redelivered_tasks"] >= 1

    def test_descriptor_drop_skips_a_crashing_shard(
        self, serving_detector, engine_reference
    ):
        """A drop armed right after a crash must not land on the
        crashing shard, whose reap would recover the batch and hide
        whether redelivery works."""
        xs, reference = engine_reference
        with _service(
            serving_detector, num_workers=2, task_timeout=1.0,
        ) as service:
            service.run(xs)  # both shards warm
            service.inject_crash(0)
            service.inject_descriptor_drop(1)
            result = service.run(xs, timeout=120)
            assert np.array_equal(result.scores, reference.scores)
            stats = _await_counters(
                service, descriptor_drops=1, redelivered_tasks=1
            )
            assert stats["descriptor_drops"] == 1
            assert stats["redelivered_tasks"] >= 1

    def test_injection_validation(self, serving_detector, engine_reference):
        xs, _ = engine_reference
        with _service(serving_detector, num_workers=1) as service:
            with pytest.raises(ValueError, match="non-negative"):
                service.inject_slowdown(-0.5)
            with pytest.raises(ValueError, match="positive"):
                service.inject_descriptor_drop(0)
            with pytest.raises(ServiceError, match="no shard 99"):
                service.inject_crash(shard_id=99)
            keys = set(service.fault_stats())
            assert {
                "dead_reaps", "hung_reaps", "descriptor_drops",
                "redelivered_tasks", "injected_crashes", "injected_hangs",
                "injected_slowdowns", "restarts", "max_restarts",
                "spawn_to_ready_seconds",
            } <= keys
        service.stop()
        with pytest.raises(ServiceError, match="no live shard"):
            service.inject_hang()

    def test_slowdown_is_slow_not_hung(
        self, serving_detector, engine_reference
    ):
        """A slowed worker keeps heartbeating: the watchdog must NOT
        reap it even when batches take longer than hang_timeout would
        allow silence."""
        xs, reference = engine_reference
        with _service(
            serving_detector, num_workers=1, hang_timeout=1.0,
        ) as service:
            service.run(xs[:4])  # warm
            service.inject_slowdown(0.3)
            result = service.run(xs, timeout=120)
            service.inject_slowdown(0.0)  # restore
            assert np.array_equal(result.scores, reference.scores)
            stats = service.fault_stats()
            assert stats["injected_slowdowns"] == 2
            assert stats["hung_reaps"] == 0
            assert service.restarts == 0


class TestChaosDrill:
    def test_smoke_drill_proves_redelivery(self, tmp_path):
        """``repro chaos --smoke`` passes only when the dropped batch
        came back through in-flight redelivery."""
        report_path = tmp_path / "chaos.json"
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "chaos", "--smoke",
             "--seed", "0", "--report", str(report_path)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr
        report = json.loads(report_path.read_text())
        assert report["storm_complete"] and report["passed"]
        assert report["fault_stats"]["descriptor_drops"] >= 1
        assert report["fault_stats"]["redelivered_tasks"] >= 1
