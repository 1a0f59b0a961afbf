"""HTTP front-end tests.

Two layers: a stub service drives the protocol paths deterministically
(backpressure 429, health flips, validation errors, deadline 504,
drain), and a real :class:`ShardedDetectionService` behind the server
proves the network boundary is invisible — concurrent clients get
seq-ordered results bit-identical to :meth:`DetectionEngine.run`, and
the pool heals through a worker crash while the endpoint keeps
serving."""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error

import numpy as np
import pytest

from conftest import build_serving_model
from repro.runtime import (
    DetectionEngine,
    ServiceError,
    ShardedDetectionService,
    ThroughputStats,
)
from repro.runtime.server import (
    DetectionHTTPServer,
    encode_npy,
    get_json,
    post_detect,
    wait_for_health,
)


# -- stub plumbing -----------------------------------------------------------

class _StubResult:
    def __init__(self, n: int):
        self.num_samples = n
        self.scores = np.arange(n, dtype=float)
        self.predicted_classes = np.zeros(n, dtype=np.int64)
        self.is_adversarial = np.zeros(n, dtype=bool)
        self.similarities = np.ones(n)
        self.rejection_rate = 0.0


class _StubFuture:
    def __init__(self, n: int, gate: threading.Event):
        self._n = n
        self._gate = gate

    def result(self, timeout=None):
        if not self._gate.wait(timeout):
            raise TimeoutError("stub request did not complete in time")
        return _StubResult(self._n)


class _StubService:
    """Service-shaped double with externally controlled completion."""

    def __init__(self):
        self.alive_workers = 2
        self.restarts = 0
        self.failure = None
        self.gate = threading.Event()
        self.gate.set()  # complete immediately unless a test holds it
        self.submitted = []

    def submit(self, xs):
        xs = np.asarray(xs)
        if xs.ndim == 0 or len(xs) == 0:
            raise ValueError("workload is empty")
        self.submitted.append(xs)
        return _StubFuture(len(xs), self.gate)

    def stats(self):
        return ThroughputStats()


@pytest.fixture()
def stub():
    return _StubService()


@pytest.fixture()
def stub_server(stub):
    server = DetectionHTTPServer(
        stub, max_inflight=1, request_timeout=5.0
    )
    server.start()
    yield server
    server.close()


def _raw_post(server, path, body, content_type="application/json"):
    """POST with full control (status even on errors)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request(
            "POST", path, body=body,
            headers={"Content-Type": content_type} if body else {},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


# -- protocol tests (stub service) -------------------------------------------

class TestProtocol:
    def test_health_reflects_worker_pool(self, stub, stub_server):
        assert get_json(stub_server.url, "/healthz")["status"] == "ok"
        stub.alive_workers = 0
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(stub_server.url, "/healthz")
        assert excinfo.value.code == 503
        payload = json.loads(excinfo.value.read())
        assert payload["status"] == "unhealthy"
        assert payload["alive_workers"] == 0
        # pool healed -> healthy again (the respawn transition)
        stub.alive_workers = 1
        assert get_json(stub_server.url, "/healthz")["status"] == "ok"

    def test_health_reports_terminal_failure(self, stub, stub_server):
        stub.failure = ServiceError("all workers died")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(stub_server.url, "/healthz")
        assert excinfo.value.code == 503
        assert "all workers died" in json.loads(excinfo.value.read())["failure"]

    def test_detect_roundtrip_json_and_npy(self, stub, stub_server):
        xs = np.random.default_rng(0).random((6, 3))
        for binary in (True, False):
            out = post_detect(stub_server.url, xs, binary=binary)
            assert out["num_samples"] == 6
            assert out["scores"] == list(range(6))
            assert out["rejection_rate"] == 0.0
            assert out["wall_ms"] >= 0.0
        assert all(
            np.array_equal(sub, xs) for sub in np.asarray(stub.submitted)
        )

    def test_backpressure_429_when_saturated(self, stub, stub_server):
        """max_inflight=1: while one request is parked in the service,
        the next is refused immediately with 429 + Retry-After."""
        stub.gate.clear()  # park in-flight requests
        xs = np.ones((2, 3))
        first_result = {}

        def first():
            first_result["out"] = post_detect(stub_server.url, xs)

        thread = threading.Thread(target=first)
        thread.start()
        deadline = time.monotonic() + 5.0
        while stub_server.inflight < 1:
            assert time.monotonic() < deadline, "first request never admitted"
            time.sleep(0.005)
        status, payload = _raw_post(
            stub_server, "/v1/detect",
            json.dumps({"samples": xs.tolist()}),
        )
        assert status == 429
        assert "in-flight" in payload["error"]
        stub.gate.set()  # unblock; the parked request completes fine
        thread.join(timeout=10)
        assert first_result["out"]["num_samples"] == 2
        stats = get_json(stub_server.url, "/v1/stats")
        assert stats["server"]["responses_429"] == 1
        assert stats["server"]["responses_200"] >= 1

    def test_deadline_maps_to_504(self, stub):
        stub.gate.clear()  # never completes
        server = DetectionHTTPServer(
            stub, max_inflight=2, request_timeout=0.05
        )
        server.start()
        try:
            status, payload = _raw_post(
                server, "/v1/detect",
                json.dumps({"samples": [[1.0, 2.0]]}),
            )
            assert status == 504
            assert "deadline" in payload["error"]
        finally:
            server.close()

    def test_validation_errors_are_400(self, stub_server):
        cases = [
            (b"not json at all", "application/json"),
            (json.dumps({"wrong_key": []}).encode(), "application/json"),
            (json.dumps({"samples": "zzz"}).encode(), "application/json"),
            (b"\x00\x01 not an npy", "application/octet-stream"),
            (json.dumps({"samples": []}).encode(), "application/json"),
        ]
        for body, content_type in cases:
            status, payload = _raw_post(
                stub_server, "/v1/detect", body, content_type
            )
            assert status == 400, f"{body[:20]!r} should be 400"
            assert "error" in payload

    def test_missing_body_is_400(self, stub_server):
        status, payload = _raw_post(stub_server, "/v1/detect", None)
        assert status == 400
        assert "body" in payload["error"]

    def test_oversized_body_is_413(self, stub):
        server = DetectionHTTPServer(stub, max_body_bytes=64)
        server.start()
        try:
            status, _ = _raw_post(
                server, "/v1/detect",
                json.dumps({"samples": [[0.0] * 200]}),
            )
            assert status == 413
        finally:
            server.close()

    def test_unknown_paths_are_404(self, stub_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(stub_server.url, "/v2/nope")
        assert excinfo.value.code == 404
        status, _ = _raw_post(stub_server, "/v1/nope", b"{}")
        assert status == 404

    def test_back_to_back_requests_never_bounce_off_response_io(
        self, stub_server
    ):
        """The admission slot guards service work, not socket writes:
        with max_inflight=1, a client that posts again the instant it
        reads a response must never see 429 from a slot held only
        while the previous response's bytes go out."""
        body = json.dumps({"samples": [[1.0, 2.0]]}).encode("utf-8")
        for _ in range(25):
            status, _ = _raw_post(stub_server, "/v1/detect", body)
            assert status == 200

    def test_delete_models_on_single_model_server_is_404(self, stub_server):
        """The stub has no registry surface: DELETE /v1/models/<spec>
        must 404 with the unified schema, not crash the handler."""
        conn = http.client.HTTPConnection(
            stub_server.host, stub_server.port, timeout=10
        )
        try:
            conn.request("DELETE", "/v1/models/default@1")
            response = conn.getresponse()
            status = response.status
            body = json.loads(response.read() or b"{}")
        finally:
            conn.close()
        assert status == 404
        assert set(body) == {"error", "code", "retry_after"}
        assert body["code"] == "not_found"

    def test_stats_payload_shape(self, stub, stub_server):
        post_detect(stub_server.url, np.ones((3, 2)))
        stats = get_json(stub_server.url, "/v1/stats")
        assert set(stats) == {
            "service", "server", "alive_workers", "restarts",
            "blas_threads", "default_model", "models", "classes",
        }
        assert stats["server"]["requests_total"] == 1
        assert stats["server"]["max_inflight"] == 1
        assert "samples_per_sec" in stats["service"]

    def test_draining_refuses_new_work(self, stub, stub_server):
        stub_server._draining = True  # what close() flips first
        status, payload = _raw_post(
            stub_server, "/v1/detect",
            json.dumps({"samples": [[1.0]]}),
        )
        assert status == 503
        assert "draining" in payload["error"]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(stub_server.url, "/healthz")
        assert excinfo.value.code == 503
        stub_server._draining = False

    def test_close_drains_inflight_requests(self, stub):
        """close() waits for the parked request instead of cutting it
        off: the client still gets its 200."""
        stub.gate.clear()
        server = DetectionHTTPServer(stub, max_inflight=2)
        server.start()
        outcome = {}

        def client():
            outcome["out"] = post_detect(server.url, np.ones((2, 2)))

        thread = threading.Thread(target=client)
        thread.start()
        deadline = time.monotonic() + 5.0
        while server.inflight < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)

        def release():
            time.sleep(0.2)
            stub.gate.set()

        threading.Thread(target=release).start()
        server.close()  # must block until the in-flight request finished
        thread.join(timeout=10)
        assert outcome["out"]["num_samples"] == 2
        # the listener really is gone
        with pytest.raises((ConnectionError, urllib.error.URLError, OSError)):
            get_json(server.url, "/healthz", timeout=2.0)


# -- end-to-end tests (real sharded service) ---------------------------------

@pytest.fixture(scope="module")
def served_pool(serving_detector, small_dataset):
    """A 2-worker service behind the HTTP server, plus the
    single-process engine reference over the shared workload."""
    xs = small_dataset.x_test[:24]
    reference = DetectionEngine(serving_detector, batch_size=4).run(xs)
    service = ShardedDetectionService(
        serving_detector,
        model_factory=build_serving_model,
        num_workers=2,
        batch_size=4,
    )
    service.start()
    server = DetectionHTTPServer(service, max_inflight=8)
    server.start()
    yield server, service, xs, reference
    server.close()
    service.stop()


class TestEndToEnd:
    def test_detect_is_bit_identical_to_engine(self, served_pool):
        server, _, xs, reference = served_pool
        for binary in (True, False):
            out = post_detect(server.url, xs, binary=binary)
            assert np.array_equal(
                np.asarray(out["scores"]), reference.scores
            )
            assert np.array_equal(
                np.asarray(out["predicted_classes"]),
                reference.predicted_classes,
            )
            assert np.array_equal(
                np.asarray(out["is_adversarial"]),
                reference.is_adversarial,
            )
            assert np.array_equal(
                np.asarray(out["similarities"]), reference.similarities
            )

    def test_concurrent_clients_each_get_ordered_results(
        self, served_pool
    ):
        """Interleaved requests from several client threads: every
        response must be the engine's answer for exactly the slice that
        client sent, in its submission order."""
        server, _, xs, reference = served_pool
        slices = [(0, 8), (8, 16), (16, 24), (4, 20), (0, 24), (2, 14)]
        outputs: dict = {}
        errors: list = []

        def client(index, lo, hi):
            try:
                outputs[index] = post_detect(
                    server.url, xs[lo:hi], binary=index % 2 == 0
                )
            except Exception as exc:  # noqa: BLE001 - surface in the main thread
                errors.append((index, exc))

        threads = [
            threading.Thread(target=client, args=(i, lo, hi))
            for i, (lo, hi) in enumerate(slices)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, f"client errors: {errors}"
        for index, (lo, hi) in enumerate(slices):
            assert np.array_equal(
                np.asarray(outputs[index]["scores"]),
                reference.scores[lo:hi],
            ), f"client {index} got wrong slice decisions"

    def test_malformed_workloads_are_400_not_503(self, served_pool):
        """Boundary validation: wrong sample rank or non-numeric data
        fails as a client error before reaching a worker."""
        server, _, _, _ = served_pool
        for body in (
            json.dumps({"samples": [1.0, 2.0]}),  # 1-D: no feature axis
            encode_npy(np.array(["a", "b"])),     # non-numeric dtype
        ):
            content_type = (
                "application/octet-stream"
                if isinstance(body, bytes) else "application/json"
            )
            status, payload = _raw_post(
                server, "/v1/detect", body, content_type
            )
            assert status == 400, f"expected 400, got {status}"
            assert "error" in payload

    def test_healthz_and_stats_reflect_service(self, served_pool):
        server, service, xs, _ = served_pool
        health = get_json(server.url, "/healthz")
        assert health["status"] == "ok"
        assert health["alive_workers"] == 2
        post_detect(server.url, xs[:8])
        stats = get_json(server.url, "/v1/stats")
        assert stats["alive_workers"] == 2
        # one OpenBLAS thread count per ready shard (JSON keys are str)
        assert stats["blas_threads"] == {
            str(shard): n for shard, n in service.blas_threads().items()
        }
        assert len(stats["blas_threads"]) == 2
        assert stats["service"]["samples"] >= 8
        assert stats["server"]["responses_200"] >= 1

    def test_stats_report_per_class_queue_waits(self, served_pool):
        """/v1/stats carries enqueue→dispatch wait percentiles for
        every request class once the real dispatcher is behind it."""
        server, _, xs, _ = served_pool
        post_detect(server.url, xs[:8])
        stats = get_json(server.url, "/v1/stats")
        for name, cls_stats in stats["classes"].items():
            waits = cls_stats["queue_wait"]
            assert set(waits) == {
                "count", "wait_ms_p50", "wait_ms_p95", "wait_ms_p99"
            }
        # the class we just drove has a populated, ordered window
        waits = stats["classes"]["standard"]["queue_wait"]
        assert waits["count"] >= 1
        assert 0.0 <= waits["wait_ms_p50"] <= waits["wait_ms_p95"]
        assert waits["wait_ms_p95"] <= waits["wait_ms_p99"]

    def test_crash_recovery_keeps_endpoint_serving(self, served_pool):
        """A worker dying under the HTTP boundary: requests keep
        succeeding bit-identically and /healthz returns to ok once the
        pool heals."""
        server, service, xs, reference = served_pool
        service.inject_crash()
        out = post_detect(server.url, xs)  # served through the outage
        assert np.array_equal(np.asarray(out["scores"]), reference.scores)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and (
            service.restarts < 1 or service.alive_workers < 2
        ):
            time.sleep(0.05)
        assert service.restarts >= 1
        assert wait_for_health(server.url, timeout=10.0)
        out = post_detect(server.url, xs)
        assert np.array_equal(np.asarray(out["scores"]), reference.scores)


class TestRequestEncoding:
    def test_encode_npy_roundtrip(self):
        import io

        xs = np.random.default_rng(3).random((4, 2, 2))
        decoded = np.load(io.BytesIO(encode_npy(xs)))
        assert np.array_equal(decoded, xs)

    def test_invalid_server_parameters(self, stub):
        with pytest.raises(ValueError, match="max_inflight"):
            DetectionHTTPServer(stub, max_inflight=0)
        with pytest.raises(ValueError, match="request_timeout"):
            DetectionHTTPServer(stub, request_timeout=0.0)

    def test_close_before_start_does_not_hang(self, stub):
        """Regression: close() on a constructed-but-never-started
        server must release the bound port, not block forever on
        socketserver's shutdown event."""
        server = DetectionHTTPServer(stub)
        done = threading.Event()

        def closer():
            server.close()
            done.set()

        thread = threading.Thread(target=closer, daemon=True)
        thread.start()
        assert done.wait(timeout=10), "close() hung on unstarted server"
