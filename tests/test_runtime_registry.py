"""Multi-model serving contracts: registry, routing, classes, hot-swap.

Three layers.  Unit tests pin the :mod:`repro.runtime.registry`
vocabulary (spec parsing, the request-class ladder, version/serving
bookkeeping).  Service tests prove per-model routing is invisible —
each registered model's decisions are bit-identical to its own
single-process :class:`DetectionEngine` — and that hot-swap is
drain-and-replace: in-flight requests on the old version complete on
the old version while new requests route to the new one.  HTTP tests
pin the front-end contracts riding on top: the unified error schema,
class-aware 429 shedding (lowest class first), class-scaled deadlines,
and the ``/v1/models`` endpoints during a swap.
"""

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
    ModelRegistry,
    REQUEST_CLASSES,
    ShardedDetectionService,
    ThroughputStats,
    UnknownModelError,
    parse_model_spec,
    resolve_request_class,
)
from repro.runtime.server import (
    DetectionHTTPServer,
    get_json,
    post_detect,
    post_json,
)


# -- unit: specs and classes -------------------------------------------------

class TestModelSpec:
    def test_bare_name_and_versioned(self):
        assert parse_model_spec("default") == ("default", None)
        assert parse_model_spec("alt@3") == ("alt", 3)
        assert parse_model_spec(" fw.ab-v2 ") == ("fw.ab-v2", None)

    @pytest.mark.parametrize("bad", ["", "@2", "a b", "x@zero", "x@0", "x@-1"])
    def test_malformed_specs_are_value_errors(self, bad):
        with pytest.raises(ValueError):
            parse_model_spec(bad)


class TestRequestClasses:
    def test_ladder_priorities_and_scales(self):
        classes = sorted(REQUEST_CLASSES.values(), key=lambda c: c.priority)
        assert [c.name for c in classes] == [
            "interactive", "standard", "batch",
        ]
        # interactive gets the tightest deadline, batch the loosest
        assert classes[0].slo_scale < classes[1].slo_scale < classes[2].slo_scale

    def test_resolve_defaults_to_standard(self):
        assert resolve_request_class(None).name == "standard"
        with pytest.raises(ValueError, match="unknown request class"):
            resolve_request_class("premium")

    def test_admit_limits_shed_lowest_class_first(self):
        interactive = REQUEST_CLASSES["interactive"]
        standard = REQUEST_CLASSES["standard"]
        batch = REQUEST_CLASSES["batch"]
        for max_inflight in (3, 8, 16, 100):
            assert (batch.admit_limit(max_inflight)
                    <= standard.admit_limit(max_inflight)
                    <= interactive.admit_limit(max_inflight))
        # tiny budgets still serve every class
        assert batch.admit_limit(1) == 1


def _fake_state(tag: int) -> dict:
    return {"fitted": True, "tag": tag}


class TestRegistry:
    def test_new_name_serves_immediately_at_v1(self):
        registry = ModelRegistry()
        entry = registry.register(
            "m", state=_fake_state(1), model_factory=build_serving_model
        )
        assert entry.key == ("m", 1)
        assert registry.default_name == "m"
        assert registry.resolve(None).key == ("m", 1)
        assert registry.resolve("m@1").spec == "m@1"

    def test_reregister_waits_for_promote(self):
        registry = ModelRegistry()
        registry.register(
            "m", state=_fake_state(1), model_factory=build_serving_model
        )
        v2 = registry.register(
            "m", state=_fake_state(2), model_factory=build_serving_model
        )
        assert v2.version == 2
        # routing unchanged until the owner promotes
        assert registry.resolve("m").version == 1
        registry.promote("m", 2)
        assert registry.resolve("m").version == 2
        # the old version is still addressable until retired
        assert registry.resolve("m@1").state["tag"] == 1

    def test_retire_refuses_serving_and_drops_state(self):
        registry = ModelRegistry()
        registry.register(
            "m", state=_fake_state(1), model_factory=build_serving_model
        )
        with pytest.raises(ValueError, match="promote a replacement"):
            registry.retire("m", 1)
        registry.register(
            "m", state=_fake_state(2), model_factory=build_serving_model
        )
        registry.promote("m", 2)
        registry.retire("m", 1)
        with pytest.raises(UnknownModelError, match="retired"):
            registry.resolve("m@1")
        # metadata row survives for listings; heavy state does not
        rows = registry.describe()["models"]
        v1 = next(r for r in rows if r["version"] == 1)
        assert v1["retired"] and not v1["serving"]
        assert [e.key for e in registry.serving_entries()] == [("m", 2)]

    def test_unknown_and_unfitted_are_rejected(self):
        registry = ModelRegistry()
        with pytest.raises(UnknownModelError):
            registry.resolve("ghost")
        with pytest.raises(ValueError, match="fitted"):
            registry.register(
                "m", state={"fitted": False},
                model_factory=build_serving_model,
            )
        with pytest.raises(ValueError, match="bare name"):
            registry.register(
                "m@2", state=_fake_state(1),
                model_factory=build_serving_model,
            )


# -- service: routing and hot-swap -------------------------------------------

@pytest.fixture(scope="module")
def alt_detector(small_dataset, trained_alexnet):
    """A second, genuinely different detector over the same
    architecture (different phi calibration and classifier fit), so
    routing mistakes show up as score mismatches."""
    from repro.attacks import FGSM
    from repro.core import ExtractionConfig, PtolemyDetector, calibrate_phi

    model = trained_alexnet
    config = calibrate_phi(
        model,
        ExtractionConfig.fwab(model.num_extraction_units()),
        small_dataset.x_train[:4],
        quantile=0.9,
    )
    detector = PtolemyDetector(model, config, n_trees=10, seed=9)
    detector.profile(
        small_dataset.x_train, small_dataset.y_train, max_per_class=4
    )
    adv = FGSM(eps=0.2).generate(
        model, small_dataset.x_train[:12], small_dataset.y_train[:12]
    ).x_adv
    detector.fit_classifier(small_dataset.x_train[12:24], adv)
    return detector


@pytest.fixture(scope="module")
def multi_pool(serving_detector, alt_detector, small_dataset):
    """One 2-worker pool serving both models, behind the HTTP server,
    plus per-model single-process engine references."""
    xs = small_dataset.x_test[:16]
    references = {
        "default": DetectionEngine(serving_detector, batch_size=4).run(xs),
        "alt": DetectionEngine(alt_detector, batch_size=4).run(xs),
    }
    service = ShardedDetectionService(
        serving_detector,
        model_factory=build_serving_model,
        num_workers=2,
        batch_size=4,
    )
    service.load_model(
        "alt", detector=alt_detector,
        model_factory=build_serving_model, threshold=0.7,
    )
    service.start()
    server = DetectionHTTPServer(service, max_inflight=8)
    server.start()
    yield server, service, xs, references
    server.close()
    service.stop()


class TestMultiModelService:
    def test_each_model_is_bit_identical_to_its_engine(self, multi_pool):
        _, service, xs, references = multi_pool
        for spec, reference in (
            (None, references["default"]),
            ("default", references["default"]),
            ("alt", references["alt"]),
            ("alt@1", references["alt"]),
        ):
            result = service.run(xs, model=spec)
            assert np.array_equal(result.scores, reference.scores)
        # sanity: the two models really are different scorers
        assert not np.array_equal(
            references["default"].scores, references["alt"].scores
        )

    def test_unknown_and_malformed_models_fail_fast(self, multi_pool):
        _, service, xs, _ = multi_pool
        with pytest.raises(UnknownModelError):
            service.submit(xs, model="ghost")
        with pytest.raises(ValueError):
            service.submit(xs, model="@@")
        with pytest.raises(ValueError, match="unknown request class"):
            service.submit(xs, request_class="premium")

    def test_futures_record_model_and_class(self, multi_pool):
        _, service, xs, _ = multi_pool
        future = service.submit(xs, model="alt", request_class="interactive")
        future.result(timeout=60)
        assert future.model == "alt@1"
        assert future.request_class == "interactive"

    def test_per_model_stats_and_listing(self, multi_pool):
        _, service, xs, _ = multi_pool
        service.run(xs)
        service.run(xs, model="alt")
        stats = service.model_stats()
        assert stats["default@1"].samples >= len(xs)
        assert stats["alt@1"].samples >= len(xs)
        assert isinstance(stats["alt@1"], ThroughputStats)
        rows = {
            (row["name"], row["version"]): row for row in service.models()["models"]
        }
        assert rows[("default", 1)]["serving"]
        assert rows[("alt", 1)]["serving"]
        assert rows[("alt", 1)]["samples"] >= len(xs)


class TestHotSwap:
    """Ordering note: these run after TestMultiModelService (pytest
    preserves file order) and walk ``alt`` forward through v2/v3; no
    earlier test depends on the version they leave behind."""

    def test_drain_and_replace_keeps_inflight_on_old_version(
        self, multi_pool
    ):
        _, service, xs, references = multi_pool
        workload = np.concatenate([xs] * 5)  # many chunks stay queued
        inflight = service.submit(workload, model="alt")
        entry = service.load_model("alt", source="alt")  # clone -> v2
        assert entry.version == 2

        # the in-flight request completes, on the version it started on
        result = inflight.result(timeout=120)
        assert inflight.model == "alt@1"
        assert np.array_equal(
            result.scores, np.tile(references["alt"].scores, 5)
        )

        # new requests route to the promoted version (same cloned
        # state, so scores stay bit-identical)
        fresh = service.submit(xs, model="alt")
        scores = fresh.result(timeout=60).scores
        assert fresh.model == "alt@2"
        assert np.array_equal(scores, references["alt"].scores)

        # once drained, the old version retires and stops resolving
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            rows = {
                (row["name"], row["version"]): row
                for row in service.models()["models"]
            }
            if rows[("alt", 1)]["retired"]:
                break
            time.sleep(0.05)
        else:
            pytest.fail("alt@1 never retired after draining")
        with pytest.raises(UnknownModelError, match="retired"):
            service.submit(xs, model="alt@1")

    def test_hot_swap_over_http(self, multi_pool):
        server, _, xs, references = multi_pool
        listing = get_json(server.url, "/v1/models")
        served_before = {
            row["spec"] for row in listing["models"] if row["serving"]
        }
        assert "default@1" in served_before

        swapped = post_json(
            server.url, "/v1/models", {"name": "alt", "from": "alt"}
        )
        assert swapped["serving"] and swapped["name"] == "alt"
        new_spec = swapped["spec"]

        out = post_detect(server.url, xs, model="alt")
        assert out["model"] == new_spec
        assert np.array_equal(
            np.asarray(out["scores"]), references["alt"].scores
        )
        # per-model sections appear in /v1/stats
        stats = get_json(server.url, "/v1/stats")
        assert new_spec in stats["models"]
        assert set(stats["classes"]) == set(REQUEST_CLASSES)

    def test_http_model_errors_use_the_error_schema(self, multi_pool):
        server, _, xs, _ = multi_pool
        cases = [
            (lambda: post_detect(server.url, xs, model="ghost"),
             404, "model_not_found"),
            (lambda: post_detect(server.url, xs, model="@@"),
             400, "bad_request"),
            (lambda: post_detect(server.url, xs, request_class="premium"),
             400, "bad_request"),
            (lambda: post_json(server.url, "/v1/models",
                               {"name": "x", "from": "ghost"}),
             404, "model_not_found"),
            (lambda: post_json(server.url, "/v1/models", {"name": "x"}),
             400, "bad_request"),
        ]
        for call, status, code in cases:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                call()
            assert excinfo.value.code == status
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert set(body) == {"error", "code", "retry_after"}
            assert body["code"] == code


def _http_delete(server, path):
    """DELETE with full control (status + body even on errors)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("DELETE", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


class TestRetirement:
    """``DELETE /v1/models/<spec>`` and its service-level primitive.

    Ordering note: runs after TestHotSwap (pytest preserves file
    order) and walks ``alt`` one more version forward; nothing later
    depends on the version it leaves serving."""

    def test_retire_model_service_level(self, serving_detector):
        service = ShardedDetectionService(
            serving_detector,
            model_factory=build_serving_model,
            num_workers=1,
            batch_size=4,
        )
        service.load_model("tmp", source="default")
        entry = service.load_model("tmp", source="tmp")  # clone -> v2
        assert entry.version == 2
        # the serving version is protected: promote a replacement first
        with pytest.raises(ValueError, match="serving"):
            service.retire_model("tmp@2")
        # the demoted version drained instantly (no traffic) — retiring
        # it reports retired, and doing it again is idempotent
        payload = service.retire_model("tmp@1")
        assert payload == {"spec": "tmp@1", "retired": True}
        assert service.retire_model("tmp@1") == payload
        with pytest.raises(UnknownModelError):
            service.retire_model("ghost")
        with pytest.raises(ValueError):
            service.retire_model("@@")

    def test_delete_unknown_and_malformed_specs(self, multi_pool):
        server, _, _, _ = multi_pool
        status, body = _http_delete(server, "/v1/models/ghost")
        assert status == 404
        assert set(body) == {"error", "code", "retry_after"}
        assert body["code"] == "model_not_found"
        status, body = _http_delete(server, "/v1/models/bad@@spec")
        assert status == 400
        assert body["code"] == "bad_request"

    def test_delete_serving_version_is_409_conflict(self, multi_pool):
        server, service, _, _ = multi_pool
        version = service.registry.serving_version("default")
        spec = f"default@{version}"
        status, body = _http_delete(server, f"/v1/models/{spec}")
        assert status == 409
        assert set(body) == {"error", "code", "retry_after"}
        assert body["code"] == "conflict"
        assert body["retry_after"] == 1.0
        # the refused version is untouched and still serving
        listing = get_json(server.url, "/v1/models")
        assert any(
            row["spec"] == spec and row["serving"]
            for row in listing["models"]
        )

    def test_delete_drained_version_succeeds(self, multi_pool):
        server, service, _, _ = multi_pool
        old_version = service.registry.serving_version("alt")
        spec = f"alt@{old_version}"
        # promote a clone; the demoted version drains (no in-flight
        # work) and becomes deletable
        post_json(server.url, "/v1/models", {"name": "alt", "from": "alt"})
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, body = _http_delete(server, f"/v1/models/{spec}")
            if status == 200:
                break
            assert status == 409  # drain still finishing
            time.sleep(0.05)
        assert status == 200
        assert body == {"spec": spec, "retired": True}
        rows = {
            row["spec"]: row
            for row in get_json(server.url, "/v1/models")["models"]
        }
        assert rows[spec]["retired"]
        assert not rows[spec]["serving"]


# -- HTTP: class-aware admission and deadlines (stub service) ----------------

class _GatedResult:
    def __init__(self, n: int):
        self.num_samples = n
        self.scores = np.zeros(n)
        self.predicted_classes = np.zeros(n, dtype=np.int64)
        self.is_adversarial = np.zeros(n, dtype=bool)
        self.similarities = np.ones(n)
        self.rejection_rate = 0.0


class _GatedFuture:
    model = None

    def __init__(self, n: int, gate: threading.Event):
        self._n, self._gate = n, gate

    def result(self, timeout=None):
        if not self._gate.wait(timeout):
            raise TimeoutError("gated request did not complete in time")
        return _GatedResult(self._n)

    def cancel(self):
        return True


class _GatedService:
    """Single-model stub whose requests complete only when released —
    lets the admission tests hold the in-flight gauge steady."""

    default_model = None

    def __init__(self):
        self.alive_workers = 1
        self.restarts = 0
        self.failure = None
        self.gate = threading.Event()

    def submit(self, xs, model=None, request_class="standard"):
        return _GatedFuture(len(np.asarray(xs)), self.gate)

    def stats(self):
        return ThroughputStats()

    def model_stats(self):
        return {}

    def class_wait_stats(self):
        return {}

    def blas_threads(self):
        return {}


class TestClassAdmission:
    def _spawn_held_requests(self, server, count, request_class):
        threads = [
            threading.Thread(
                target=lambda: post_detect(
                    server.url, np.zeros((2, 4)),
                    request_class=request_class,
                ),
                daemon=True,
            )
            for _ in range(count)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if server.stats_payload()["server"]["inflight"] >= count:
                return threads
            time.sleep(0.01)
        pytest.fail("held requests never became in-flight")

    def test_batch_class_sheds_before_standard(self):
        stub = _GatedService()
        server = DetectionHTTPServer(
            stub, max_inflight=3, request_timeout=30.0
        )
        server.start()
        try:
            # batch admit_limit(3) = 2; standard/interactive = 3
            threads = self._spawn_held_requests(server, 2, "batch")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_detect(
                    server.url, np.zeros((2, 4)), request_class="batch"
                )
            assert excinfo.value.code == 429
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert body["code"] == "backpressure"
            assert body["retry_after"] is not None
            # the same saturation still admits a standard-class request
            stub.gate.set()
            out = post_detect(server.url, np.zeros((2, 4)))
            assert out["class"] == "standard"
            for thread in threads:
                thread.join(timeout=10)
            shed = server.stats_payload()["classes"]["batch"]["shed"]
            assert shed >= 1
        finally:
            stub.gate.set()
            server.close()

    def test_interactive_deadline_is_tighter(self):
        stub = _GatedService()  # gate never released -> every wait times out
        server = DetectionHTTPServer(
            stub, max_inflight=4, request_timeout=1.0
        )
        server.start()
        try:
            started = time.monotonic()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_detect(
                    server.url, np.zeros((2, 4)),
                    request_class="interactive",
                )
            elapsed = time.monotonic() - started
            assert excinfo.value.code == 504
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert body["code"] == "deadline_exceeded"
            # interactive deadline is 0.5 * request_timeout; well under
            # the base 1.0 s budget even with HTTP overhead
            assert elapsed < 0.95
        finally:
            stub.gate.set()
            server.close()
