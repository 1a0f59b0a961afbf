#!/usr/bin/env python
"""CI multi-model serving smoke: 2 models, 2 workers, one hot-swap.

Boots a smoke-size 2-worker :class:`ShardedDetectionService` hosting
two genuinely different detectors (FwAb default + BwAb under ``alt``)
behind the HTTP front-end, then drives the multi-model contract
end-to-end:

1. ``GET /v1/models`` lists both models serving.
2. Per-model bit-identity: every model's HTTP responses equal its own
   single-process ``DetectionEngine.run`` over the same frames.
3. Hot-swap under traffic: a large ``alt`` request is put in flight,
   ``POST /v1/models`` clones ``alt`` into version 2, and the in-flight
   request must complete on ``alt@1`` (bit-identical) while new
   requests route to ``alt@2``; ``alt@1`` then drains to retired.
4. Request classes ride along (``X-Repro-Class`` echoes back) and
   ``/v1/stats`` carries per-model and per-class sections.
5. Shutdown is a clean drain (server close + service stop) — any
   hang fails the job via the step timeout.
6. Keep-alive survives the hot-swap and the drain: the server accepted
   no more connections than the smoke has client threads plus health
   probes.

Exits non-zero on the first violated contract.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402


def main() -> int:
    from repro.eval import Workbench, workloads
    from repro.runtime import DetectionEngine, ShardedDetectionService
    from repro.runtime.server import (
        DetectionHTTPServer,
        RetryPolicy,
        get_json,
        post_detect,
        post_json,
        wait_for_health,
    )

    workloads.shrink_for_smoke()
    workbench = Workbench.get("alexnet_imagenet")
    default_detector = workbench.detector("FwAb")
    alt_detector = workbench.detector("BwAb")
    xs = workbench.dataset.x_test[:16]
    references = {
        "default": DetectionEngine(default_detector, batch_size=8).run(xs),
        "alt": DetectionEngine(alt_detector, batch_size=8).run(xs),
    }

    service = ShardedDetectionService(
        default_detector,
        model_factory=workbench.model_factory,
        num_workers=2,
        batch_size=8,
        threshold=workbench.calibrated_threshold("FwAb", 0.1),
    )
    service.load_model(
        "alt",
        detector=alt_detector,
        model_factory=workbench.model_factory,
        threshold=workbench.calibrated_threshold("BwAb", 0.1),
    )
    service.start()
    server = DetectionHTTPServer(service, max_inflight=8)
    server.start()
    client_threads = 2  # this one and the in-flight request's
    probes = 1  # wait_for_health probes once, then once per back-off

    def backoff(seconds: float) -> None:
        nonlocal probes
        probes += 1
        time.sleep(seconds)

    try:
        assert wait_for_health(
            server.url, timeout=60,
            retry=RetryPolicy(base_delay=0.1, max_delay=1.0, sleep=backoff),
        ), "never healthy"

        listing = get_json(server.url, "/v1/models")
        serving = {
            row["spec"] for row in listing["models"] if row["serving"]
        }
        assert serving == {"default@1", "alt@1"}, serving
        print(f"[1] both models serving: {sorted(serving)}")

        for spec, reference in (
            (None, references["default"]),
            ("default", references["default"]),
            ("alt", references["alt"]),
        ):
            out = post_detect(server.url, xs, model=spec)
            assert np.array_equal(
                np.asarray(out["scores"]), reference.scores
            ), f"scores diverge for model={spec!r}"
        assert not np.array_equal(
            references["default"].scores, references["alt"].scores
        ), "smoke models are not distinct scorers"
        print("[2] per-model responses bit-identical to each engine")

        # hot-swap while an alt request is in flight
        inflight_result = {}

        def big_request():
            inflight_result["out"] = post_detect(
                server.url, np.concatenate([xs] * 6), model="alt",
                request_class="batch",
            )

        worker = threading.Thread(target=big_request, daemon=True)
        worker.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if server.stats_payload()["server"]["inflight"] >= 1:
                break
            time.sleep(0.01)
        swapped = post_json(
            server.url, "/v1/models", {"name": "alt", "from": "alt"}
        )
        assert swapped["spec"] == "alt@2" and swapped["serving"], swapped
        worker.join(timeout=300)
        assert not worker.is_alive(), "in-flight request never finished"
        out = inflight_result["out"]
        assert out["model"] == "alt@1", out["model"]
        assert out["class"] == "batch", out["class"]
        assert np.array_equal(
            np.asarray(out["scores"]),
            np.tile(references["alt"].scores, 6),
        ), "in-flight old-version scores diverged during hot-swap"
        print("[3] hot-swap: in-flight request completed on alt@1")

        fresh = post_detect(server.url, xs, model="alt")
        assert fresh["model"] == "alt@2", fresh["model"]
        assert np.array_equal(
            np.asarray(fresh["scores"]), references["alt"].scores
        ), "alt@2 (cloned state) diverged from the alt engine"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            rows = {
                (row["name"], row["version"]): row
                for row in get_json(server.url, "/v1/models")["models"]
            }
            if rows[("alt", 1)]["retired"]:
                break
            time.sleep(0.1)
        else:
            raise AssertionError("alt@1 never retired after draining")
        print("[4] new traffic on alt@2; alt@1 drained and retired")

        stats = get_json(server.url, "/v1/stats")
        assert "alt@2" in stats["models"], sorted(stats["models"])
        assert stats["classes"]["batch"]["admitted"] >= 1, stats["classes"]
        print("[5] /v1/stats carries per-model and per-class sections")

        server.close()
        connections = server.stats_payload()["server"]["connections_total"]
        assert connections <= client_threads + probes, (
            f"{connections} connections for {client_threads} client "
            f"threads and {probes} health probes"
        )
        print(f"[6] keep-alive: {connections} connections across the "
              "hot-swap and drain")
    finally:
        server.close()
        service.stop()
    print("multi-model smoke passed: 2 models, hot-swap, clean drain")
    return 0


if __name__ == "__main__":
    sys.exit(main())
