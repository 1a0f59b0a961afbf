"""HTTP serving — closed-loop client throughput and latency over the
network boundary.

PR 3's sharded service only had an in-process submission queue; the
HTTP front-end (``repro.runtime.server``) is the first real network
boundary.  This benchmark is its contract: a pool of closed-loop
clients (each sends the next request the moment the previous response
lands) drives ``POST /v1/detect`` and records wall-clock samples/sec
plus request-latency percentiles (p50/p95/p99).

The service chunks every request at one fixed micro-batch size
(:data:`SERVICE_BATCH`).  HTTP responses must be bit-identical to the
single-process :class:`DetectionEngine` over the same samples
(RuntimeError, so smoke mode cannot relax it); ``scripts/perf_gate.py``
gates the measured samples/sec against its committed baseline.

Run standalone for the nightly JSON artifact::

    python benchmarks/bench_http_serving.py --output http.json

or as a pure closed-loop client against an already-running server
(what CI's http-smoke step does against ``repro.cli serve --http``)::

    python benchmarks/bench_http_serving.py --smoke \
        --url http://127.0.0.1:8471 --seconds 3
"""

import queue
import sys
import threading
import time
import urllib.error
from pathlib import Path

# Standalone-script bootstrap (pytest runs go through conftest instead).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.runtime.server import DetectionHTTPServer, post_detect

DEFAULT_SCENARIO = "alexnet_imagenet"
DEFAULT_VARIANT = "FwAb"
#: Samples per client request — small enough that many requests are in
#: flight at once (the batcher, not the client, decides batch shapes).
REQUEST_SIZE = 16
#: Closed-loop client threads.
CLIENTS = 4
#: Micro-batch size the service chunks every request at.
SERVICE_BATCH = 16


def _percentiles(latencies_ms) -> dict:
    if not latencies_ms:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    arr = np.asarray(latencies_ms)
    return {
        "p50_ms": float(np.percentile(arr, 50.0)),
        "p95_ms": float(np.percentile(arr, 95.0)),
        "p99_ms": float(np.percentile(arr, 99.0)),
    }


def run_closed_loop(
    url: str,
    chunks,
    clients: int = CLIENTS,
    timeout: float = 120.0,
) -> dict:
    """Drive every chunk through ``POST /v1/detect`` from a closed-loop
    client pool; returns samples/sec and request-latency percentiles.

    Each client immediately posts its next chunk when the previous
    response arrives — the server is never idle waiting on think time.
    429 responses are retried (that is the backpressure contract), and
    counted.
    """
    work: "queue.Queue" = queue.Queue()
    for chunk in chunks:
        work.put(chunk)
    latencies: list = []
    counters = {"requests": 0, "samples": 0, "retries_429": 0}
    errors: list = []
    lock = threading.Lock()

    def client():
        while True:
            try:
                chunk = work.get_nowait()
            except queue.Empty:
                return
            started = time.perf_counter()
            while True:
                try:
                    out = post_detect(url, chunk, timeout=timeout)
                    break
                except urllib.error.HTTPError as exc:
                    if exc.code == 429:
                        with lock:
                            counters["retries_429"] += 1
                        time.sleep(0.002)
                        continue
                    with lock:
                        errors.append(exc)
                    return
                except Exception as exc:  # noqa: BLE001 - client records, never dies
                    with lock:
                        errors.append(exc)
                    return
            elapsed_ms = (time.perf_counter() - started) * 1e3
            with lock:
                latencies.append(elapsed_ms)
                counters["requests"] += 1
                counters["samples"] += out["num_samples"]

    started = time.perf_counter()
    threads = [
        threading.Thread(target=client, name=f"bench-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise RuntimeError(f"closed-loop client failed: {errors[0]!r}")
    report = {
        "wall_seconds": wall,
        "samples": counters["samples"],
        "requests": counters["requests"],
        "retries_429": counters["retries_429"],
        "samples_per_sec": (
            counters["samples"] / wall if wall > 0 else 0.0
        ),
        "clients": clients,
        # raw per-request latencies, so multi-round callers can take
        # true percentiles over the full distribution
        "latencies_ms": latencies,
    }
    report.update(_percentiles(latencies))
    return report


def measure_http_serving(
    workbench,
    count: int = 256,
    request_size: int = REQUEST_SIZE,
    clients: int = CLIENTS,
    batch_size: int = SERVICE_BATCH,
    num_workers: int = 2,
) -> dict:
    """Fixed-batch closed-loop serving over one traffic stream;
    includes the single-process engine's decisions as the bit-identity
    reference."""
    from repro.runtime import DetectionEngine, iter_microbatches

    detector = workbench.detector(DEFAULT_VARIANT)
    traffic = workbench.traffic(count=count)
    chunks = list(iter_microbatches(traffic, request_size))
    engine = DetectionEngine(detector, batch_size=batch_size)
    engine.run(traffic[: min(len(traffic), 2 * batch_size)])  # warm
    reference = engine.run(traffic)
    results = {"engine_scores": reference.scores}

    service = workbench.service(
        DEFAULT_VARIANT, num_workers=num_workers, batch_size=batch_size,
    )
    service.start()
    server = DetectionHTTPServer(service, max_inflight=16)
    server.start()
    try:
        full = post_detect(server.url, traffic)
        results["fixed_scores"] = np.asarray(full["scores"])
        run_closed_loop(server.url, chunks, clients)  # warm the pool
        report = run_closed_loop(server.url, chunks, clients)
        report.pop("latencies_ms")  # keep the JSON report lean
        report["p95_batch_ms"] = (
            service.stats().latency_percentile_ms(95.0)
        )
        results["fixed"] = report
    finally:
        server.close()
        service.stop()
    return results


def check_bit_identity(results) -> None:
    """The network boundary must be invisible to decisions: the served
    scores must equal the single-process engine's.  Shared with
    ``scripts/perf_gate.py`` so the contract lives once."""
    if not np.array_equal(results["fixed_scores"], results["engine_scores"]):
        raise RuntimeError("HTTP fixed serving changed detection scores")


def render_http_table(results) -> str:
    from repro.eval import render_table

    report = results["fixed"]
    row = (
        f"{report['samples_per_sec']:.0f}",
        f"{report['p50_ms']:.1f}",
        f"{report['p95_ms']:.1f}",
        f"{report['p99_ms']:.1f}",
        f"{report['p95_batch_ms']:.2f}",
        report["retries_429"],
    )
    return render_table(
        f"HTTP serving: {DEFAULT_VARIANT} on {DEFAULT_SCENARIO} "
        f"(closed loop, fixed batch {SERVICE_BATCH})",
        ["samples/s", "req p50 ms", "req p95 ms",
         "req p99 ms", "batch p95 ms", "429 retries"],
        [row],
    )


def test_http_serving(benchmark, smoke):
    from repro.eval import Workbench

    workbench = Workbench.get(DEFAULT_SCENARIO)
    count = 96 if smoke else 256
    results = benchmark.pedantic(
        lambda: measure_http_serving(workbench, count=count),
        rounds=1, iterations=1,
    )
    print()
    print(render_http_table(results))
    check_bit_identity(results)


def _json_safe(results) -> dict:
    return {
        key: value
        for key, value in results.items()
        if not key.endswith("_scores")
    }


def main(argv=None) -> int:
    """Standalone entry point: full server+client run, or client-only
    against an external ``--url`` (the CI http-smoke path)."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=256)
    parser.add_argument("--clients", type=int, default=CLIENTS)
    parser.add_argument("--request-size", type=int, default=REQUEST_SIZE)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink scenario sizes to CI-smoke scale")
    parser.add_argument("--url", default=None,
                        help="client-only mode: drive this running "
                        "server instead of starting one in-process")
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="closed-loop duration in --url mode")
    parser.add_argument("--output", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    from _smoke import activate_smoke, smoke_requested

    if smoke_requested(args.smoke):
        activate_smoke()

    if args.url is not None:
        return _client_only(args)

    from repro.eval import Workbench

    workbench = Workbench.get(DEFAULT_SCENARIO)
    results = measure_http_serving(
        workbench,
        count=args.count,
        request_size=args.request_size,
        clients=args.clients,
    )
    print(render_http_table(results))
    check_bit_identity(results)
    if args.output:
        Path(args.output).write_text(
            json.dumps(_json_safe(results), indent=2) + "\n"
        )
        print(f"wrote {args.output}")
    return 0


def _client_only(args) -> int:
    """Closed-loop client against an already-running ``serve --http``
    server; fails (exit 1) on zero throughput or client errors."""
    import json

    from repro.eval.workloads import SCENARIOS
    from repro.runtime import iter_microbatches
    from repro.runtime.server import wait_for_health

    if not wait_for_health(args.url, timeout=60.0):
        print(f"server at {args.url} never became healthy")
        return 1
    # Valid-shaped traffic without training a model: the scenario's
    # synthetic test split (the server's detector happily scores it).
    dataset = SCENARIOS[DEFAULT_SCENARIO].build_dataset()
    chunks = list(iter_microbatches(dataset.x_test, args.request_size))
    deadline = time.monotonic() + args.seconds
    totals = {"samples": 0, "requests": 0, "retries_429": 0}
    latencies: list = []
    started = time.perf_counter()
    while time.monotonic() < deadline:
        report = run_closed_loop(args.url, chunks, clients=args.clients)
        totals["samples"] += report["samples"]
        totals["requests"] += report["requests"]
        totals["retries_429"] += report["retries_429"]
        latencies.extend(report["latencies_ms"])
    wall = time.perf_counter() - started
    rate = totals["samples"] / wall if wall > 0 else 0.0
    # true percentiles over every request across all rounds
    summary = {
        "url": args.url,
        "wall_seconds": wall,
        "samples_per_sec": rate,
        **totals,
        **_percentiles(latencies),
    }
    print(json.dumps(summary, indent=2))
    if args.output:
        Path(args.output).write_text(json.dumps(summary, indent=2) + "\n")
    if totals["requests"] == 0 or rate <= 0.0:
        print("FAILED: closed-loop client measured zero throughput")
        return 1
    print(f"closed-loop client OK: {rate:.0f} samples/s over "
          f"{totals['requests']} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
