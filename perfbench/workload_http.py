"""http_fwab: ``repro serve alexnet_imagenet --http 0`` with its CLI
defaults, driven closed-loop over two connections with ``post_detect``
and ``.npy`` bodies.

A closed loop models callers of a detection gate, who wait for the
verdict before sending the next frame, so throughput can move.
Requests are mostly 16 frames, plus a seeded minority of 1-frame and
256-frame requests; the 256-frame ones fan out over both shards and
exercise reordering.  Every round sends the same requests, each round
in another of :data:`ORDERS` seeded orders.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np

from checks import FramePool, Outcome, failed_ops
from common import (
    OUT_DIR,
    ROOT,
    SCENARIO,
    SETUP_REPEATS,
    SRC,
    Metrics,
    Tracer,
    alive,
    cpu_seconds,
    declared_metrics,
    host_ref_ms,
    identity,
    median,
    ms,
    peak_rss_mb,
    percentile,
    process_tree,
    roc_auc,
    thread_count,
)
from workload_engine import (
    LayerPipeline,
    report_reconcile,
    rounds_done,
    setup_seconds,
    traced_setup,
)

SERVE_ARGS = ["serve", SCENARIO, "--http", "0"]
#: Request sizes of one round; each run shuffles them with its seed.
#: The one 256-frame request, and the requests that queue behind it,
#: stay under 2% of a round, and the 1-frame ones under a quarter, so
#: neither the p50 nor the p95 sits on the step between two modes.
ROUND_SIZES = [16] * 128 + [1] * 36 + [256] * 1
#: The round's 2340 frames: 26 copies of each adversarial pool frame
#: and 52 of each benign one.
COPIES = 26
#: Closed-loop connections: one per core of the reference host.
CONNECTIONS = 2
#: How long a server may take to print its "serving ... on" line.
READY_TIMEOUT_S = 120.0
#: Frames given the independent check.
CHECKED = 16
#: Distinct sending orders of a round, drawn before timing starts: the
#: first is the seeded order itself, and round ``r`` sends in order
#: ``r % ORDERS``, so a run averages over many orders rather than
#: resting its tail on where one order puts the 256-frame requests.
ORDERS = 64
#: Least time between a server's banner and the signal that stops it.
SETTLE_S = 0.5


def serve_defaults():
    """The ``repro serve`` options the CLI fills in by default (workers,
    batch size, transport, threshold FPR, ...), read from its parser so
    the in-process stack is built exactly like the served one."""
    from repro.cli import build_parser

    return build_parser().parse_args(SERVE_ARGS)


class ServeProcess:
    """``repro serve`` as a child process; ready once it prints its
    "serving ... on URL" line, which also ends ``setup_s``."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *SERVE_ARGS], cwd=ROOT,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        watchdog = threading.Timer(READY_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        lines = []
        try:
            for line in self.proc.stdout:
                lines.append(line)
                if line.startswith("serving ") and " on http" in line:
                    self.ready_at = time.perf_counter()
                    self.setup_s = self.ready_at - began
                    self.url = line.split(" on ", 1)[1].split()[0]
                    break
        finally:
            watchdog.cancel()
        if not hasattr(self, "url"):
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise RuntimeError("repro serve did not come up:\n" + "".join(lines))
        # the workers are up once the banner is out
        self.tree = [identity(pid) for pid in process_tree(self.proc.pid)]

    def stop(self) -> None:
        """Drain and stop (SIGTERM), then make sure no process of the
        tree outlives it."""
        # repro serve installs its SIGTERM handler only after printing
        # its banner; a signal before that kills the parent and leaves
        # its workers running
        settle = self.ready_at + SETTLE_S - time.perf_counter()
        if settle > 0:
            time.sleep(settle)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        # workers and the shared-memory resource tracker exit on their
        # own shortly after the parent; kill whatever does not
        deadline = time.monotonic() + 10
        while any(alive(i) for i in self.tree[1:]) and time.monotonic() < deadline:
            time.sleep(0.01)
        leftovers = [i for i in self.tree[1:] if alive(i)]
        for pid, _ in leftovers:
            os.kill(pid, signal.SIGKILL)
        while any(alive(i) for i in leftovers):
            time.sleep(0.01)
        if leftovers:
            print(f"killed {len(leftovers)} processes left behind by "
                  "repro serve", file=sys.stderr)
        self.proc.stdout.close()


class _Requests:
    """One round of requests over a seeded stream, and the seeded order
    each round sends them in."""

    def __init__(self, workbench, seed: int):
        self.pool = FramePool(workbench)
        idx = self.pool.stream(COPIES, seed)
        sizes = np.random.default_rng([seed, 1]).permutation(ROUND_SIZES)
        if sizes.sum() != len(idx):
            raise ValueError("ROUND_SIZES must cover the stream exactly")
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.truth = self.pool.truth[idx]
        self.idx = [idx[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        self.bodies = [self.pool.frames[i] for i in self.idx]
        shuffle = np.random.default_rng([seed, 2])
        self.orders = [np.arange(len(self.bodies))] + [
            shuffle.permutation(len(self.bodies)) for _ in range(ORDERS - 1)]
        self.seed = seed
        self.rounds_sent = 0

    def __len__(self) -> int:
        return len(self.bodies)

    def next_order(self) -> np.ndarray:
        """Request indices of the next round to send."""
        order = self.orders[self.rounds_sent % ORDERS]
        self.rounds_sent += 1
        return order

    def failed(self, detector, threshold, op_requests: List[int],
               outcomes: List[Optional[Outcome]]) -> int:
        """Failed requests; ``outcomes[j]`` answers request
        ``op_requests[j]``."""
        checks = self.pool.checks(detector, threshold, self.seed, CHECKED)
        return failed_ops(checks, [self.idx[k] for k in op_requests], outcomes)

    def auc(self, op_requests: List[int],
            outcomes: List[Optional[Outcome]]) -> float:
        """AUC of the first round's scores; a round sends every request
        once, in whatever order."""
        first = dict(zip(op_requests[:len(self)], outcomes[:len(self)]))
        if len(first) < len(self) or any(o is None for o in first.values()):
            return 0.0
        return roc_auc(self.truth, np.concatenate(
            [first[k].scores for k in range(len(self))]))


def closed_loop(url: str, requests: _Requests, seconds: float,
                tracer: Optional[Tracer] = None):
    """Whole rounds of ``requests`` over :data:`CONNECTIONS` connections,
    each sending its next request when the last one is answered, for
    about ``seconds``; the run's rounds go through the orders in turn.
    Returns per-request seconds (``None`` when it failed), outcomes
    (``None`` when it failed), the index of each request sent and the
    wall time."""
    from repro.runtime.server import post_detect

    def one(k: int):
        began = time.perf_counter()
        try:
            if tracer is None:
                body = post_detect(url, requests.bodies[k])
            else:
                with tracer.span("client.post_detect",
                                 tracer.new_trace()) as span:
                    body = post_detect(url, requests.bodies[k])
                tracer.add_child("server.handle", span, body["wall_ms"] / 1e3)
        except (urllib.error.URLError, OSError, ValueError, KeyError):
            return None, None
        return time.perf_counter() - began, Outcome.from_response(body)

    times, outcomes, sent = [], [], []
    with ThreadPoolExecutor(CONNECTIONS) as pool:
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            order = requests.next_order()
            for took, outcome in pool.map(one, order):
                times.append(took)
                outcomes.append(outcome)
            sent += order.tolist()
            if rounds_done(start, round_start, seconds):
                return times, outcomes, sent, time.perf_counter() - start


def alternate(plain, traced, seconds: float):
    """Call ``plain()`` and ``traced()`` in turn, each one round
    returning ``(times, outcomes, sent, wall)``, for about ``seconds``.
    Returns the two modes' pooled ``[times, outcomes, sent, wall]``."""
    pooled = ([[], [], [], 0.0], [[], [], [], 0.0])
    start = time.perf_counter()
    while True:
        for acc, one_round in zip(pooled, (plain, traced)):
            times, outcomes, sent, wall = one_round()
            acc[0] += times
            acc[1] += outcomes
            acc[2] += sent
            acc[3] += wall
        if time.perf_counter() - start >= seconds:
            return pooled


def _warm_up(url: str, requests) -> None:
    from repro.runtime.server import post_detect

    for size in sorted(set(len(r) for r in requests)):
        post_detect(url, next(r for r in requests if len(r) == size))


def _served(times, outcomes):
    """Latencies (ms) and frame count of the requests that succeeded."""
    ok = [ms(t) for t in times if t is not None]
    return ok, sum(o.num_samples for o in outcomes if o is not None)


def run(name: str, seed: int, seconds: float, trace: bool) -> str:
    from repro.eval import SCENARIOS
    from repro.eval.harness import Workbench

    if trace:
        return _run_traced(name, seed, seconds)
    ref_before = host_ref_ms()
    defaults = serve_defaults()
    # the benchmark's own copy of the stack: traffic and reference answers
    workbench = Workbench(SCENARIOS[SCENARIO])
    requests = _Requests(workbench, seed)
    # each launch is followed by its share of the measured time, so the
    # run's figures average over the whole run's span of host speed
    setups, rss, times, outcomes, sent, wall = [], [], [], [], [], 0.0
    for _ in range(SETUP_REPEATS):
        server = ServeProcess()
        setups.append(server.setup_s)
        try:
            _warm_up(server.url, requests.bodies)
            part = closed_loop(server.url, requests, seconds / SETUP_REPEATS)
            rss.append(peak_rss_mb(process_tree(server.proc.pid)))
        finally:
            server.stop()
        times += part[0]
        outcomes += part[1]
        sent += part[2]
        wall += part[3]
    ref_after = host_ref_ms()
    latencies, samples = _served(times, outcomes)
    detector = workbench.detector(defaults.variant)
    threshold = workbench.calibrated_threshold(defaults.variant, defaults.fpr)
    failed = requests.failed(detector, threshold, sent, outcomes)
    auc = requests.auc(sent, outcomes)
    print(f"{name}: {len(times)} requests, {samples / wall:.1f} samples/s, "
          f"setups {', '.join(f'{s:.2f}' for s in setups)} s, host.ref_ms "
          f"{ref_before:.2f} -> {ref_after:.2f}")
    metrics = Metrics(declared_metrics(trace=False))
    metrics.put("setup_s", median(setups))
    metrics.put("throughput_sps", samples / wall)
    metrics.put("latency_p50_ms", median(latencies))
    metrics.put("latency_p95_ms", percentile(latencies, 95))
    metrics.put("rss_mb", median(rss))
    metrics.put("detect_auc", auc)
    return metrics.line(auc > 0.5, len(outcomes), failed)


def _run_traced(name: str, seed: int, seconds: float) -> str:
    from repro.runtime import DetectionEngine
    from repro.runtime.server import DetectionHTTPServer, post_detect

    ref_before = host_ref_ms()
    defaults = serve_defaults()
    tracer = Tracer()
    workbench, detector, setup_id = traced_setup(tracer, defaults.variant)
    threshold = workbench.calibrated_threshold(defaults.variant, defaults.fpr)
    requests = _Requests(workbench, seed)
    bodies = requests.bodies
    phase = seconds / 4
    outcomes: List[Optional[Outcome]] = []
    op_requests: List[int] = []

    def served(results, which):
        outcomes.extend(results)
        op_requests.extend(which)

    # 1. the real `repro serve` tree: CPU and threads of the program
    server = ServeProcess()
    try:
        _warm_up(server.url, bodies)
        pids = process_tree(server.proc.pid)
        cpu_before = cpu_seconds(pids)
        times, outs, sent, proc_wall = closed_loop(server.url, requests, phase)
        cpu_used = cpu_seconds(pids) - cpu_before
        threads = thread_count(pids)
    finally:
        server.stop()
    _, proc_samples = _served(times, outs)
    served(outs, sent)

    # 2. the same stack rebuilt in-process: engine, service, server
    with tracer.span("setup.start", setup_id):
        service = workbench.service(
            defaults.variant, num_workers=defaults.workers,
            batch_size=defaults.batch_size, scheduler=defaults.scheduler,
            threshold=threshold, slo_ms=defaults.slo_ms,
            transport=defaults.transport, pin_workers=defaults.pin,
            backend=defaults.backend,
        )
        service.start()
        front = DetectionHTTPServer(
            service, host=defaults.host, port=0,
            max_inflight=defaults.max_inflight,
        ).start()
    engine = DetectionEngine(detector, threshold=threshold,
                             batch_size=defaults.batch_size)
    pipeline = LayerPipeline(tracer, detector, threshold)
    try:
        _warm_up(front.url, bodies)
        # 2a. concurrency 2, untraced and traced rounds in turn: queue
        # wait (the service's window holds only these and the warm-up),
        # sharding, transport, and the tracing overhead
        shard_batches = {k: s.batches for k, s in service.shard_stats().items()}
        moved = service.transport_stats()
        rejected = front.stats_payload()["server"]["responses_429"]
        plain, traced = alternate(
            lambda: closed_loop(front.url, requests, 0),
            lambda: closed_loop(front.url, requests, 0, tracer), 2 * phase)
        for times, outs, sent, _ in (plain, traced):
            served(outs, sent)
        plain_samples = _served(plain[0], plain[1])[1]
        traced_samples = _served(traced[0], traced[1])[1]
        plain_wall, traced_wall = plain[3], traced[3]
        queue_wait = service.class_wait_stats()["standard"]["wait_ms_p50"]
        per_shard = [s.batches - shard_batches.get(k, 0)
                     for k, s in service.shard_stats().items()]
        after = service.transport_stats()
        moved = {key: after[key] - moved[key] for key in (
            "shm_batches", "queue_batches", "slot_fallbacks",
            "size_fallbacks", "shm_bytes_in", "shm_bytes_out")}

        # 2c. every 16-frame request one at a time through each depth
        # of the stack, all spans of a request under one trace id.  The in-process engine goes last, in a pass of its own, so
        # the parent's BLAS threads idle while the workers compute.
        single = [k for k, xs in enumerate(bodies) if len(xs) == 16]
        rtt, post_rtt, wall_ms, svc_rtt, svc_worker, engine_ms = (
            [] for _ in range(6))
        trace_ids = {k: tracer.new_trace() for k in single}
        for k in single:
            began = time.perf_counter()
            body = post_detect(front.url, bodies[k])
            rtt.append(ms(time.perf_counter() - began))
            served([Outcome.from_response(body)], [k])
            with tracer.span("client.post_detect", trace_ids[k]) as span:
                body = post_detect(front.url, bodies[k])
            tracer.add_child("server.handle", span, body["wall_ms"] / 1e3)
            post_rtt.append(ms(span["end"] - span["start"]))
            wall_ms.append(body["wall_ms"])
            served([Outcome.from_response(body)], [k])
            with tracer.span("service.roundtrip", trace_ids[k]) as span:
                result = service.submit(bodies[k]).result(timeout=60)
            tracer.add_child("service.worker_batch", span,
                             result.stats.total_seconds)
            svc_rtt.append(ms(span["end"] - span["start"]))
            svc_worker.append(ms(result.stats.total_seconds))
            served([Outcome(result.num_samples, result.scores,
                            result.predicted_classes, result.is_adversarial,
                            result.similarities)], [k])
        for k in single:
            began = time.perf_counter()
            engine.process_batch(bodies[k])
            engine_ms.append(ms(time.perf_counter() - began))
            served([Outcome.from_batch(pipeline(bodies[k], trace_ids[k]))], [k])
        rejected = front.stats_payload()["server"]["responses_429"] - rejected
    finally:
        front.close()
        service.stop()
    ref_after = host_ref_ms()

    failed = requests.failed(detector, threshold, op_requests, outcomes)
    auc = requests.auc(op_requests, outcomes)
    tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.json")

    metrics = Metrics(declared_metrics(trace=True))
    print(f"{name} traced (16-frame requests, one at a time):")
    engine_batch = median(engine_ms)
    explained = pipeline.put_layers(metrics, engine_batch)
    report_reconcile("in-process engine batch", engine_batch, explained)
    server_overhead = median(p - s for p, s in zip(post_rtt, svc_rtt))
    service_overhead = median(s - w for s, w in zip(svc_rtt, svc_worker))
    worker = median(svc_worker)
    metrics.put("service.roundtrip_ms", median(svc_rtt))
    metrics.put("service.worker_batch_ms", worker)
    metrics.put("service.overhead_ms", service_overhead)
    metrics.put("service.queue_wait_p50_ms", queue_wait)
    metrics.put("sharding.batch_imbalance", max(per_shard) / np.mean(per_shard))
    metrics.put("transport.shm_batches", moved["shm_batches"])
    metrics.put("transport.queue_batches", moved["queue_batches"])
    metrics.put("transport.fallbacks",
                moved["slot_fallbacks"] + moved["size_fallbacks"])
    metrics.put("transport.bytes_per_sample",
                (moved["shm_bytes_in"] + moved["shm_bytes_out"])
                / (plain_samples + traced_samples))
    metrics.put("server.wall_ms", median(wall_ms))
    metrics.put("server.overhead_ms", server_overhead)
    metrics.put("client.gap_ms", median(p - w for p, w in zip(post_rtt, wall_ms)))
    metrics.put("server.rejected_429", rejected)
    # the request's layers: client and server, service, worker batch
    request_ms = median(rtt)
    explained = server_overhead + service_overhead + worker
    metrics.put("http.unaccounted_ms", request_ms - explained)
    pct = report_reconcile("http request", request_ms, explained)
    print(f"  worker batch {worker:.3f} ms against {engine_batch:.3f} ms for "
          "the same chunk in the in-process engine")
    plain_sps = plain_samples / plain_wall
    overhead = 100.0 * (plain_sps / (traced_samples / traced_wall) - 1.0)
    print(f"  tracing overhead {overhead:+.1f}% of untraced {plain_sps:.1f} "
          f"samples/s (in-process stack, {CONNECTIONS} connections)")
    metrics.put("proc.cpu_ms_per_sample", ms(cpu_used) / proc_samples)
    metrics.put("proc.cpu_over_wall", cpu_used / proc_wall)
    metrics.put("proc.threads", threads)
    for key, value in setup_seconds(tracer).items():
        metrics.put(key, value)
    metrics.put("host.ref_ms", (ref_before + ref_after) / 2)
    metrics.put("trace.overhead_pct", overhead)
    metrics.put("trace.unaccounted_pct", pct)
    return metrics.line(auc > 0.5, len(outcomes), failed)
