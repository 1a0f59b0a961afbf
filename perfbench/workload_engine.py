"""In-process engine workloads: ``DetectionEngine.process_batch``, batch
by batch, over a seeded mixed benign and BIM stream.

``engine_fwab`` is the paper's bulk detection cost next to inference
(the NN forward dominates); ``engine_bwcu`` is the most accurate and
most costly variant, where the per-sample backward walk of the path
extractor dominates.  Neither touches the runtime's IPC.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from checks import FramePool, Outcome, failed_ops
from common import (
    OUT_DIR,
    SCENARIO,
    SETUP_REPEATS,
    TARGET_FPR,
    Metrics,
    Tracer,
    cpu_seconds,
    declared_metrics,
    host_ref_ms,
    median,
    ms,
    peak_rss_mb,
    percentile,
    roc_auc,
    thread_count,
)


@dataclass(frozen=True)
class EngineWorkload:
    variant: str
    batch_size: int
    #: a round holds 3 * copies frames per benign pool frame; a run
    #: repeats whole rounds until its time is up
    copies: int
    #: frames given the independent check
    checked: int


WORKLOADS = {
    # 2880 frames a round: 45 full batches
    "engine_fwab": EngineWorkload("FwAb", batch_size=64, copies=32,
                                  checked=16),
    # batch 1: one BwCu frame takes ~30 ms, so a 10 s run times ~360
    # batches and its p95 has a tail to stand on
    "engine_bwcu": EngineWorkload("BwCu", batch_size=1, copies=1,
                                  checked=6),
}

#: Layer spans of one traced batch, in pipeline order.
LAYERS = ("nn.forward", "extraction.extract", "similarity.kernel",
          "classifier.forest")
#: Per-layer metrics of the serving stack, which an in-process engine
#: never passes through: they read 0 here.
OFF_PATH = (
    "service.roundtrip_ms", "service.worker_batch_ms", "service.overhead_ms",
    "service.queue_wait_p50_ms", "sharding.batch_imbalance",
    "transport.shm_batches", "transport.queue_batches", "transport.fallbacks",
    "transport.bytes_per_sample", "server.wall_ms", "server.overhead_ms",
    "client.gap_ms", "server.rejected_429", "http.unaccounted_ms",
)
#: Largest share of the untraced batch time the layer spans may leave
#: unexplained before the trace counts as not reconciled.
RECONCILE_TOL_PCT = 10.0


def deploy(spec: EngineWorkload):
    """The user's set-up: build the workbench (train), profile, fit,
    calibrate and construct the engine."""
    from repro.eval import SCENARIOS
    from repro.eval.harness import Workbench
    from repro.runtime import DetectionEngine

    workbench = Workbench(SCENARIOS[SCENARIO])
    detector = workbench.detector(spec.variant)
    threshold = workbench.calibrated_threshold(spec.variant, TARGET_FPR)
    engine = DetectionEngine(detector, threshold=threshold,
                             batch_size=spec.batch_size)
    return workbench, engine


def rounds_done(start: float, round_start: float, seconds: float) -> bool:
    """Whether a run of whole rounds that began at ``start`` should end
    after the round that began at ``round_start``: it ends as close to
    ``seconds`` as whole rounds allow."""
    now = time.perf_counter()
    return now - start + (now - round_start) / 2 >= seconds


def drive(process, batches, seconds: float):
    """Whole rounds over ``batches`` for about ``seconds``.  Returns
    per-batch seconds, outcomes and the loop's wall time."""
    times, outcomes = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for batch in batches:
            began = time.perf_counter()
            result = process(batch)
            times.append(time.perf_counter() - began)
            outcomes.append(Outcome.from_batch(result))
        if rounds_done(start, round_start, seconds):
            return times, outcomes, time.perf_counter() - start


class _Stream:
    """One round of the workload's frames, cut into batches."""

    def __init__(self, workbench, spec: EngineWorkload, seed: int):
        self.pool = FramePool(workbench)
        idx = self.pool.stream(spec.copies, seed)
        self.truth = self.pool.truth[idx]
        self.batch_idx = [idx[i : i + spec.batch_size]
                          for i in range(0, len(idx), spec.batch_size)]
        self.batches = [self.pool.frames[b] for b in self.batch_idx]
        self.spec, self.seed = spec, seed

    def failed(self, engine, outcomes, per_batch: int = 1) -> int:
        """Failed operations among ``outcomes``: round after round of
        the stream's batches, each answered ``per_batch`` times."""
        checks = self.pool.checks(engine.detector, engine.threshold,
                                  self.seed, self.spec.checked)
        ops = [self.batch_idx[k // per_batch % len(self.batch_idx)]
               for k in range(len(outcomes))]
        return failed_ops(checks, ops, outcomes)

    def auc(self, outcomes) -> float:
        first = outcomes[:len(self.batches)]
        return roc_auc(self.truth, np.concatenate([o.scores for o in first]))


def run(name: str, seed: int, seconds: float, trace: bool) -> str:
    spec = WORKLOADS[name]
    if trace:
        return _run_traced(name, spec, seed, seconds)
    ref_before = host_ref_ms()
    # each set-up is followed by its share of the measured time, so the
    # run's figures average over the whole run's span of host speed
    setups, times, outcomes, wall, stream = [], [], [], 0.0, None
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        workbench, engine = deploy(spec)
        setups.append(time.perf_counter() - began)
        if stream is None:
            stream = _Stream(workbench, spec, seed)
        engine.process_batch(stream.batches[0])  # warm the caches
        part = drive(engine.process_batch, stream.batches,
                     seconds / SETUP_REPEATS)
        times += part[0]
        outcomes += part[1]
        wall += part[2]
    ref_after = host_ref_ms()
    samples = sum(o.num_samples for o in outcomes)
    auc = stream.auc(outcomes)
    failed = stream.failed(engine, outcomes)
    batch_ms = [ms(t) for t in times]
    print(f"{name}: {len(times)} batches of {spec.batch_size}, "
          f"{samples / wall:.1f} samples/s, host.ref_ms "
          f"{ref_before:.2f} -> {ref_after:.2f}")
    metrics = Metrics(declared_metrics(trace=False))
    metrics.put("setup_s", median(setups))
    metrics.put("throughput_sps", samples / wall)
    metrics.put("latency_p50_ms", median(batch_ms))
    metrics.put("latency_p95_ms", percentile(batch_ms, 95))
    metrics.put("rss_mb", peak_rss_mb([os.getpid()]))
    metrics.put("detect_auc", auc)
    return metrics.line(auc > 0.5, len(outcomes), failed)


def traced_setup(tracer: Tracer, variant: str):
    """Build the workbench and detector like :func:`deploy`, with spans
    around the workbench build and its profile and fit calls."""
    from repro.core import PtolemyDetector
    from repro.eval import SCENARIOS
    from repro.eval.harness import Workbench

    setup_id = tracer.new_trace()
    with tracer.span("setup.train", setup_id):
        workbench = Workbench(SCENARIOS[SCENARIO])
    wrapped = [(PtolemyDetector, "profile", "setup.profile"),
               (PtolemyDetector, "fit_classifier", "setup.fit"),
               (Workbench, "attack_fit", "setup.fit")]
    with tracer.wrapping(wrapped, setup_id):
        detector = workbench.detector(variant)
    return workbench, detector, setup_id


def setup_seconds(tracer: Tracer) -> dict:
    return {f"setup.{key}_s": sum(tracer.per_trace_ms(f"setup.{key}").values()) / 1e3
            for key in ("train", "profile", "fit", "start")}


class LayerPipeline:
    """``process_batch`` as its layers' public calls, one span each:
    forward, extraction from the cached forward, similarity kernels
    (with the canary gather), forest."""

    def __init__(self, tracer: Tracer, detector, threshold: float):
        self.tracer, self.detector, self.threshold = tracer, detector, threshold
        self.canaries = detector.class_paths.packed()
        #: bytes the two similarity kernels read per sample, computed
        #: from the packed word matrices' sizes
        self.sim_bytes = []

    def __call__(self, xs: np.ndarray, trace_id: int):
        from repro.core.path import batch_path_similarity, batch_per_tap_similarity

        tracer, detector = self.tracer, self.detector
        with tracer.span("engine.batch", trace_id):
            with tracer.span("nn.forward", trace_id):
                detector.model.forward(xs)
            with tracer.span("extraction.extract", trace_id):
                extraction = detector.extractor.extract_batch(
                    xs, reuse_forward=True)
            with tracer.span("similarity.kernel", trace_id):
                rows, _ = self.canaries.rows_for(extraction.predicted_classes)
                sims = batch_path_similarity(
                    extraction.packed, rows, kernels=detector.kernels)
                features = sims[:, None]
                if detector.feature_mode == "per_layer":
                    per_tap = batch_per_tap_similarity(
                        extraction.packed, rows, kernels=detector.kernels)
                    features = np.concatenate([features, per_tap], axis=1)
            with tracer.span("classifier.forest", trace_id):
                scores = detector.classify_features(features)
            result = detector.assemble_batch_result(
                scores, features, extraction, self.threshold)
        self.sim_bytes.append(
            2 * (extraction.packed.words.nbytes + rows.nbytes) / len(xs))
        return result

    def put_layers(self, metrics: Metrics, batch_ms: float) -> float:
        """Put the layer and engine metrics; returns the layers' sum."""
        layer_ms = {layer: median(self.tracer.self_ms(layer).values())
                    for layer in LAYERS}
        metrics.put("nn.forward_ms", layer_ms["nn.forward"])
        metrics.put("extraction.extract_ms", layer_ms["extraction.extract"])
        metrics.put("similarity.kernel_ms", layer_ms["similarity.kernel"])
        metrics.put("similarity.bytes_per_sample", median(self.sim_bytes))
        metrics.put("classifier.forest_ms", layer_ms["classifier.forest"])
        metrics.put("engine.batch_ms", batch_ms)
        metrics.put("engine.unaccounted_ms", batch_ms - sum(layer_ms.values()))
        metrics.put("engine.overhead_over_forward",
                    (batch_ms - layer_ms["nn.forward"]) / layer_ms["nn.forward"])
        print("  layers: " + ", ".join(f"{k} {v:.3f} ms" for k, v in layer_ms.items())
              + f"; untraced batch {batch_ms:.3f} ms")
        return sum(layer_ms.values())


def report_reconcile(label: str, wall_ms: float, explained_ms: float) -> float:
    """Print whether the layer self-times explain the untraced wall
    time within the tolerance; returns the unexplained share in %."""
    pct = 100.0 * (wall_ms - explained_ms) / wall_ms
    verdict = "reconciled" if abs(pct) <= RECONCILE_TOL_PCT else "NOT reconciled"
    print(f"  {label}: layers explain {explained_ms:.3f} of {wall_ms:.3f} ms, "
          f"remainder {pct:+.1f}% (tolerance {RECONCILE_TOL_PCT:.0f}%): {verdict}")
    return pct


def _run_traced(name: str, spec: EngineWorkload, seed: int,
                seconds: float) -> str:
    from repro.runtime import DetectionEngine

    ref_before = host_ref_ms()
    tracer = Tracer()
    workbench, detector, setup_id = traced_setup(tracer, spec.variant)
    with tracer.span("setup.start", setup_id):
        threshold = workbench.calibrated_threshold(spec.variant, TARGET_FPR)
        engine = DetectionEngine(detector, threshold=threshold,
                                 batch_size=spec.batch_size)
    stream = _Stream(workbench, spec, seed)
    batches = stream.batches
    engine.process_batch(batches[0])

    # every batch untraced (the wall the layer spans must explain),
    # then traced, so both see the same host
    pipeline = LayerPipeline(tracer, detector, threshold)
    plain_times, traced_times, outcomes = [], [], []
    pid = os.getpid()
    cpu_before = cpu_seconds([pid])
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for xs in batches:
            began = time.perf_counter()
            result = engine.process_batch(xs)
            plain_times.append(time.perf_counter() - began)
            outcomes.append(Outcome.from_batch(result))
            began = time.perf_counter()
            result = pipeline(xs, tracer.new_trace())
            traced_times.append(time.perf_counter() - began)
            outcomes.append(Outcome.from_batch(result))
        if rounds_done(start, round_start, seconds):
            break
    wall = time.perf_counter() - start
    cpu_used = cpu_seconds([pid]) - cpu_before
    threads = thread_count([pid])
    ref_after = host_ref_ms()
    samples = sum(o.num_samples for o in outcomes)
    failed = stream.failed(engine, outcomes, per_batch=2)
    auc = stream.auc(outcomes[::2])
    tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.json")

    metrics = Metrics(declared_metrics(trace=True))
    batch_ms = median(ms(t) for t in plain_times)
    print(f"{name} traced:")
    explained = pipeline.put_layers(metrics, batch_ms)
    pct = report_reconcile("engine batch", batch_ms, explained)
    overhead = 100.0 * (sum(traced_times) / sum(plain_times) - 1.0)
    print(f"  tracing overhead {overhead:+.1f}% of untraced "
          f"{samples / 2 / sum(plain_times):.1f} samples/s")
    for off_path in OFF_PATH:
        metrics.put(off_path, 0.0)
    metrics.put("proc.cpu_ms_per_sample", ms(cpu_used) / samples)
    metrics.put("proc.cpu_over_wall", cpu_used / wall)
    metrics.put("proc.threads", threads)
    for key, value in setup_seconds(tracer).items():
        metrics.put(key, value)
    metrics.put("host.ref_ms", (ref_before + ref_after) / 2)
    metrics.put("trace.overhead_pct", overhead)
    metrics.put("trace.unaccounted_pct", pct)
    return metrics.line(auc > 0.5, len(outcomes), failed)
