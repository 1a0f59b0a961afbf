"""The batched detection engine: streaming workloads, warm caches.

:class:`DetectionEngine` is the deployment front-end of the
reproduction's online half.  It owns a fitted
:class:`~repro.core.detector.PtolemyDetector`, pre-packs the canary
class paths into their word-matrix form once (the warm cache every
batch gathers from), shapes arrivals into micro-batches, and runs each
batch through the vectorized pipeline with per-stage latency
accounting.  Results are bit-identical to per-sample
``detector.detect`` calls — batching is purely a throughput decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from repro.core.detector import BatchDetectionResult, PtolemyDetector
from repro.runtime.batching import MicroBatcher, iter_microbatches
from repro.runtime.stats import StageTimer, ThroughputStats

__all__ = ["DetectionEngine", "EngineRunResult", "measure_throughput"]


@dataclass
class EngineRunResult:
    """Concatenated decisions of one engine run plus its accounting."""

    scores: np.ndarray
    predicted_classes: np.ndarray
    is_adversarial: np.ndarray
    similarities: np.ndarray
    stats: ThroughputStats
    batch_results: List[BatchDetectionResult] = field(repr=False, default_factory=list)

    @property
    def num_samples(self) -> int:
        return self.scores.shape[0]

    @property
    def rejection_rate(self) -> float:
        if self.num_samples == 0:
            return 0.0
        return float(self.is_adversarial.mean())


class DetectionEngine:
    """Serves detection traffic through the batched pipeline.

    Parameters
    ----------
    detector:
        A profiled *and* classifier-fitted detector.
    threshold:
        Decision threshold applied to forest scores.
    batch_size:
        Micro-batch size for the streaming front-end and :meth:`run`.
    keep_batch_results:
        Retain every :class:`BatchDetectionResult` (packed paths
        included) on the run result.  Off by default: serving only
        needs the decision arrays.
    """

    def __init__(
        self,
        detector: PtolemyDetector,
        threshold: float = 0.5,
        batch_size: int = 64,
        keep_batch_results: bool = False,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if detector.class_paths is None:
            raise ValueError("detector must be profiled before deployment")
        if not detector._fitted:
            raise ValueError("detector classifier must be fitted")
        self.detector = detector
        self.threshold = threshold
        self.batch_size = batch_size
        self.keep_batch_results = keep_batch_results
        self.stats = ThroughputStats()
        self._run_stats: Optional[ThroughputStats] = None
        self._batcher = MicroBatcher(batch_size)
        self.last_batch_seconds = 0.0
        self.last_batch_stages: dict = {}
        # Warm the canary word-matrix cache now so the first batch does
        # not pay the packing cost.
        self.detector._packed_canaries()

    # -- deployment -----------------------------------------------------
    @classmethod
    def deploy(
        cls,
        detector: PtolemyDetector,
        x_calibration: np.ndarray,
        target_fpr: float = 0.05,
        batch_size: int = 64,
    ) -> "DetectionEngine":
        """Calibrate the threshold on held-out clean data (batched) and
        construct in one step — the engine twin of
        :meth:`repro.core.monitor.InferenceMonitor.deploy`."""
        from repro.core.monitor import calibrate_threshold

        threshold = calibrate_threshold(detector, x_calibration, target_fpr)
        return cls(detector, threshold=threshold, batch_size=batch_size)

    # -- batch path ----------------------------------------------------
    def process_batch(self, xs: np.ndarray) -> BatchDetectionResult:
        """Detect one prepared batch, with per-stage accounting."""
        timer = StageTimer()
        with timer.stage("total"):
            with timer.stage("extract"):
                features, extraction = self.detector.features_batch(xs)
            with timer.stage("classify"):
                scores = self.detector.classify_features(features)
        result = self.detector.assemble_batch_result(
            scores, features, extraction, self.threshold
        )
        total = timer.seconds.pop("total")
        self.stats.record(len(xs), total, stages=timer.seconds)
        if self._run_stats is not None:
            self._run_stats.record(len(xs), total, stages=timer.seconds)
        # Shard workers forward this per-batch accounting to the parent
        # instead of shipping whole ThroughputStats objects per result.
        self.last_batch_seconds = total
        self.last_batch_stages = dict(timer.seconds)
        return result

    # -- streaming front-end -------------------------------------------
    @property
    def pending(self) -> int:
        """Samples buffered but not yet processed."""
        return self._batcher.pending

    def submit(self, sample: np.ndarray) -> Optional[BatchDetectionResult]:
        """Buffer one arrival; returns decisions when a batch fills."""
        batch = self._batcher.add(sample)
        if batch is None:
            return None
        return self.process_batch(batch)

    def flush(self) -> Optional[BatchDetectionResult]:
        """Force out a partial batch (stream end / latency deadline)."""
        batch = self._batcher.flush()
        if batch is None:
            return None
        return self.process_batch(batch)

    # -- bulk runs ------------------------------------------------------
    def run(self, xs: np.ndarray) -> EngineRunResult:
        """Drive a whole workload through ``batch_size`` micro-batches."""
        return self._collect(iter_microbatches(xs, self.batch_size))

    def run_stream(
        self, samples: Iterable[np.ndarray]
    ) -> EngineRunResult:
        """Drive an arrival stream of single samples (buffered into
        micro-batches, with a final flush)."""

        def batches():
            for sample in samples:
                batch = self._batcher.add(np.asarray(sample))
                if batch is not None:
                    yield batch
            tail = self._batcher.flush()
            if tail is not None:
                yield tail

        return self._collect(batches())

    def _collect(self, batches: Iterable[np.ndarray]) -> EngineRunResult:
        scores: List[np.ndarray] = []
        predicted: List[np.ndarray] = []
        flagged: List[np.ndarray] = []
        sims: List[np.ndarray] = []
        kept: List[BatchDetectionResult] = []
        # The run result carries its own accounting; ``self.stats``
        # keeps accumulating over the engine's whole lifetime.
        run_stats = ThroughputStats()
        self._run_stats = run_stats
        try:
            for batch in batches:
                result = self.process_batch(batch)
                scores.append(result.scores)
                predicted.append(result.predicted_classes)
                flagged.append(result.is_adversarial)
                sims.append(result.similarities)
                if self.keep_batch_results:
                    kept.append(result)
        finally:
            self._run_stats = None
        if scores:
            return EngineRunResult(
                scores=np.concatenate(scores),
                predicted_classes=np.concatenate(predicted),
                is_adversarial=np.concatenate(flagged),
                similarities=np.concatenate(sims),
                stats=run_stats,
                batch_results=kept,
            )
        return EngineRunResult(
            scores=np.empty(0),
            predicted_classes=np.empty(0, dtype=np.int64),
            is_adversarial=np.empty(0, dtype=bool),
            similarities=np.empty(0),
            stats=run_stats,
            batch_results=kept,
        )


def measure_throughput(
    detector: PtolemyDetector,
    traffic: np.ndarray,
    batch_sizes=(1, 8, 64, 256),
    repeats: int = 2,
    threshold: float = 0.5,
) -> dict:
    """Samples/sec (and stage split) per micro-batch size.

    The one measurement harness behind both the CLI ``throughput``
    command and ``benchmarks/bench_runtime_throughput.py`` (which the
    CI perf gate reuses), so their numbers can never drift.  Each batch
    size gets a warm-up pass plus ``repeats`` timed passes; the best
    pass is reported (least scheduler noise), with the first pass's
    scores and rejection rate attached for equivalence checks and
    operator display.
    """
    results = {}
    for batch_size in batch_sizes:
        engine = DetectionEngine(
            detector,
            threshold=threshold,
            batch_size=batch_size,
        )
        engine.run(traffic[: min(len(traffic), 2 * batch_size)])  # warm
        best = None
        scores = None
        rejection_rate = 0.0
        for _ in range(repeats):
            run = engine.run(traffic)
            if scores is None:
                scores = run.scores
                rejection_rate = run.rejection_rate
            report = run.stats.report()
            if best is None or (
                report["samples_per_sec"] > best["samples_per_sec"]
            ):
                best = report
        best["scores"] = scores
        best["rejection_rate"] = rejection_rate
        results[batch_size] = best
    return results
