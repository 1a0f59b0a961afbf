"""Throughput and latency accounting for the detection engine.

The ROADMAP's north star is "fast as the hardware allows, heavy
traffic"; these counters are how every batching decision is judged:
samples/sec overall, per-stage time split (inference+extraction vs
similarity vs classification), and per-batch latency percentiles.
The CLI and the benchmark suite read the same report dict.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

import numpy as np

__all__ = ["StageTimer", "ThroughputStats", "LATENCY_WINDOW"]

#: Per-batch latencies kept for percentile reporting.  Totals (samples,
#: batches, seconds) are exact over the stats object's lifetime; only
#: the latency distribution is windowed, so a long-lived streaming
#: engine stays O(1) in memory.
LATENCY_WINDOW = 4096


class StageTimer:
    """Accumulates wall-clock seconds per named pipeline stage.

    Usage::

        timer = StageTimer()
        with timer.stage("extract"):
            ...
    """

    def __init__(self):
        self.seconds: Dict[str, float] = {}

    def stage(self, name: str) -> "_StageContext":
        return _StageContext(self, name)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def merge(self, other: "StageTimer") -> None:
        for name, seconds in other.seconds.items():
            self.add(name, seconds)


class _StageContext:
    __slots__ = ("_timer", "_name", "_start")

    def __init__(self, timer: StageTimer, name: str):
        self._timer = timer
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_StageContext":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._timer.add(self._name, time.perf_counter() - self._start)


@dataclass
class ThroughputStats:
    """Rolling totals over every batch the engine has processed.

    Counters and stage times are exact lifetime totals; the per-batch
    latency distribution (mean / percentiles) is computed over the last
    :data:`LATENCY_WINDOW` batches so a persistent streaming engine
    never grows without bound.
    """

    samples: int = 0
    batches: int = 0
    total_seconds: float = 0.0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    batch_latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )

    def record(
        self,
        batch_size: int,
        seconds: float,
        stages: Optional[Dict[str, float]] = None,
    ) -> None:
        """Account one processed batch."""
        self.samples += batch_size
        self.batches += 1
        self.total_seconds += seconds
        self.batch_latencies.append(seconds)
        if stages:
            for name, stage_seconds in stages.items():
                self.stage_seconds[name] = (
                    self.stage_seconds.get(name, 0.0) + stage_seconds
                )

    def merge(self, other: "ThroughputStats") -> "ThroughputStats":
        """Fold another stats object into this one (in place).

        Used by the sharded service to aggregate per-shard accounting:
        counters and stage seconds add exactly; the latency windows
        concatenate (still bounded by :data:`LATENCY_WINDOW`).  Note
        that ``total_seconds`` sums *engine* time across shards — for
        shards running in parallel that is more than wall-clock time,
        so service-level throughput is reported from wall clock, not
        from a merged stats object.
        """
        self.samples += other.samples
        self.batches += other.batches
        self.total_seconds += other.total_seconds
        self.batch_latencies.extend(other.batch_latencies)
        for name, seconds in other.stage_seconds.items():
            self.stage_seconds[name] = (
                self.stage_seconds.get(name, 0.0) + seconds
            )
        return self

    @property
    def samples_per_sec(self) -> float:
        if self.total_seconds <= 0.0:
            return 0.0
        return self.samples / self.total_seconds

    @property
    def mean_batch_latency_ms(self) -> float:
        if not self.batch_latencies:
            return 0.0
        return float(np.mean(np.asarray(self.batch_latencies))) * 1e3

    def latency_percentile_ms(self, q: float) -> float:
        """Windowed per-batch latency percentile (``q`` in [0, 100])."""
        if not self.batch_latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.batch_latencies), q)) * 1e3

    def report(self) -> Dict[str, float]:
        """JSON-safe summary of the counters."""
        out: Dict[str, float] = {
            "samples": float(self.samples),
            "batches": float(self.batches),
            "total_seconds": self.total_seconds,
            "samples_per_sec": self.samples_per_sec,
            "mean_batch_latency_ms": self.mean_batch_latency_ms,
            "p95_batch_latency_ms": self.latency_percentile_ms(95.0),
        }
        for name, seconds in sorted(self.stage_seconds.items()):
            out[f"stage_{name}_seconds"] = seconds
        return out

    def summary(self) -> str:
        """One-line operator-facing view."""
        return (
            f"{self.samples} samples in {self.batches} batches, "
            f"{self.samples_per_sec:.1f} samples/s, "
            f"mean batch latency {self.mean_batch_latency_ms:.2f} ms"
        )
