"""Seeded chaos injection for the sharded runtime.

The service's recovery machinery (dead-worker requeue, heartbeat
watchdog, in-flight redelivery) is only worth
trusting if it is exercised the way production fails: several fault
shapes, at awkward moments, under live traffic.  This module turns the
service's one-off injection hooks into a *deterministic storm*:

- :class:`FaultSpec` — one scheduled fault: a worker hard-crash, a
  worker hang (alive but unresponsive), a per-batch slowdown, or a
  dropped dispatch message.  Faults fire by request index or by wall-clock
  offset, whichever the spec pins.
- :class:`ChaosPlan` — an ordered set of specs; ``ChaosPlan.storm``
  derives a reproducible plan from a seed (same seed → same plan).
- :class:`FaultInjector` — binds a plan to a live
  :class:`~repro.runtime.service.ShardedDetectionService` and fires
  each due spec at most once as the driver polls it.
- :func:`run_chaos_drill` — the ``repro chaos`` entry point: boots a
  real service, submits a stream of requests while the storm lands,
  and fails unless **zero** requests are lost and every score vector
  is bit-identical to a single-process
  :class:`~repro.runtime.engine.DetectionEngine` reference.

Determinism caveat: the *plan* is deterministic, but which shard a
fault lands on depends on scheduling at fire time.  The drill's
invariants (no losses, bit-identity) are scheduling-independent, which
is exactly why they are the ones asserted.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.runtime.service import ServiceError

__all__ = [
    "FAULT_KINDS",
    "ChaosPlan",
    "FaultInjector",
    "FaultSpec",
    "run_chaos_drill",
    "score_digest",
]

#: Every fault shape the injector can land, in severity order.
FAULT_KINDS = ("crash", "hang", "slow", "drop")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Exactly one of ``at_request`` (fire before submitting that request
    index) or ``at_seconds`` (fire once that much wall-clock has
    elapsed) must be set.  ``arg`` is kind-specific: the per-batch
    delay in seconds for ``slow`` (``0`` restores full speed), the
    number of armed batches for ``drop``, unused otherwise.
    """

    kind: str
    at_request: Optional[int] = None
    at_seconds: Optional[float] = None
    arg: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if (self.at_request is None) == (self.at_seconds is None):
            raise ValueError(
                "set exactly one of at_request= or at_seconds="
            )

    def due(self, request_index: int, elapsed: float) -> bool:
        if self.at_request is not None:
            return request_index >= self.at_request
        return elapsed >= float(self.at_seconds)


@dataclass
class ChaosPlan:
    """An ordered, reproducible set of scheduled faults."""

    faults: List[FaultSpec] = field(default_factory=list)
    seed: Optional[int] = None
    #: request-stream length the plan was built for (storm sets it);
    #: used as the denominator for slow coverage accounting
    num_requests: Optional[int] = None

    @classmethod
    def storm(
        cls,
        seed: int,
        num_requests: int,
        *,
        slow_fraction: float = 0.3,
        slow_delay: float = 0.02,
    ) -> "ChaosPlan":
        """A seeded full-coverage storm over ``num_requests`` requests:
        at least one crash, one hang, one dropped batch message, and a
        slowdown window covering ``slow_fraction`` of
        the request stream (default well above the 20% floor the chaos
        gate requires).  Same seed and size → same plan, always."""
        if num_requests < 6:
            raise ValueError("a storm needs at least 6 requests")
        rng = random.Random(seed)
        third = max(1, num_requests // 3)
        slow_len = max(1, math.ceil(slow_fraction * num_requests))
        slow_start = rng.randrange(1, max(2, num_requests - slow_len))
        faults = [
            FaultSpec("slow", at_request=slow_start, arg=slow_delay),
            FaultSpec("slow", at_request=slow_start + slow_len, arg=0.0),
            FaultSpec("hang", at_request=rng.randrange(1, third + 1)),
            FaultSpec(
                "crash",
                at_request=rng.randrange(third + 1, 2 * third + 1),
            ),
            FaultSpec(
                "drop",
                at_request=rng.randrange(third + 1, 2 * third + 1),
                arg=1,
            ),
        ]
        return cls(faults=faults, seed=seed, num_requests=num_requests)

    @property
    def slow_request_fraction(self) -> float:
        """Fraction of the request stream (by index span) covered by an
        active slowdown, for plans scheduled by request index."""
        windows = sorted(
            (f.at_request, f.arg)
            for f in self.faults
            if f.kind == "slow" and f.at_request is not None
        )
        if not windows:
            return 0.0
        total = 0
        span_end = self.num_requests or max(
            (f.at_request for f in self.faults if f.at_request is not None),
            default=0,
        )
        active_since: Optional[int] = None
        for at, arg in windows:
            if arg > 0 and active_since is None:
                active_since = at
            elif arg == 0 and active_since is not None:
                total += at - active_since
                active_since = None
        if active_since is not None:
            total += max(span_end, active_since) - active_since
        return total / max(1, span_end)


class FaultInjector:
    """Binds a :class:`ChaosPlan` to a live service and fires each due
    fault exactly once as the driver polls it.

    ``slow`` faults land on *every* live shard (so the slow window
    covers the whole pool, not one worker); ``crash``/``hang`` pick the
    service's default target; ``drop`` arms the service-wide
    counter.  A fault whose target vanished between scheduling and
    firing (e.g. the shard it would hang was already reaped) is
    recorded as skipped, never raised.
    """

    def __init__(self, service, plan: ChaosPlan):
        self.service = service
        self.plan = plan
        self.fired: List[dict] = []
        self._remaining = list(plan.faults)
        self._hung: set = set()
        self._started_at = time.monotonic()

    def poll(self, request_index: int) -> List[dict]:
        """Fire every not-yet-fired spec that is due at this request
        index / elapsed time; returns the records fired this call."""
        elapsed = time.monotonic() - self._started_at
        due = [
            spec
            for spec in self._remaining
            if spec.due(request_index, elapsed)
        ]
        records = []
        for spec in due:
            self._remaining.remove(spec)
            records.append(self._fire(spec, request_index, elapsed))
        self.fired.extend(records)
        return records

    def drained(self) -> bool:
        return not self._remaining

    def _fire(self, spec: FaultSpec, index: int, elapsed: float) -> dict:
        record = {
            "kind": spec.kind,
            "at_request": spec.at_request,
            "at_seconds": spec.at_seconds,
            "arg": spec.arg,
            "fired_at_request": index,
            "fired_at_seconds": round(elapsed, 3),
            "shards": [],
            "skipped": False,
        }
        try:
            if spec.kind == "crash":
                # avoid shards this injector already hung: a crash
                # message queued at a hung worker is never read, so the
                # "crash" would silently degrade into a second hang
                record["shards"] = [
                    self.service.inject_crash(self._crash_target())
                ]
            elif spec.kind == "hang":
                shard = self.service.inject_hang()
                self._hung.add(shard)
                record["shards"] = [shard]
            elif spec.kind == "slow":
                for shard_id in self.service.live_shards():
                    try:
                        self.service.inject_slowdown(spec.arg, shard_id)
                    except ServiceError:
                        continue  # reaped between listing and injection
                    record["shards"].append(shard_id)
            elif spec.kind == "drop":
                self.service.inject_descriptor_drop(max(1, int(spec.arg)))
        except ServiceError as exc:
            record["skipped"] = True
            record["error"] = str(exc)
        return record

    def _crash_target(self) -> Optional[int]:
        for shard_id in self.service.live_shards():
            if shard_id not in self._hung:
                return shard_id
        return None


def score_digest(scores: np.ndarray) -> str:
    """Canonical digest of a score vector: sha256 over the contiguous
    float bytes, so "bit-identical" is checkable across processes."""
    return hashlib.sha256(
        np.ascontiguousarray(scores).tobytes()
    ).hexdigest()


def run_chaos_drill(
    seed: int = 0,
    *,
    smoke: bool = False,
    num_requests: Optional[int] = None,
    num_workers: int = 2,
    batch_size: int = 8,
    hang_timeout: float = 2.0,
    task_timeout: float = 5.0,
    result_timeout: float = 240.0,
) -> dict:
    """Run a seeded fault storm against a live service and report.

    Boots a real :class:`ShardedDetectionService`, computes the
    single-process :class:`DetectionEngine` reference for the workload,
    then submits ``num_requests`` identical requests while the storm
    lands (≥1 crash, ≥1 hang, ≥1 dropped batch message, and a
    slowdown window over ≥20% of the stream).

    The drill *passes* only if zero requests are lost (every future
    resolves) and every response's score digest is bit-identical to
    the engine reference.  Returns a JSON-serializable recovery report
    (fault records, per-respawn latency, retry counts);
    ``report["passed"]`` carries the verdict — the CLI turns it into
    the exit code.
    """
    from repro.eval import Workbench, workloads
    from repro.runtime.engine import DetectionEngine
    from repro.runtime.service import ShardedDetectionService

    if smoke:
        workloads.shrink_for_smoke()
    if num_requests is None:
        num_requests = 24 if smoke else 60
    workbench = Workbench.get("alexnet_imagenet")
    detector = workbench.detector("FwAb")
    n_samples = 16 if smoke else 32
    xs = workbench.dataset.x_test[:n_samples]

    reference = DetectionEngine(detector, batch_size=batch_size).run(xs)
    reference_digest = score_digest(reference.scores)

    plan = ChaosPlan.storm(seed, num_requests)
    service = ShardedDetectionService(
        detector,
        model_factory=workbench.model_factory,
        num_workers=num_workers,
        batch_size=batch_size,
        threshold=workbench.calibrated_threshold("FwAb", 0.1),
        max_restarts=4 * num_workers,
        hang_timeout=hang_timeout,
        task_timeout=task_timeout,
    )
    started_at = time.monotonic()
    futures = []
    try:
        service.start()
        injector = FaultInjector(service, plan)
        for index in range(num_requests):
            injector.poll(index)
            futures.append(service.submit(xs))
            # pace the stream so the storm lands *under* traffic, not
            # after the queue has already drained
            time.sleep(0.01)
        lost = 0
        mismatches = 0
        errors: List[str] = []
        deadline = time.monotonic() + result_timeout
        for future in futures:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                result = future.result(timeout=remaining)
            except ServiceError as exc:
                lost += 1
                errors.append(repr(exc))
                continue
            if score_digest(result.scores) != reference_digest:
                mismatches += 1
        fault_stats = service.fault_stats()
        spawn_seconds = fault_stats.pop("spawn_to_ready_seconds")
    finally:
        service.stop()
    elapsed = time.monotonic() - started_at

    respawns = spawn_seconds[num_workers:]
    retries = fault_stats["redelivered_tasks"]
    storm_complete = (
        fault_stats["injected_crashes"] >= 1
        and fault_stats["injected_hangs"] >= 1
        # the crash-reap and the watchdog hung-reap both actually ran
        and fault_stats["dead_reaps"] >= 2
        and fault_stats["hung_reaps"] >= 1
        and plan.slow_request_fraction >= 0.2
    )
    passed = lost == 0 and mismatches == 0 and storm_complete
    return {
        "seed": seed,
        "smoke": smoke,
        "requests": num_requests,
        "samples_per_request": int(len(xs)),
        "batch_size": batch_size,
        "num_workers": num_workers,
        "elapsed_seconds": round(elapsed, 3),
        "faults": injector.fired,
        "slow_request_fraction": round(plan.slow_request_fraction, 3),
        "fault_stats": fault_stats,
        "time_to_respawn_seconds": [round(s, 3) for s in respawns],
        "initial_spawn_seconds": [
            round(s, 3) for s in spawn_seconds[:num_workers]
        ],
        "retries": retries,
        "lost_requests": lost,
        "digest_mismatches": mismatches,
        "errors": errors,
        "reference_digest": reference_digest,
        "storm_complete": storm_complete,
        "passed": passed,
    }
