"""Shard scheduling for the multi-worker detection service.

The sharded service fans micro-batches out over a pool of worker
processes; a :class:`ShardScheduler` decides which shard each batch
goes to.  Two policies ship by default:

``round-robin``
    Deterministic rotation over the live shards — equal batches get
    equal shares, and the dispatch order is reproducible.

``least-loaded``
    Route to the shard with the fewest in-flight samples (ties break
    to the lowest shard id).  Better when batch costs are skewed or a
    shard is temporarily slow (e.g. right after a respawn).

Schedulers only ever see :class:`ShardLoad` snapshots, never the
worker processes themselves, so policies stay trivially testable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.runtime.stats import ThroughputStats

__all__ = [
    "ShardLoad",
    "ShardScheduler",
    "RoundRobinScheduler",
    "LeastLoadedScheduler",
    "SCHEDULERS",
    "make_scheduler",
    "merge_shard_stats",
    "plan_worker_affinity",
]


@dataclass(frozen=True)
class ShardLoad:
    """One shard's load snapshot at scheduling time."""

    shard_id: int
    inflight_batches: int
    inflight_samples: int
    dispatched_batches: int


class ShardScheduler:
    """Chooses the destination shard for one micro-batch."""

    name = "base"

    def choose(self, shards: Sequence[ShardLoad]) -> int:
        """Return the ``shard_id`` the next batch should go to.

        ``shards`` is never empty and contains only live, ready shards.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Forget any internal cursor (called when the pool changes)."""


class RoundRobinScheduler(ShardScheduler):
    """Deterministic rotation over the live shards."""

    name = "round-robin"

    def __init__(self):
        self._cursor = 0

    def choose(self, shards: Sequence[ShardLoad]) -> int:
        shard = shards[self._cursor % len(shards)]
        self._cursor += 1
        return shard.shard_id

    def reset(self) -> None:
        self._cursor = 0


class LeastLoadedScheduler(ShardScheduler):
    """Route to the shard with the fewest in-flight samples."""

    name = "least-loaded"

    def choose(self, shards: Sequence[ShardLoad]) -> int:
        best = min(
            shards, key=lambda s: (s.inflight_samples, s.shard_id)
        )
        return best.shard_id


#: Name -> scheduler class, the registry behind ``--scheduler``.
SCHEDULERS = {
    RoundRobinScheduler.name: RoundRobinScheduler,
    LeastLoadedScheduler.name: LeastLoadedScheduler,
}


def make_scheduler(
    scheduler: Union[str, ShardScheduler],
) -> ShardScheduler:
    """Resolve a scheduler name (or pass an instance through)."""
    if isinstance(scheduler, ShardScheduler):
        return scheduler
    try:
        return SCHEDULERS[scheduler]()
    except KeyError:
        known = ", ".join(sorted(SCHEDULERS))
        raise ValueError(
            f"unknown scheduler {scheduler!r}; known: {known}"
        ) from None


def plan_worker_affinity(
    num_workers: int,
    available: Optional[Sequence[int]] = None,
) -> Optional[List[Tuple[int, ...]]]:
    """One CPU-affinity set per worker slot, or ``None`` when the
    platform cannot pin (no ``sched_setaffinity``, e.g. macOS).

    The CPUs this process may use are partitioned round-robin so every
    worker gets a disjoint, near-equal share; with more workers than
    CPUs the sets wrap to single CPUs instead.  Workers apply their set
    with ``os.sched_setaffinity`` at startup, which stops the scheduler
    migrating a shard (and its warm caches) across cores mid-run.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be positive")
    if not hasattr(os, "sched_getaffinity") or not hasattr(
        os, "sched_setaffinity"
    ):
        return None
    if available is None:
        available = sorted(os.sched_getaffinity(0))
    else:
        available = sorted(available)
    if not available:
        return None
    plan: List[Tuple[int, ...]] = []
    for slot in range(num_workers):
        if num_workers <= len(available):
            cpus = tuple(available[slot::num_workers])
        else:
            cpus = (available[slot % len(available)],)
        plan.append(cpus)
    return plan


def merge_shard_stats(
    shard_stats: Dict[int, ThroughputStats],
) -> ThroughputStats:
    """Fold per-shard accounting into one aggregate ThroughputStats.

    Counters and stage seconds add exactly; ``total_seconds`` sums
    engine time across shards (more than wall clock when shards run in
    parallel), so wall-clock throughput lives on the service result,
    not here.
    """
    merged = ThroughputStats()
    for shard_id in sorted(shard_stats):
        merged.merge(shard_stats[shard_id])
    return merged
