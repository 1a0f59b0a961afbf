"""The sharded service's request lifecycle as one I/O-free state machine.

:class:`LifecycleCore` owns all request → task → seq → shard →
completion bookkeeping of
:class:`~repro.runtime.service.ShardedDetectionService`.  It is
single-threaded and never touches a process, a queue, a clock or a
future: the service's threads feed it events (with the time) under
the service lock and carry out the :class:`Effects` it returns.

Events, one method each:

* requests — ``submit``, ``finish`` (a chunk result, late duplicates
  included), ``fail_seq`` (a per-batch worker error), ``cancel``,
  ``abort``;
* shards — ``add_shard``, ``ready``, ``mark_broken`` (or hung),
  ``reap`` (dead or hung, with requeue), ``redeliver`` (task timeout),
  ``inject``, ``stop``, ``shutdown``;
* hot-swap — ``load``, ``loaded`` (a worker's ack),
  ``retire_when_drained`` (after a promote) and ``unload`` (retire or
  roll back).

Dispatch is the last step of every event that queues a task or frees
a credit (``submit``, ``finish``, ``fail_seq``, ``ready``,
``redeliver``, ``reap``); its sends come back in that event's
:class:`Effects`.  Each shard has :data:`SHARD_CREDITS` credits: a
dispatch takes one, and the batch's result or error, its redelivery
or its shard's reap gives it back.  A queued chunk goes to the eligible
shard with the most free credits (ties to the lowest id); while no
shard has one, chunks wait in the core's queue, ordered by (class
priority, the chunk's index within its request, arrival).  A new
1-chunk request therefore waits only for what is already in flight,
never for a large request's queued tail.  Under sustained overload of
small requests a large request's later chunks keep waiting; the HTTP
front-end's admission bound (``--max-inflight`` 429s) is what limits
that.  ``stop`` hands every queued open task to the live shards,
credits aside, so a request accepted before it still completes.

Invariants (checked over generated interleavings by
``tests/test_runtime_lifecycle.py``):

* A seq is *open* from submit until its request completes or fails.
  Only open seqs are dispatched; a result for a closed seq is a late
  duplicate and changes nothing but its shard's in-flight accounting.
  So every seq finalizes at most once, and exactly once unless its
  request failed or was cancelled.
* A request's chunks reassemble in submission order, and every batch
  it sends carries the request's one model version.
* Each dispatch leaves its shard's in-flight set exactly once: by the
  shard's result or error, by redelivery, or by the shard's reap.  A
  shard that is not stopping never holds more than
  :data:`SHARD_CREDITS` in flight.
* A version retires only when none of its requests is open, and it is
  unloaded from the workers through one path (``_unload``).
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.runtime.registry import REQUEST_CLASSES, RequestClass
from repro.runtime.stats import ThroughputStats

__all__ = ["Effects", "LifecycleCore", "SHARD_CREDITS", "ServiceError"]

Key = Tuple[str, int]

#: Batches one shard may hold in flight (sent, no result yet).
SHARD_CREDITS = 2

#: Window of per-class enqueue→dispatch waits kept for percentiles.
WAIT_WINDOW = 4096

#: Fault-injection kind -> (worker message verb, fault_stats() counter).
_INJECTIONS = {
    "crash": ("crash", "injected_crashes"),
    "hang": ("hang", "injected_hangs"),
    "slow down": ("slow", "injected_slowdowns"),
}


class ServiceError(RuntimeError):
    """The service cannot complete a request (worker pool failure)."""


@dataclass(eq=False)
class Request:
    """One submitted workload, split into ordered chunks."""

    key: Key
    cls: RequestClass
    seqs: range
    submitted_at: float
    owner: Any  # the caller's completion handle; never touched here
    chunks: List[Optional[dict]] = field(default_factory=list)
    chunk_shards: List[int] = field(default_factory=list)
    remaining: int = 0
    open: bool = True


@dataclass(eq=False)
class Task:
    """One chunk on its way to a worker; the batch stays referenced so
    a dead or hung shard's work can be requeued."""

    seq: int
    request: Request
    batch: Any  # only len() is read
    enqueued_at: float = 0.0
    dispatched_at: float = 0.0


@dataclass
class ShardState:
    """The core's view of one worker."""

    shard_id: int
    spawned_at: float
    loaded: Set[Key]  # versions it holds (for the hot-swap barrier)
    inflight: Dict[int, Task] = field(default_factory=dict)
    ready: bool = False
    broken: bool = False
    stopping: bool = False
    # a crash or hang was injected: its reap will requeue everything in
    # flight, so an injected drop must not land here
    faulted: bool = False
    # OpenBLAS threads the worker reported when ready (None: not set)
    blas_threads: Optional[int] = None

    @property
    def eligible(self) -> bool:
        """Can take traffic: ready, neither broken nor stopping."""
        return self.ready and not self.broken and not self.stopping

    @property
    def credits(self) -> int:
        """Free credits: batches it may still be sent."""
        return SHARD_CREDITS - len(self.inflight)


@dataclass
class Version:
    """Serving state of one model version."""

    requests: int = 0
    open: int = 0
    retiring: bool = False
    load_error: Optional[str] = None
    stats: ThroughputStats = field(default_factory=ThroughputStats)


@dataclass
class Effects:
    """What the service must do after an event: put ``sends`` (shard
    id, message) on task queues in order, resolve the futures of
    ``done`` requests, fail those of ``failed`` (request, message)
    pairs, and retire the ``retired`` versions in the registry."""

    sends: List[Tuple[int, tuple]] = field(default_factory=list)
    done: List[Request] = field(default_factory=list)
    failed: List[Tuple[Request, str]] = field(default_factory=list)
    retired: List[Key] = field(default_factory=list)


class LifecycleCore:
    """Request, shard and version bookkeeping of the sharded service:
    a lifetime budget of ``max_restarts`` respawns, ``now`` from any
    monotonic clock."""

    def __init__(self, max_restarts: int):
        self.max_restarts = max_restarts
        self.restarts = 0
        self.shards: Dict[int, ShardState] = {}
        # lifetime accounting per shard id, reaped shards included
        self.shard_stats: Dict[int, ThroughputStats] = {}
        self.versions: Dict[Key, Version] = defaultdict(Version)
        self.open_seqs: Dict[int, Request] = {}
        # heap of (class priority, chunk index, FIFO tie-breaker, task)
        self._pending: List[Tuple[int, int, int, Task]] = []
        self._order = itertools.count()
        self._next_seq = 0
        self._next_shard = 0
        self.sent_batches = 0  # dispatches minus injected drops
        self.drop_next = 0  # armed descriptor drops
        self.faults = dict.fromkeys((
            "dead_reaps", "hung_reaps", "descriptor_drops",
            "redelivered_tasks", "injected_crashes", "injected_hangs",
            "injected_slowdowns",
        ), 0)
        self.spawn_seconds: List[float] = []
        self.class_waits = {
            name: deque(maxlen=WAIT_WINDOW) for name in REQUEST_CLASSES
        }

    # -- views ------------------------------------------------------------
    def eligible(self) -> List[ShardState]:
        """Shards that can take traffic, by ascending id."""
        return [s for _, s in sorted(self.shards.items()) if s.eligible]

    def load_pending(self, key: Key) -> List[int]:
        """Shards that must still ack ``key`` before it can serve."""
        return [
            sid for sid, s in self.shards.items()
            if not (s.stopping or s.broken) and key not in s.loaded
        ]

    def _broadcast(self, message: tuple) -> List[Tuple[int, tuple]]:
        """``message`` for every shard that is not stopping."""
        return [
            (sid, message) for sid, s in self.shards.items() if not s.stopping
        ]

    def fault_stats(self) -> dict:
        return dict(
            self.faults, restarts=self.restarts,
            max_restarts=self.max_restarts,
            spawn_to_ready_seconds=list(self.spawn_seconds),
        )

    # -- requests ---------------------------------------------------------
    def submit(self, key: Key, cls: RequestClass, batches: Sequence,
               owner: Any, now: float) -> Tuple[Request, Effects]:
        """Open a request of ``batches`` chunks on version ``key``,
        queue one task per chunk and dispatch."""
        version = self.versions[key]
        version.requests += 1
        version.open += 1
        n = len(batches)
        request = Request(
            key, cls, range(self._next_seq, self._next_seq + n), now,
            owner, [None] * n, [-1] * n, remaining=n,
        )
        self._next_seq += n
        for seq, batch in zip(request.seqs, batches):
            self.open_seqs[seq] = request
            self._queue(Task(seq, request, batch), now)
        return request, self._dispatch(now, Effects())

    def _queue(self, task: Task, now: float) -> None:
        """Higher classes (lower priority number) dispatch first; within
        a class, earlier chunks of their request first, then FIFO.  A
        requeued task keeps its index."""
        task.enqueued_at = now
        heapq.heappush(self._pending, (
            task.request.cls.priority, task.seq - task.request.seqs.start,
            next(self._order), task,
        ))

    def _dispatch(self, now: float, fx: Effects,
                  credits: bool = True) -> Effects:
        """Send queued tasks, best first, each to the eligible shard
        with the most free credits, while one has a credit (``credits``
        false: regardless of credits).  The one test of "is this seq
        still open": a requeued copy whose original result already came
        back, or whose request failed, is dropped here, never sent."""
        eligible = self.eligible()
        while self._pending and eligible:
            shard = max(eligible, key=lambda s: s.credits)
            if credits and shard.credits <= 0:
                break
            task = heapq.heappop(self._pending)[-1]
            if task.seq not in self.open_seqs:
                continue
            task.dispatched_at = now
            self.class_waits[task.request.cls.name].append(
                now - task.enqueued_at
            )
            shard.inflight[task.seq] = task
            if self.drop_next > 0 and not shard.faulted:
                # injected drop: holds a credit, never sent
                self.drop_next -= 1
                self.faults["descriptor_drops"] += 1
                continue
            self.sent_batches += 1
            fx.sends.append((shard.shard_id, (
                "batch", task.seq, task.request.key, task.batch,
            )))
        return fx

    def finish(self, shard_id: int, seq: int, chunk: dict,
               now: float) -> Effects:
        """A worker returned a chunk result (``size``/``seconds``/
        ``stages`` plus the decision arrays)."""
        self.shards[shard_id].inflight.pop(seq, None)
        request = self.open_seqs.pop(seq, None)
        fx = Effects()
        if request is None:
            # late duplicate of a redelivered or failed seq
            return self._dispatch(now, fx)
        index = seq - request.seqs.start
        # lifetime accounting: reaped shards' results still count
        for stats in (
            self.versions[request.key].stats, self.shard_stats[shard_id]
        ):
            stats.record(
                chunk["size"], chunk["seconds"], stages=chunk["stages"]
            )
        request.chunks[index] = chunk
        request.chunk_shards[index] = shard_id
        request.remaining -= 1
        if request.remaining == 0:
            self._close(request, fx)
            fx.done.append(request)
        return self._dispatch(now, fx)

    def fail_seq(self, shard_id: int, seq: int, message: str,
                 now: float) -> Effects:
        """A worker hit a deterministic per-batch error: requeueing
        would loop, so the whole request fails."""
        self.shards[shard_id].inflight.pop(seq, None)
        fx = Effects()
        if seq in self.open_seqs:
            self._fail(
                self.open_seqs[seq],
                f"worker failed processing batch: {message}", fx,
            )
        return self._dispatch(now, fx)

    def cancel(self, request: Request) -> Optional[Effects]:
        """Abandon an open request (``None`` if it already resolved)."""
        if not request.open:
            return None
        return self._fail(request, "request cancelled by the caller")

    def abort(self, message: str) -> Effects:
        """Fail every open request with ``message``."""
        fx = Effects()
        for request in set(self.open_seqs.values()):
            self._fail(request, message, fx)
        self._pending.clear()
        return fx

    def _fail(self, request: Request, message: str,
              fx: Optional[Effects] = None) -> Effects:
        """The one failure path: drop the request's seqs, close it and
        report ``message`` for its future."""
        fx = fx or Effects()
        for seq in request.seqs:
            self.open_seqs.pop(seq, None)
        self._close(request, fx)
        fx.failed.append((request, message))
        return fx

    def _close(self, request: Request, fx: Effects) -> None:
        request.open = False
        version = self.versions[request.key]
        version.open -= 1
        if version.retiring and version.open == 0:
            self._unload(request.key, fx)

    # -- shards -----------------------------------------------------------
    def add_shard(self, loaded: Set[Key], now: float) -> ShardState:
        """A new worker holding ``loaded`` versions."""
        shard_id = self._next_shard
        self._next_shard += 1
        shard = self.shards[shard_id] = ShardState(
            shard_id, now, set(loaded)
        )
        self.shard_stats[shard_id] = ThroughputStats()
        return shard

    def ready(self, shard_id: int, now: float,
              blas_threads: Optional[int] = None) -> Effects:
        """The worker is warm: it may take traffic."""
        shard = self.shards[shard_id]
        shard.ready = True
        shard.blas_threads = blas_threads
        self.spawn_seconds.append(now - shard.spawned_at)
        return self._dispatch(now, Effects())

    def mark_broken(self, shard_id: int, hung: bool = False) -> None:
        """The shard's stream failed, it reported a fatal start-up
        error, or (``hung``) the heartbeat watchdog caught it alive but
        silent; the next health check reaps it."""
        self.shards[shard_id].broken = True
        self.faults["hung_reaps"] += hung

    def redeliver(self, now: float, timeout: float) -> Effects:
        """Requeue (and count) every batch in flight on a healthy shard
        for over ``timeout``: a lost message never comes back on its
        own, and a late original is a harmless duplicate."""
        overdue = [
            (shard, task)
            for shard in self.shards.values()
            if not (shard.stopping or shard.broken)
            for task in shard.inflight.values()
            if now - task.dispatched_at > timeout
        ]
        for shard, task in overdue:
            del shard.inflight[task.seq]
            self._queue(task, now)
        self.faults["redelivered_tasks"] += len(overdue)
        return self._dispatch(now, Effects())

    def reap(self, shard_id: int, now: float) -> Tuple[bool, Effects]:
        """Drop a dead or hung shard and requeue its in-flight work;
        returns whether the restart budget allows (and pays for) a
        replacement."""
        shard = self.shards.pop(shard_id)
        self.faults["dead_reaps"] += 1
        for task in shard.inflight.values():
            self._queue(task, now)
        respawn = self.restarts < self.max_restarts
        self.restarts += respawn
        return respawn, self._dispatch(now, Effects())

    def inject(self, kind: str, shard_id: Optional[int],
               *args) -> Tuple[int, Effects]:
        """Target (``None``: the lowest live shard) and message of one
        ``crash``, ``hang`` or ``slow down`` injection."""
        verb, counter = _INJECTIONS[kind]
        live = sorted(sid for sid, _ in self._broadcast(()))
        if not live:
            raise ServiceError(f"no live shard to {kind}")
        target = live[0] if shard_id is None else shard_id
        if target not in self.shards:
            raise ServiceError(f"no shard {target} to {kind}")
        if verb != "slow":
            self.shards[target].faulted = True
        self.faults[counter] += 1
        return target, Effects(sends=[(target, (verb,) + args)])

    def stop(self, now: float) -> Effects:
        """Stop taking traffic: hand every queued open task to the live
        shards, credits aside, then tell every shard to exit once its
        queued work is done."""
        fx = self._dispatch(now, Effects(), credits=False)
        fx.sends.extend(self._broadcast(("stop",)))
        for shard in self.shards.values():
            shard.stopping = True
        return fx

    def shutdown(self, message: str) -> Effects:
        """After :meth:`stop`: fail what is still open and forget the
        shards (lifetime accounting stays)."""
        fx = self.abort(message)
        self.shards.clear()
        return fx

    # -- hot-swap ---------------------------------------------------------
    def load(self, key: Key, payload: tuple) -> Effects:
        """Broadcast a new version's ``payload`` to every live shard;
        it may serve once :meth:`load_pending` is empty."""
        self.versions[key].load_error = None
        return Effects(sends=self._broadcast(("load", key) + payload))

    def loaded(self, shard_id: int, key: Key, error: Optional[str]) -> None:
        """A worker's load ack (``error`` is ``None`` on success)."""
        if error is not None:
            self.versions[key].load_error = error
        else:
            self.shards[shard_id].loaded.add(key)

    def retire_when_drained(self, key: Key) -> Effects:
        """``key`` lost routing to a newer version: unload it once its
        last open request closes (at once if none is open)."""
        fx = Effects()
        self.versions[key].retiring = True
        if self.versions[key].open == 0:
            self._unload(key, fx)
        return fx

    def unload(self, key: Key) -> Effects:
        """Unload a version with no open requests (explicit retire, or
        roll back of a failed load)."""
        if self.versions[key].open:
            raise ValueError(
                f"{key[0]}@{key[1]} still has in-flight requests; "
                "retry once they drain"
            )
        fx = Effects()
        self._unload(key, fx)
        return fx

    def _unload(self, key: Key, fx: Effects) -> None:
        """The one unload broadcast."""
        self.versions[key].retiring = False
        fx.sends.extend(self._broadcast(("unload", key)))
        fx.retired.append(key)
