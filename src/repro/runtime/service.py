"""Sharded multi-worker detection service.

:class:`ShardedDetectionService` scales :class:`DetectionEngine`
beyond one process: a pool of worker processes each holds its own
engine (with a pre-warmed packed-canary cache), fed by an async
submission queue through a pluggable :mod:`~repro.runtime.sharding`
scheduler.  The fitted detector is flattened once with
:func:`repro.core.detector_to_state` and broadcast to every worker at
startup — per-request traffic is only raw sample arrays and decision
arrays, never model state.

Guarantees:

* **Ordering** — every request's decisions come back in submission
  order regardless of which shards processed which micro-batches, so
  results are bit-identical to a single-process
  :meth:`DetectionEngine.run` over the same array.
* **Fault tolerance** — a dead worker is detected, its in-flight
  batches are requeued to the surviving shards, and a replacement is
  spawned (up to ``max_restarts``); requests complete as long as one
  shard survives.  Every shard owns private task/result queues, so a
  worker dying mid-write can never wedge the survivors' plumbing.
* **Accounting** — per-shard :class:`ThroughputStats` are merged for
  the aggregate engine-time view, while request/service throughput is
  reported from wall clock (shards overlap in time, so summed engine
  seconds deliberately over-count).
* **Transport** — every batch and every result travels pickled over
  the shard's private multiprocessing queues: one message carries one
  micro-batch (a few KB per frame), so pickling costs next to nothing
  beside the detection compute it feeds.
* **Multi-model** — one pool serves N named, versioned detectors out
  of a :class:`~repro.runtime.registry.ModelRegistry`: every worker
  holds one engine per registered model, each batch message carries
  its ``(name, version)`` key, and
  :meth:`ShardedDetectionService.load_model` hot-swaps a new version
  with drain-and-replace (routing flips only after every worker holds
  the new state; the old version unloads once its in-flight requests
  finish).  The single-detector constructor path registers under
  ``"default"`` and is bit-identical to the pre-registry service.
  Requests also carry a :class:`~repro.runtime.registry.RequestClass`
  (``interactive``/``standard``/``batch``): higher classes jump the
  dispatch queue and batches form per (model, class) with
  class-scaled SLOs.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import pickle
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.serialization import detector_from_state, detector_to_state
from repro.runtime.adaptive import AdaptiveBatcher
from repro.runtime.batching import iter_microbatches
from repro.runtime.registry import (
    DEFAULT_CLASS,
    DEFAULT_MODEL,
    REQUEST_CLASSES,
    ModelEntry,
    ModelRegistry,
    RequestClass,
    UnknownModelError,
    parse_model_spec,
    resolve_request_class,
)
from repro.runtime.sharding import (
    ShardLoad,
    ShardScheduler,
    make_scheduler,
    merge_shard_stats,
    plan_worker_affinity,
)
from repro.runtime.stats import ThroughputStats

__all__ = [
    "ServiceError",
    "ServiceFuture",
    "ServiceResult",
    "ShardedDetectionService",
    "measure_worker_scaling",
]

#: How often an idle worker bumps its heartbeat counter (it also bumps
#: between chunks of a batch); the parent's watchdog declares a shard
#: hung only after ``hang_timeout`` seconds without a bump, so keep
#: ``hang_timeout`` several multiples of this.
HEARTBEAT_INTERVAL = 0.25

#: Window of per-class enqueue→dispatch waits kept for percentiles.
WAIT_WINDOW = 4096


class ServiceError(RuntimeError):
    """The service cannot complete a request (worker pool failure)."""


# -- worker side -----------------------------------------------------------

def _build_worker_engine(
    model_factory: Callable,
    state_payload,
    threshold: float,
    batch_size: int,
):
    """Rebuild one engine from a broadcast model payload (worker side)."""
    from repro.runtime.engine import DetectionEngine

    state = (
        pickle.loads(state_payload)
        if isinstance(state_payload, (bytes, bytearray))
        else state_payload
    )
    detector = detector_from_state(model_factory(), state)
    return DetectionEngine(detector, threshold=threshold, batch_size=batch_size)


def _beat(heartbeat) -> None:
    """Bump the shard's liveness counter (monotonic, parent-visible).

    Lock-free single-writer: only this worker increments, the parent
    only reads, so a plain ``Value`` without a lock is race-free."""
    if heartbeat is not None:
        heartbeat.value += 1


def _worker_main(
    worker_id: int,
    # (name, version) -> (payload, model_factory, threshold); payloads
    # are dicts under fork (COW pages), pickled bytes under spawn
    models_payload: dict,
    batch_size: int,
    task_queue,
    result_queue,
    heartbeat=None,
    pin_cpus: Optional[Tuple[int, ...]] = None,
) -> None:
    """Shard process entry point: rebuild one engine per broadcast
    model, then serve model-keyed micro-batches until told to stop."""
    if pin_cpus:
        # Pin before warming caches so they live on the pinned core;
        # best-effort — a shrunken cgroup mask must not kill the shard.
        try:
            os.sched_setaffinity(0, set(pin_cpus))
        except (AttributeError, OSError):
            pass
    engines: Dict[Tuple[str, int], object] = {}
    try:
        for key, (payload, factory, threshold) in models_payload.items():
            engines[key] = _build_worker_engine(
                factory, payload, threshold, batch_size
            )
        if not engines:
            raise RuntimeError("worker started with no models to serve")
    except Exception as exc:  # startup failure is fatal for this shard
        result_queue.put(("fatal", worker_id, repr(exc)))
        return
    result_queue.put(("ready", worker_id, None))
    slow_delay = 0.0
    while True:
        # Heartbeat-bounded get: an idle worker still proves liveness
        # every interval, so the parent watchdog can tell "no traffic"
        # from "alive but wedged".
        _beat(heartbeat)
        try:
            message = task_queue.get(timeout=HEARTBEAT_INTERVAL)
        except queue.Empty:
            continue
        kind = message[0]
        if kind == "stop":
            return
        if kind == "crash":
            # Fault-injection hook (tests / chaos drills): die the way a
            # segfaulted or OOM-killed worker would — no cleanup, no
            # farewell message.
            os._exit(17)
        if kind == "hang":
            # Fault-injection hook: stay alive but go completely silent
            # — no queue reads, no heartbeats — the exact failure shape
            # the watchdog exists to reap (terminate + requeue).
            while True:
                time.sleep(3600.0)
        if kind == "slow":
            # Fault-injection hook: delay every subsequent batch by
            # message[1] seconds while still heartbeating, so the
            # watchdog must classify this shard as slow, never hung.
            slow_delay = float(message[1])
            continue
        if kind == "load":
            # hot-swap: build the new version's engine and ack, so the
            # parent flips routing only once every worker holds it
            key, payload, factory, threshold = message[1:]
            try:
                engines[key] = _build_worker_engine(
                    factory, payload, threshold, batch_size
                )
            except Exception as exc:
                result_queue.put(("loaded", worker_id, (key, repr(exc))))
            else:
                result_queue.put(("loaded", worker_id, (key, None)))
            continue
        if kind == "unload":
            # drained old version: drop its engine (and caches)
            engines.pop(message[1], None)
            continue
        seq, key, batch = message[1:]
        if slow_delay > 0.0:
            # injected slowdown: sleep in heartbeat-sized increments so
            # a slow shard still reads as alive
            slow_until = time.monotonic() + slow_delay
            while True:
                remaining = slow_until - time.monotonic()
                if remaining <= 0.0:
                    break
                _beat(heartbeat)
                time.sleep(min(HEARTBEAT_INTERVAL / 4.0, remaining))
        engine = engines.get(key)
        if engine is None:
            # should not happen (the parent broadcasts before routing),
            # but a deterministic error beats a crashed worker
            result_queue.put((
                "error", worker_id,
                (seq, f"model {key[0]}@{key[1]} is not loaded"),
            ))
            continue
        _beat(heartbeat)
        try:
            result = engine.process_batch(batch)
        except Exception as exc:
            result_queue.put(("error", worker_id, (seq, repr(exc))))
            continue
        result_queue.put(("batch", worker_id, {
            "seq": seq,
            "size": len(batch),
            "seconds": engine.last_batch_seconds,
            "stages": engine.last_batch_stages,
            "scores": result.scores,
            "predicted_classes": result.predicted_classes,
            "is_adversarial": result.is_adversarial,
            "similarities": result.similarities,
        }))


# -- parent-side bookkeeping -------------------------------------------------

@dataclass
class _Task:
    """One dispatched micro-batch.

    The parent keeps the batch array after dispatch, so a crashed or
    hung shard's work can be requeued to a surviving shard.
    """

    seq: int
    request: "_Request"
    chunk_index: int
    batch: np.ndarray
    key: Tuple[str, int] = (DEFAULT_MODEL, 1)
    priority: int = 1
    # monotonic timestamps: queue-wait accounting + redelivery watchdog
    enqueued_at: float = 0.0
    dispatched_at: float = 0.0


@dataclass
class _Request:
    """One submitted workload, split into ordered chunks."""

    request_id: int
    seqs: List[int]
    chunks: List[Optional[dict]]
    chunk_shards: List[int]
    remaining: int
    future: "ServiceFuture"
    submitted_at: float
    key: Tuple[str, int] = (DEFAULT_MODEL, 1)
    cls: RequestClass = REQUEST_CLASSES[DEFAULT_CLASS]
    failed: bool = False
    closed: bool = False  # per-model open-request count released


@dataclass
class _Shard:
    """Parent-side handle for one worker process.

    Each shard owns a private result queue: a worker that dies while
    its queue feeder holds a put-lock can only wedge *its own* queue,
    never the survivors' — its in-flight batches are requeued anyway.
    """

    shard_id: int
    process: mp.process.BaseProcess
    task_queue: "mp.queues.Queue"
    result_queue: "mp.queues.Queue"
    ready: threading.Event = field(default_factory=threading.Event)
    inflight: Dict[int, _Task] = field(default_factory=dict)
    inflight_samples: int = 0
    dispatched_batches: int = 0
    stopping: bool = False
    broken: bool = False
    # model keys this worker holds engines for: seeded at spawn, grown
    # by "loaded" acks during hot-swap (read by load_model's barrier)
    loaded_models: set = field(default_factory=set)
    # liveness side channel: the worker bumps `heartbeat` (a lock-free
    # mp.Value) every queue poll and every chunk; the parent watchdog
    # tracks the last observed counter and when it last moved
    heartbeat: Optional[object] = None
    last_beat: int = -1
    last_beat_at: float = field(default_factory=time.monotonic)
    spawned_at: float = field(default_factory=time.monotonic)

    def load(self) -> ShardLoad:
        return ShardLoad(
            shard_id=self.shard_id,
            inflight_batches=len(self.inflight),
            inflight_samples=self.inflight_samples,
            dispatched_batches=self.dispatched_batches,
        )


class ServiceFuture:
    """Completion handle for one submitted request."""

    def __init__(self):
        self._event = threading.Event()
        self._result: Optional["ServiceResult"] = None
        self._error: Optional[Exception] = None
        # wired by the service once the request exists (the hook closes
        # over the request object, which itself holds this future)
        self._cancel_hook: Optional[Callable[[], bool]] = None
        # routing record, set at submit time: the resolved model spec
        # ("name@version") and request-class name this request ran as
        self.model: Optional[str] = None
        self.request_class: Optional[str] = None

    def done(self) -> bool:
        return self._event.is_set()

    def cancel(self) -> bool:
        """Best-effort cancel: drop the request's not-yet-dispatched
        chunks and discard any still in flight, so an abandoned caller
        (e.g. an HTTP deadline) cannot leave work piling up in the
        service.  Returns True if the request was cancelled before it
        completed; False if it had already resolved."""
        if self._event.is_set():
            return False
        if self._cancel_hook is None:
            return False
        return self._cancel_hook()

    def result(self, timeout: Optional[float] = None) -> "ServiceResult":
        """Block until the request completes; raises on service failure."""
        if not self._event.wait(timeout):
            raise TimeoutError("service request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._result

    def _set_result(self, result: "ServiceResult") -> None:
        self._result = result
        self._event.set()

    def _set_error(self, error: Exception) -> None:
        self._error = error
        self._event.set()


@dataclass
class ServiceResult:
    """Ordered decisions of one service request plus its accounting.

    ``stats`` merges the engine-side per-batch accounting of every
    shard that worked on this request; ``samples_per_sec`` is computed
    from wall clock (submission to last chunk), which is the number
    that improves with more workers.
    """

    scores: np.ndarray
    predicted_classes: np.ndarray
    is_adversarial: np.ndarray
    similarities: np.ndarray
    stats: ThroughputStats
    chunk_shards: List[int]
    wall_seconds: float

    @property
    def num_samples(self) -> int:
        return self.scores.shape[0]

    @property
    def rejection_rate(self) -> float:
        if self.num_samples == 0:
            return 0.0
        return float(self.is_adversarial.mean())

    @property
    def samples_per_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.num_samples / self.wall_seconds


# -- the service -------------------------------------------------------------

class ShardedDetectionService:
    """Fans detection traffic out over a pool of engine workers.

    Parameters
    ----------
    detector:
        A profiled and fitted detector; flattened once into the
        broadcast state and registered as model ``"default"``.  May be
        omitted when ``state`` or ``registry`` is given.
    model_factory:
        Zero-argument picklable callable building an
        architecture-compatible model (e.g. ``scenario.build_model``);
        each worker calls it once per model and loads the broadcast
        weights.
    state:
        Pre-built :func:`repro.core.detector_to_state` payload; lets
        several pools share one serialisation pass.
    registry:
        A pre-populated :class:`~repro.runtime.registry.ModelRegistry`
        to serve instead of a single detector (mutually exclusive with
        ``detector``/``state``).  Every serving entry is broadcast to
        every worker; requests route with ``submit(..., model=...)``.
        The single-detector path builds an internal one-entry registry,
        so multi-model introspection works either way.
    num_workers / threshold / batch_size:
        Pool size, decision threshold, and micro-batch size (the chunk
        granularity requests are split at — identical splitting to
        ``DetectionEngine.run``, so results stay bit-identical).
    scheduler:
        ``"round-robin"`` (default), ``"least-loaded"``, or a
        :class:`ShardScheduler` instance.
    slo_ms:
        Optional per-batch latency objective.  When set, requests are
        chunked by an :class:`~repro.runtime.adaptive.AdaptiveBatcher`
        (fed from every shard's per-batch latencies) instead of at the
        fixed ``batch_size``; ``batch_size`` becomes the adaptive
        ceiling.  Chunk sizing never changes decisions — the kernels
        are bit-identical across batch sizes.
    max_restarts:
        Total worker respawns allowed over the service lifetime
        (default: ``num_workers``); the pool keeps serving with fewer
        shards once exhausted, failing only when none survive.
    start_method:
        multiprocessing start method; default ``fork`` where available
        (instant startup, zero-copy page sharing) else ``spawn``.
    transport:
        Accepted only as ``None`` or ``"queue"`` (the one payload
        channel); anything else raises ``ValueError``.
    pin_workers:
        Pin each worker to a disjoint CPU set
        (:func:`~repro.runtime.sharding.plan_worker_affinity` +
        ``os.sched_setaffinity`` at worker startup) so the OS cannot
        migrate shards — and their warm caches — across cores.
        Best-effort no-op on platforms without affinity support.
    backend:
        Accepted only as ``None`` or ``"numpy"`` (the one kernel
        implementation); anything else raises ``ValueError``.
    hang_timeout:
        Heartbeat watchdog: every worker bumps a lock-free counter at
        least every ``HEARTBEAT_INTERVAL`` while healthy; a ready
        shard whose counter stays frozen this many seconds is declared
        hung and reaped exactly like a dead one (terminate, requeue
        its in-flight batches, respawn within the ``max_restarts``
        budget).  Must comfortably exceed the worst single-chunk
        engine latency; ``None`` disables the watchdog.
    task_timeout:
        In-flight redelivery: a batch dispatched this many seconds ago
        with no result is requeued to another shard (the seq-ordered
        duplicate guard makes the late original harmless).  This is
        what recovers a dropped batch message without waiting for a
        shard reap.  ``None`` (default) disables redelivery; when set it
        must exceed the worst queued+processing time of one batch.
    """

    def __init__(
        self,
        detector=None,
        *,
        model_factory: Optional[Callable] = None,
        state: Optional[dict] = None,
        registry: Optional[ModelRegistry] = None,
        num_workers: int = 2,
        threshold: float = 0.5,
        batch_size: int = 64,
        scheduler: Union[str, ShardScheduler] = "round-robin",
        slo_ms: Optional[float] = None,
        max_restarts: Optional[int] = None,
        start_method: Optional[str] = None,
        ready_timeout: float = 120.0,
        transport: Optional[str] = None,
        pin_workers: bool = False,
        backend: Optional[str] = None,
        hang_timeout: Optional[float] = 30.0,
        task_timeout: Optional[float] = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive (or None)")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        # perfbench/workload_http.py passes transport=defaults.transport
        if transport not in (None, "queue"):
            raise ValueError(
                f"unknown transport {transport!r}; only 'queue' exists"
            )
        # perfbench/workload_http.py passes backend=defaults.backend
        if backend not in (None, "numpy"):
            raise ValueError(
                f"unknown kernel backend {backend!r}; only 'numpy' exists"
            )
        if registry is not None:
            if detector is not None or state is not None:
                raise ValueError(
                    "pass either a registry or a detector/state, not both"
                )
            if len(registry) == 0:
                raise ValueError("registry has no models")
            self.registry = registry
        else:
            # single-detector back-compat path: a one-entry registry
            # under the "default" name (register() validates the
            # detector-or-state and fitted invariants)
            self.registry = ModelRegistry(default=DEFAULT_MODEL)
            self.registry.register(
                DEFAULT_MODEL,
                detector=detector,
                state=state,
                model_factory=model_factory,
                threshold=threshold,
            )
        method = start_method or (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._ctx = mp.get_context(method)
        self._fork = method == "fork"
        # (name, version) -> (payload, factory, threshold), broadcast
        # to every worker at spawn.  Under fork the payload is the
        # state dict itself (copy-on-write pages, zero serialization);
        # under spawn it is pickled exactly once and the buffer reused
        # for every spawn — initial pool and respawns alike.
        self._models: Dict[Tuple[str, int], tuple] = {}
        for entry in self.registry.serving_entries():
            self._models[entry.key] = self._model_payload(entry)
        self.num_workers = num_workers
        self.threshold = threshold
        self.batch_size = batch_size
        self.pin_workers = bool(pin_workers)
        self._affinity_plan = (
            plan_worker_affinity(num_workers) if self.pin_workers else None
        )
        # shard_id -> plan slot, so a replacement takes over the CPU
        # share of the shard it replaces (never a live shard's)
        self._affinity_slots: Dict[int, int] = {}
        self._queue_batches = 0
        self.hang_timeout = hang_timeout
        self.task_timeout = task_timeout
        # self-healing / chaos accounting (see fault_stats())
        self._fault_counts = {
            "dead_reaps": 0,
            "hung_reaps": 0,
            "descriptor_drops": 0,
            "redelivered_tasks": 0,
            "injected_crashes": 0,
            "injected_hangs": 0,
            "injected_slowdowns": 0,
        }
        # armed one-shot fault injection, consumed on the dispatch path
        self._drop_next = 0
        # spawn→ready latency of every shard this service ever started
        # (respawns included) — the drill's time-to-respawn source
        self._spawn_seconds: List[float] = []
        # enqueue→dispatch wait per request class, recent window
        self._class_waits: Dict[str, deque] = {
            name: deque(maxlen=WAIT_WINDOW) for name in REQUEST_CLASSES
        }
        self._slo_ms = slo_ms
        # one AdaptiveBatcher per (model key, class name), lazily
        # created with the class-scaled SLO; `adaptive` (back-compat)
        # is the default model's standard-class controller
        self._adaptive: Dict[
            Tuple[Tuple[str, int], str], AdaptiveBatcher
        ] = {}
        if slo_ms is not None:
            default_key = self.registry.resolve(None).key
            self._adaptive[(default_key, DEFAULT_CLASS)] = AdaptiveBatcher(
                slo_ms,
                max_batch=batch_size,
                initial_batch=min(8, batch_size),
            )
        self._scheduler = make_scheduler(scheduler)
        self.max_restarts = (
            num_workers if max_restarts is None else max_restarts
        )
        self._ready_timeout = ready_timeout

        self._lock = threading.RLock()
        # Serialises start()/stop() against concurrent submit() callers
        # (reentrant: start()'s failure path calls stop()).
        self._lifecycle_lock = threading.RLock()
        self._shards: Dict[int, _Shard] = {}
        self._shard_stats: Dict[int, ThroughputStats] = {}
        # class-priority dispatch: entries are (priority, tie-breaker,
        # task); the tie-breaker keeps FIFO order within a class and
        # makes entries comparable (tasks are not)
        self._dispatch_queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._dispatch_counter = itertools.count()
        self._open_seqs: Dict[int, Tuple[_Request, int]] = {}
        # per-model serving accounting + drain-and-replace state
        self._model_stats: Dict[Tuple[str, int], ThroughputStats] = {}
        self._model_requests: Dict[Tuple[str, int], int] = {}
        self._open_model_requests: Dict[Tuple[str, int], int] = {}
        self._retiring: set = set()
        self._load_errors: Dict[Tuple[str, int], str] = {}
        self._seq = 0
        self._request_counter = 0
        self._next_shard_id = 0
        self.restarts = 0
        self._started = False
        self._stopped = False  # True only after an explicit stop()
        self._stop_event = threading.Event()
        self._failure: Optional[ServiceError] = None
        self._collector: Optional[threading.Thread] = None
        self._dispatcher: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "ShardedDetectionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> "ShardedDetectionService":
        """Spawn the worker pool and wait until every shard is warm.

        A stopped service can be started again: the pool, queues, and
        control threads are rebuilt from scratch (lifetime accounting
        and the restart counter carry over).
        """
        with self._lifecycle_lock:
            if self._started:
                return self
            self._stopped = False
            self._stop_event = threading.Event()
            self._failure = None
            # adopt anything registered directly on the registry while
            # the pool was down (load_model keeps this in sync itself)
            for entry in self.registry.serving_entries():
                if entry.key not in self._models:
                    self._models[entry.key] = self._model_payload(entry)
            for _ in range(self.num_workers):
                self._spawn_shard()
            self._collector = threading.Thread(
                target=self._collect_loop, name="service-collector",
                daemon=True,
            )
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="service-dispatcher",
                daemon=True,
            )
            self._collector.start()
            self._dispatcher.start()
            self._started = True
            deadline = time.monotonic() + self._ready_timeout
            while time.monotonic() < deadline:
                if self._failure is not None:
                    self.stop()
                    raise self._failure
                with self._lock:
                    shards = list(self._shards.values())
                if shards and all(s.ready.is_set() for s in shards):
                    return self
                time.sleep(0.01)
            self.stop()
            raise ServiceError("worker pool failed to become ready in time")

    def stop(self) -> None:
        """Shut the pool down; outstanding requests fail cleanly."""
        with self._lifecycle_lock:
            self._stop_locked()

    def _stop_locked(self) -> None:
        if not self._started:
            return
        self._stop_event.set()
        with self._lock:
            shards = list(self._shards.values())
            for shard in shards:
                shard.stopping = True
                try:
                    shard.task_queue.put(("stop",))
                except (ValueError, OSError):
                    pass
        for shard in shards:
            shard.process.join(timeout=10)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=5)
        # the stop sentinel sorts after every real task, so queued work
        # is drained (and failed below) before the dispatcher exits
        self._dispatch_queue.put((1 << 30, next(self._dispatch_counter), None))
        for thread in (self._dispatcher, self._collector):
            if thread is not None:
                thread.join(timeout=10)
        with self._lock:
            open_requests = {
                request for request, _ in self._open_seqs.values()
            }
            self._open_seqs.clear()
            for request in open_requests:
                request.future._set_error(
                    ServiceError("service stopped with the request pending")
                )
                self._close_request_locked(request)
            for shard in shards:
                for q in (shard.task_queue, shard.result_queue):
                    q.close()
                    q.cancel_join_thread()
            self._shards.clear()
        self._started = False
        self._stopped = True

    @property
    def alive_workers(self) -> int:
        """Shards currently able to take traffic: alive, past their
        "ready" message, and neither stopping nor broken."""
        with self._lock:
            return len(self._ready_shards())

    @property
    def failure(self) -> Optional["ServiceError"]:
        """The terminal failure that killed the service, if any (what
        the HTTP front-end's ``/healthz`` reports)."""
        return self._failure

    # -- multi-model surface --------------------------------------------
    def _model_payload(self, entry: ModelEntry) -> tuple:
        """The (payload, factory, threshold) triple workers rebuild an
        engine from; the payload is serialized at most once."""
        payload = (
            entry.state
            if self._fork
            else pickle.dumps(entry.state, pickle.HIGHEST_PROTOCOL)
        )
        return (payload, entry.model_factory, entry.threshold)

    @property
    def default_model(self) -> Optional[str]:
        """Name requests without a ``model`` argument route to."""
        return self.registry.default_name

    @property
    def adaptive(self) -> Optional[AdaptiveBatcher]:
        """The default model's standard-class adaptive batcher (the
        pre-multi-model surface; ``None`` unless ``slo_ms`` was set).
        Per-(model, class) controllers: :meth:`adaptive_snapshots`."""
        if self._slo_ms is None:
            return None
        try:
            key = self.registry.resolve(None).key
        except (UnknownModelError, ValueError):
            return None
        return self._adaptive_for(key, REQUEST_CLASSES[DEFAULT_CLASS])

    def _adaptive_for(
        self, key: Tuple[str, int], cls: RequestClass
    ) -> AdaptiveBatcher:
        """The (model, class) batcher, created on first use with the
        class-scaled SLO."""
        with self._lock:
            batcher = self._adaptive.get((key, cls.name))
            if batcher is None:
                batcher = AdaptiveBatcher(
                    self._slo_ms * cls.slo_scale,
                    max_batch=self.batch_size,
                    initial_batch=min(8, self.batch_size),
                )
                self._adaptive[(key, cls.name)] = batcher
            return batcher

    def adaptive_snapshots(self) -> Dict[str, dict]:
        """Controller state per ``name@version/class`` (empty without
        ``slo_ms``)."""
        with self._lock:
            return {
                f"{key[0]}@{key[1]}/{cls_name}": batcher.snapshot()
                for (key, cls_name), batcher in sorted(
                    self._adaptive.items()
                )
            }

    def model_stats(self) -> Dict[str, ThroughputStats]:
        """Lifetime engine-side accounting per served model version
        (copies, keyed by ``name@version``; retired versions remain)."""
        with self._lock:
            return {
                f"{key[0]}@{key[1]}": ThroughputStats().merge(stats)
                for key, stats in sorted(self._model_stats.items())
            }

    def models(self) -> dict:
        """JSON-safe listing of every registered model version plus the
        live serving view: per-version request/sample counts, open
        requests, and whether the version is draining toward retire.
        This is what ``GET /v1/models`` returns."""
        listing = self.registry.describe()
        with self._lock:
            requests = {
                f"{k[0]}@{k[1]}": count
                for k, count in self._model_requests.items()
            }
            open_requests = {
                f"{k[0]}@{k[1]}": count
                for k, count in self._open_model_requests.items()
            }
            draining = {f"{k[0]}@{k[1]}" for k in self._retiring}
            stats = {
                f"{k[0]}@{k[1]}": stats.samples
                for k, stats in self._model_stats.items()
            }
        for row in listing["models"]:
            spec = row["spec"]
            row["requests"] = requests.get(spec, 0)
            row["open_requests"] = open_requests.get(spec, 0)
            row["samples"] = int(stats.get(spec, 0))
            row["draining"] = spec in draining
        return listing

    def load_model(
        self,
        name: str,
        *,
        detector=None,
        state: Optional[dict] = None,
        model_factory: Optional[Callable] = None,
        threshold: Optional[float] = None,
        source: Optional[str] = None,
        timeout: float = 60.0,
    ) -> ModelEntry:
        """Register a model version and make it serve — the hot-swap
        primitive behind ``POST /v1/models``.

        A new name starts serving immediately; an existing name gets
        version ``highest + 1`` with **drain-and-replace**: the state is
        broadcast to every live worker first, routing flips to the new
        version only after all of them ack the load, and the old
        version is retired (engine unloaded everywhere) once its last
        in-flight request completes — in-flight requests on the old
        version always finish on the old version.

        ``source`` clones an already-registered spec (``name[@ver]``)
        instead of passing a detector/state — the state is reused, so
        this is cheap.  ``model_factory``/``threshold`` default to the
        source's (or, for an existing name, the serving version's).
        Raises :class:`ServiceError` if a worker cannot load the state
        (the new version never serves) or the ack wait times out.
        """
        with self._lifecycle_lock:
            if self._failure is not None:
                raise self._failure
            if source is not None:
                if detector is not None or state is not None:
                    raise ValueError(
                        "pass either source= or a detector/state, not both"
                    )
                src = self.registry.resolve(source)
                state = src.state
                model_factory = model_factory or src.model_factory
                threshold = src.threshold if threshold is None else threshold
            if model_factory is None or threshold is None:
                try:
                    current = self.registry.get(name)
                except UnknownModelError:
                    current = None
                if current is not None:
                    model_factory = model_factory or current.model_factory
                    if threshold is None:
                        threshold = current.threshold
            if threshold is None:
                threshold = self.threshold
            old_key: Optional[Tuple[str, int]] = None
            serving = self.registry.serving_version(name)
            if serving is not None:
                old_key = (name, serving)
            entry = self.registry.register(
                name,
                detector=detector,
                state=state,
                model_factory=model_factory,
                threshold=threshold,
            )
            runtime = self._model_payload(entry)
            with self._lock:
                self._models[entry.key] = runtime
                shards = [
                    s
                    for s in self._shards.values()
                    if not s.stopping and s.process.is_alive()
                ]
            if self._started:
                for shard in shards:
                    try:
                        shard.task_queue.put(
                            ("load", entry.key) + runtime
                        )
                    except (ValueError, OSError):
                        pass
                self._await_model_loaded(entry, timeout)
            self.registry.promote(name, entry.version)
            if old_key is not None and old_key != entry.key:
                with self._lock:
                    self._retiring.add(old_key)
                    self._retire_if_drained_locked(old_key)
            return entry

    def retire_model(self, spec: str) -> dict:
        """Explicitly retire a non-serving model version — the primitive
        behind ``DELETE /v1/models/<spec>``.

        Idempotent for an already-retired version.  Raises
        :class:`UnknownModelError` for an unknown spec, and
        :class:`ValueError` for the serving version or a version that
        still has open requests (the caller maps both to 409: retry
        after promoting a replacement / after the drain finishes).
        """
        with self._lifecycle_lock:
            name, version = parse_model_spec(spec)
            entry = self.registry.get(name, version)
            if entry.retired:
                return {"spec": entry.spec, "retired": True}
            with self._lock:
                if self._open_model_requests.get(entry.key, 0) > 0:
                    raise ValueError(
                        f"{entry.spec} still has in-flight requests; "
                        "retry once they drain"
                    )
                # raises ValueError for the serving version — checked
                # under the lock so a concurrent submit cannot slip in
                # between the check and the unload broadcast
                self.registry.retire(name, entry.version)
                self._retiring.discard(entry.key)
                self._models.pop(entry.key, None)
                for shard in self._shards.values():
                    if shard.stopping or not shard.process.is_alive():
                        continue
                    try:
                        shard.task_queue.put(("unload", entry.key))
                    except (ValueError, OSError):
                        pass
                    shard.loaded_models.discard(entry.key)
            return {"spec": entry.spec, "retired": True}

    def _await_model_loaded(self, entry: ModelEntry, timeout: float) -> None:
        """Block until every live worker acks the new model's engine;
        on any load failure or timeout roll the version back so routing
        never flips to a state the pool cannot serve."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                error = self._load_errors.pop(entry.key, None)
                pending = [
                    s
                    for s in self._shards.values()
                    if not s.stopping
                    and not s.broken
                    and s.process.is_alive()
                    and entry.key not in s.loaded_models
                ]
            if error is not None:
                self._rollback_model(entry)
                raise ServiceError(
                    f"hot-swap of {entry.spec} failed on a worker: {error}"
                )
            if not pending:
                return
            if time.monotonic() >= deadline:
                self._rollback_model(entry)
                raise ServiceError(
                    f"hot-swap of {entry.spec} timed out waiting for "
                    f"{len(pending)} worker(s) to load it"
                )
            time.sleep(0.01)

    def _rollback_model(self, entry: ModelEntry) -> None:
        with self._lock:
            self._models.pop(entry.key, None)
            shards = [
                s
                for s in self._shards.values()
                if not s.stopping and s.process.is_alive()
            ]
        for shard in shards:
            try:
                shard.task_queue.put(("unload", entry.key))
            except (ValueError, OSError):
                pass
        try:
            self.registry.retire(entry.name, entry.version)
        except (ValueError, UnknownModelError):
            pass  # never served / already gone

    def _close_request_locked(self, request: _Request) -> None:
        """Release the request's per-model open count exactly once and
        advance any drain waiting on it (caller holds ``self._lock``)."""
        if request.closed:
            return
        request.closed = True
        count = self._open_model_requests.get(request.key, 0) - 1
        if count > 0:
            self._open_model_requests[request.key] = count
        else:
            self._open_model_requests.pop(request.key, None)
        self._retire_if_drained_locked(request.key)

    def _retire_if_drained_locked(self, key: Tuple[str, int]) -> None:
        """Finish a drain-and-replace: once a retiring version has no
        open requests, unload its engines and retire it in the registry
        (caller holds ``self._lock``)."""
        if key not in self._retiring:
            return
        if self._open_model_requests.get(key, 0) > 0:
            return
        self._retiring.discard(key)
        self._models.pop(key, None)
        for shard in self._shards.values():
            if shard.stopping or not shard.process.is_alive():
                continue
            try:
                shard.task_queue.put(("unload", key))
            except (ValueError, OSError):
                pass
            shard.loaded_models.discard(key)
        try:
            self.registry.retire(*key)
        except (ValueError, UnknownModelError):
            pass

    # -- submission -----------------------------------------------------
    @staticmethod
    def _validate_workload(xs) -> np.ndarray:
        """Reject malformed/empty inputs *before* anything enqueues, so
        bad requests fail loudly at the boundary instead of poisoning a
        worker (or silently producing empty accounting)."""
        try:
            xs = np.asarray(xs)
        except Exception as exc:
            raise ValueError(f"workload is not array-like: {exc}") from exc
        if not np.issubdtype(xs.dtype, np.number):
            raise ValueError(
                f"workload must be a numeric array, got dtype={xs.dtype} "
                "(ragged or non-numeric input)"
            )
        if xs.ndim == 0:
            raise ValueError(
                "workload must be an (N, ...) sample array, got a scalar"
            )
        if xs.ndim < 2:
            raise ValueError(
                "workload must be an (N, ...) sample array with at "
                f"least one feature axis, got shape {xs.shape}"
            )
        if len(xs) == 0:
            raise ValueError(
                "workload is empty: submit at least one sample"
            )
        return xs

    def submit(
        self,
        xs: np.ndarray,
        *,
        model: Optional[str] = None,
        request_class: Optional[str] = None,
    ) -> ServiceFuture:
        """Queue a workload; returns a future resolving to the ordered
        :class:`ServiceResult`.

        ``model`` is a ``name[@version]`` spec routed through the
        registry (``None`` → the default model); ``request_class`` is
        an SLO class name (``None`` → ``standard``).

        Raises :class:`ValueError` on malformed/empty input, a
        malformed model spec, or an unknown class;
        :class:`~repro.runtime.registry.UnknownModelError` on an
        unknown/retired model; and :class:`ServiceError` when called
        after :meth:`stop` (an explicitly stopped pool must be
        restarted with :meth:`start`; it never auto-resurrects, and
        never hangs on dead queues).
        """
        xs = self._validate_workload(xs)
        cls = resolve_request_class(request_class)
        with self._lifecycle_lock:
            # under the lifecycle lock a racing stop() cannot tear the
            # pool down between the started check and task enqueueing
            if self._failure is not None:
                raise self._failure
            if self._stopped and not self._started:
                raise ServiceError(
                    "service is stopped; call start() before submitting"
                )
            entry = self.registry.resolve(model)
            if entry.key not in self._models:
                raise ServiceError(
                    f"model {entry.spec} is registered but not loaded "
                    "into the pool; use load_model() to serve it"
                )
            if not self._started:
                self.start()
            return self._submit_started(xs, entry, cls)

    def _cancel_request(self, request: "_Request") -> bool:
        """Abandon a request: unregister its chunks so queued ones are
        skipped by the dispatcher and in-flight results are dropped as
        late duplicates (worker-side load accounting still releases
        normally in ``_finish_chunk``/``_fail_seq``)."""
        with self._lock:
            if request.future.done():
                return False
            request.failed = True
            for seq in request.seqs:
                self._open_seqs.pop(seq, None)
            self._close_request_locked(request)
        request.future._set_error(
            ServiceError("request cancelled by the caller")
        )
        return True

    def _submit_started(
        self, xs: np.ndarray, entry: ModelEntry, cls: RequestClass
    ) -> ServiceFuture:
        future = ServiceFuture()
        future.model = entry.spec
        future.request_class = cls.name
        if self._slo_ms is not None:
            chunks = list(self._adaptive_for(entry.key, cls).iter_chunks(xs))
        else:
            chunks = list(iter_microbatches(xs, self.batch_size))
        with self._lock:
            request = _Request(
                request_id=self._request_counter,
                seqs=[],
                chunks=[None] * len(chunks),
                chunk_shards=[-1] * len(chunks),
                remaining=len(chunks),
                future=future,
                submitted_at=time.perf_counter(),
                key=entry.key,
                cls=cls,
            )
            future._cancel_hook = lambda: self._cancel_request(request)
            self._request_counter += 1
            self._model_requests[entry.key] = (
                self._model_requests.get(entry.key, 0) + 1
            )
            self._open_model_requests[entry.key] = (
                self._open_model_requests.get(entry.key, 0) + 1
            )
            tasks = []
            for index, chunk in enumerate(chunks):
                seq = self._seq
                self._seq += 1
                request.seqs.append(seq)
                self._open_seqs[seq] = (request, index)
                tasks.append(
                    _Task(
                        seq, request, index, chunk,
                        key=entry.key, priority=cls.priority,
                    )
                )
        for task in tasks:
            self._enqueue_task(task)
        return future

    def _enqueue_task(self, task: _Task) -> None:
        """Priority-queue entry: higher classes (lower priority number)
        dispatch first; the monotonic tie-breaker keeps FIFO order
        within a class and makes entries totally ordered."""
        task.enqueued_at = time.monotonic()
        self._dispatch_queue.put(
            (task.priority, next(self._dispatch_counter), task)
        )

    def run(
        self,
        xs: np.ndarray,
        timeout: Optional[float] = None,
        *,
        model: Optional[str] = None,
        request_class: Optional[str] = None,
    ) -> ServiceResult:
        """Submit a workload and block for its ordered result."""
        return self.submit(
            xs, model=model, request_class=request_class
        ).result(timeout)

    # -- accounting -----------------------------------------------------
    def stats(self) -> ThroughputStats:
        """Lifetime engine-side accounting merged across every shard the
        service has ever run (dead shards included)."""
        with self._lock:
            return merge_shard_stats(self._shard_stats)

    def shard_stats(self) -> Dict[int, ThroughputStats]:
        """Per-shard lifetime accounting (copies, keyed by shard id)."""
        with self._lock:
            return {
                shard_id: ThroughputStats().merge(stats)
                for shard_id, stats in self._shard_stats.items()
            }

    def class_wait_stats(self) -> Dict[str, dict]:
        """Enqueue→dispatch wait percentiles per request class, over a
        sliding window of the last ``WAIT_WINDOW`` dispatches.  Values
        are milliseconds (``None`` until a class has seen traffic)."""
        with self._lock:
            windows = {
                name: list(waits)
                for name, waits in self._class_waits.items()
            }
        out: Dict[str, dict] = {}
        for name, waits in windows.items():
            if waits:
                p50, p95, p99 = np.percentile(waits, [50.0, 95.0, 99.0])
                out[name] = {
                    "count": len(waits),
                    "wait_ms_p50": float(p50) * 1e3,
                    "wait_ms_p95": float(p95) * 1e3,
                    "wait_ms_p99": float(p99) * 1e3,
                }
            else:
                out[name] = {
                    "count": 0,
                    "wait_ms_p50": None,
                    "wait_ms_p95": None,
                    "wait_ms_p99": None,
                }
        return out

    def fault_stats(self) -> dict:
        """Lifetime fault/recovery accounting.  ``dead_reaps`` counts
        every reaped shard (``hung_reaps`` is the watchdog-triggered
        subset of it); ``spawn_to_ready_seconds`` holds one fork→ready
        latency per shard ever spawned (respawns included)."""
        with self._lock:
            stats = dict(self._fault_counts)
            stats["restarts"] = self.restarts
            stats["max_restarts"] = self.max_restarts
            stats["spawn_to_ready_seconds"] = list(self._spawn_seconds)
        return stats

    # -- fault injection ------------------------------------------------
    # The seeded chaos layer (repro.runtime.chaos) drives these four
    # hooks; each one forges a distinct production failure shape and
    # each is recovered by a different mechanism (see fault_stats()).

    def _pick_shard_locked(self, shard_id: Optional[int], verb: str) -> _Shard:
        """Target of one injection (caller holds ``self._lock``)."""
        candidates = sorted(
            s for s in self._shards if not self._shards[s].stopping
        )
        if not candidates:
            raise ServiceError(f"no live shard to {verb}")
        target = candidates[0] if shard_id is None else shard_id
        if target not in self._shards:
            raise ServiceError(f"no shard {target} to {verb}")
        return self._shards[target]

    def inject_crash(self, shard_id: Optional[int] = None) -> int:
        """Make one worker die abruptly (``os._exit``), exercising the
        requeue-and-respawn path.  Returns the doomed shard's id."""
        with self._lock:
            shard = self._pick_shard_locked(shard_id, "crash")
            shard.task_queue.put(("crash",))
            self._fault_counts["injected_crashes"] += 1
            return shard.shard_id

    def inject_hang(self, shard_id: Optional[int] = None) -> int:
        """Make one worker hang: the process stays alive but stops
        reading its queue and stops heartbeating, exercising the
        heartbeat watchdog (reap + requeue + respawn).  Returns the
        hung shard's id."""
        with self._lock:
            shard = self._pick_shard_locked(shard_id, "hang")
            shard.task_queue.put(("hang",))
            self._fault_counts["injected_hangs"] += 1
            return shard.shard_id

    def inject_slowdown(
        self, delay_s: float, shard_id: Optional[int] = None
    ) -> int:
        """Delay every subsequent batch on one worker by ``delay_s``
        seconds (still heartbeating: the watchdog must classify it as
        slow, not hung).  ``delay_s=0`` restores full speed.  Returns
        the slowed shard's id."""
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        with self._lock:
            shard = self._pick_shard_locked(shard_id, "slow down")
            shard.task_queue.put(("slow", float(delay_s)))
            self._fault_counts["injected_slowdowns"] += 1
            return shard.shard_id

    def inject_descriptor_drop(self, batches: int = 1) -> None:
        """Arm dropping of the next ``batches`` dispatch messages: the
        batch is accounted in flight but its message never reaches the
        worker.  Recovery needs ``task_timeout`` (in-flight
        redelivery); without it the batch waits for a shard reap."""
        if batches < 1:
            raise ValueError("batches must be positive")
        with self._lock:
            self._drop_next += int(batches)

    # -- internals ------------------------------------------------------
    def _spawn_shard(self) -> _Shard:
        # Respawns run on the collector thread while the dispatcher is
        # live, so with the default "fork" method the child may inherit
        # other threads' lock state.  That is safe for everything this
        # child actually touches: both of its queues are created fresh
        # below (no one else holds their locks yet), and it never
        # touches any other shard's queues.  Deployments that still
        # prefer full isolation can pass ``start_method="spawn"``.
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        task_queue = self._ctx.Queue()
        result_queue = self._ctx.Queue()
        # Heartbeat side channel: a lock-free shared counter the worker
        # bumps and the watchdog samples.  Single writer, so torn reads
        # at worst delay one watchdog tick.
        heartbeat = self._ctx.Value("Q", 0, lock=False)
        pin_cpus = None
        if self._affinity_plan:
            # claim the lowest plan slot no live shard holds, so a
            # replacement inherits the dead shard's CPU share and the
            # partition stays disjoint across respawns
            with self._lock:
                held = {
                    self._affinity_slots[sid]
                    for sid in self._shards
                    if sid in self._affinity_slots
                }
                slot = next(
                    (s for s in range(self.num_workers) if s not in held),
                    shard_id % self.num_workers,
                )
                self._affinity_slots[shard_id] = slot
            pin_cpus = self._affinity_plan[slot]
        with self._lock:
            # snapshot of every currently-served model (including any
            # hot-swapped since start), so replacements and late spawns
            # can take traffic for all of them
            models_payload = dict(self._models)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                shard_id,
                models_payload,
                self.batch_size,
                task_queue,
                result_queue,
                heartbeat,
                pin_cpus,
            ),
            name=f"detection-shard-{shard_id}",
            daemon=True,
        )
        shard = _Shard(shard_id, process, task_queue, result_queue)
        shard.heartbeat = heartbeat
        shard.loaded_models = set(models_payload)
        with self._lock:
            self._shards[shard_id] = shard
            self._shard_stats.setdefault(shard_id, ThroughputStats())
        process.start()
        return shard

    def _ready_shards(self) -> List[_Shard]:
        return sorted(
            (
                s
                for s in self._shards.values()
                if s.ready.is_set()
                and not s.stopping
                and not s.broken
                and s.process.is_alive()
            ),
            key=lambda s: s.shard_id,
        )

    def _abort(self, failure: ServiceError) -> None:
        """Last-resort failure path: mark the service dead and fail
        every open request, so callers blocked in ``result()`` get an
        error instead of hanging forever."""
        with self._lock:
            self._failure = failure
            open_requests = {
                request for request, _ in self._open_seqs.values()
            }
            self._open_seqs.clear()
            for request in open_requests:
                request.failed = True
                request.future._set_error(failure)
                self._close_request_locked(request)

    def _dispatch_loop(self) -> None:
        try:
            self._dispatch_forever()
        except Exception as exc:  # e.g. a custom scheduler raising
            self._abort(ServiceError(f"dispatcher crashed: {exc!r}"))

    def _dispatch_forever(self) -> None:
        while True:
            _, _, task = self._dispatch_queue.get()
            if task is None:
                return
            while not self._stop_event.is_set():
                if task.request.failed:
                    break
                with self._lock:
                    ready = self._ready_shards()
                    if ready:
                        target = self._scheduler.choose(
                            [s.load() for s in ready]
                        )
                        shard = self._shards[target]
                        now = time.monotonic()
                        task.dispatched_at = now
                        if task.enqueued_at:
                            self._class_waits[task.request.cls.name].append(
                                now - task.enqueued_at
                            )
                        shard.inflight[task.seq] = task
                        shard.inflight_samples += len(task.batch)
                        shard.dispatched_batches += 1
                        if self._drop_next > 0:
                            # injected drop: the batch is accounted in
                            # flight but its message never reaches the
                            # worker
                            self._drop_next -= 1
                            self._fault_counts["descriptor_drops"] += 1
                        else:
                            self._queue_batches += 1
                            shard.task_queue.put(
                                ("batch", task.seq, task.key, task.batch)
                            )
                        break
                # no ready shard right now (e.g. respawn in progress)
                time.sleep(0.005)

    def live_shards(self) -> List[int]:
        """Ids of the shards currently in the pool, ascending."""
        with self._lock:
            return sorted(self._shards)

    def transport_stats(self) -> dict:
        """Lifetime count of batches sent to the workers.  Only
        ``queue_batches`` is measured; the other five keys are constant
        0 (perfbench/workload_http.py reads all six)."""
        with self._lock:
            queue_batches = self._queue_batches
        return {
            "queue_batches": queue_batches,
            "shm_batches": 0,
            "slot_fallbacks": 0,
            "size_fallbacks": 0,
            "shm_bytes_in": 0,
            "shm_bytes_out": 0,
        }

    def _collect_loop(self) -> None:
        try:
            self._collect_forever()
        except Exception as exc:
            self._abort(ServiceError(f"collector crashed: {exc!r}"))

    def _collect_forever(self) -> None:
        # Polls every shard's private result queue.  Health checks run
        # on a clock, not only on queue idleness: under sustained
        # traffic the queues are never all empty, and a dead shard's
        # orphaned batches must still be requeued.
        last_health_check = time.monotonic()
        while not self._stop_event.is_set():
            now = time.monotonic()
            if now - last_health_check >= 0.1:
                last_health_check = now
                self._check_health()
            with self._lock:
                shards = list(self._shards.values())
            progressed = False
            for shard in shards:
                progressed |= self._drain_shard_results(shard)
            if not progressed:
                time.sleep(0.002)

    def _drain_shard_results(self, shard: _Shard) -> bool:
        """Handle everything currently queued by one shard; returns
        whether any message arrived."""
        progressed = False
        while True:
            try:
                kind, worker_id, payload = (
                    shard.result_queue.get_nowait()
                )
            except queue.Empty:
                return progressed
            except Exception:
                # corrupt/closed stream (EOF, truncated pickle from a
                # worker killed mid-write, ...): only this shard is
                # affected — mark it broken so the health check reaps
                # it, requeues its in-flight batches, and spawns a
                # replacement
                shard.broken = True
                return progressed
            progressed = True
            if kind == "ready":
                with self._lock:
                    shard.last_beat_at = time.monotonic()
                    self._spawn_seconds.append(
                        time.monotonic() - shard.spawned_at
                    )
                shard.ready.set()
            elif kind == "loaded":
                # hot-swap ack: the worker built (or failed to build)
                # the new version's engine
                key, error = payload
                if error is None:
                    shard.loaded_models.add(key)
                else:
                    with self._lock:
                        self._load_errors[key] = error
            elif kind == "batch":
                self._finish_chunk(worker_id, payload)
            elif kind == "error":
                seq, message = payload
                self._fail_seq(worker_id, seq, message)
            elif kind == "fatal":
                # the worker announced its own startup failure; the
                # health check will reap the process and respawn
                shard.broken = True

    def _finish_chunk(self, worker_id: int, payload: dict) -> None:
        seq = payload["seq"]
        finalize: Optional[_Request] = None
        with self._lock:
            shard = self._shards.get(worker_id)
            if shard is not None:
                task = shard.inflight.pop(seq, None)
                if task is not None:
                    shard.inflight_samples -= len(task.batch)
            entry = self._open_seqs.pop(seq, None)
            if entry is None:
                # late duplicate from a shard whose in-flight batches
                # were requeued after it was declared dead
                return
            # Record against the shard id even if the handle was already
            # reaped — lifetime accounting includes dead shards, and the
            # seq guard above keeps this exactly-once.
            worker_stats = self._shard_stats.get(worker_id)
            if worker_stats is not None:
                worker_stats.record(
                    payload["size"],
                    payload["seconds"],
                    stages=payload["stages"],
                )
            request, chunk_index = entry
            model_stats = self._model_stats.setdefault(
                request.key, ThroughputStats()
            )
            model_stats.record(
                payload["size"],
                payload["seconds"],
                stages=payload["stages"],
            )
            if self._slo_ms is not None:
                # this request's (model, class) controller learns from
                # every shard's engine-side latency, steering how
                # future same-class requests are chunked
                self._adaptive_for(request.key, request.cls).observe(
                    payload["size"], payload["seconds"]
                )
            request.chunks[chunk_index] = payload
            request.chunk_shards[chunk_index] = worker_id
            request.remaining -= 1
            if request.remaining == 0:
                finalize = request
                self._close_request_locked(request)
        if finalize is not None:
            self._finalize_request(finalize)

    def _finalize_request(self, request: _Request) -> None:
        wall = time.perf_counter() - request.submitted_at
        stats = ThroughputStats()
        for chunk in request.chunks:
            stats.record(
                chunk["size"], chunk["seconds"], stages=chunk["stages"]
            )
        request.future._set_result(
            ServiceResult(
                scores=np.concatenate(
                    [c["scores"] for c in request.chunks]
                ),
                predicted_classes=np.concatenate(
                    [c["predicted_classes"] for c in request.chunks]
                ),
                is_adversarial=np.concatenate(
                    [c["is_adversarial"] for c in request.chunks]
                ),
                similarities=np.concatenate(
                    [c["similarities"] for c in request.chunks]
                ),
                stats=stats,
                chunk_shards=list(request.chunk_shards),
                wall_seconds=wall,
            )
        )

    def _fail_seq(self, worker_id: int, seq: int, message: str) -> None:
        """A worker hit a deterministic per-batch error: requeueing
        would loop, so the whole request fails."""
        with self._lock:
            # the worker survives the error, so its load accounting
            # must be released like any completed batch
            shard = self._shards.get(worker_id)
            if shard is not None:
                task = shard.inflight.pop(seq, None)
                if task is not None:
                    shard.inflight_samples -= len(task.batch)
            entry = self._open_seqs.pop(seq, None)
            if entry is None:
                return
            request, _ = entry
            request.failed = True
            for other in request.seqs:
                self._open_seqs.pop(other, None)
            self._close_request_locked(request)
        request.future._set_error(
            ServiceError(f"worker failed processing batch: {message}")
        )

    def _check_health(self) -> None:
        orphans: List[_Task] = []
        redelivered: List[_Task] = []
        with self._lock:
            now = time.monotonic()
            for shard in self._shards.values():
                # Heartbeat watchdog: a worker that stops bumping its
                # counter for longer than hang_timeout is alive but
                # wedged (hung syscall, deadlocked import, injected
                # hang).  Mark it broken so the reap below treats it
                # exactly like a dead worker: terminate, requeue
                # in-flight batches, respawn.
                if (
                    self.hang_timeout is not None
                    and not shard.stopping
                    and not shard.broken
                    and shard.ready.is_set()
                    and shard.heartbeat is not None
                    and shard.process.is_alive()
                ):
                    beat = shard.heartbeat.value
                    if beat != shard.last_beat:
                        shard.last_beat = beat
                        shard.last_beat_at = now
                    elif now - shard.last_beat_at > self.hang_timeout:
                        shard.broken = True
                        self._fault_counts["hung_reaps"] += 1
                # In-flight redelivery: a batch whose message was lost
                # never comes back on its own; with a task_timeout it is
                # redelivered to the pool.  At-least-once delivery is
                # safe: late duplicates are dropped by the seq guard in
                # _finish_chunk.
                if (
                    self.task_timeout is not None
                    and not shard.stopping
                    and not shard.broken
                ):
                    overdue = [
                        t
                        for t in shard.inflight.values()
                        if t.dispatched_at
                        and now - t.dispatched_at > self.task_timeout
                    ]
                    for task in overdue:
                        del shard.inflight[task.seq]
                        shard.inflight_samples -= len(task.batch)
                        self._fault_counts["redelivered_tasks"] += 1
                        redelivered.append(task)
            dead = [
                s
                for s in self._shards.values()
                if not s.stopping
                and (s.broken or not s.process.is_alive())
            ]
            self._fault_counts["dead_reaps"] += len(dead)
            for shard in dead:
                if shard.process.is_alive():  # broken stream, live body
                    shard.process.terminate()
                    shard.process.join(timeout=5)
                # salvage results the shard delivered before dying (so
                # only genuinely lost batches get requeued), then drop
                # it from the pool
                self._drain_shard_results(shard)
                del self._shards[shard.shard_id]
                orphans.extend(shard.inflight.values())
                for q in (shard.task_queue, shard.result_queue):
                    q.close()
                    q.cancel_join_thread()
                if self.restarts < self.max_restarts:
                    self.restarts += 1
                    self._spawn_shard()
            if dead:
                # the pool membership changed; stateful schedulers may
                # drop any per-shard cursor they keep
                self._scheduler.reset()
            if dead and not self._shards:
                self._abort(ServiceError(
                    "all workers died and the restart budget is exhausted"
                ))
                return
        for task in redelivered + orphans:
            if not task.request.failed:
                self._enqueue_task(task)


# -- measurement harness -----------------------------------------------------

def measure_worker_scaling(
    detector,
    model_factory: Callable,
    traffic: np.ndarray,
    worker_counts=(1, 2, 4),
    batch_size: int = 32,
    repeats: int = 2,
    threshold: float = 0.5,
    scheduler: Union[str, ShardScheduler] = "round-robin",
    state: Optional[dict] = None,
    pin_workers: bool = False,
) -> dict:
    """Wall-clock samples/sec of the sharded service per pool size.

    The sharded twin of :func:`repro.runtime.measure_throughput`, and
    the one harness behind the CLI ``serve``/``throughput --workers``,
    ``benchmarks/bench_runtime_scaling.py``, and the CI perf gate's
    worker envelope.  Each pool size gets a warm-up pass plus
    ``repeats`` timed passes with the best pass reported; the first
    pass's scores are attached so callers can check bit-identical
    decisions across pool sizes (and against the single-process
    engine).  The detector state is serialised once and shared by every
    pool.
    """
    if state is None:
        state = detector_to_state(detector)
    results = {}
    for workers in worker_counts:
        with ShardedDetectionService(
            state=state,
            model_factory=model_factory,
            num_workers=workers,
            threshold=threshold,
            batch_size=batch_size,
            scheduler=scheduler,
            pin_workers=pin_workers,
        ) as service:
            service.run(traffic[: min(len(traffic), 2 * batch_size)])  # warm
            best = None
            scores = None
            rejection_rate = 0.0
            for _ in range(repeats):
                run = service.run(traffic)
                if scores is None:
                    scores = run.scores
                    rejection_rate = run.rejection_rate
                if best is None or run.samples_per_sec > best.samples_per_sec:
                    best = run
            report = {
                "workers": float(workers),
                "samples": float(best.num_samples),
                "wall_seconds": best.wall_seconds,
                "samples_per_sec": best.samples_per_sec,
                "mean_batch_latency_ms": best.stats.mean_batch_latency_ms,
                "p95_batch_latency_ms": (
                    best.stats.latency_percentile_ms(95.0)
                ),
                "engine_seconds": best.stats.total_seconds,
                "scores": scores,
                "rejection_rate": rejection_rate,
            }
        results[workers] = report
    return results
