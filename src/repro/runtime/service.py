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
  dispatch queue.  Every request is chunked at the one fixed
  ``batch_size``, whatever its model or class.

All request → task → seq → shard → completion bookkeeping lives in
the I/O-free :class:`~repro.runtime.lifecycle.LifecycleCore` (its
docstring lists the events and invariants).  This module's threads and
hot-swap calls only feed it events under ``self._lock`` and do the
queue puts, process spawns and future resolution it asks for.  The
dispatcher, ``start()`` and ``load_model()`` wait on one condition,
notified when a shard is ready, a load is acked, or a task is queued.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_for_readers
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.serialization import detector_from_state, detector_to_state
from repro.runtime.batching import iter_microbatches
from repro.runtime.lifecycle import (
    Effects,
    LifecycleCore,
    Request,
    ServiceError,
)
from repro.runtime.registry import (
    DEFAULT_MODEL,
    ModelEntry,
    ModelRegistry,
    UnknownModelError,
    parse_model_spec,
    resolve_request_class,
)
from repro.runtime.sharding import (
    ShardScheduler,
    make_scheduler,
    merge_shard_stats,
    plan_worker_affinity,
)
from repro.runtime.stats import ThroughputStats
from repro.runtime.threads import cpu_share, limit_blas_threads

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

#: Seconds between the collector's health checks (reap, requeue,
#: respawn); the collector's blocking wait never outlasts the next one.
HEALTH_CHECK_INTERVAL = 0.1


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
    heartbeat.value += 1


def _worker_main(
    worker_id: int,
    # (name, version) -> (payload, model_factory, threshold); payloads
    # are dicts under fork (COW pages), pickled bytes under spawn
    models_payload: dict,
    batch_size: int,
    task_queue,
    result_queue,
    heartbeat,
    pin_cpus: Optional[Tuple[int, ...]] = None,
    blas_budget: int = 1,
) -> None:
    """Shard process entry point: rebuild one engine per broadcast
    model, then serve model-keyed micro-batches until told to stop."""
    # before any engine exists: the pool's BLAS threads must not
    # outnumber its CPUs
    blas_threads = limit_blas_threads(blas_budget)
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
    result_queue.put(("ready", worker_id, {"blas_threads": blas_threads}))
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
            error = None
            try:
                engines[key] = _build_worker_engine(
                    factory, payload, threshold, batch_size
                )
            except Exception as exc:
                error = repr(exc)
            result_queue.put(("loaded", worker_id, (key, error)))
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
            while (remaining := slow_until - time.monotonic()) > 0.0:
                _beat(heartbeat)
                time.sleep(min(HEARTBEAT_INTERVAL / 4.0, remaining))
        engine = engines.get(key)
        if engine is None:
            # The parent sends a batch only while its seq is open, so
            # its version is still loaded: a version unloads only after
            # its last request closed, and the unload message queues
            # behind every batch sent before it.  Kept as a
            # deterministic error in place of a crashed worker.
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


# -- parent-side worker handle ---------------------------------------------

@dataclass
class _Worker:
    """The I/O half of one shard (the core holds the rest).  Each
    shard owns a private result queue: a worker that dies while its
    queue feeder holds a put-lock can only wedge *its own* queue, never
    the survivors' — its in-flight batches are requeued anyway."""

    task_queue: "mp.queues.Queue"
    result_queue: "mp.queues.Queue"
    # liveness side channel: the worker bumps `heartbeat` (a lock-free
    # mp.Value) every queue poll and every chunk; the parent watchdog
    # tracks the last observed counter and when it last moved
    heartbeat: object
    process: Optional[mp.process.BaseProcess] = None
    last_beat: int = -1
    last_beat_at: float = 0.0

    def close(self) -> None:
        for q in (self.task_queue, self.result_queue):
            q.close()
            q.cancel_join_thread()


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
        if self._event.is_set() or self._cancel_hook is None:
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
        return float(self.is_adversarial.mean()) if self.num_samples else 0.0

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
        Accepted only as ``None`` (requests are always chunked at the
        fixed ``batch_size``); anything else raises ``ValueError``.
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
        Either way every worker lowers its OpenBLAS thread count to its
        CPU share at startup (``len`` of its pinned set, else this
        process's CPUs // ``num_workers``, at least 1), so the pool
        never runs more BLAS threads than it has CPUs.
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
        # perfbench/workload_http.py passes slo_ms=defaults.slo_ms
        if slo_ms is not None:
            raise ValueError(
                f"slo_ms={slo_ms!r} is not supported; requests are "
                "chunked at the fixed batch_size"
            )
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
        # for every spawn — initial pool and respawns alike.  start()
        # fills it from the registry.
        self._models: Dict[Tuple[str, int], tuple] = {}
        self.num_workers = num_workers
        self.threshold = threshold
        self.batch_size = batch_size
        self.pin_workers = bool(pin_workers)
        self._affinity_plan = (
            plan_worker_affinity(num_workers) if self.pin_workers else None
        )
        # BLAS threads per unpinned worker; a pinned worker gets one per
        # CPU of its share instead
        self._blas_budget = cpu_share(num_workers)
        self.hang_timeout = hang_timeout
        self.task_timeout = task_timeout
        self._core = LifecycleCore(
            make_scheduler(scheduler), num_workers,
            num_workers if max_restarts is None else max_restarts,
        )
        self._ready_timeout = ready_timeout

        self._lock = threading.RLock()
        # notified when a shard becomes ready, a load is acked, a task
        # is queued, or the pool stops or fails: the dispatcher,
        # start() and load_model() wait on it instead of polling
        self._wake = threading.Condition(self._lock)
        # Serialises start()/stop() against concurrent submit() callers
        # (reentrant: start()'s failure path calls stop()).
        self._lifecycle_lock = threading.RLock()
        self._workers: Dict[int, _Worker] = {}
        self._started = False
        self._stopped = False  # True only after an explicit stop()
        self._stop_event = threading.Event()
        self._failure: Optional[ServiceError] = None
        self._threads: List[threading.Thread] = []

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "ShardedDetectionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def restarts(self) -> int:
        """Worker respawns so far (lifetime, across restarts)."""
        return self._core.restarts

    @property
    def max_restarts(self) -> int:
        return self._core.max_restarts

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
            # adopt everything registered while the pool was down
            # (load_model keeps this in sync itself)
            for entry in self.registry.serving_entries():
                if entry.key not in self._models:
                    self._models[entry.key] = self._model_payload(entry)
            for _ in range(self.num_workers):
                self._spawn_shard()
            self._threads = [
                threading.Thread(
                    target=self._guarded, args=(loop, name),
                    name=f"service-{name}", daemon=True,
                )
                for loop, name in (
                    (self._collect_forever, "collector"),
                    (self._dispatch_forever, "dispatcher"),
                )
            ]
            for thread in self._threads:
                thread.start()
            self._started = True
            shards = self._core.shards
            with self._wake:
                warm = self._wake.wait_for(
                    lambda: self._failure is not None
                    or all(s.ready for s in shards.values()),
                    self._ready_timeout,
                )
            failure = self._failure
            if failure is None and warm:
                return self
            self.stop()
            raise failure or ServiceError(
                "worker pool failed to become ready in time"
            )

    def stop(self) -> None:
        """Shut the pool down; outstanding requests fail cleanly."""
        with self._lifecycle_lock:
            if not self._started:
                return
            with self._wake:
                self._stop_event.set()
                self._apply_locked(self._core.stop())
                workers = list(self._workers.values())
                self._wake.notify_all()
            # each worker finishes its queued batches before it reads
            # "stop", so in-flight requests can still complete here
            for worker in workers:
                worker.process.join(timeout=10)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5)
            for thread in self._threads:
                thread.join(timeout=10)
            with self._lock:
                fx = self._apply_locked(self._core.shutdown(
                    "service stopped with the request pending"
                ))
                for worker in workers:
                    worker.close()
                self._workers.clear()
            self._resolve(fx)
            self._started = False
            self._stopped = True

    @property
    def alive_workers(self) -> int:
        """Shards currently able to take traffic: past their "ready"
        message, and neither stopping nor broken."""
        with self._lock:
            return len(self._core.eligible())

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

    def model_stats(self) -> Dict[str, ThroughputStats]:
        """Lifetime engine-side accounting per served model version
        (copies, keyed by ``name@version``; retired versions remain)."""
        with self._lock:
            return {
                f"{key[0]}@{key[1]}": ThroughputStats().merge(version.stats)
                for key, version in sorted(self._core.versions.items())
                if version.stats.batches
            }

    def models(self) -> dict:
        """JSON-safe listing of every registered model version plus the
        live serving view: per-version request/sample counts, open
        requests, and whether the version is draining toward retire.
        This is what ``GET /v1/models`` returns."""
        listing = self.registry.describe()
        with self._lock:
            for row in listing["models"]:
                version = self._core.versions[(row["name"], row["version"])]
                row["requests"] = version.requests
                row["open_requests"] = version.open
                row["samples"] = int(version.stats.samples)
                row["draining"] = version.retiring
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
            base = None
            if source is not None:
                if detector is not None or state is not None:
                    raise ValueError(
                        "pass either source= or a detector/state, not both"
                    )
                base = self.registry.resolve(source)
                state = base.state
            elif name in self.registry:
                base = self.registry.get(name)
            if base is not None:
                model_factory = model_factory or base.model_factory
                threshold = base.threshold if threshold is None else threshold
            if threshold is None:
                threshold = self.threshold
            serving = self.registry.serving_version(name)
            entry = self.registry.register(
                name, detector=detector, state=state,
                model_factory=model_factory, threshold=threshold,
            )
            runtime = self._model_payload(entry)
            with self._lock:
                self._models[entry.key] = runtime
                self._apply_locked(self._core.load(entry.key, runtime))
            self._await_model_loaded(entry, timeout)
            self.registry.promote(name, entry.version)
            if serving is not None:
                with self._lock:
                    self._apply_locked(
                        self._core.retire_when_drained((name, serving))
                    )
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
                # both raise ValueError: while requests are open, and
                # for the serving version — checked under the lock so a
                # concurrent submit cannot slip in before the unload
                fx = self._core.unload(entry.key)
                self.registry.retire(name, entry.version)
                self._apply_locked(fx)
            return {"spec": entry.spec, "retired": True}

    def _await_model_loaded(self, entry: ModelEntry, timeout: float) -> None:
        """Block until every live worker acks the new model's engine;
        on any load failure or timeout roll the version back so routing
        never flips to a state the pool cannot serve."""
        core = self._core
        with self._wake:
            version = core.versions[entry.key]
            loaded = self._wake.wait_for(
                lambda: version.load_error is not None
                or not core.load_pending(entry.key),
                timeout,
            )
            error = version.load_error
            if loaded and error is None:
                return
            pending = len(core.load_pending(entry.key))
            self._apply_locked(core.unload(entry.key))
        raise ServiceError(
            f"hot-swap of {entry.spec} failed on a worker: {error}"
            if error is not None else
            f"hot-swap of {entry.spec} timed out waiting for "
            f"{pending} worker(s) to load it"
        )

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
            raise ValueError("workload is empty: submit at least one sample")
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
        a request class name (``None`` → ``standard``).

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
            if self._started and entry.key not in self._models:
                raise ServiceError(
                    f"model {entry.spec} is registered but not loaded "
                    "into the pool; use load_model() to serve it"
                )
            if not self._started:
                self.start()
            future = ServiceFuture()
            future.model = entry.spec
            future.request_class = cls.name
            chunks = list(iter_microbatches(xs, self.batch_size))
            with self._wake:
                request = self._core.submit(
                    entry.key, cls, chunks, future, time.monotonic()
                )
                self._wake.notify_all()
            future._cancel_hook = lambda: self._cancel_request(request)
            return future

    def _cancel_request(self, request: Request) -> bool:
        """Abandon a request: queued chunks are skipped by the
        dispatcher and in-flight results are dropped as late
        duplicates."""
        with self._lock:
            fx = self._core.cancel(request)
            if fx is None:
                return False
            self._apply_locked(fx)
        self._resolve(fx)
        return True

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
            return merge_shard_stats(self._core.shard_stats)

    def shard_stats(self) -> Dict[int, ThroughputStats]:
        """Per-shard lifetime accounting (copies, keyed by shard id)."""
        with self._lock:
            return {
                shard_id: ThroughputStats().merge(stats)
                for shard_id, stats in self._core.shard_stats.items()
            }

    def blas_threads(self) -> Dict[int, Optional[int]]:
        """OpenBLAS threads per ready shard, as each worker reported it
        (``None`` where the worker could not set a count)."""
        with self._lock:
            return {
                shard.shard_id: shard.blas_threads
                for shard in self._core.shards.values() if shard.ready
            }

    def class_wait_stats(self) -> Dict[str, dict]:
        """Enqueue→dispatch wait percentiles per request class, over a
        sliding window of the last ``WAIT_WINDOW`` dispatches.  Values
        are milliseconds (``None`` until a class has seen traffic)."""
        with self._lock:
            windows = {
                name: list(waits)
                for name, waits in self._core.class_waits.items()
            }
        return {
            name: {"count": len(waits), **{
                f"wait_ms_p{q}": (
                    float(np.percentile(waits, q)) * 1e3 if waits else None
                )
                for q in (50, 95, 99)
            }}
            for name, waits in windows.items()
        }

    def fault_stats(self) -> dict:
        """Lifetime fault/recovery accounting.  ``dead_reaps`` counts
        every reaped shard (``hung_reaps`` is the watchdog-triggered
        subset of it); ``spawn_to_ready_seconds`` holds one fork→ready
        latency per shard ever spawned (respawns included)."""
        with self._lock:
            return self._core.fault_stats()

    def live_shards(self) -> List[int]:
        """Ids of the shards currently in the pool, ascending."""
        with self._lock:
            return sorted(self._core.shards)

    def transport_stats(self) -> dict:
        """Lifetime count of batches sent to the workers.  Only
        ``queue_batches`` is measured; the other five keys are constant
        0 (perfbench/workload_http.py reads all six)."""
        with self._lock:
            sent = self._core.sent_batches
        return {"queue_batches": sent, **dict.fromkeys((
            "shm_batches", "slot_fallbacks", "size_fallbacks",
            "shm_bytes_in", "shm_bytes_out",
        ), 0)}

    # -- fault injection ------------------------------------------------
    # The seeded chaos layer (repro.runtime.chaos) drives these four
    # hooks; each one forges a distinct production failure shape and
    # each is recovered by a different mechanism (see fault_stats()).

    def _inject(self, kind: str, shard_id: Optional[int], *args) -> int:
        with self._lock:
            target, fx = self._core.inject(kind, shard_id, *args)
            self._apply_locked(fx)
            return target

    def inject_crash(self, shard_id: Optional[int] = None) -> int:
        """Make one worker die abruptly (``os._exit``), exercising the
        requeue-and-respawn path.  Returns the doomed shard's id."""
        return self._inject("crash", shard_id)

    def inject_hang(self, shard_id: Optional[int] = None) -> int:
        """Make one worker hang: the process stays alive but stops
        reading its queue and stops heartbeating, exercising the
        heartbeat watchdog (reap + requeue + respawn).  Returns the
        hung shard's id."""
        return self._inject("hang", shard_id)

    def inject_slowdown(
        self, delay_s: float, shard_id: Optional[int] = None
    ) -> int:
        """Delay every subsequent batch on one worker by ``delay_s``
        seconds (still heartbeating: the watchdog must classify it as
        slow, not hung).  ``delay_s=0`` restores full speed.  Returns
        the slowed shard's id."""
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        return self._inject("slow down", shard_id, float(delay_s))

    def inject_descriptor_drop(self, batches: int = 1) -> None:
        """Arm dropping of the next ``batches`` dispatch messages: the
        batch is accounted in flight but its message never reaches the
        worker.  Recovery needs ``task_timeout`` (in-flight
        redelivery); without it the batch waits for a shard reap.
        Shards with an injected crash or hang are skipped: their reap
        would recover the batch and hide whether redelivery works."""
        if batches < 1:
            raise ValueError("batches must be positive")
        with self._lock:
            self._core.drop_next += int(batches)

    # -- carrying out what the core decides -----------------------------
    def _apply_locked(self, fx: Effects) -> Effects:
        """Do the queue puts and registry retirements of ``fx`` (caller
        holds ``self._lock``, so each shard sees its messages in the
        order the core decided them)."""
        for shard_id, message in fx.sends:
            worker = self._workers.get(shard_id)
            if worker is None:
                continue
            try:
                worker.task_queue.put(message)
            except (ValueError, OSError):
                pass  # queue already closed: the shard is going away
        for key in fx.retired:
            self._models.pop(key, None)
            try:
                self.registry.retire(*key)
            except (ValueError, UnknownModelError):
                pass  # never served, or already retired
        return fx

    @staticmethod
    def _resolve(fx: Effects) -> None:
        """Resolve the futures of ``fx`` (outside the lock)."""
        for request, message in fx.failed:
            request.owner._set_error(ServiceError(message))
        for request in fx.done:
            stats = ThroughputStats()
            for chunk in request.chunks:
                stats.record(
                    chunk["size"], chunk["seconds"], stages=chunk["stages"]
                )
            request.owner._set_result(ServiceResult(
                **{
                    name: np.concatenate([c[name] for c in request.chunks])
                    for name in (
                        "scores", "predicted_classes", "is_adversarial",
                        "similarities",
                    )
                },
                stats=stats,
                chunk_shards=list(request.chunk_shards),
                wall_seconds=time.monotonic() - request.submitted_at,
            ))

    def _spawn_shard(self) -> None:
        # Respawns run on the collector thread while the dispatcher is
        # live, so with the default "fork" method the child may inherit
        # other threads' lock state.  That is safe for everything this
        # child actually touches: both of its queues are created fresh
        # below (no one else holds their locks yet), and it never
        # touches any other shard's queues.  Deployments that still
        # prefer full isolation can pass ``start_method="spawn"``.
        with self._lock:
            # every currently-served model (including any hot-swapped
            # since start), so replacements and late spawns can take
            # traffic for all of them
            models_payload = dict(self._models)
            shard = self._core.add_shard(
                set(models_payload), time.monotonic()
            )
            pin_cpus = (
                self._affinity_plan[shard.slot]
                if self._affinity_plan else None
            )
            worker = _Worker(
                task_queue=self._ctx.Queue(),
                result_queue=self._ctx.Queue(),
                # lock-free shared counter: single writer, so a torn
                # read at worst delays one watchdog tick
                heartbeat=self._ctx.Value("Q", 0, lock=False),
            )
            worker.process = self._ctx.Process(
                target=_worker_main,
                args=(
                    shard.shard_id, models_payload, self.batch_size,
                    worker.task_queue, worker.result_queue, worker.heartbeat,
                    pin_cpus,
                    len(pin_cpus) if pin_cpus else self._blas_budget,
                ),
                name=f"detection-shard-{shard.shard_id}",
                daemon=True,
            )
            self._workers[shard.shard_id] = worker
            worker.process.start()

    def _abort(self, failure: ServiceError) -> None:
        """Last-resort failure path: mark the service dead and fail
        every open request, so callers blocked in ``result()`` get an
        error instead of hanging forever."""
        with self._wake:
            self._failure = failure
            fx = self._apply_locked(self._core.abort(str(failure)))
            self._wake.notify_all()
        self._resolve(fx)

    def _guarded(self, loop: Callable[[], None], name: str) -> None:
        try:
            loop()
        except Exception as exc:  # e.g. a custom scheduler raising
            self._abort(ServiceError(f"{name} crashed: {exc!r}"))

    def _dispatch_forever(self) -> None:
        with self._wake:
            while not self._stop_event.is_set():
                fx = self._core.dispatch(time.monotonic())
                if fx is None:
                    # nothing queued, or no ready shard (e.g. a respawn
                    # in progress)
                    self._wake.wait()
                else:
                    self._apply_locked(fx)

    def _collect_forever(self) -> None:
        # Drains every shard's private result queue, then blocks until
        # one of them has data or the next health check is due.  Health
        # checks run on a clock, not only on queue idleness: under
        # sustained traffic the queues are never all empty, and a dead
        # shard's orphaned batches must still be requeued.
        last_health_check = time.monotonic()
        while not self._stop_event.is_set():
            now = time.monotonic()
            if now - last_health_check >= HEALTH_CHECK_INTERVAL:
                last_health_check = now
                self._check_health()
            with self._lock:
                workers = list(self._workers.items())
                # broken shards are left out of the wait: an unreadable
                # stream would wake it at once until the reap
                readers = [
                    worker.result_queue._reader
                    for shard_id, worker in workers
                    if not self._core.shards[shard_id].broken
                ]
            progressed = False
            for shard_id, worker in workers:
                progressed |= self._drain_shard_results(shard_id, worker)
            if not progressed:
                wait_for_readers(readers, max(0.0, (
                    last_health_check + HEALTH_CHECK_INTERVAL
                    - time.monotonic()
                )))

    def _drain_shard_results(self, shard_id: int, worker: "_Worker") -> bool:
        """Feed everything currently queued by one shard to the core;
        returns whether any message arrived."""
        progressed = False
        core = self._core
        while True:
            try:
                kind, _, payload = worker.result_queue.get_nowait()
            except queue.Empty:
                return progressed
            except Exception:
                # corrupt/closed stream (EOF, truncated pickle from a
                # worker killed mid-write, ...): only this shard is
                # affected
                kind = "fatal"
            fx = Effects()
            with self._wake:
                if shard_id not in core.shards:
                    return progressed  # stop() already forgot the pool
                if kind == "fatal":
                    # also a worker's own start-up failure: the health
                    # check reaps it, requeues its in-flight batches,
                    # and spawns a replacement
                    core.mark_broken(shard_id)
                    return progressed
                if kind == "ready":
                    core.ready(
                        shard_id, time.monotonic(), payload["blas_threads"]
                    )
                elif kind == "loaded":  # hot-swap ack (or load error)
                    core.loaded(shard_id, *payload)
                elif kind == "batch":
                    fx = core.finish(shard_id, payload["seq"], payload)
                else:  # "error": a deterministic per-batch failure
                    fx = core.fail_seq(shard_id, *payload)
                if kind in ("ready", "loaded"):
                    self._wake.notify_all()
                self._apply_locked(fx)
            progressed = True
            self._resolve(fx)

    def _check_health(self) -> None:
        core = self._core
        with self._wake:
            now = time.monotonic()
            for shard_id, worker in self._workers.items():
                # Heartbeat watchdog: a worker that stops bumping its
                # counter for longer than hang_timeout is alive but
                # wedged (hung syscall, deadlocked import, injected
                # hang); the reap below treats it exactly like a dead
                # worker.
                if (
                    self.hang_timeout is not None
                    and core.shards[shard_id].eligible
                    and worker.process.is_alive()
                ):
                    beat = worker.heartbeat.value
                    if beat != worker.last_beat:
                        worker.last_beat = beat
                        worker.last_beat_at = now
                    elif now - worker.last_beat_at > self.hang_timeout:
                        core.mark_broken(shard_id, hung=True)
            if self.task_timeout is not None:
                core.redeliver(now, self.task_timeout)
            dead = [
                shard_id for shard_id, worker in self._workers.items()
                if not core.shards[shard_id].stopping and (
                    core.shards[shard_id].broken
                    or not worker.process.is_alive()
                )
            ]
            for shard_id in dead:
                worker = self._workers.pop(shard_id)
                if worker.process.is_alive():  # broken stream, live body
                    worker.process.terminate()
                    worker.process.join(timeout=5)
                # salvage results the shard delivered before dying, so
                # only genuinely lost batches get requeued
                self._drain_shard_results(shard_id, worker)
                worker.close()
                if core.reap(shard_id, now):
                    self._spawn_shard()
            if dead and not core.shards:
                self._abort(ServiceError(
                    "all workers died and the restart budget is exhausted"
                ))
            # redelivered and requeued tasks may be dispatchable now
            self._wake.notify_all()

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
            runs = [service.run(traffic) for _ in range(repeats)]
        best = max(runs, key=lambda run: run.samples_per_sec)
        results[workers] = {
            "workers": float(workers),
            "samples": float(best.num_samples),
            "wall_seconds": best.wall_seconds,
            "samples_per_sec": best.samples_per_sec,
            "mean_batch_latency_ms": best.stats.mean_batch_latency_ms,
            "p95_batch_latency_ms": best.stats.latency_percentile_ms(95.0),
            "engine_seconds": best.stats.total_seconds,
            "scores": runs[0].scores,
            "rejection_rate": runs[0].rejection_rate,
        }
    return results
