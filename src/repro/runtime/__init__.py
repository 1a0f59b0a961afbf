"""repro.runtime — the batched online-serving subsystem.

The paper's detector must keep up with inference-rate traffic; this
package drives streaming workloads through the vectorized detection
pipeline in fixed-size micro-batches: :class:`MicroBatcher` shapes
arrival streams into batches, :class:`DetectionEngine` runs them
through the packed-word detection kernels with warm canary caches, :class:`ShardedDetectionService` fans
that engine out over a pool of worker processes (per-shard credit
dispatch from one class queue, ordered aggregation, crash recovery),
:class:`ModelRegistry` gives that pool named+versioned multi-model
routing with hot-swap (:mod:`repro.runtime.registry`, including the
per-request :class:`RequestClass` priority ladder),
:class:`DetectionHTTPServer` puts the stdlib HTTP network boundary on
that service (validation, bounded class-aware 429 backpressure,
graceful drain, per-model routing and ``/v1/models`` hot-swap),
and :class:`ThroughputStats` keeps the samples/sec and per-stage
latency accounting the CLI and the benchmarks read.  Batches
and results move between the service and its shards pickled over
each shard's private multiprocessing queues.  Faults are
first-class: workers heartbeat to a watchdog that reaps live-but-hung
shards, the client helpers retry idempotent failures under
:class:`RetryPolicy`, and :mod:`repro.runtime.chaos` drives seeded
fault storms (:class:`ChaosPlan`/:class:`FaultInjector`, ``repro
chaos``) that must keep responses bit-identical to the single-process
engine.
"""

from repro.runtime.chaos import (
    ChaosPlan,
    FaultInjector,
    FaultSpec,
    run_chaos_drill,
)

from repro.runtime.batching import MicroBatcher, iter_microbatches
from repro.runtime.engine import (
    DetectionEngine,
    EngineRunResult,
    measure_throughput,
)
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
from repro.runtime.service import (
    ServiceError,
    ServiceFuture,
    ServiceResult,
    ShardedDetectionService,
    measure_worker_scaling,
)
from repro.runtime.server import DetectionHTTPServer, RetryPolicy
from repro.runtime.stats import StageTimer, ThroughputStats

__all__ = [
    "ChaosPlan",
    "DetectionHTTPServer",
    "FaultInjector",
    "FaultSpec",
    "RetryPolicy",
    "run_chaos_drill",
    "MicroBatcher",
    "iter_microbatches",
    "DetectionEngine",
    "EngineRunResult",
    "measure_throughput",
    "DEFAULT_CLASS",
    "DEFAULT_MODEL",
    "ModelEntry",
    "ModelRegistry",
    "REQUEST_CLASSES",
    "RequestClass",
    "UnknownModelError",
    "parse_model_spec",
    "resolve_request_class",
    "ServiceError",
    "ServiceFuture",
    "ServiceResult",
    "ShardedDetectionService",
    "measure_worker_scaling",
]
