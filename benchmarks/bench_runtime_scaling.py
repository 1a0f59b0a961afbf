"""Sharded-service scaling — wall-clock samples/sec vs worker count.

PR 2's single-process engine tops out at one core; the sharded service
exists to buy throughput with worker processes.  This benchmark is that
claim's contract: the same fitted FwAb detector serves a fixed mixed
traffic stream through :class:`repro.runtime.ShardedDetectionService`
at pool sizes {1, 2, 4} and reports wall-clock samples/sec per pool,
with the single-process :class:`DetectionEngine` as the no-IPC
reference.

Two properties are checked: sharding must never change decisions
(bit-identical scores across every pool size *and* the single-process
engine), and 2 workers must reach at least 1.6x the 1-worker rate —
but only where the hardware can possibly deliver it (>= 2 CPUs), so
the quantitative claim is CI's to gate (``scripts/perf_gate.py``
--ratio-only) and single-core dev boxes only check the plumbing.

Run standalone for the nightly JSON artifacts::

    python benchmarks/bench_runtime_scaling.py --output scaling.json
    python benchmarks/bench_runtime_scaling.py --smoke
"""

import hashlib
import os
import sys
from pathlib import Path

# Standalone-script bootstrap (pytest runs go through conftest instead).
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.eval import Workbench, render_table
from repro.runtime import DetectionEngine, measure_worker_scaling

WORKER_COUNTS = (1, 2, 4)
DEFAULT_SCENARIO = "alexnet_imagenet"
DEFAULT_VARIANT = "FwAb"
#: Micro-batch size for scaling runs: small enough that every pool size
#: gets many batches to balance, large enough that per-batch IPC stays
#: a rounding error next to extraction.
SERVICE_BATCH = 32
#: The scaling envelope CI gates at 2 workers (where >= 2 CPUs exist).
MIN_SCALING_2X = 1.6


def measure_scaling(
    workbench,
    worker_counts=WORKER_COUNTS,
    count: int = 512,
    variant: str = DEFAULT_VARIANT,
    batch_size: int = SERVICE_BATCH,
    repeats: int = 2,
    pin_workers: bool = False,
):
    """``{workers: report}`` over the sharded service, plus an
    ``"engine"`` row measured on the single-process DetectionEngine as
    the zero-IPC reference (same traffic, same batch size)."""
    detector = workbench.detector(variant)
    traffic = workbench.traffic(count=count)
    results = measure_worker_scaling(
        detector,
        workbench.model_factory,
        traffic,
        worker_counts=worker_counts,
        batch_size=batch_size,
        repeats=repeats,
        pin_workers=pin_workers,
    )
    engine = DetectionEngine(detector, batch_size=batch_size)
    engine.run(traffic[: min(len(traffic), 2 * batch_size)])  # warm
    reference = engine.run(traffic)
    results["engine"] = {
        "samples": float(reference.num_samples),
        "samples_per_sec": reference.stats.samples_per_sec,
        "mean_batch_latency_ms": reference.stats.mean_batch_latency_ms,
        "scores": reference.scores,
        "rejection_rate": reference.rejection_rate,
    }
    return results


def render_scaling_table(results, count: int) -> str:
    base = results.get(1, {}).get("samples_per_sec", 0.0)
    rows = []
    for key in sorted(k for k in results if k != "engine") + ["engine"]:
        report = results[key]
        label = f"{key} worker(s)" if key != "engine" else "engine (in-proc)"
        rate = report["samples_per_sec"]
        rows.append((
            label,
            f"{rate:.0f}",
            f"{report['mean_batch_latency_ms']:.2f}",
            f"{rate / base:.2f}x" if base > 0 else "n/a",
        ))
    return render_table(
        f"sharded-service scaling: {DEFAULT_VARIANT} on "
        f"{DEFAULT_SCENARIO} ({count} mixed-traffic samples, "
        f"batch {SERVICE_BATCH})",
        ["pool", "samples/s", "mean ms/batch", "vs 1 worker"],
        rows,
    )


def test_runtime_worker_scaling(benchmark, smoke, max_workers):
    workbench = Workbench.get(DEFAULT_SCENARIO)
    counts = tuple(n for n in WORKER_COUNTS if n <= max_workers) or (1,)
    count = 96 if smoke else 512
    batch_size = 16 if smoke else SERVICE_BATCH

    results = benchmark.pedantic(
        lambda: measure_scaling(
            workbench, counts, count=count, batch_size=batch_size
        ),
        rounds=1, iterations=1,
    )

    print()
    print(render_scaling_table(results, count))

    # Sharding is a throughput decision, never an accuracy one: every
    # pool size must reproduce the single-process engine bit for bit.
    # RuntimeError (not assert) so smoke mode's relaxed-assertion
    # wrapper can never skip past an equivalence regression.
    reference = results["engine"]["scores"]
    for workers in counts:
        if not np.array_equal(results[workers]["scores"], reference):
            raise RuntimeError(
                f"{workers}-worker service changed detection scores"
            )
    if not all(r["samples_per_sec"] > 0 for r in results.values()):
        raise RuntimeError("scaling accounting produced zero rates")

    if 1 in results and 2 in results:
        ratio = (
            results[2]["samples_per_sec"] / results[1]["samples_per_sec"]
        )
        print(f"2-worker scaling over 1 worker: {ratio:.2f}x "
              f"(CI gate: >= {MIN_SCALING_2X}x on multi-core)")
        cpus = os.cpu_count() or 1
        if cpus >= 2:
            assert ratio >= MIN_SCALING_2X
        else:
            print(f"single CPU ({cpus}); scaling envelope not "
                  f"assertable on this machine")


def _strip_scores(report: dict) -> dict:
    """JSON-safe report row: drop the score array but keep its digest,
    so separate runs can prove bit-identical decisions."""
    row = {k: v for k, v in report.items() if k != "scores"}
    scores = report.get("scores")
    if scores is not None:
        row["scores_sha256"] = hashlib.sha256(
            np.ascontiguousarray(scores).tobytes()
        ).hexdigest()
    return row


def main(argv=None) -> int:
    """Standalone entry point for the nightly benchmark artifacts."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=512)
    parser.add_argument("--workers", type=int, nargs="+",
                        default=list(WORKER_COUNTS))
    parser.add_argument("--pin", action="store_true",
                        help="pin workers to disjoint CPU sets")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: shrink the scenario, cap "
                        "traffic at 96 samples and the pool at 2")
    parser.add_argument("--output", default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    from _smoke import (
        activate_smoke,
        cap_samples,
        cap_worker_counts,
        smoke_requested,
    )

    args.smoke = smoke_requested(args.smoke)  # honour REPRO_SMOKE too
    if args.smoke:
        activate_smoke()
        args.count = cap_samples(args.count)
        args.workers = cap_worker_counts(args.workers)

    workbench = Workbench.get(DEFAULT_SCENARIO)
    results = measure_scaling(
        workbench, tuple(args.workers), count=args.count,
        pin_workers=args.pin,
    )
    print(render_scaling_table(results, args.count))
    reference = results["engine"]["scores"]
    for workers in args.workers:
        if not np.array_equal(results[workers]["scores"], reference):
            raise SystemExit(
                f"FATAL: {workers}-worker service changed detection "
                "scores"
            )
    if args.output:
        report = {
            str(key): _strip_scores(value)
            for key, value in results.items()
        }
        report["cpu_count"] = os.cpu_count()
        report["pin_workers"] = args.pin
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
