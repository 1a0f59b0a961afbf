#!/usr/bin/env python
"""CI performance gate for the batched engine and the sharded service.

Runs ``benchmarks/bench_runtime_throughput.measure_throughput`` at
smoke sizes and compares samples/sec per micro-batch size against the
committed ``BENCH_baseline.json``.  A drop of more than
``--tolerance`` (default 30%) at any gated batch size fails the build,
so a regression in the packed-word kernels or the engine's batching
path can never land silently.  The batch-64-over-batch-1 speedup ratio
is gated the same way — it is hardware-independent, so it also
protects the gate on CI machines slower than the one that recorded
the baseline.

The sharded service gets the same treatment: 1- and 2-worker
wall-clock samples/sec are gated absolutely against the baseline, and
the 2-over-1 scaling ratio is gated against the constant
:data:`WORKER_SCALING_FLOOR` envelope (>= 1.6x).  The scaling gate is
ratio-only by construction — it never compares absolute speed across
machines — and is skipped outright on single-CPU hosts, where process
parallelism cannot possibly deliver it.

The HTTP front-end's closed-loop fixed-batch samples/sec is compared
absolutely against the baseline's ``http`` section, and its responses
must be bit-identical to the single-process engine everywhere,
including ``--ratio-only`` CI runners.

The batched packed-word kernels
(``benchmarks/bench_micro_primitives.measure_kernels``) have their
absolute rows/sec per kernel gated against the baseline's ``kernels``
section.

The scenario suite closes the accuracy side: the smoke gate grid
({bim, fgsm} x {ptolemy_fwab, ep} x {none, gaussian_noise@3}) runs
through ``repro.suite.SuiteRunner`` with bit-identity to a direct
``DetectionEngine.run`` checked per scenario, and each scenario's
detection AUC and TPR@0.1FPR are gated against the baseline's
``suite`` section with an absolute ``--metric-tolerance`` floor.
Detection quality at fixed seeds is hardware-independent, so the
metric floors are enforced on ``--ratio-only`` CI runners too; the
scores-digest drift check (exact bit-equality of the score stream
against the recording machine) runs only on full gates, since digests
legitimately differ across BLAS builds.  Scenarios absent from the
baseline are skipped, not failed, so the gate grid can grow before
the baseline is re-recorded — but a baseline ``suite`` section that
matches none of the current scenario ids fails the gate, since that
means the ids changed and every accuracy gate would silently skip.

Usage::

    python scripts/perf_gate.py              # compare against baseline
    python scripts/perf_gate.py --update     # re-record the baseline
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
for entry in (REPO / "src", REPO / "benchmarks"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

BASELINE_PATH = REPO / "BENCH_baseline.json"
#: Batch sizes whose absolute samples/sec are gated.
GATED_BATCH_SIZES = (1, 8, 64)
SMOKE_TRAFFIC = 192
#: Worker-pool sizes whose absolute wall-clock samples/sec are gated.
GATED_WORKER_COUNTS = (1, 2)
#: Traffic/batch sizing for the scaling measurement: enough micro-
#: batches (16) that a 2-shard split stays balanced.
WORKER_TRAFFIC = 512
WORKER_BATCH = 32
#: The scaling envelope: 2 workers must reach >= 1.6x the 1-worker
#: wall-clock rate wherever >= 2 CPUs exist.
WORKER_SCALING_FLOOR = 1.6
#: Traffic size for the HTTP closed-loop measurement.
HTTP_TRAFFIC = 192
#: The suite gate grid: 2 attacks x 2 defenses x 2 corruptions at
#: smoke sizes — the accuracy+robustness slice CI re-measures.
SUITE_GATE_GRID = (
    "attack=bim,fgsm",
    "defense=ptolemy_fwab,ep",
    "corruption=none,gaussian_noise@3",
)
#: Metrics gated per suite scenario (absolute floors).
SUITE_GATED_METRICS = ("auc", "tpr_at_fpr")
#: Batched kernels whose absolute rows/sec are gated.
KERNEL_NAMES = ("containment", "per_tap", "popcount")


def run_bench() -> dict:
    import numpy as np

    from bench_runtime_throughput import measure_throughput
    from repro.eval import Workbench, workloads

    workloads.shrink_for_smoke()
    workbench = Workbench.get("alexnet_imagenet")
    results = measure_throughput(
        workbench, batch_sizes=GATED_BATCH_SIZES, count=SMOKE_TRAFFIC
    )
    # decisions must be identical across batch sizes even at smoke sizes
    reference = results[GATED_BATCH_SIZES[0]]["scores"]
    for batch_size in GATED_BATCH_SIZES[1:]:
        if not np.array_equal(results[batch_size]["scores"], reference):
            raise SystemExit(
                f"FATAL: batch {batch_size} changed detection scores"
            )
    report = {
        str(bs): {
            "samples_per_sec": results[bs]["samples_per_sec"],
            "mean_batch_latency_ms": results[bs]["mean_batch_latency_ms"],
        }
        for bs in GATED_BATCH_SIZES
    }
    report["speedup_64_over_1"] = (
        results[64]["samples_per_sec"] / results[1]["samples_per_sec"]
    )
    return report


def run_worker_bench() -> dict:
    import numpy as np

    from bench_runtime_scaling import measure_scaling
    from repro.eval import Workbench, workloads

    workloads.shrink_for_smoke()
    workbench = Workbench.get("alexnet_imagenet")
    results = measure_scaling(
        workbench,
        GATED_WORKER_COUNTS,
        count=WORKER_TRAFFIC,
        batch_size=WORKER_BATCH,
        repeats=3,  # best-of-3: shared runners are noisy
    )
    # sharding must be invisible to decisions, even at smoke sizes
    reference = results["engine"]["scores"]
    for workers in GATED_WORKER_COUNTS:
        if not np.array_equal(results[workers]["scores"], reference):
            raise SystemExit(
                f"FATAL: {workers}-worker service changed detection scores"
            )
    report = {
        str(workers): {
            "samples_per_sec": results[workers]["samples_per_sec"],
            "mean_batch_latency_ms": (
                results[workers]["mean_batch_latency_ms"]
            ),
        }
        for workers in GATED_WORKER_COUNTS
    }
    report["scaling_2_over_1"] = (
        results[2]["samples_per_sec"] / results[1]["samples_per_sec"]
    )
    report["cpu_count"] = os.cpu_count() or 1
    return report


def run_kernel_bench() -> dict:
    """The batched packed-word kernels over a large synthetic matrix."""
    from bench_micro_primitives import measure_kernels

    return measure_kernels()


def run_http_bench() -> dict:
    from bench_http_serving import check_bit_identity, measure_http_serving
    from repro.eval import Workbench, workloads

    workloads.shrink_for_smoke()
    workbench = Workbench.get("alexnet_imagenet")
    results = measure_http_serving(workbench, count=HTTP_TRAFFIC)
    try:
        check_bit_identity(results)
    except RuntimeError as exc:
        raise SystemExit(f"FATAL: {exc}") from exc
    fixed = results["fixed"]
    return {
        "fixed": {
            "samples_per_sec": fixed["samples_per_sec"],
            "request_p50_ms": fixed["p50_ms"],
            "request_p95_ms": fixed["p95_ms"],
            "request_p99_ms": fixed["p99_ms"],
            "p95_batch_ms": fixed["p95_batch_ms"],
        }
    }


def run_suite_bench() -> dict:
    """The scenario-suite smoke grid, bit-identity checked per cell.

    Returns ``{scenario_id: {auc, tpr_at_fpr, accuracy,
    scores_digest, samples_per_sec}}`` — detection quality at fixed
    seeds, which unlike throughput is hardware-independent.
    """
    from repro.eval import workloads
    from repro.suite import (
        DEFENSES,
        SMOKE_AXES,
        SuiteConfig,
        SuiteRunner,
        expand_grid,
        parse_grid,
    )

    workloads.shrink_for_smoke()
    axes = parse_grid(SUITE_GATE_GRID, SMOKE_AXES)
    specs, _ = expand_grid(axes)
    runner = SuiteRunner(SuiteConfig())
    report = {}
    for spec in specs:
        scenario = runner.run_scenario(spec)
        if DEFENSES[spec.defense].engine_scored and not spec.is_fault_attack:
            try:
                runner.verify_bit_identity(spec, scenario)
            except RuntimeError as exc:
                raise SystemExit(f"FATAL: {exc}") from exc
        metrics = scenario["metrics"]
        report[spec.scenario_id] = {
            "auc": metrics["auc"],
            "tpr_at_fpr": metrics["tpr_at_fpr"],
            "accuracy": metrics["accuracy"],
            "scores_digest": scenario["scores_digest"],
            "samples_per_sec": scenario["timing"]["samples_per_sec"],
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true",
        help="re-record BENCH_baseline.json from this machine",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional throughput drop (default 0.30)",
    )
    parser.add_argument(
        "--ratio-only", action="store_true",
        help="gate only the hardware-independent ratios — the "
        "batch-64-over-batch-1 speedup and the 2-worker scaling "
        "envelope — skipping absolute samples/sec comparisons (use on "
        "CI runners whose absolute speed differs from the baseline "
        "machine)",
    )
    parser.add_argument(
        "--metric-tolerance", type=float, default=0.08,
        help="allowed absolute drop per gated suite detection metric "
        "(default 0.08)",
    )
    args = parser.parse_args(argv)

    print(f"perf gate: measuring smoke throughput ({SMOKE_TRAFFIC} samples, "
          f"batch sizes {GATED_BATCH_SIZES})...")
    current = run_bench()
    for batch_size in GATED_BATCH_SIZES:
        row = current[str(batch_size)]
        print(f"  batch {batch_size:3d}: {row['samples_per_sec']:9.1f} "
              f"samples/s, {row['mean_batch_latency_ms']:.2f} ms/batch")
    print(f"  batch-64 speedup over batch-1: "
          f"{current['speedup_64_over_1']:.2f}x")

    print(f"perf gate: measuring sharded-service scaling "
          f"({WORKER_TRAFFIC} samples, batch {WORKER_BATCH}, workers "
          f"{GATED_WORKER_COUNTS})...")
    current_workers = run_worker_bench()
    for count in GATED_WORKER_COUNTS:
        row = current_workers[str(count)]
        print(f"  {count} worker(s): {row['samples_per_sec']:9.1f} "
              f"samples/s (wall clock)")
    print(f"  2-worker scaling over 1: "
          f"{current_workers['scaling_2_over_1']:.2f}x "
          f"on {current_workers['cpu_count']} CPU(s)")

    print("perf gate: measuring batched kernels (large packed "
          "matrix)...")
    current_kernels = run_kernel_bench()
    for name in KERNEL_NAMES:
        print(f"  {name:11s}: "
              f"{current_kernels[name]['rows_per_sec'] / 1e6:6.1f}M rows/s")

    print(f"perf gate: measuring HTTP closed-loop serving "
          f"({HTTP_TRAFFIC} samples, fixed batch)...")
    current_http = run_http_bench()
    row = current_http["fixed"]
    print(f"  fixed   : {row['samples_per_sec']:9.1f} samples/s, "
          f"request p95 {row['request_p95_ms']:.1f} ms, "
          f"batch p95 {row['p95_batch_ms']:.2f} ms")

    print(f"perf gate: measuring scenario-suite smoke grid "
          f"({' '.join(SUITE_GATE_GRID)})...")
    current_suite = run_suite_bench()
    for scenario_id, row in current_suite.items():
        print(f"  {scenario_id}: auc={row['auc']:.3f} "
              f"tpr@0.1fpr={row['tpr_at_fpr']:.3f} "
              f"acc={row['accuracy']:.3f}")

    if args.update or not BASELINE_PATH.exists():
        baseline = {
            "note": "recorded by scripts/perf_gate.py --update; "
                    "smoke-size throughput of the batched engine and "
                    "the sharded service",
            "machine": platform.platform(),
            "python": platform.python_version(),
            "results": current,
            "workers": current_workers,
            "kernels": current_kernels,
            "http": current_http,
            "suite": current_suite,
        }
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline_file = json.loads(BASELINE_PATH.read_text())
    baseline = baseline_file["results"]
    failures = []
    for batch_size in GATED_BATCH_SIZES:
        old = baseline[str(batch_size)]["samples_per_sec"]
        new = current[str(batch_size)]["samples_per_sec"]
        floor = old * (1.0 - args.tolerance)
        if args.ratio_only:
            print(f"  batch {batch_size:3d}: {new:9.1f} vs baseline "
                  f"{old:9.1f} (absolute gate skipped: --ratio-only)")
            continue
        status = "ok" if new >= floor else "REGRESSION"
        print(f"  batch {batch_size:3d}: {new:9.1f} vs baseline {old:9.1f} "
              f"(floor {floor:9.1f}) {status}")
        if new < floor:
            failures.append(
                f"batch {batch_size}: {new:.1f} samples/s < "
                f"{floor:.1f} ({args.tolerance:.0%} below {old:.1f})"
            )
    old_ratio = baseline["speedup_64_over_1"]
    new_ratio = current["speedup_64_over_1"]
    ratio_floor = old_ratio * (1.0 - args.tolerance)
    print(f"  speedup 64/1: {new_ratio:.2f}x vs baseline {old_ratio:.2f}x "
          f"(floor {ratio_floor:.2f}x)")
    if new_ratio < ratio_floor:
        failures.append(
            f"batch-64 speedup {new_ratio:.2f}x < floor {ratio_floor:.2f}x"
        )

    # -- sharded-service envelope ---------------------------------------
    worker_baseline = baseline_file.get("workers")
    if worker_baseline is None:
        print("  (baseline has no worker section; run --update to "
              "record one — absolute worker gates skipped)")
    else:
        for count in GATED_WORKER_COUNTS:
            old = worker_baseline[str(count)]["samples_per_sec"]
            new = current_workers[str(count)]["samples_per_sec"]
            floor = old * (1.0 - args.tolerance)
            if args.ratio_only:
                print(f"  {count} worker(s): {new:9.1f} vs baseline "
                      f"{old:9.1f} (absolute gate skipped: --ratio-only)")
                continue
            status = "ok" if new >= floor else "REGRESSION"
            print(f"  {count} worker(s): {new:9.1f} vs baseline "
                  f"{old:9.1f} (floor {floor:9.1f}) {status}")
            if new < floor:
                failures.append(
                    f"{count}-worker service: {new:.1f} samples/s < "
                    f"{floor:.1f} ({args.tolerance:.0%} below {old:.1f})"
                )
    scaling = current_workers["scaling_2_over_1"]
    cpus = current_workers["cpu_count"]
    if cpus < 2:
        print(f"  2-worker scaling gate skipped: {cpus} CPU(s) — "
              f"process parallelism cannot scale on this host")
    else:
        status = "ok" if scaling >= WORKER_SCALING_FLOOR else "REGRESSION"
        print(f"  2-worker scaling: {scaling:.2f}x vs envelope floor "
              f"{WORKER_SCALING_FLOOR:.2f}x {status}")
        if scaling < WORKER_SCALING_FLOOR:
            failures.append(
                f"2-worker scaling {scaling:.2f}x < envelope floor "
                f"{WORKER_SCALING_FLOOR:.2f}x on {cpus} CPUs"
            )

    # -- batched kernels ------------------------------------------------
    kernel_baseline = baseline_file.get("kernels")
    if kernel_baseline is None:
        print("  (baseline has no kernels section; run --update to "
              "record one — absolute kernel gates skipped)")
    else:
        for kernel_name in KERNEL_NAMES:
            new = current_kernels[kernel_name]["rows_per_sec"]
            old = kernel_baseline[kernel_name]["rows_per_sec"]
            floor = old * (1.0 - args.tolerance)
            if args.ratio_only:
                print(f"  kernel {kernel_name}: {new / 1e6:6.1f}M vs "
                      f"baseline {old / 1e6:6.1f}M rows/s (absolute gate "
                      f"skipped: --ratio-only)")
                continue
            status = "ok" if new >= floor else "REGRESSION"
            print(f"  kernel {kernel_name}: {new / 1e6:6.1f}M vs baseline "
                  f"{old / 1e6:6.1f}M rows/s (floor {floor / 1e6:6.1f}M) "
                  f"{status}")
            if new < floor:
                failures.append(
                    f"kernel {kernel_name}: {new:.0f} rows/s < "
                    f"{floor:.0f} ({args.tolerance:.0%} below {old:.0f})"
                )

    # -- HTTP serving envelope ------------------------------------------
    http_baseline = baseline_file.get("http")
    if http_baseline is None:
        print("  (baseline has no http section; run --update to record "
              "one — absolute HTTP gates skipped)")
    else:
        old = http_baseline["fixed"]["samples_per_sec"]
        new = current_http["fixed"]["samples_per_sec"]
        floor = old * (1.0 - args.tolerance)
        if args.ratio_only:
            print(f"  http fixed   : {new:9.1f} vs baseline "
                  f"{old:9.1f} (absolute gate skipped: --ratio-only)")
        else:
            status = "ok" if new >= floor else "REGRESSION"
            print(f"  http fixed   : {new:9.1f} vs baseline "
                  f"{old:9.1f} (floor {floor:9.1f}) {status}")
            if new < floor:
                failures.append(
                    f"http fixed serving: {new:.1f} samples/s < "
                    f"{floor:.1f} ({args.tolerance:.0%} below {old:.1f})"
                )

    # -- scenario-suite accuracy envelope -------------------------------
    suite_baseline = baseline_file.get("suite")
    if suite_baseline is None:
        print("  (baseline has no suite section; run --update to record "
              "one — suite accuracy gates skipped)")
    elif not set(suite_baseline) & set(current_suite):
        print("  suite: no baseline row matches any current scenario id")
        failures.append(
            f"suite baseline matches none of the {len(current_suite)} "
            "current scenario ids; re-key or re-record "
            "BENCH_baseline.json's suite section"
        )
    else:
        for scenario_id, row in current_suite.items():
            old_row = suite_baseline.get(scenario_id)
            if old_row is None:
                print(f"  suite {scenario_id}: no baseline row; gate "
                      f"skipped")
                continue
            # detection quality at fixed seeds is hardware-independent,
            # so the metric floors hold on --ratio-only runners too
            for metric in SUITE_GATED_METRICS:
                old = old_row[metric]
                new = row[metric]
                floor = old - args.metric_tolerance
                status = "ok" if new >= floor else "REGRESSION"
                print(f"  suite {scenario_id} {metric}: {new:.3f} vs "
                      f"baseline {old:.3f} (floor {floor:.3f}) {status}")
                if new < floor:
                    failures.append(
                        f"suite {scenario_id}: {metric} {new:.3f} < "
                        f"floor {floor:.3f} ({args.metric_tolerance} "
                        f"below {old:.3f})"
                    )
            # exact score-stream equality only holds on the machine
            # that recorded the baseline (BLAS builds differ), so
            # digest drift is a full-gate check, not a CI one
            if not args.ratio_only:
                if row["scores_digest"] != old_row["scores_digest"]:
                    print(f"  suite {scenario_id} digest: DRIFT")
                    failures.append(
                        f"suite {scenario_id}: scores digest drifted "
                        f"from the recorded baseline "
                        f"({row['scores_digest']} != "
                        f"{old_row['scores_digest']})"
                    )
                else:
                    print(f"  suite {scenario_id} digest: ok")

    if failures:
        print("\nPERF GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
