"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``train``       train a zoo model on a synthetic dataset and save it
``profile``     build + save canary class paths for a saved model
``detect``      score test inputs with a saved detector
``cost``        print the modelled hardware cost of a variant
``compile``     compile a BwCu detection program and print the assembly
``area``        print the hardware area report
``scenarios``   list the named evaluation scenarios
``corrupt``     sweep natural corruptions over a scenario's test set
``monitor``     deploy an InferenceMonitor and stream mixed traffic
``throughput``  measure batched detection-engine throughput (per-model
                with repeatable ``--model NAME=SPEC`` registrations)
``serve``       stream traffic through the sharded multi-worker service,
                or expose it over HTTP (``--http PORT``) with extra
                models (``--model NAME=SPEC``, hot-swappable over
                ``POST /v1/models``)
``explain``     saliency + per-layer divergence for a benign/attacked pair
``defend``      adversarial retraining + re-profiled Ptolemy (Sec. VIII)
``suite``       run an {attack x defense x corruption x workload}
                scenario grid and write one versioned JSON
                report per cell plus a combined results_summary.md
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _build_scenario(name: str):
    from repro.eval import SCENARIOS

    if name not in SCENARIOS:
        raise SystemExit(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name]


_PTOLEMY_VARIANTS = ("BwCu", "BwAb", "FwAb", "FwCu", "Hybrid")


def _add_pool_args(parser, *, workers: int, models: bool = False) -> None:
    """Install the shared worker-pool flags on a subcommand parser.

    ``serve``, ``throughput``, and ``suite`` all front the same
    :class:`~repro.runtime.ShardedDetectionService`; this is the one
    place its vocabulary (``--workers``, plus the repeatable
    ``--model`` for multi-model commands) is defined, so the
    front-ends cannot drift apart.
    """
    parser.add_argument("--workers", type=int, default=workers,
                        help="worker processes in the sharded pool "
                        f"(default {workers})")
    if models:
        parser.add_argument("--model", action="append", default=None,
                            metavar="NAME=SPEC",
                            help="serve an extra named model alongside "
                            "the default: SPEC is a Ptolemy variant "
                            f"({'/'.join(_PTOLEMY_VARIANTS)}) or a "
                            "saved-detector path; repeatable")


def _parse_model_args(workbench, tokens, fpr: float):
    """Resolve repeatable ``--model NAME=SPEC`` flags into registerable
    ``(name, state, threshold)`` tuples.

    SPEC is either a Ptolemy variant (profiled + classifier-fitted on
    this scenario's workbench) or a saved-detector path (``repro
    profile --output ...``); each model's threshold is calibrated to
    ``fpr`` on the workbench's held-out calibration split so every
    model in the pool deploys at the same operating point.
    """
    import os

    from repro.core import (
        calibrate_threshold,
        detector_to_state,
        load_detector,
    )

    models = []
    for token in tokens or ():
        name, sep, spec = token.partition("=")
        if not sep or not name or not spec:
            raise SystemExit(f"--model expects NAME=SPEC, got {token!r}")
        if spec in _PTOLEMY_VARIANTS:
            detector = workbench.detector(spec)
        elif os.path.exists(spec):
            detector = load_detector(workbench.model, spec)
        else:
            raise SystemExit(
                f"--model {name}: {spec!r} is neither a Ptolemy variant "
                f"({', '.join(_PTOLEMY_VARIANTS)}) nor a saved-detector "
                "path")
        threshold = calibrate_threshold(
            detector, workbench.calibration_set, fpr
        )
        models.append((name, detector_to_state(detector), threshold))
    return models


def cmd_train(args) -> None:
    """Train a scenario model and save its weights."""
    from repro.nn import save_model, train_classifier

    scenario = _build_scenario(args.scenario)
    dataset = scenario.build_dataset()
    model = scenario.build_model()
    print(f"training {scenario.name} ({args.epochs} epochs)...")
    config = scenario.train_config()
    config.epochs = args.epochs
    result = train_classifier(model, dataset.x_train, dataset.y_train, config)
    print(f"final train accuracy: {result.final_accuracy:.3f}")
    save_model(model, args.output)
    print(f"saved model to {args.output}")


def cmd_profile(args) -> None:
    """Profile canary class paths and save the detector."""
    from repro.core import ExtractionConfig, PtolemyDetector, save_detector
    from repro.nn import load_model_into

    scenario = _build_scenario(args.scenario)
    dataset = scenario.build_dataset()
    model = scenario.build_model()
    load_model_into(model, args.model)
    config = ExtractionConfig.bwcu(
        model.num_extraction_units(), theta=args.theta
    )
    detector = PtolemyDetector(model, config, seed=scenario.seed)
    print("profiling canary class paths...")
    class_paths = detector.profile(
        dataset.x_train, dataset.y_train, max_per_class=args.max_per_class
    )
    print(f"profiled {class_paths.num_classes} classes, "
          f"{class_paths.storage_bytes()} bytes of canary paths")
    if args.fit_attack:
        from repro.attacks import STANDARD_ATTACKS

        attack = STANDARD_ATTACKS[args.fit_attack]()
        adv = attack.generate(
            model, dataset.x_train[:40], dataset.y_train[:40]
        ).x_adv
        detector.fit_classifier(dataset.x_train[40:80], adv)
        print(f"fitted classifier against {args.fit_attack}")
    save_detector(detector, args.output)
    print(f"saved detector to {args.output}")


def cmd_detect(args) -> None:
    """Score clean test inputs with a saved detector (batched)."""
    from repro.core import load_detector
    from repro.nn import load_model_into

    scenario = _build_scenario(args.scenario)
    dataset = scenario.build_dataset()
    model = scenario.build_model()
    load_model_into(model, args.model)
    detector = load_detector(model, args.detector)
    count = min(args.count, len(dataset.x_test))
    if count == 0:
        print("flagged 0/0 clean inputs (false positives)")
        return
    result = detector.detect_batch(dataset.x_test[:count])
    for i in range(count):
        verdict = "ADVERSARIAL" if result.is_adversarial[i] else "benign"
        print(f"input {i}: class={int(result.predicted_classes[i])} "
              f"score={result.scores[i]:.2f} {verdict}")
    flagged = int(result.is_adversarial.sum())
    print(f"\nflagged {flagged}/{count} clean inputs (false positives)")


def cmd_cost(args) -> None:
    """Print the modelled hardware cost of a variant."""
    from repro.eval import Workbench

    workbench = Workbench.get(args.scenario)
    cost = workbench.variant_cost(args.variant, theta=args.theta)
    print(f"{args.variant} on {args.scenario}:")
    print(f"  latency overhead : {cost.latency_overhead:.2f}x")
    print(f"  energy overhead  : {cost.energy_overhead:.2f}x")
    if cost.dram:
        print(f"  extra DRAM space : {cost.dram.space_bytes / 1024:.1f} KiB")


def cmd_compile(args) -> None:
    """Compile a BwCu program and print its assembly."""
    from repro.compiler import MemoryMap, compile_bwcu
    from repro.core import ExtractionConfig
    from repro.eval import Workbench

    workbench = Workbench.get(args.scenario)
    model = workbench.model
    config = ExtractionConfig.bwcu(
        model.num_extraction_units(), theta=args.theta
    )
    model.forward(workbench.dataset.x_test[:1])
    mem_map = MemoryMap(model, config)
    program = compile_bwcu(model, config, mem_map,
                           recompute=args.recompute)
    print(f"; {len(program)} instructions, {program.size_bytes} bytes")
    print(program)


def cmd_area(args) -> None:
    """Print the hardware area report."""
    from repro.hw import DEFAULT_HW, area_report

    hw = DEFAULT_HW
    if args.bits == 8:
        hw = hw.with_8bit()
    if args.array:
        hw = hw.with_array(args.array, args.array)
    report = area_report(hw)
    for key, value in report.breakdown().items():
        print(f"  {key:20s}: {value:.3f}")


def cmd_corrupt(args) -> None:
    """Sweep natural corruptions over a scenario's test set."""
    from repro.data import corruption_sweep
    from repro.eval import Workbench, render_table

    workbench = Workbench.get(args.scenario)
    frames = workbench.dataset.x_test[: args.count]
    preds_clean = np.argmax(workbench.model.forward(frames), axis=1)
    rows = []
    for result in corruption_sweep(frames, severities=tuple(args.severities)):
        preds = np.argmax(workbench.model.forward(result.images), axis=1)
        flipped = int((preds != preds_clean).sum())
        rows.append((result.name, result.severity, result.mse,
                     f"{flipped}/{len(frames)}"))
    print(render_table(
        f"corruption sweep on {args.scenario} ({args.count} frames)",
        ["corruption", "severity", "MSE", "prediction flips"],
        rows, float_fmt="{:.4f}",
    ))


def cmd_monitor(args) -> None:
    """Deploy an InferenceMonitor and stream mixed traffic."""
    from repro.core import InferenceMonitor
    from repro.eval import Workbench, render_table

    workbench = Workbench.get(args.scenario)
    detector = workbench.detector("FwAb" if args.fast else "BwCu")
    monitor = InferenceMonitor.deploy(
        detector, workbench.calibration_set, target_fpr=args.fpr
    )
    print(f"deployed: threshold={monitor.threshold:.2f} "
          f"(target FPR {args.fpr})")
    from repro.runtime import iter_microbatches

    frames, is_attack = workbench.traffic(
        attack=args.attack, count=args.count,
        attack_rate=args.attack_rate, return_truth=True,
    )
    rows = []
    served = 0
    for chunk in iter_microbatches(frames, args.batch_size):
        for decision in monitor.submit_batch(chunk):
            rows.append((
                served,
                "attack" if is_attack[served] else "benign",
                f"{decision.score:.2f}",
                "accept" if decision.accepted else "REJECT",
            ))
            served += 1
    print(render_table(
        "streamed traffic", ["frame", "truth", "score", "action"], rows,
    ))
    stats = monitor.stats()
    print(f"\nserved={stats.served} rejected={stats.rejected} "
          f"rolling rejection rate={stats.rejection_rate:.2f}")


def cmd_explain(args) -> None:
    """Print saliency + divergence for a benign/attacked pair."""
    from repro.core import divergence_report, input_saliency
    from repro.eval import Workbench, heatmap, render_table

    workbench = Workbench.get(args.scenario)
    detector = workbench.detector("BwCu")
    frame = workbench.dataset.x_test[args.index : args.index + 1]
    adv = workbench.attack_eval(args.attack).x_adv[args.index : args.index + 1]
    shape = workbench.dataset.input_shape

    for label, x in (("benign", frame), ("adversarial", adv)):
        result = detector.extractor.extract(x)
        saliency = input_saliency(result, shape)
        print(heatmap(
            f"{label} input saliency (class {result.predicted_class})",
            saliency.tolist(),
        ))
        if result.predicted_class in detector.class_paths:
            canary = detector.class_paths.path_for(result.predicted_class)
            rows = [
                (d.name, d.similarity, d.path_ones, d.canary_ones)
                for d in divergence_report(result.path, canary)[: args.top]
            ]
            print(render_table(
                f"{label}: taps most divergent from the class canary",
                ["layer", "similarity", "path ones", "canary ones"],
                rows,
            ))
        print()


def cmd_defend(args) -> None:
    """Adversarially retrain, re-profile Ptolemy, report coverage."""
    from repro.attacks import STANDARD_ATTACKS
    from repro.core import ExtractionConfig, PtolemyDetector, calibrate_phi
    from repro.defenses import (
        AdversarialTrainConfig,
        adversarial_retrain,
        evaluate_combined_defense,
        robust_accuracy,
    )
    from repro.eval import render_table
    from repro.nn import train_classifier

    scenario = _build_scenario(args.scenario)
    dataset = scenario.build_dataset()
    model = scenario.build_model()
    attack = STANDARD_ATTACKS[args.attack]()
    print(f"training {scenario.name}...")
    train_classifier(
        model, dataset.x_train, dataset.y_train, scenario.train_config()
    )
    n = min(30, len(dataset.x_test) // 3)
    x_eval, y_eval = dataset.x_test[:n], dataset.y_test[:n]
    before = robust_accuracy(model, x_eval, y_eval, attack)
    print(f"robust accuracy before retraining: {before:.3f}")

    print(f"adversarial retraining ({args.epochs} epochs, {args.attack})...")
    adversarial_retrain(
        model, dataset.x_train, dataset.y_train, attack,
        AdversarialTrainConfig(epochs=args.epochs, seed=scenario.seed),
    )
    after = robust_accuracy(model, x_eval, y_eval, attack)
    print(f"robust accuracy after retraining : {after:.3f}")

    print("re-profiling Ptolemy on the retrained weights...")
    config = calibrate_phi(
        model, ExtractionConfig.fwab(model.num_extraction_units()),
        dataset.x_train[:4], quantile=0.95,
    )
    detector = PtolemyDetector(model, config, n_trees=60, seed=scenario.seed)
    detector.profile(dataset.x_train, dataset.y_train, max_per_class=20)
    attempts = attack.generate(
        model, dataset.x_train[:90], dataset.y_train[:90]
    )
    detector.fit_classifier(
        dataset.x_test[2 * n : 3 * n], attempts.x_adv[attempts.success]
    )
    adv_eval = attack.generate(model, x_eval, y_eval).x_adv
    report = evaluate_combined_defense(
        model, detector, adv_eval, y_eval, dataset.x_test[n : 2 * n]
    )
    print(render_table(
        "combined coverage over attack traffic",
        ["quantity", "value"],
        [
            ("handled by retrained model", f"{report.model_correct_rate:.3f}"),
            ("flagged by Ptolemy", f"{report.detector_flag_rate:.3f}"),
            ("handled combined", f"{report.handled_combined:.3f}"),
            ("benign false alarms", f"{report.benign_false_alarm_rate:.3f}"),
        ],
    ))


def cmd_throughput(args) -> None:
    """Measure detection throughput across micro-batch sizes, either
    single-process (the engine) or sharded (``--workers N``)."""
    from repro.eval import Workbench, render_table
    from repro.runtime import measure_throughput

    workbench = Workbench.get(args.scenario)
    detector = workbench.detector(args.variant)
    traffic = workbench.traffic(
        attack=args.attack, count=args.count, attack_rate=args.attack_rate
    )
    if args.model:
        _throughput_models(args, workbench, detector, traffic)
        return
    if args.workers > 1:
        from repro.core import detector_to_state
        from repro.runtime import measure_worker_scaling

        state = detector_to_state(detector)  # serialize once, reuse
        reports = [
            (batch_size, measure_worker_scaling(
                None,
                workbench.model_factory,
                traffic,
                worker_counts=(args.workers,),
                batch_size=batch_size,
                state=state,
            )[args.workers])
            for batch_size in args.batch_sizes
        ]
        title = (
            f"{args.variant} on {args.scenario}: sharded throughput "
            f"({args.count} samples, {args.workers} workers, wall-clock)"
        )
    else:
        reports = list(measure_throughput(
            detector, traffic, batch_sizes=args.batch_sizes,
        ).items())
        title = (
            f"{args.variant} on {args.scenario}: engine throughput "
            f"({args.count} mixed-traffic samples)"
        )
    rows = [
        (
            batch_size,
            f"{report['samples_per_sec']:.0f}",
            f"{report['mean_batch_latency_ms']:.2f}",
            f"{report['p95_batch_latency_ms']:.2f}",
            f"{report['rejection_rate']:.2f}",
        )
        for batch_size, report in reports
    ]
    print(render_table(
        title,
        ["batch", "samples/s", "mean ms/batch", "p95 ms/batch", "reject rate"],
        rows,
    ))


def _throughput_models(args, workbench, detector, traffic) -> None:
    """Multi-model throughput: one shared pool per batch size, every
    registered model measured over the same traffic (``--model`` on
    ``throughput``)."""
    from repro.core import detector_to_state
    from repro.eval import render_table
    from repro.runtime import ShardedDetectionService

    extra = _parse_model_args(workbench, args.model, args.fpr)
    state = detector_to_state(detector)  # serialize once, reuse
    workers = max(args.workers, 1)
    rows = []
    for batch_size in args.batch_sizes:
        service = ShardedDetectionService(
            state=state, model_factory=workbench.model_factory,
            num_workers=workers, batch_size=batch_size,
        )
        for name, model_state, model_threshold in extra:
            service.load_model(
                name, state=model_state,
                model_factory=workbench.model_factory,
                threshold=model_threshold,
            )
        with service:
            for spec in (None, *[name for name, _, _ in extra]):
                service.run(traffic[: 2 * batch_size], model=spec)  # warm
                result = service.run(traffic, model=spec)
                rows.append((
                    spec or "default", batch_size,
                    f"{result.samples_per_sec:.0f}",
                    f"{float(result.is_adversarial.mean()):.2f}",
                ))
    print(render_table(
        f"{args.scenario}: multi-model sharded throughput "
        f"(default={args.variant} + {len(extra)} extra, {len(traffic)} "
        f"samples, {workers} workers, wall-clock)",
        ["model", "batch", "samples/s", "reject rate"],
        rows,
    ))


def _serve_http(args, workbench, threshold, extra_models=()) -> None:
    """Run the HTTP front-end until interrupted, then drain cleanly."""
    import signal
    import threading

    from repro.runtime.server import DetectionHTTPServer

    service = workbench.service(
        args.variant, num_workers=args.workers,
        batch_size=args.batch_size, threshold=threshold,
    )
    for name, state, model_threshold in extra_models:
        service.load_model(
            name, state=state, model_factory=workbench.model_factory,
            threshold=model_threshold,
        )
    service.start()

    def model_loader(path):
        # POST /v1/models {"path": ...}: load a saved detector from
        # disk and calibrate it exactly like the boot-time models.
        from repro.core import (
            calibrate_threshold,
            detector_to_state,
            load_detector,
        )

        loaded = load_detector(workbench.model, path)
        model_threshold = calibrate_threshold(
            loaded, workbench.calibration_set, args.fpr
        )
        return (detector_to_state(loaded), workbench.model_factory,
                model_threshold)

    server = DetectionHTTPServer(
        service, host=args.host, port=args.http,
        max_inflight=args.max_inflight, model_loader=model_loader,
    )
    server.start()
    # Install explicit handlers before the banner: whoever reads the
    # banner may signal at once.  A background child of a
    # non-interactive shell inherits SIGINT=SIG_IGN (so Python would
    # never raise KeyboardInterrupt), and SIGTERM would otherwise kill
    # the parent without the drain, orphaning the workers.
    shutdown = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: shutdown.set())
    models = ", ".join(service.registry.names())
    print(f"serving {args.scenario}/{args.variant} on {server.url} "
          f"({args.workers} workers, fixed batch {args.batch_size}; "
          f"models: {models})")
    print(f"  POST {server.url}/v1/detect   (JSON or .npy body; "
          f"?model=NAME[@V], X-Repro-Class: interactive|standard|batch)")
    print(f"  GET  {server.url}/v1/models")
    print(f"  POST {server.url}/v1/models   (hot-swap: "
          "{\"name\": ..., \"path\"|\"from\": ...})")
    print(f"  GET  {server.url}/v1/stats")
    print(f"  GET  {server.url}/healthz")
    print("Ctrl-C (SIGINT/SIGTERM) to drain and stop.", flush=True)
    try:
        while not shutdown.is_set():  # serve until signalled
            shutdown.wait(0.5)
        print("\ndraining in-flight requests...", flush=True)
    finally:
        server.close()
        service.stop()
    print("stopped cleanly")


def cmd_serve(args) -> None:
    """Stream mixed traffic through the sharded multi-worker service,
    or expose it over HTTP with ``--http PORT``."""
    from repro.eval import Workbench, render_table

    if args.smoke:
        from repro.eval import workloads

        workloads.shrink_for_smoke()
    workbench = Workbench.get(args.scenario)
    threshold = workbench.calibrated_threshold(args.variant, args.fpr)
    extra_models = _parse_model_args(workbench, args.model, args.fpr)
    if args.http is not None:
        _serve_http(args, workbench, threshold, extra_models)
        return
    print(f"deploying {args.workers}-worker service: "
          f"threshold={threshold:.2f} (target FPR {args.fpr})"
          f"{f', +{len(extra_models)} extra models' if extra_models else ''}")
    frames, is_attack = workbench.traffic(
        attack=args.attack, count=args.count,
        attack_rate=args.attack_rate, return_truth=True,
    )
    service = workbench.service(
        args.variant, num_workers=args.workers,
        batch_size=args.batch_size, threshold=threshold,
    )
    for name, state, model_threshold in extra_models:
        service.load_model(
            name, state=state, model_factory=workbench.model_factory,
            threshold=model_threshold,
        )
    with service:
        result = service.run(frames)
        model_results = [
            (name, service.run(frames, model=name))
            for name, _, _ in extra_models
        ]
        shard_stats = service.shard_stats()
        merged = service.stats()
        restarts = service.restarts
    rows = [
        (f"shard {shard_id}", int(stats.samples), int(stats.batches),
         f"{stats.samples_per_sec:.0f}",
         f"{stats.mean_batch_latency_ms:.2f}")
        for shard_id, stats in sorted(shard_stats.items())
    ]
    rows.append((
        "merged", int(merged.samples), int(merged.batches),
        f"{merged.samples_per_sec:.0f}",
        f"{merged.mean_batch_latency_ms:.2f}",
    ))
    print(render_table(
        f"sharded service: {args.variant} on {args.scenario} "
        f"({args.count} samples, {args.workers} workers)",
        ["shard", "samples", "batches", "engine samples/s", "mean ms/batch"],
        rows,
    ))
    flagged = result.is_adversarial
    attacks = int(is_attack.sum())
    caught = int((flagged & is_attack).sum())
    false_alarms = int((flagged & ~is_attack).sum())
    print(f"\nwall-clock: {result.samples_per_sec:.0f} samples/s "
          f"over {result.wall_seconds * 1e3:.0f} ms")
    print(f"caught {caught}/{attacks} attacks, {false_alarms} false "
          f"alarms on {len(frames) - attacks} benign frames; "
          f"worker restarts: {restarts}")
    if model_results:
        rows = [
            (name, len(frames), f"{res.samples_per_sec:.0f}",
             f"{float(res.is_adversarial.mean()):.2f}")
            for name, res in [("default", result)] + model_results
        ]
        print()
        print(render_table(
            f"per-model wall-clock over the same {len(frames)} frames",
            ["model", "samples", "samples/s", "reject rate"],
            rows,
        ))


def cmd_suite(args) -> None:
    """Run a scenario grid and write ScenarioReport files + summary."""
    from repro.suite import (
        DEFAULT_AXES,
        DEFENSES,
        SMOKE_AXES,
        SuiteConfig,
        SuiteRunner,
        expand_grid,
        parse_grid,
        write_reports,
    )

    if args.smoke:
        from repro.eval import workloads

        workloads.shrink_for_smoke()
    defaults = SMOKE_AXES if args.smoke else DEFAULT_AXES
    axes = parse_grid(args.grid or [], defaults)
    specs, skipped = expand_grid(
        axes, include=args.include or (), exclude=args.exclude or ()
    )
    for skip in skipped:
        print(f"skip {skip.scenario_id}: {skip.reason}")
    if not specs:
        raise SystemExit("grid expanded to zero runnable scenarios")
    print(f"running {len(specs)} scenarios "
          f"({len(skipped)} skipped)...")
    runner = SuiteRunner(SuiteConfig(
        target_fpr=args.fpr, sweep_points=args.sweep_points,
        fit_attack=args.fit_attack,
    ))
    reports = runner.run(specs, log=print)
    if args.check_identity:
        checked = 0
        for spec, report in zip(specs, reports):
            if DEFENSES[spec.defense].engine_scored and not spec.is_fault_attack:
                runner.verify_bit_identity(spec, report)
                checked += 1
        print(f"bit-identity vs direct DetectionEngine.run verified for "
              f"{checked}/{len(specs)} engine-scored scenarios")
    if args.service:
        spec = next(
            (s for s in specs
             if DEFENSES[s.defense].engine_scored and not s.is_fault_attack),
            None,
        )
        if spec is None:
            print("--service: grid has no engine-scored scenarios to check")
        else:
            digest = runner.verify_service_identity(
                spec, num_workers=args.workers,
            )
            print(f"service identity: {spec.scenario_id} through a "
                  f"{args.workers}-worker ShardedDetectionService matches "
                  f"DetectionEngine.run (digest {digest[:12]})")
    manifest = write_reports(args.output, reports, skipped, axes)
    print(f"wrote {len(reports)} reports, {manifest.name}, and "
          f"results_summary.md under {args.output}/")


def cmd_scenarios(args) -> None:
    """List the named evaluation scenarios."""
    from repro.eval import SCENARIOS

    for name, scenario in SCENARIOS.items():
        print(f"  {name:22s} {scenario.model_builder.__name__} "
              f"x{scenario.num_classes} classes, {scenario.epochs} epochs")


def cmd_analyze(args) -> None:
    """Run the repo-specific static analyzer (stdlib-only)."""
    from repro.analysis.engine import run as analyze_run

    raise SystemExit(analyze_run(args))


def cmd_chaos(args) -> None:
    """Seeded chaos drill: fault storm vs. bit-identity invariant."""
    import json

    from repro.runtime.chaos import run_chaos_drill

    report = run_chaos_drill(
        seed=args.seed,
        smoke=args.smoke,
        num_requests=args.requests,
        num_workers=args.workers,
        batch_size=args.batch_size,
        hang_timeout=args.hang_timeout,
        task_timeout=args.task_timeout,
    )
    text = json.dumps(report, indent=2)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    if not report["passed"]:
        print(
            "chaos drill FAILED: "
            f"lost={report['lost_requests']} "
            f"digest_mismatches={report['digest_mismatches']} "
            f"storm_complete={report['storm_complete']}"
        )
        raise SystemExit(1)
    print(
        "chaos drill passed: "
        f"{report['requests']} requests, zero lost, digests bit-identical "
        f"({report['elapsed_seconds']:.1f}s)"
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Ptolemy reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a scenario model")
    p.add_argument("scenario")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--output", default="model.npz")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("profile", help="profile class paths for a model")
    p.add_argument("scenario")
    p.add_argument("--model", required=True)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--max-per-class", type=int, default=30)
    p.add_argument("--fit-attack", choices=["bim", "fgsm", "deepfool",
                                            "cwl2", "jsma"], default="bim")
    p.add_argument("--output", default="detector")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("detect", help="run detection on clean test inputs")
    p.add_argument("scenario")
    p.add_argument("--model", required=True)
    p.add_argument("--detector", required=True)
    p.add_argument("--count", type=int, default=10)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("cost", help="modelled hardware cost of a variant")
    p.add_argument("scenario")
    p.add_argument("--variant", default="FwAb",
                   choices=["BwCu", "BwAb", "FwAb", "FwCu", "Hybrid"])
    p.add_argument("--theta", type=float, default=0.5)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("compile", help="compile and print a BwCu program")
    p.add_argument("scenario")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--recompute", action="store_true")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("area", help="hardware area report")
    p.add_argument("--bits", type=int, default=16, choices=[8, 16])
    p.add_argument("--array", type=int, default=0)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("corrupt", help="natural-corruption sweep")
    p.add_argument("scenario")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--severities", type=int, nargs="+", default=[1, 3, 5])
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("monitor", help="deploy a monitor, stream traffic")
    p.add_argument("scenario")
    p.add_argument("--count", type=int, default=12)
    p.add_argument("--fpr", type=float, default=0.1)
    p.add_argument("--attack", choices=["bim", "fgsm", "deepfool",
                                        "cwl2", "jsma"], default="bim")
    p.add_argument("--attack-rate", type=float, default=0.33)
    p.add_argument("--batch-size", type=int, default=16,
                   help="micro-batch size for the serving pipeline")
    p.add_argument("--fast", action="store_true",
                   help="use the low-latency FwAb variant")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("explain", help="saliency + divergence explanation")
    p.add_argument("scenario")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--attack", choices=["bim", "fgsm", "deepfool",
                                        "cwl2", "jsma"], default="bim")
    p.add_argument("--top", type=int, default=4)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "defend", help="adversarial retraining + re-profiled Ptolemy"
    )
    p.add_argument("scenario")
    p.add_argument("--attack", choices=["bim", "fgsm", "deepfool",
                                        "cwl2", "jsma"], default="fgsm")
    p.add_argument("--epochs", type=int, default=4)
    p.set_defaults(func=cmd_defend)

    p = sub.add_parser(
        "throughput", help="measure engine throughput across batch sizes"
    )
    p.add_argument("scenario")
    p.add_argument("--variant", default="FwAb",
                   choices=["BwCu", "BwAb", "FwAb", "FwCu", "Hybrid"])
    p.add_argument("--count", type=int, default=256)
    p.add_argument("--attack", choices=["bim", "fgsm", "deepfool",
                                        "cwl2", "jsma"], default="bim")
    p.add_argument("--attack-rate", type=float, default=0.33)
    p.add_argument("--batch-sizes", type=int, nargs="+",
                   default=[1, 8, 64, 256])
    p.add_argument("--fpr", type=float, default=0.1,
                   help="target FPR used to calibrate --model extras "
                   "(default 0.1)")
    _add_pool_args(p, workers=1, models=True)
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser(
        "serve", help="stream traffic through the sharded service, or "
        "expose it over HTTP with --http PORT"
    )
    p.add_argument("scenario")
    p.add_argument("--count", type=int, default=256)
    p.add_argument("--batch-size", type=int, default=32,
                   help="micro-batch size each shard processes at once; "
                   "every request is split into chunks of this size "
                   "(default 32)")
    p.add_argument("--http", type=int, default=None, metavar="PORT",
                   help="serve over HTTP on this port instead of "
                   "streaming canned traffic (0 = ephemeral port)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for --http (default 127.0.0.1)")
    p.add_argument("--max-inflight", type=int, default=16,
                   help="HTTP backpressure bound: requests beyond this "
                   "many in flight get 429 (default 16)")
    p.add_argument("--smoke", action="store_true",
                   help="shrink scenario sizes to CI-smoke scale "
                   "before building the workbench")
    _add_pool_args(p, workers=2, models=True)
    p.add_argument("--variant", default="FwAb",
                   choices=["BwCu", "BwAb", "FwAb", "FwCu", "Hybrid"])
    p.add_argument("--attack", choices=["bim", "fgsm", "deepfool",
                                        "cwl2", "jsma"], default="bim")
    p.add_argument("--attack-rate", type=float, default=0.33)
    p.add_argument("--fpr", type=float, default=0.1)
    # not flags: perfbench/workload_http.py reads all five defaults
    p.set_defaults(func=cmd_serve, backend=None, transport=None,
                   slo_ms=None, scheduler=None, pin=False)

    p = sub.add_parser(
        "suite", help="run a scenario grid, write per-scenario JSON "
        "reports + a combined results_summary.md"
    )
    p.add_argument("--grid", nargs="*", default=None, metavar="AXIS=V1,V2",
                   help="grid axes as axis=v1,v2 tokens (axes: workload, "
                   "attack, defense, corruption; corruption "
                   "values take name@severity); unspecified axes use "
                   "the defaults")
    p.add_argument("--smoke", action="store_true",
                   help="shrink scenario sizes to CI-smoke scale and "
                   "default to the 2x2x1 smoke grid")
    p.add_argument("--output", default="suite_results",
                   help="output directory (default suite_results/)")
    p.add_argument("--include", nargs="*", default=None, metavar="GLOB",
                   help="keep only scenario ids matching these globs")
    p.add_argument("--exclude", nargs="*", default=None, metavar="GLOB",
                   help="drop scenario ids matching these globs")
    p.add_argument("--check-identity", action="store_true",
                   help="verify every engine-scored scenario's scores "
                   "digest is bit-identical to a direct "
                   "DetectionEngine.run of the same workload")
    p.add_argument("--service", action="store_true",
                   help="additionally score one engine-scored cell "
                   "through a ShardedDetectionService pool of --workers "
                   "workers and verify "
                   "its scores match DetectionEngine.run bit-for-bit")
    _add_pool_args(p, workers=2)
    p.add_argument("--fpr", type=float, default=0.1,
                   help="target FPR for the operating point (default 0.1)")
    p.add_argument("--sweep-points", type=int, default=21,
                   help="thresholds per scenario sweep (default 21)")
    p.add_argument("--fit-attack", default=None,
                   choices=["bim", "cwl2", "deepfool", "fgsm", "jsma",
                            "pgd"],
                   help="fit every defense against this attack instead "
                   "of each cell's own evaluation attack")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("scenarios", help="list named scenarios")
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser(
        "analyze",
        help="static-analysis gate for the repo's runtime invariants "
             "(RPR rules; see --list-rules)",
    )
    # Stdlib-only import: safe at parser-build time, and the
    # subcommand's flag surface stays identical to scripts/analyze.py.
    from repro.analysis.engine import add_arguments as _add_analyzer_args

    _add_analyzer_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "chaos",
        help="seeded fault storm against a live sharded service",
        description=(
            "Run a deterministic chaos drill: boot a real "
            "ShardedDetectionService, land a seeded storm of worker "
            "crashes, hangs, slowdowns and dropped batch messages "
            "under live traffic, and fail unless zero "
            "requests are lost and every response is bit-identical to "
            "the single-process engine."
        ),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--smoke", action="store_true",
        help="CI-sized drill (shrunken workload, fewer requests)",
    )
    p.add_argument(
        "--requests", type=int, default=None,
        help="request count (default: 24 smoke / 60 full)",
    )
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument(
        "--hang-timeout", type=float, default=2.0,
        help="watchdog reap threshold for silent workers (s)",
    )
    p.add_argument(
        "--task-timeout", type=float, default=5.0,
        help="in-flight redelivery threshold (s)",
    )
    p.add_argument(
        "--report", default=None,
        help="also write the JSON recovery report to this path",
    )
    p.set_defaults(func=cmd_chaos)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
