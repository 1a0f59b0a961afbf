#!/usr/bin/env python
"""Accuracy gate for the scenario suite.

Re-runs the smoke grid ({bim, fgsm} x {ptolemy_fwab, ep} x
{none, gaussian_noise@3}) through ``repro.suite.SuiteRunner``, checks
each engine-scored scenario bit-identical to a direct
``DetectionEngine.run`` and to a ``DetectionEngine`` of batch size 1
(batching must not change a score's bytes, under any BLAS build), and
compares every scenario against the committed ``SUITE_baseline.json``:

- detection AUC and TPR@0.1FPR may drop at most ``METRIC_TOLERANCE``
  (absolute) below the baseline.  Detection quality at fixed seeds does
  not depend on the machine, so these floors hold everywhere;
- the scores digest (sha256 of the raw score stream) must equal the
  baseline's.  Exact bit-equality holds only under the BLAS build that
  recorded the baseline, so ``--no-digest`` skips this check on other
  machines.

Scenarios absent from the baseline are skipped, not failed, so the
grid can grow before the baseline is re-recorded; a baseline that
matches none of the current scenario ids fails, since then every check
would silently skip.

Usage::

    python scripts/suite_gate.py              # compare against baseline
    python scripts/suite_gate.py --no-digest  # metric floors only
    python scripts/suite_gate.py --update     # re-record the baseline
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

BASELINE_PATH = REPO / "SUITE_baseline.json"
#: The gate grid: 2 attacks x 2 defenses x 2 corruptions at smoke sizes.
SUITE_GATE_GRID = (
    "attack=bim,fgsm",
    "defense=ptolemy_fwab,ep",
    "corruption=none,gaussian_noise@3",
)
#: Metrics gated per scenario, as absolute floors.
GATED_METRICS = ("auc", "tpr_at_fpr")
#: Allowed absolute drop per gated metric.
METRIC_TOLERANCE = 0.08


def check_batch_of_one(runner, spec, scenario) -> None:
    """Re-score ``spec``'s workload one frame per engine batch and
    require the suite's score bytes, which the suite scored at its
    default batch size."""
    import numpy as np

    from repro.runtime import DetectionEngine
    from repro.suite import scores_digest

    inputs, _, _ = runner.eval_arrays(spec)
    engine = DetectionEngine(runner.fitted_defense(spec).detector,
                             batch_size=1)
    scores = np.ascontiguousarray(engine.run(inputs).scores,
                                  dtype=np.float64)
    if scores_digest(scores.tobytes()) != scenario["scores_digest"]:
        raise SystemExit(
            f"FATAL: {spec.scenario_id}: scores at engine batch size 1 "
            f"differ from the suite's at batch size "
            f"{runner.config.batch_size}"
        )


def run_suite() -> dict:
    """The smoke grid, bit-identity checked per cell.

    Returns ``{scenario_id: {auc, tpr_at_fpr, accuracy,
    scores_digest}}``.
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
    specs, _ = expand_grid(parse_grid(SUITE_GATE_GRID, SMOKE_AXES))
    runner = SuiteRunner(SuiteConfig())
    report = {}
    for spec in specs:
        scenario = runner.run_scenario(spec)
        if DEFENSES[spec.defense].engine_scored and not spec.is_fault_attack:
            try:
                runner.verify_bit_identity(spec, scenario)
            except RuntimeError as exc:
                raise SystemExit(f"FATAL: {exc}") from exc
            check_batch_of_one(runner, spec, scenario)
        metrics = scenario["metrics"]
        report[spec.scenario_id] = {
            "auc": metrics["auc"],
            "tpr_at_fpr": metrics["tpr_at_fpr"],
            "accuracy": metrics["accuracy"],
            "scores_digest": scenario["scores_digest"],
        }
    return report


def compare(current: dict, baseline: dict, check_digest: bool) -> list:
    """Print one line per check; return the failure messages."""
    if not set(baseline) & set(current):
        return [
            f"baseline matches none of the {len(current)} current "
            f"scenario ids; re-key or re-record {BASELINE_PATH.name}"
        ]
    failures = []
    for scenario_id, row in current.items():
        old_row = baseline.get(scenario_id)
        if old_row is None:
            print(f"  {scenario_id}: no baseline row; gate skipped")
            continue
        for metric in GATED_METRICS:
            old, new = old_row[metric], row[metric]
            floor = old - METRIC_TOLERANCE
            status = "ok" if new >= floor else "REGRESSION"
            print(f"  {scenario_id} {metric}: {new:.3f} vs baseline "
                  f"{old:.3f} (floor {floor:.3f}) {status}")
            if new < floor:
                failures.append(
                    f"{scenario_id}: {metric} {new:.3f} < floor "
                    f"{floor:.3f} ({METRIC_TOLERANCE} below {old:.3f})"
                )
        if check_digest:
            new, old = row["scores_digest"], old_row["scores_digest"]
            print(f"  {scenario_id} digest: "
                  f"{'ok' if new == old else 'DRIFT'}")
            if new != old:
                failures.append(
                    f"{scenario_id}: scores digest drifted from the "
                    f"baseline ({new} != {old})"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true",
        help=f"re-record {BASELINE_PATH.name} from this machine",
    )
    parser.add_argument(
        "--no-digest", action="store_true",
        help="skip the scores-digest check, which holds only under the "
        "BLAS build that recorded the baseline",
    )
    args = parser.parse_args(argv)

    print(f"suite gate: running the smoke grid "
          f"({' '.join(SUITE_GATE_GRID)})...")
    current = run_suite()
    for scenario_id, row in current.items():
        print(f"  {scenario_id}: auc={row['auc']:.3f} "
              f"tpr@0.1fpr={row['tpr_at_fpr']:.3f} "
              f"acc={row['accuracy']:.3f}")

    if args.update or not BASELINE_PATH.exists():
        record = {
            "note": "recorded by scripts/suite_gate.py --update; "
                    "detection metrics and score digests of the "
                    "scenario-suite smoke grid",
            "machine": platform.platform(),
            "python": platform.python_version(),
            "suite": current,
        }
        BASELINE_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())["suite"]
    failures = compare(current, baseline, check_digest=not args.no_digest)
    if failures:
        print("\nSUITE GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nsuite gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
