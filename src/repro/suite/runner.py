"""The suite driver: one scenario cell in, one ScenarioReport out.

The runner owns the only code path that turns a
:class:`~repro.suite.grid.ScenarioSpec` into numbers, so every report
in a suite run is comparable: same evaluation split, same corruption
seeding, same threshold sweep, same digest convention.  Engine-scored
scenarios ride :class:`repro.runtime.DetectionEngine` end-to-end and
:meth:`SuiteRunner.verify_bit_identity` proves a suite run never
diverges from a direct engine run of the same workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.metrics import detection_report, roc_auc
from repro.suite.adapters import (
    ATTACKS,
    DEFENSES,
    SUITE_BATCH,
    FittedDefense,
    fault_scores,
)
from repro.suite.grid import ScenarioSpec
from repro.suite.schema import (
    SCHEMA_VERSION,
    config_fingerprint,
    environment_info,
    scores_digest,
    validate_report,
)
from repro.suite.sweep import sweep_thresholds, threshold_at_fpr

__all__ = ["SuiteConfig", "SuiteRunner"]


@dataclass(frozen=True)
class SuiteConfig:
    """Run-wide knobs shared by every scenario in a suite invocation."""

    target_fpr: float = 0.1
    sweep_points: int = 21
    batch_size: int = SUITE_BATCH
    #: attack the defense classifiers are fitted against; None fits
    #: each cell against its own evaluation attack (faults fit on the
    #: default "bim", matching the fault bench's detectors).
    fit_attack: Optional[str] = None
    corruption_seed: int = 0


class SuiteRunner:
    """Expands nothing, filters nothing — just runs scenario cells.

    Fitted defenses are cached per (workload, defense, fit-attack) so
    a grid that sweeps attacks or corruptions over one
    defense fits it once, exactly like the Workbench caches detectors.
    """

    def __init__(self, config: Optional[SuiteConfig] = None):
        self.config = config or SuiteConfig()
        self._fitted: Dict[Tuple, FittedDefense] = {}

    # -- shared state ---------------------------------------------------
    def workbench(self, workload: str):
        from repro.eval import Workbench

        return Workbench.get(workload)

    def fit_attack_for(self, spec: ScenarioSpec) -> str:
        if self.config.fit_attack is not None:
            return self.config.fit_attack
        return "bim" if spec.is_fault_attack else spec.attack

    def fitted_defense(self, spec: ScenarioSpec) -> FittedDefense:
        adapter = DEFENSES[spec.defense]
        fit_attack = self.fit_attack_for(spec)
        key = (spec.workload, spec.defense, fit_attack)
        if not adapter.cacheable:
            return adapter.build(self.workbench(spec.workload), fit_attack)
        if key not in self._fitted:
            self._fitted[key] = adapter.build(
                self.workbench(spec.workload), fit_attack
            )
        return self._fitted[key]

    # -- evaluation data ------------------------------------------------
    def _corrupt(self, spec: ScenarioSpec,
                 images: np.ndarray) -> Tuple[np.ndarray, float]:
        """Apply the cell's corruption; returns (images, mse)."""
        name = spec.corruption_name
        if name is None:
            return images, 0.0
        from repro.data import apply_corruption

        result = apply_corruption(
            name, images, spec.corruption_severity,
            seed=self.config.corruption_seed,
        )
        return result.images, result.mse

    def eval_arrays(
        self, spec: ScenarioSpec
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
        """The exact (inputs, labels) a scenario scores, plus corruption
        accounting — exposed so bit-identity checks and tests can
        reconstruct a scenario's workload without the runner."""
        workbench = self.workbench(spec.workload)
        attack = ATTACKS[spec.attack]
        benign, mse_benign = self._corrupt(spec, workbench.eval_benign)
        if spec.is_fault_attack:
            # faults perturb the forward pass, not the inputs: the
            # "workload" is the (possibly corrupted) benign frames,
            # each run twice (clean + faulted)
            labels = np.concatenate(
                [np.zeros(len(benign)), np.ones(len(benign))]
            )
            return benign, labels, {"corruption_mse_benign": mse_benign}
        adversarial, mse_adv = self._corrupt(spec, attack.adversarial(workbench))
        inputs = np.concatenate([benign, adversarial])
        labels = np.concatenate(
            [np.zeros(len(benign)), np.ones(len(adversarial))]
        )
        return inputs, labels, {
            "corruption_mse_benign": mse_benign,
            "corruption_mse_adversarial": mse_adv,
        }

    # -- scenario execution ---------------------------------------------
    def run_scenario(self, spec: ScenarioSpec) -> Dict:
        """Run one cell and return its validated ScenarioReport dict."""
        workbench = self.workbench(spec.workload)
        fitted = self.fitted_defense(spec)
        inputs, labels, extras = self.eval_arrays(spec)

        started = time.perf_counter()
        if spec.is_fault_attack:
            clean, faulty = fault_scores(
                workbench, fitted.detector, inputs, ATTACKS[spec.attack]
            )
            scores = np.concatenate([clean, faulty])
        else:
            scores = fitted.scores_for_set(inputs)
        score_seconds = time.perf_counter() - started
        if len(scores) != len(labels):
            raise RuntimeError(
                f"{spec.scenario_id}: scorer returned {len(scores)} scores "
                f"for {len(labels)} labels"
            )

        threshold, tpr_at_target = threshold_at_fpr(
            labels, scores, self.config.target_fpr
        )
        point = detection_report(labels, scores, threshold)
        config = dict(spec.as_config())
        config.update({
            "fit_attack": self.fit_attack_for(spec),
            "target_fpr": self.config.target_fpr,
            "sweep_points": self.config.sweep_points,
            "batch_size": self.config.batch_size,
            "corruption_seed": self.config.corruption_seed,
            "n_negative": int((labels == 0).sum()),
            "n_positive": int((labels == 1).sum()),
        })
        metrics = {
            "auc": roc_auc(labels, scores),
            "tpr_at_fpr": tpr_at_target,
            "accuracy": point.accuracy,
            "tpr": point.true_positive_rate,
            "fpr": point.false_positive_rate,
            "threshold": threshold,
            "target_fpr": self.config.target_fpr,
        }
        metrics.update(extras)
        samples = int(len(scores))
        report = {
            "schema_version": SCHEMA_VERSION,
            "scenario_id": spec.scenario_id,
            "config": config,
            "config_fingerprint": config_fingerprint(config),
            "metrics": metrics,
            "threshold_sweep": sweep_thresholds(
                labels, scores, self.config.sweep_points
            ),
            "timing": {
                "fit_seconds": fitted.fit_seconds,
                "score_seconds": score_seconds,
                "samples": samples,
                "samples_per_sec": (
                    samples / score_seconds if score_seconds > 0 else 0.0
                ),
            },
            "scores_digest": scores_digest(
                np.ascontiguousarray(scores, dtype=np.float64).tobytes()
            ),
            "environment": environment_info(),
        }
        errors = validate_report(report)
        if errors:
            raise RuntimeError(
                f"{spec.scenario_id}: generated report violates its own "
                f"schema: {'; '.join(errors)}"
            )
        return report

    def run(
        self,
        specs: List[ScenarioSpec],
        log: Optional[Callable[[str], None]] = None,
    ) -> List[Dict]:
        """Run every spec in order; reports come back in the same order."""
        reports = []
        for i, spec in enumerate(specs):
            if log is not None:
                log(f"[{i + 1}/{len(specs)}] {spec.scenario_id}")
            report = self.run_scenario(spec)
            if log is not None:
                metrics = report["metrics"]
                log(f"    auc={metrics['auc']:.3f} "
                    f"tpr@{metrics['target_fpr']:.2f}fpr="
                    f"{metrics['tpr_at_fpr']:.3f} "
                    f"acc={metrics['accuracy']:.3f} "
                    f"({report['timing']['samples_per_sec']:.0f} samples/s)")
            reports.append(report)
        return reports

    # -- contracts ------------------------------------------------------
    def verify_bit_identity(self, spec: ScenarioSpec,
                            report: Dict) -> Tuple[str, str]:
        """Prove a suite-run scenario equals a direct engine run.

        Re-scores the scenario's exact workload through a fresh
        :class:`DetectionEngine` over the same fitted detector and
        returns (suite_digest, direct_digest) — raising if the defense
        is not engine-scored (there is no engine to compare against)
        or if the digests diverge.
        """
        from repro.runtime import DetectionEngine

        adapter = DEFENSES[spec.defense]
        if not adapter.engine_scored or spec.is_fault_attack:
            raise RuntimeError(
                f"{spec.scenario_id} is not engine-scored; bit-identity "
                f"is defined against DetectionEngine scenarios only"
            )
        fitted = self.fitted_defense(spec)
        inputs, _, _ = self.eval_arrays(spec)
        engine = DetectionEngine(
            fitted.detector, batch_size=self.config.batch_size
        )
        direct = engine.run(inputs).scores
        direct_digest = scores_digest(
            np.ascontiguousarray(direct, dtype=np.float64).tobytes()
        )
        if direct_digest != report["scores_digest"]:
            raise RuntimeError(
                f"{spec.scenario_id}: suite digest "
                f"{report['scores_digest']} != direct engine digest "
                f"{direct_digest}"
            )
        return report["scores_digest"], direct_digest

    def verify_service_identity(
        self,
        spec: ScenarioSpec,
        num_workers: int = 2,
    ) -> str:
        """Prove the sharded service scores a cell bit-identically to a
        direct in-process engine run (``repro suite --service``).

        Scores the scenario's exact workload twice over the same fitted
        detector — once through :class:`DetectionEngine` and once
        through a ``num_workers``-shard
        :class:`ShardedDetectionService` — and returns the common
        scores digest, raising when the two paths diverge.  Like
        :meth:`verify_bit_identity`, only engine-scored non-fault
        scenarios are comparable.
        """
        from repro.runtime import DetectionEngine, ShardedDetectionService

        adapter = DEFENSES[spec.defense]
        if not adapter.engine_scored or spec.is_fault_attack:
            raise RuntimeError(
                f"{spec.scenario_id} is not engine-scored; service "
                f"identity is defined against DetectionEngine scenarios "
                f"only"
            )
        fitted = self.fitted_defense(spec)
        inputs, _, _ = self.eval_arrays(spec)
        engine = DetectionEngine(
            fitted.detector, batch_size=self.config.batch_size
        )
        direct = engine.run(inputs).scores
        workbench = self.workbench(spec.workload)
        with ShardedDetectionService(
            fitted.detector,
            model_factory=workbench.model_factory,
            num_workers=num_workers,
            batch_size=self.config.batch_size,
        ) as service:
            served = service.run(inputs).scores
        direct_digest = scores_digest(
            np.ascontiguousarray(direct, dtype=np.float64).tobytes()
        )
        served_digest = scores_digest(
            np.ascontiguousarray(served, dtype=np.float64).tobytes()
        )
        if served_digest != direct_digest:
            raise RuntimeError(
                f"{spec.scenario_id}: service digest {served_digest} != "
                f"direct engine digest {direct_digest}"
            )
        return direct_digest
