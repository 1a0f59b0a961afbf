"""Experiment harness shared by the benchmarks and examples.

A :class:`Workbench` lazily builds and caches everything one scenario
needs — trained model, attack sets, profiled detectors, hardware cost
reports — so each benchmark regenerates its table/figure from warm
state.  All construction is deterministic (seeded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.attacks import (
    BIM,
    CWL2,
    DeepFool,
    FGSM,
    JSMA,
    PGD,
    AttackResult,
)
from repro.compiler import apply_optimizations
from repro.core import (
    ExtractionConfig,
    PathExtractor,
    PtolemyDetector,
    calibrate_phi,
)
from repro.eval.workloads import SCENARIOS, Scenario
from repro.hw import (
    DEFAULT_HW,
    DetectionCost,
    HardwareConfig,
    ModelWorkload,
    model_workload,
    simulate_detection,
)
from repro.nn import evaluate_accuracy, train_classifier

__all__ = ["Workbench", "VariantResult", "PTOLEMY_VARIANTS"]

#: The four algorithm variants of Sec. VI-B.
PTOLEMY_VARIANTS = ("BwCu", "BwAb", "FwAb", "Hybrid")

_WORKBENCH_CACHE: Dict[str, "Workbench"] = {}


@dataclass
class VariantResult:
    """Accuracy + hardware cost of one Ptolemy variant on one attack."""

    variant: str
    attack: str
    auc: float
    latency_overhead: float
    energy_overhead: float


class Workbench:
    """All lazily-built state for one scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.dataset = scenario.build_dataset()
        self.model = scenario.build_model()
        history = train_classifier(
            self.model,
            self.dataset.x_train,
            self.dataset.y_train,
            scenario.train_config(),
        )
        self.train_accuracy = history.final_accuracy
        self.clean_accuracy = evaluate_accuracy(
            self.model, self.dataset.x_test, self.dataset.y_test
        )
        self.model.forward(self.dataset.x_test[:1])
        self.workload: ModelWorkload = model_workload(self.model)
        self._attacks: Dict[str, AttackResult] = {}
        self._attack_fit: Dict[str, AttackResult] = {}
        self._detectors: Dict[Tuple, PtolemyDetector] = {}
        self._configs: Dict[Tuple, ExtractionConfig] = {}

    # -- cached accessor ---------------------------------------------------
    @classmethod
    def get(cls, scenario_name: str) -> "Workbench":
        """Cached workbench per scenario (benchmarks share state)."""
        if scenario_name not in _WORKBENCH_CACHE:
            if scenario_name not in SCENARIOS:
                known = ", ".join(sorted(SCENARIOS))
                raise KeyError(
                    f"unknown scenario {scenario_name!r}; known: {known}"
                )
            _WORKBENCH_CACHE[scenario_name] = cls(SCENARIOS[scenario_name])
        return _WORKBENCH_CACHE[scenario_name]

    # -- data splits --------------------------------------------------------
    @property
    def fit_benign(self) -> np.ndarray:
        """Benign samples for classifier fitting (from the train set)."""
        return self.dataset.x_train[: self._fit_count]

    @property
    def eval_benign(self) -> np.ndarray:
        """Benign half of the evaluation set (Sec. VI-A: test sets are
        evenly split between adversarial and benign)."""
        return self.dataset.x_test[: self._eval_count]

    @property
    def _fit_count(self) -> int:
        return min(40, len(self.dataset.x_train) // 2)

    @property
    def _eval_count(self) -> int:
        return min(30, len(self.dataset.x_test) // 2)

    # -- attacks --------------------------------------------------------
    def _make_attack(self, name: str):
        attacks = {
            "bim": lambda: BIM(eps=0.08),
            "cwl2": lambda: CWL2(steps=60),
            "deepfool": lambda: DeepFool(),
            "fgsm": lambda: FGSM(eps=0.10),
            "jsma": lambda: JSMA(),
            "pgd": lambda: PGD(eps=0.08),
        }
        return attacks[name]()

    def attack_eval(self, name: str) -> AttackResult:
        """Adversarial samples over the evaluation benign half."""
        if name not in self._attacks:
            attack = self._make_attack(name)
            n = self._eval_count
            self._attacks[name] = attack.generate(
                self.model,
                self.dataset.x_test[n : 2 * n],
                self.dataset.y_test[n : 2 * n],
            )
        return self._attacks[name]

    def attack_fit(self, name: str) -> AttackResult:
        """Adversarial samples used to fit detector classifiers."""
        if name not in self._attack_fit:
            attack = self._make_attack(name)
            n = self._fit_count
            self._attack_fit[name] = attack.generate(
                self.model,
                self.dataset.x_train[n : 2 * n],
                self.dataset.y_train[n : 2 * n],
            )
        return self._attack_fit[name]

    # -- Ptolemy variants -----------------------------------------------
    def config_for(
        self,
        variant: str,
        theta: float = 0.5,
        first_layer: int = 1,
    ) -> ExtractionConfig:
        """Build (and cache) the ExtractionConfig for a named variant."""
        key = (variant, theta, first_layer)
        if key not in self._configs:
            n = self.model.num_extraction_units()
            sample = self.dataset.x_train[:4]
            if variant == "BwCu":
                config = ExtractionConfig.bwcu(
                    n, theta=theta, termination_layer=first_layer
                )
            elif variant == "BwAb":
                config = calibrate_phi(
                    self.model,
                    ExtractionConfig.bwab(n, termination_layer=first_layer),
                    sample,
                )
            elif variant == "FwAb":
                config = calibrate_phi(
                    self.model,
                    ExtractionConfig.fwab(n, start_layer=first_layer),
                    sample,
                    quantile=0.95,
                )
            elif variant == "FwCu":
                config = ExtractionConfig.fwcu(
                    n, theta=theta, start_layer=first_layer
                )
            elif variant == "Hybrid":
                config = calibrate_phi(
                    self.model, ExtractionConfig.hybrid(n, theta=theta), sample
                )
            else:
                raise ValueError(f"unknown variant {variant!r}")
            self._configs[key] = config
        return self._configs[key]

    def detector(
        self,
        variant: str,
        fit_attack: str = "bim",
        theta: float = 0.5,
        first_layer: int = 1,
    ) -> PtolemyDetector:
        """Profiled + classifier-fitted detector for a variant."""
        key = (variant, fit_attack, theta, first_layer)
        if key not in self._detectors:
            config = self.config_for(variant, theta, first_layer)
            detector = PtolemyDetector(
                self.model, config, n_trees=60, seed=self.scenario.seed
            )
            detector.profile(
                self.dataset.x_train,
                self.dataset.y_train,
                max_per_class=30,
            )
            detector.fit_classifier(
                self.fit_benign, self.attack_fit(fit_attack).x_adv
            )
            self._detectors[key] = detector
        return self._detectors[key]

    # -- runtime serving ---------------------------------------------------
    @property
    def calibration_set(self) -> np.ndarray:
        """Held-out clean frames for threshold calibration (the tail of
        the test split, unseen by profiling/fitting) — the one slice
        both the monitor and the sharded service deploy against."""
        return self.dataset.x_test[-30:]

    def calibrated_threshold(
        self, variant: str = "FwAb", target_fpr: float = 0.1
    ) -> float:
        """Decision threshold hitting ``target_fpr`` on the held-out
        calibration set."""
        from repro.core import calibrate_threshold

        return calibrate_threshold(
            self.detector(variant), self.calibration_set, target_fpr
        )

    @property
    def model_factory(self):
        """Picklable zero-arg builder of this scenario's architecture —
        what the sharded service's workers call before loading the
        broadcast weights."""
        return self.scenario.build_model

    def service(
        self,
        variant: str = "FwAb",
        num_workers: int = 2,
        batch_size: int = 64,
        threshold: float = 0.5,
        **kwargs,
    ):
        """A (not yet started) :class:`ShardedDetectionService` over this
        scenario's fitted detector.  Use as a context manager::

            with workbench.service(num_workers=4) as svc:
                result = svc.run(traffic)
        """
        from repro.runtime import ShardedDetectionService

        return ShardedDetectionService(
            self.detector(variant),
            model_factory=self.model_factory,
            num_workers=num_workers,
            batch_size=batch_size,
            threshold=threshold,
            **kwargs,
        )

    def traffic(self, attack: str = "bim", count: int = 256,
                attack_rate: float = 0.33, seed: int = 0,
                return_truth: bool = False):
        """A deterministic mixed benign/adversarial traffic stream of
        ``count`` samples for serving benchmarks.  With
        ``return_truth=True`` also returns the per-frame ground-truth
        boolean array (True = adversarial) for operator displays."""
        rng = np.random.default_rng(seed)
        adv = self.attack_eval(attack).x_adv
        benign = self.eval_benign
        frames, truths = [], []
        for _ in range(count):
            is_attack = rng.random() < attack_rate
            pool = adv if is_attack else benign
            frames.append(pool[int(rng.integers(0, len(pool)))])
            truths.append(is_attack)
        if frames:
            stream = np.stack(frames)
        else:
            stream = np.empty((0, *benign.shape[1:]))
        if return_truth:
            return stream, np.array(truths, dtype=bool)
        return stream

    # -- measurements ------------------------------------------------------
    def variant_auc(
        self,
        variant: str,
        attack: str,
        theta: float = 0.5,
        first_layer: int = 1,
    ) -> float:
        """Detection AUC of a variant against one attack."""
        detector = self.detector(variant, theta=theta, first_layer=first_layer)
        adv = self.attack_eval(attack).x_adv
        return detector.evaluate_auc(self.eval_benign, adv)

    def variant_cost(
        self,
        variant: str,
        theta: float = 0.5,
        first_layer: int = 1,
        hw: HardwareConfig = DEFAULT_HW,
        recompute: bool = False,
        n_inputs: int = 3,
    ) -> DetectionCost:
        """Average hardware cost of a variant over benign test inputs."""
        config = self.config_for(variant, theta, first_layer)
        extractor = PathExtractor(self.model, config)
        schedule = apply_optimizations(
            config, config.num_layers, recompute=recompute
        )
        costs: List[DetectionCost] = []
        for i in range(n_inputs):
            result = extractor.extract(self.dataset.x_test[i : i + 1])
            costs.append(
                simulate_detection(
                    self.workload, config, result.trace, schedule, hw
                )
            )
        return _average_costs(costs)

    def mean_auc(
        self, variant: str, attacks: Tuple[str, ...] = ("bim", "cwl2", "deepfool", "fgsm", "jsma"),
        theta: float = 0.5, first_layer: int = 1,
    ) -> Dict[str, float]:
        """Per-attack and mean AUC (the paper reports averages across
        attacks with min/max error bars, Fig. 10)."""
        aucs = {
            a: self.variant_auc(variant, a, theta=theta, first_layer=first_layer)
            for a in attacks
        }
        aucs["mean"] = float(np.mean([aucs[a] for a in attacks]))
        return aucs


def _average_costs(costs: List[DetectionCost]) -> DetectionCost:
    """Element-wise mean of several DetectionCost reports."""
    first = costs[0]
    if len(costs) == 1:
        return first
    avg = DetectionCost(
        inference_cycles=first.inference_cycles,
        inference_energy_pj=first.inference_energy_pj,
    )
    avg.unit_costs = first.unit_costs
    avg.classifier_cycles = first.classifier_cycles
    avg.classifier_energy_pj = first.classifier_energy_pj
    avg.total_cycles = int(np.mean([c.total_cycles for c in costs]))
    avg.total_energy_pj = float(np.mean([c.total_energy_pj for c in costs]))
    avg.dram = first.dram
    return avg
