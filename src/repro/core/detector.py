"""End-to-end Ptolemy detector (the online half of Fig. 4).

Pipeline: extract the activation path of an input, compare it to the
canary path of the *predicted* class, feed the similarity features to a
random forest, and flag the input as adversarial when the forest's
score exceeds the decision threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.classifier import RandomForest
from repro.core.config import Direction, ExtractionConfig
from repro.core.extraction import (
    BatchExtractionResult,
    ExtractionResult,
    PathExtractor,
)
from repro.core.metrics import roc_auc
from repro.core.path import (
    NUMPY_KERNELS,
    batch_path_similarity,
    batch_per_tap_similarity,
    path_similarity,
    per_tap_similarity,
)
from repro.core.profiling import ClassPathSet, profile_class_paths
from repro.core.trace import ExtractionTrace
from repro.nn.graph import Graph

__all__ = ["DetectionOutcome", "BatchDetectionResult", "PtolemyDetector"]


@dataclass
class DetectionOutcome:
    """Everything the detector derives from one input."""

    is_adversarial: bool
    score: float
    predicted_class: int
    similarity: float
    extraction: ExtractionResult


@dataclass
class BatchDetectionResult:
    """Vectorized detection over a batch: one row per input."""

    is_adversarial: np.ndarray
    scores: np.ndarray
    predicted_classes: np.ndarray
    similarities: np.ndarray
    extraction: BatchExtractionResult

    @property
    def batch_size(self) -> int:
        return self.scores.shape[0]

    def __len__(self) -> int:
        return self.batch_size

    def outcomes(self) -> List[DetectionOutcome]:
        """Materialise per-sample :class:`DetectionOutcome` objects
        (unpacks paths; intended for serving layers, not hot loops)."""
        paths = self.extraction.paths()
        traces = self.extraction.traces
        out: List[DetectionOutcome] = []
        for i in range(self.batch_size):
            trace = (
                traces[i]
                if traces is not None
                else ExtractionTrace(Direction.FORWARD)
            )
            result = ExtractionResult(
                path=paths[i],
                predicted_class=int(self.predicted_classes[i]),
                trace=trace,
                logits=self.extraction.logits[i],
            )
            out.append(
                DetectionOutcome(
                    is_adversarial=bool(self.is_adversarial[i]),
                    score=float(self.scores[i]),
                    predicted_class=int(self.predicted_classes[i]),
                    similarity=float(self.similarities[i]),
                    extraction=result,
                )
            )
        return out


class PtolemyDetector:
    """Offline-profiled, online adversarial-input detector.

    Parameters
    ----------
    model:
        The protected network.
    config:
        Extraction recipe (direction / thresholding / selective knobs).
    feature_mode:
        ``"scalar"`` feeds only the paper's similarity ``S`` to the
        classifier; ``"per_layer"`` (default) additionally feeds the
        per-tap similarity vector, which is strictly richer and equally
        cheap to compute in hardware (one popcount per tap).
    """

    def __init__(
        self,
        model: Graph,
        config: ExtractionConfig,
        feature_mode: str = "per_layer",
        n_trees: int = 100,
        max_depth: int = 12,
        seed: int = 0,
    ):
        if feature_mode not in ("scalar", "per_layer"):
            raise ValueError("feature_mode must be 'scalar' or 'per_layer'")
        self.model = model
        self.config = config
        self.feature_mode = feature_mode
        self.extractor = PathExtractor(model, config)
        self.class_paths: Optional[ClassPathSet] = None
        self.forest = RandomForest(n_trees=n_trees, max_depth=max_depth, seed=seed)
        self._fitted = False
        self.last_trace = None
        self._canary_cache = None
        self._canary_cache_key = None
        # read by perfbench/workload_engine.py only
        self.kernels = NUMPY_KERNELS

    # -- offline ----------------------------------------------------------
    def profile(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        max_per_class: Optional[int] = None,
    ) -> ClassPathSet:
        """Build the canary class paths from (correctly predicted)
        training samples."""
        self.class_paths = profile_class_paths(
            self.extractor, x_train, y_train, max_per_class
        )
        # A freed ClassPathSet's id() can be reused, so the cache key
        # alone cannot be trusted across re-profiling.
        self._canary_cache = None
        self._canary_cache_key = None
        return self.class_paths

    def fit_classifier(
        self, x_benign: np.ndarray, x_adversarial: np.ndarray
    ) -> "PtolemyDetector":
        """Train the random forest on labelled benign/adversarial sets.

        Features come from the batched pipeline, which is bit-identical
        to extracting each sample on its own.
        """
        if self.class_paths is None:
            raise RuntimeError("call profile() before fit_classifier()")
        feats_benign = self._features_chunked(x_benign)
        feats_adv = self._features_chunked(x_adversarial)
        feats = np.vstack([feats_benign, feats_adv])
        labels = np.concatenate(
            [np.zeros(len(x_benign), dtype=np.int64),
             np.ones(len(x_adversarial), dtype=np.int64)]
        )
        self.forest.fit(feats, labels)
        self._fitted = True
        return self

    # -- online ----------------------------------------------------
    def features_for(
        self, x: np.ndarray, reuse_forward: bool = False
    ) -> Tuple[np.ndarray, ExtractionResult]:
        """Similarity feature vector for one input (batch of one).

        ``reuse_forward=True`` extracts from the model's existing
        activation state instead of re-running inference — required
        when that state was produced specially (e.g. by fault
        injection, :func:`repro.eval.forward_with_fault`).
        """
        if self.class_paths is None:
            raise RuntimeError("detector has no class paths; call profile()")
        result = self.extractor.extract(x, reuse_forward=reuse_forward)
        self.last_trace = result.trace
        if result.predicted_class in self.class_paths:
            canary = self.class_paths.path_for(result.predicted_class)
            sim = path_similarity(result.path, canary)
            if self.feature_mode == "per_layer":
                per_tap = per_tap_similarity(result.path, canary)
                features = np.concatenate([[sim], per_tap])
            else:
                features = np.array([sim])
        else:
            # the predicted class was never (correctly) seen in profiling:
            # maximally suspicious
            width = 1 + (
                self.extractor.layout.num_taps
                if self.feature_mode == "per_layer"
                else 0
            )
            sim = 0.0
            features = np.zeros(width)
        return features, result

    # -- batched online pipeline ---------------------------------------
    def _packed_canaries(self):
        """Canary class paths as a packed word matrix, cached until the
        class-path set changes (identity or sample counts)."""
        if self.class_paths is None:
            raise RuntimeError("detector has no class paths; call profile()")
        key = (
            id(self.class_paths),
            len(self.class_paths.paths),
            sum(p.num_samples for p in self.class_paths.paths.values()),
        )
        if self._canary_cache is None or self._canary_cache_key != key:
            self._canary_cache = self.class_paths.packed()
            self._canary_cache_key = key
        return self._canary_cache

    def features_batch(
        self, x: np.ndarray, reuse_forward: bool = False
    ) -> Tuple[np.ndarray, BatchExtractionResult]:
        """Similarity feature matrix ``(N, F)`` for a batch of inputs.

        Bit-identical to stacking :meth:`features_for` over each sample:
        inputs whose predicted class was never profiled gather an
        all-zero canary row, which yields exactly the all-zero
        (maximally suspicious) feature vector of the scalar path.
        """
        if self.class_paths is None:
            raise RuntimeError("detector has no class paths; call profile()")
        result = self.extractor.extract_batch(x, reuse_forward=reuse_forward)
        canaries = self._packed_canaries()
        rows, _known = canaries.rows_for(result.predicted_classes)
        sims = batch_path_similarity(result.packed, rows)
        if self.feature_mode == "per_layer":
            per_tap = batch_per_tap_similarity(result.packed, rows)
            features = np.concatenate([sims[:, None], per_tap], axis=1)
        else:
            features = sims[:, None]
        return features, result

    def classify_features(self, features: np.ndarray) -> np.ndarray:
        """Forest scores for a feature matrix (empty-batch safe)."""
        if not self._fitted:
            raise RuntimeError("classifier not fitted; call fit_classifier()")
        if features.shape[0] == 0:
            return np.empty(0)
        return self.forest.predict_proba(features)

    @staticmethod
    def assemble_batch_result(
        scores: np.ndarray,
        features: np.ndarray,
        extraction: BatchExtractionResult,
        threshold: float,
    ) -> BatchDetectionResult:
        """Threshold scores and package one batch's decisions (shared by
        :meth:`detect_batch` and the runtime engine)."""
        return BatchDetectionResult(
            is_adversarial=scores >= threshold,
            scores=scores,
            predicted_classes=extraction.predicted_classes,
            similarities=features[:, 0] if features.size else np.empty(0),
            extraction=extraction,
        )

    def scores_batch(
        self, x: np.ndarray, reuse_forward: bool = False
    ) -> np.ndarray:
        """Adversary probabilities for a batch of inputs."""
        if not self._fitted:
            raise RuntimeError("classifier not fitted; call fit_classifier()")
        features, _ = self.features_batch(x, reuse_forward=reuse_forward)
        return self.classify_features(features)

    def detect_batch(
        self,
        x: np.ndarray,
        threshold: float = 0.5,
        reuse_forward: bool = False,
    ) -> BatchDetectionResult:
        """Full online detection of a batch of inputs."""
        if not self._fitted:
            raise RuntimeError("classifier not fitted; call fit_classifier()")
        features, result = self.features_batch(x, reuse_forward=reuse_forward)
        scores = self.classify_features(features)
        return self.assemble_batch_result(scores, features, result, threshold)

    def similarity(self, x: np.ndarray) -> float:
        """The paper's scalar similarity ``S`` for one input."""
        features, _ = self.features_for(x)
        return float(features[0])

    def score(self, x: np.ndarray) -> float:
        """Adversary probability from the random forest."""
        if not self._fitted:
            raise RuntimeError("classifier not fitted; call fit_classifier()")
        features, _ = self.features_for(x)
        return float(self.forest.predict_proba(features[None])[0])

    def detect(self, x: np.ndarray, threshold: float = 0.5,
               reuse_forward: bool = False) -> DetectionOutcome:
        """Full online detection of one input."""
        if not self._fitted:
            raise RuntimeError("classifier not fitted; call fit_classifier()")
        features, result = self.features_for(x, reuse_forward=reuse_forward)
        score = float(self.forest.predict_proba(features[None])[0])
        return DetectionOutcome(
            is_adversarial=score >= threshold,
            score=score,
            predicted_class=result.predicted_class,
            similarity=float(features[0]),
            extraction=result,
        )

    # -- evaluation --------------------------------------------------------
    def _features_chunked(
        self, xs: np.ndarray, chunk: int = 256
    ) -> np.ndarray:
        """Feature matrix for a whole set, extracted in micro-batches so
        the model's activation caches stay bounded.  Each sample's
        result is independent of its batch, so this is bit-identical to
        one giant batch."""
        if len(xs) <= chunk:
            return self.features_batch(xs)[0]
        return np.vstack([
            self.features_batch(xs[start : start + chunk])[0]
            for start in range(0, len(xs), chunk)
        ])

    def scores_for_set(self, xs: np.ndarray, chunk: int = 256) -> np.ndarray:
        """Scores for an evaluation set, processed in micro-batches."""
        if not self._fitted:
            raise RuntimeError("classifier not fitted; call fit_classifier()")
        return self.classify_features(self._features_chunked(xs, chunk))

    def evaluate_auc(
        self, x_benign: np.ndarray, x_adversarial: np.ndarray
    ) -> float:
        """AUC over an evenly-labelled benign/adversarial test set."""
        scores = np.concatenate(
            [self.scores_for_set(x_benign), self.scores_for_set(x_adversarial)]
        )
        labels = np.concatenate(
            [np.zeros(len(x_benign)), np.ones(len(x_adversarial))]
        )
        return roc_auc(labels, scores)
