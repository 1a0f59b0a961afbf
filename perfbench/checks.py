"""Output checks that do not go through the program's serving path.

Every served operation (an engine batch or an HTTP request) is checked
against:

* properties: scores and similarities in [0, 1], one answer per
  sample, the predicted class equal to the argmax of logits computed
  here with ``Graph.forward``;
* ``DetectionEngine.run`` over the distinct frames of the stream
  (bit-identical, since batching never changes decisions);
* an independent recomputation on a seeded subset of frames: for
  forward-absolute (FwAb) detectors the similarity features are rebuilt
  with plain numpy from ``Graph.forward`` activations and the profiled
  canary masks, and the forest probability by walking the arrays of
  ``forest_to_arrays``; for backward detectors (BwCu) the batched
  result must equal per-sample ``PtolemyDetector.detect``.

Flag monotonicity (no flagged score below an unflagged one) and
``detect_auc > 0.5`` are checked over the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

#: Tolerance of the independent FwAb recomputation.
RECOMPUTE_TOL = 1e-12


@dataclass
class Outcome:
    """What one served operation answered, one row per sample."""

    num_samples: int
    scores: np.ndarray
    predicted: np.ndarray
    flagged: np.ndarray
    similarities: np.ndarray

    @classmethod
    def from_batch(cls, result) -> "Outcome":
        return cls(len(result.scores), result.scores,
                   result.predicted_classes, result.is_adversarial,
                   result.similarities)

    @classmethod
    def from_response(cls, body: dict) -> "Outcome":
        return cls(
            int(body["num_samples"]),
            np.asarray(body["scores"], dtype=np.float64),
            np.asarray(body["predicted_classes"], dtype=np.int64),
            np.asarray(body["is_adversarial"], dtype=bool),
            np.asarray(body["similarities"], dtype=np.float64),
        )


class FramePool:
    """The distinct frames every stream draws from: the workbench's
    benign evaluation frames and as many BIM adversarial frames."""

    def __init__(self, workbench):
        benign = workbench.eval_benign
        adversarial = workbench.attack_eval("bim").x_adv
        if len(benign) != len(adversarial):
            raise ValueError("the stream mix needs as many adversarial "
                             "frames as benign ones")
        self.frames = np.concatenate([benign, adversarial])
        self.truth = np.repeat([False, True], len(benign))

    def stream(self, copies: int, seed: int) -> np.ndarray:
        """Pool indices of one round: every benign frame ``2 * copies``
        times and every adversarial one ``copies`` times (one third
        adversarial), in seeded order.  The mix is the same for every
        seed, so ``detect_auc`` repeats exactly."""
        counts = np.where(self.truth, copies, 2 * copies)
        order = np.repeat(np.arange(len(self.frames)), counts)
        return np.random.default_rng(seed).permutation(order)

    def checks(self, detector, threshold: float, seed: int,
               checked: int) -> "OutputChecks":
        """Reference answers, with ``checked`` seeded frames given the
        independent check."""
        rng = np.random.default_rng([seed, 2])
        subset = np.sort(rng.choice(len(self.frames), size=checked,
                                    replace=False))
        return OutputChecks(detector, threshold, self.frames, subset)


def _in_unit(values: np.ndarray) -> bool:
    return bool(np.all((values >= 0.0) & (values <= 1.0)))


def _walk_forest(arrays: Dict[str, np.ndarray], features: np.ndarray) -> np.ndarray:
    n_trees = sum(1 for key in arrays if key.endswith("_feature"))
    probs = np.zeros(len(features))
    for t in range(n_trees):
        feature = arrays[f"tree{t}_feature"]
        threshold = arrays[f"tree{t}_threshold"]
        left, right = arrays[f"tree{t}_left"], arrays[f"tree{t}_right"]
        prob = arrays[f"tree{t}_probability"]
        for row, x in enumerate(features):
            node = 0
            while left[node] >= 0:
                node = left[node] if x[feature[node]] <= threshold[node] else right[node]
            probs[row] += prob[node]
    return probs / n_trees


def recompute_fwab(detector, xs: np.ndarray):
    """Scores and similarities of a forward-absolute detector, rebuilt
    with plain numpy from the model's activations, the canary masks
    and the flattened forest."""
    from repro.core.config import Thresholding
    from repro.core.serialization import forest_to_arrays

    model, config = detector.model, detector.config
    predicted = model.forward(xs).argmax(axis=1)
    units = model.extraction_units()
    taps = []
    for unit in config.extracted_indices():
        spec = config.layers[unit]
        if spec.mechanism is not Thresholding.ABSOLUTE:
            raise ValueError("independent recompute covers FwAb only")
        acts = model.activations[units[unit].name].reshape(len(xs), -1)
        taps.append(acts > spec.threshold)
    canaries = detector.class_paths.paths
    features = []
    for row, cls in enumerate(predicted):
        canary = canaries.get(int(cls))
        ones, hits = [], []
        for tap, flags in enumerate(taps):
            mask = (canary.masks[tap].to_bool() if canary is not None
                    else np.zeros(flags.shape[1], dtype=bool))
            ones.append(int(flags[row].sum()))
            hits.append(int((flags[row] & mask).sum()))
        total = sum(ones)
        sim = sum(hits) / total if total else 0.0
        per_tap = [h / o if o else 0.0 for h, o in zip(hits, ones)]
        features.append([sim] + per_tap if detector.feature_mode == "per_layer"
                        else [sim])
    features = np.asarray(features, dtype=np.float64)
    return _walk_forest(forest_to_arrays(detector.forest), features), features[:, 0]


class OutputChecks:
    """Reference answers for the frames of one stream."""

    def __init__(self, detector, threshold: float, pool: np.ndarray,
                 subset: np.ndarray):
        from repro.core.config import Direction
        from repro.runtime import DetectionEngine

        self.ref = DetectionEngine(detector, threshold=threshold).run(pool)
        self.logit_class = detector.model.forward(pool).argmax(axis=1)
        # pool index -> (score, similarity, predicted, flagged); the
        # numpy recompute gives no class or flag, and is held to a
        # tolerance, per-sample detect to exact equality
        self.expected: Dict[int, tuple] = {}
        self.exact = detector.config.direction is not Direction.FORWARD
        if not self.exact:
            scores, sims = recompute_fwab(detector, pool[subset])
            for i, s, m in zip(subset, scores, sims):
                self.expected[int(i)] = (s, m, None, None)
        else:
            for i in subset:
                out = detector.detect(pool[i : i + 1], threshold=threshold)
                self.expected[int(i)] = (out.score, out.similarity,
                                         out.predicted_class,
                                         out.is_adversarial)

    def op_ok(self, idx: np.ndarray, out: Outcome) -> bool:
        n = len(idx)
        arrays = (out.scores, out.predicted, out.flagged, out.similarities)
        if out.num_samples != n or any(a.shape != (n,) for a in arrays):
            return False
        if not (_in_unit(out.scores) and _in_unit(out.similarities)):
            return False
        if not np.array_equal(out.predicted, self.logit_class[idx]):
            return False
        ref = self.ref
        if not (np.array_equal(out.scores, ref.scores[idx])
                and np.array_equal(out.predicted, ref.predicted_classes[idx])
                and np.array_equal(out.flagged, ref.is_adversarial[idx])
                and np.array_equal(out.similarities, ref.similarities[idx])):
            return False
        for pos, i in enumerate(idx):
            expected = self.expected.get(int(i))
            if expected is None:
                continue
            got = (out.scores[pos], out.similarities[pos],
                   out.predicted[pos], out.flagged[pos])
            if self.exact and got != expected:
                return False
            if not self.exact and (
                abs(got[0] - expected[0]) > RECOMPUTE_TOL
                or abs(got[1] - expected[1]) > RECOMPUTE_TOL
            ):
                return False
        return True


def non_monotone_ops(outcomes: Sequence[Outcome]) -> List[int]:
    """Operations holding a flagged score at or below some unflagged
    score (flags must be a threshold on the score)."""
    flagged = [o.scores[o.flagged] for o in outcomes if o.flagged.any()]
    clean = [o.scores[~o.flagged] for o in outcomes if (~o.flagged).any()]
    if not flagged or not clean:
        return []
    low = min(float(s.min()) for s in flagged)
    high = max(float(s.max()) for s in clean)
    if high < low:
        return []
    return [
        k for k, o in enumerate(outcomes)
        if (o.flagged.any() and o.scores[o.flagged].min() <= high)
        or ((~o.flagged).any() and o.scores[~o.flagged].max() >= low)
    ]


def failed_ops(checks: OutputChecks, ops: Sequence[np.ndarray],
               outcomes: Sequence) -> int:
    """Count the operations failing any check; ``outcomes[k]`` is the
    :class:`Outcome` of ``ops[k]`` (pool indices), or ``None`` when the
    operation raised."""
    bad = {k for k, out in enumerate(outcomes) if out is None}
    good = [k for k in range(len(ops)) if k not in bad]
    bad.update(k for k in good if not checks.op_ok(ops[k], outcomes[k]))
    served = [k for k in range(len(ops)) if k not in bad]
    bad.update(served[j] for j in non_monotone_ops([outcomes[k] for k in served]))
    return len(bad)
