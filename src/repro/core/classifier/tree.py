"""CART decision tree (gini impurity, binary splits)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["DecisionTree"]


@dataclass
class _TreeNode:
    """Internal node (feature/threshold) or leaf (probability)."""

    feature: int = -1
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None
    probability: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(positive: int, total: int) -> float:
    if total == 0:
        return 0.0
    p = positive / total
    return 2.0 * p * (1.0 - p)


class DecisionTree:
    """Binary classification tree trained with greedy gini splits."""

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_leaf: int = 2,
        max_features: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = rng or np.random.default_rng()
        self._root: Optional[_TreeNode] = None
        self._flat: Optional[dict] = None
        self.node_count = 0
        self.depth = 0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTree":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y).astype(np.int64)
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have the same number of rows")
        self.node_count = 0
        self.depth = 0
        self._flat = None
        self._root = self._build(x, y, depth=0)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        self.node_count += 1
        self.depth = max(self.depth, depth)
        node = _TreeNode(probability=float(y.mean()) if y.size else 0.0)
        if (
            depth >= self.max_depth
            or y.size < 2 * self.min_samples_leaf
            or y.min() == y.max()
        ):
            return node
        split = self._best_split(x, y)
        if split is None:
            return node
        feature, threshold = split
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, x: np.ndarray, y: np.ndarray):
        n_features = x.shape[1]
        k = self.max_features or n_features
        features = self._rng.permutation(n_features)[:k]
        best = None
        best_score = np.inf
        total_pos = int(y.sum())
        n = y.size
        for feature in features:
            order = np.argsort(x[:, feature], kind="stable")
            xs = x[order, feature]
            ys = y[order]
            pos_left = np.cumsum(ys)
            counts = np.arange(1, n + 1)
            # candidate split after row i requires xs[i] < xs[i+1]
            valid = np.flatnonzero(xs[:-1] < xs[1:])
            if valid.size == 0:
                continue
            left_n = counts[valid]
            right_n = n - left_n
            ok = (left_n >= self.min_samples_leaf) & (
                right_n >= self.min_samples_leaf
            )
            valid = valid[ok]
            if valid.size == 0:
                continue
            left_n = counts[valid]
            right_n = n - left_n
            left_pos = pos_left[valid]
            right_pos = total_pos - left_pos
            p_l = left_pos / left_n
            p_r = right_pos / right_n
            gini = (
                left_n * 2 * p_l * (1 - p_l) + right_n * 2 * p_r * (1 - p_r)
            ) / n
            idx = int(np.argmin(gini))
            if gini[idx] < best_score:
                best_score = float(gini[idx])
                row = valid[idx]
                best = (int(feature), float((xs[row] + xs[row + 1]) / 2.0))
        parent = _gini(total_pos, n)
        if best is None or best_score >= parent - 1e-12:
            return None
        return best

    def flatten(self) -> dict:
        """Array form of the tree (preorder): parallel ``feature`` /
        ``threshold`` / ``left`` / ``right`` / ``probability`` arrays
        with ``left == -1`` marking leaves.  Built lazily and cached;
        the forest's node table and serialization are both built from
        it."""
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        if self._flat is None:
            features, thresholds, lefts, rights, probs = [], [], [], [], []

            def visit(node) -> int:
                idx = len(features)
                features.append(node.feature)
                thresholds.append(node.threshold)
                probs.append(node.probability)
                lefts.append(-1)
                rights.append(-1)
                if not node.is_leaf:
                    lefts[idx] = visit(node.left)
                    rights[idx] = visit(node.right)
                return idx

            visit(self._root)
            self._flat = {
                "feature": np.array(features, dtype=np.int64),
                "threshold": np.array(thresholds),
                "left": np.array(lefts, dtype=np.int64),
                "right": np.array(rights, dtype=np.int64),
                "probability": np.array(probs),
            }
        return self._flat

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """P(adversarial) for each row of ``x``.

        All rows descend the flattened tree together, one vectorized
        level per iteration — the same comparisons (and therefore the
        same leaves) as a per-row recursive walk.
        """
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        flat = self.flatten()
        feature, threshold = flat["feature"], flat["threshold"]
        left, right = flat["left"], flat["right"]
        idx = np.zeros(x.shape[0], dtype=np.int64)
        while True:
            rows = np.flatnonzero(left[idx] >= 0)
            if rows.size == 0:
                break
            nodes = idx[rows]
            go_left = x[rows, feature[nodes]] <= threshold[nodes]
            idx[rows] = np.where(go_left, left[nodes], right[nodes])
        return flat["probability"][idx]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.predict_proba(x) >= 0.5).astype(np.int64)

    def operation_count(self) -> int:
        """Comparisons on the longest root-to-leaf walk (MCU cost model)."""
        return self.depth
