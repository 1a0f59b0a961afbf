"""Bagged random forest over :class:`DecisionTree`.

Defaults follow the paper's deployment: 100 trees of average depth ~12,
totalling roughly 2,000 operations per classification — five orders of
magnitude below inference, cheap enough for the controller MCU
(Sec. V-D).

In software every tree is walked at once: the trees' flattened arrays
are concatenated into one node table, and all (tree, row) pairs step
down it together, one vectorised level per iteration.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.classifier.tree import DecisionTree

__all__ = ["RandomForest"]


class RandomForest:
    """Binary classifier: average of bootstrap-trained CART trees."""

    def __init__(
        self,
        n_trees: int = 100,
        max_depth: int = 12,
        min_samples_leaf: int = 2,
        max_features: Optional[int] = None,
        seed: int = 0,
    ):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.trees = []

    @property
    def trees(self) -> List[DecisionTree]:
        return self._trees

    @trees.setter
    def trees(self, trees: List[DecisionTree]) -> None:
        # every assignment of new trees drops the node table built from
        # the old ones
        self._trees = trees
        self._table = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForest":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y).astype(np.int64)
        rng = np.random.default_rng(self.seed)
        n = x.shape[0]
        max_features = self.max_features
        if max_features is None:
            max_features = max(1, int(np.ceil(np.sqrt(x.shape[1]))))
        trees = []
        for _ in range(self.n_trees):
            sample = rng.integers(0, n, size=n)
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                rng=rng,
            )
            tree.fit(x[sample], y[sample])
            trees.append(tree)
        self.trees = trees
        return self

    def _node_table(self) -> dict:
        """Every tree's :meth:`DecisionTree.flatten` arrays concatenated,
        with global child indices and each leaf its own child (so a
        finished walk stays put); ``roots`` holds each tree's offset."""
        if self._table is None:
            flats = [tree.flatten() for tree in self.trees]
            roots = np.cumsum([0] + [f["feature"].size for f in flats[:-1]])

            def joined(key: str) -> np.ndarray:
                return np.concatenate([flat[key] for flat in flats])

            leaf = joined("left") < 0

            def child_of(key: str) -> np.ndarray:
                child = np.concatenate(
                    [flat[key] + root for flat, root in zip(flats, roots)]
                )
                return np.where(leaf, np.arange(leaf.size), child)

            self._table = {
                # leaves compare against column 0; both their children
                # are themselves, so the outcome is discarded
                "feature": np.where(leaf, 0, joined("feature")),
                "threshold": joined("threshold"),
                "probability": joined("probability"),
                # child[2 * i + go_left]: node i's right child, then left
                "child": np.stack(
                    [child_of("right"), child_of("left")], axis=1
                ).ravel(),
                "leaf": leaf,
                "roots": roots,
            }
        return self._table

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Mean of per-tree leaf probabilities (adversary score)."""
        if not self.trees:
            raise RuntimeError("forest is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        table = self._node_table()
        feature, threshold = table["feature"], table["threshold"]
        child, leaf = table["child"], table["leaf"]
        n_rows, n_features = x.shape
        values = x.ravel()
        row_offsets = np.arange(n_rows) * n_features
        # node[t, r]: where row r currently sits in tree t
        node = np.repeat(table["roots"][:, None], n_rows, axis=1)
        while not leaf.take(node).all():
            go_left = (
                values.take(row_offsets + feature.take(node))
                <= threshold.take(node)
            )
            node = child.take(2 * node + go_left)
        # accumulate adds the trees' leaf probabilities one tree after
        # another (no pairwise summation), so the total has the same
        # bits as summing each tree's prediction in turn
        probs = np.add.accumulate(table["probability"].take(node), axis=0)[-1]
        return probs / len(self.trees)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return (self.predict_proba(x) >= 0.5).astype(np.int64)

    def operation_count(self) -> int:
        """Total comparisons per classification (the paper quotes ~2,000
        for 100 trees x depth 12)."""
        return sum(tree.operation_count() for tree in self.trees)

    def average_depth(self) -> float:
        if not self.trees:
            return 0.0
        return float(np.mean([tree.depth for tree in self.trees]))
