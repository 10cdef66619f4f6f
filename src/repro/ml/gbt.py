"""Gradient boosted trees with logistic loss and incremental continuation.

Implements the training loop of XGBoost for binary classification:
per round, compute first/second-order gradients of the logistic loss at
the current margin, fit a :class:`RegressionTree` to them, and add the
tree scaled by the learning rate.

Incremental learning (paper Sec 4.2) is supported through
:meth:`GradientBoostedTrees.fit_increment`: new boosting rounds are
trained on a fresh batch, using the existing ensemble's margin as the
starting point — the standard "continue training from a model" mode of
XGBoost.  ``max_trees`` only *reports* when the ensemble has outgrown the
target size (``needs_compaction``); dropping trees from a boosted
ensemble would corrupt it (later trees correct the margins of earlier
ones), so the owning :class:`~repro.ml.access_model.FileAccessModel`
compacts by refitting on its replay reservoir instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.ml.tree import RegressionTree, TreeParams, presort


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class GBTParams:
    """Boosting hyperparameters.

    The paper's grid search (Sec 4.3) selected ``max_depth=20`` and
    ``num_rounds=10`` for both workloads; those are the defaults used by
    the access models.  The class defaults here are XGBoost's generic
    defaults so the substrate is reusable.
    """

    num_rounds: int = 10
    learning_rate: float = 0.3
    max_depth: int = 6
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0
    base_score: float = 0.5
    max_trees: Optional[int] = None

    def tree_params(self) -> TreeParams:
        return TreeParams(
            max_depth=self.max_depth,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
            min_child_weight=self.min_child_weight,
        )


@dataclass
class GradientBoostedTrees:
    """An additive ensemble of regression trees for binary classification."""

    params: GBTParams = field(default_factory=GBTParams)
    trees: List[RegressionTree] = field(default_factory=list)

    # -- training ----------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        """Train from scratch, replacing any existing trees."""
        self.trees = []
        return self.fit_increment(X, y, num_rounds=self.params.num_rounds)

    def fit_increment(
        self, X: np.ndarray, y: np.ndarray, num_rounds: Optional[int] = None
    ) -> "GradientBoostedTrees":
        """Add ``num_rounds`` boosting rounds trained on ``(X, y)``.

        The existing ensemble provides the starting margin, so new trees
        correct the current model on the new data — incremental learning
        in the sense of Sec 4.2.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be binary (0/1)")
        rounds = self.params.num_rounds if num_rounds is None else num_rounds
        margin = self.predict_margin(X)
        tree_params = self.params.tree_params()
        # X is fixed across rounds (only grad/hess change): sort it once.
        data = presort(X)
        for _ in range(rounds):
            prob = sigmoid(margin)
            grad = prob - y
            hess = np.maximum(prob * (1.0 - prob), 1e-16)
            tree = RegressionTree(tree_params)
            fitted = tree.grow(data, grad, hess)
            self.trees.append(tree)
            margin = margin + self.params.learning_rate * fitted
        return self

    @property
    def needs_compaction(self) -> bool:
        """True when the ensemble exceeds its target size (see module doc)."""
        cap = self.params.max_trees
        return cap is not None and len(self.trees) > cap

    # -- prediction -----------------------------------------------------------
    @property
    def base_margin(self) -> float:
        p = self.params.base_score
        return float(np.log(p / (1.0 - p)))

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        """Raw additive score (log-odds) for each row."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        margin = np.full(len(X), self.base_margin)
        lr = self.params.learning_rate
        for tree in self.trees:
            if tree.depth:
                margin += lr * tree.predict(X)
            else:
                margin += lr * tree.value[0]
        return margin

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(y=1) for each row."""
        return sigmoid(self.predict_margin(X))

    def predict_one(self, x: np.ndarray) -> float:
        """P(y=1) for a single feature vector.

        Walks the node lists in plain Python; the float64 margin it sums
        is bit-equal to :meth:`predict_margin` on the same row.
        """
        row = np.asarray(x, dtype=float).reshape(-1).tolist()
        margin = self.base_margin
        lr = self.params.learning_rate
        for tree in self.trees:
            feature = tree.feature
            node = 0
            f = feature[0]
            while f >= 0:
                v = row[f]
                # ``v != v``: v is NaN, which takes the default branch.
                if v < tree.threshold[node] or (v != v and tree.default_left[node]):
                    node = tree.left[node]
                else:
                    node = tree.right[node]
                f = feature[node]
            margin += lr * tree.value[node]
        return float(sigmoid(np.array([margin]))[0])

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard labels at the given discrimination threshold."""
        return (self.predict_proba(X) >= threshold).astype(int)

    # -- introspection -----------------------------------------------------------
    @property
    def num_trees(self) -> int:
        return len(self.trees)

    @property
    def is_fitted(self) -> bool:
        return bool(self.trees)

    def feature_usage(self) -> List[int]:
        """Aggregate split counts per feature across all trees."""
        if not self.trees:
            return []
        counts = [0] * self.trees[0].n_features
        for tree in self.trees:
            for i, c in enumerate(tree.feature_usage()):
                counts[i] += c
        return counts

    def approx_size_bytes(self) -> int:
        """Rough in-memory footprint: nodes x 5 fields x 8 bytes."""
        nodes = sum(t.node_count for t in self.trees)
        return nodes * 5 * 8
