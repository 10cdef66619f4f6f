"""Test-only oracle: the per-node-argsort tree grower and recursive predictor.

This is the straightforward exact greedy algorithm of XGBoost (Chen &
Guestrin 2016, Alg. 1 with the sparsity-aware default direction of
Alg. 3), written the obvious way: every node re-sorts every feature of
its own samples, and prediction recurses through linked node objects.
``repro.ml.tree`` computes the same splits from one presort per boosting
call and stores trees as flat arrays; ``tests/test_tree_oracle.py``
checks that both produce byte-identical serialized models and bit-equal
predictions.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.ml.gbt import GBTParams, sigmoid
from repro.ml.serialize import FORMAT_VERSION
from repro.ml.tree import TreeParams


class OracleNode:
    """One tree node; leaves carry a weight, internal nodes a split."""

    __slots__ = (
        "feature",
        "threshold",
        "default_left",
        "left",
        "right",
        "value",
        "is_leaf",
    )

    def __init__(self) -> None:
        self.feature = -1
        self.threshold = 0.0
        self.default_left = True
        self.left: Optional["OracleNode"] = None
        self.right: Optional["OracleNode"] = None
        self.value = 0.0
        self.is_leaf = True


@dataclass
class _SplitResult:
    gain: float
    feature: int
    threshold: float
    default_left: bool


def _leaf_weight(grad_sum: float, hess_sum: float, reg_lambda: float) -> float:
    return -grad_sum / (hess_sum + reg_lambda)


def _score(grad_sum: float, hess_sum: float, reg_lambda: float) -> float:
    return grad_sum * grad_sum / (hess_sum + reg_lambda)


class OracleTree:
    """A regression tree grown by sorting every feature at every node."""

    def __init__(self, params: Optional[TreeParams] = None) -> None:
        self.params = params or TreeParams()
        self.root: Optional[OracleNode] = None
        self.n_features = 0
        self.node_count = 0

    def fit(self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> "OracleTree":
        """Grow the tree on feature matrix ``X`` (NaN = missing)."""
        X = np.asarray(X, dtype=float)
        self.n_features = X.shape[1]
        self.node_count = 0
        self.root = self._build(X, grad, hess, np.arange(len(X)), depth=0)
        return self

    def _build(self, X, grad, hess, indices, depth) -> OracleNode:
        node = OracleNode()
        self.node_count += 1
        g_sum = float(grad[indices].sum())
        h_sum = float(hess[indices].sum())
        node.value = _leaf_weight(g_sum, h_sum, self.params.reg_lambda)
        if (
            depth >= self.params.max_depth
            or len(indices) < self.params.min_split_samples
        ):
            return node
        split = self._best_split(X, grad, hess, indices, g_sum, h_sum)
        if split is None or split.gain <= 0.0:
            return node
        values = X[indices, split.feature]
        missing = np.isnan(values)
        goes_left = values < split.threshold
        if split.default_left:
            goes_left = goes_left | missing
        else:
            goes_left = goes_left & ~missing
        left_idx = indices[goes_left]
        right_idx = indices[~goes_left]
        if len(left_idx) == 0 or len(right_idx) == 0:
            return node
        node.is_leaf = False
        node.feature = split.feature
        node.threshold = split.threshold
        node.default_left = split.default_left
        node.left = self._build(X, grad, hess, left_idx, depth + 1)
        node.right = self._build(X, grad, hess, right_idx, depth + 1)
        return node

    def _best_split(self, X, grad, hess, indices, g_sum, h_sum):
        params = self.params
        parent_score = _score(g_sum, h_sum, params.reg_lambda)
        best: Optional[_SplitResult] = None
        g = grad[indices]
        h = hess[indices]
        for feature in range(self.n_features):
            values = X[indices, feature]
            present = ~np.isnan(values)
            n_present = int(present.sum())
            if n_present < 2:
                continue
            vals = values[present]
            order = np.argsort(vals, kind="stable")
            vals_sorted = vals[order]
            g_sorted = g[present][order]
            h_sorted = h[present][order]
            g_missing = float(g.sum() - g_sorted.sum())
            h_missing = float(h.sum() - h_sorted.sum())
            # Prefix sums: left split of position i contains samples [0, i).
            g_cum = np.cumsum(g_sorted)
            h_cum = np.cumsum(h_sorted)
            # Candidate boundaries between distinct consecutive values.
            distinct = vals_sorted[1:] != vals_sorted[:-1]
            positions = np.nonzero(distinct)[0] + 1
            if len(positions) == 0:
                continue
            g_left = g_cum[positions - 1]
            h_left = h_cum[positions - 1]
            g_right = g_cum[-1] - g_left
            h_right = h_cum[-1] - h_left
            thresholds = 0.5 * (vals_sorted[positions - 1] + vals_sorted[positions])
            lam = params.reg_lambda
            # Evaluate both default directions for the missing values.
            for default_left in (True, False):
                gl = g_left + (g_missing if default_left else 0.0)
                hl = h_left + (h_missing if default_left else 0.0)
                gr = g_right + (0.0 if default_left else g_missing)
                hr = h_right + (0.0 if default_left else h_missing)
                gains = (
                    0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score)
                    - params.gamma
                )
                valid = (hl >= params.min_child_weight) & (
                    hr >= params.min_child_weight
                )
                if not valid.any():
                    continue
                gains = np.where(valid, gains, -np.inf)
                pick = int(np.argmax(gains))
                gain = float(gains[pick])
                if best is None or gain > best.gain:
                    best = _SplitResult(
                        gain=gain,
                        feature=feature,
                        threshold=float(thresholds[pick]),
                        default_left=default_left,
                    )
        return best

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf weights for each row of ``X`` (recursive traversal)."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        out = np.zeros(len(X))
        self._predict_into(self.root, X, np.arange(len(X)), out)
        return out

    def _predict_into(self, node, X, indices, out) -> None:
        if node.is_leaf:
            out[indices] = node.value
            return
        values = X[indices, node.feature]
        missing = np.isnan(values)
        goes_left = values < node.threshold
        if node.default_left:
            goes_left = goes_left | missing
        else:
            goes_left = goes_left & ~missing
        left_idx = indices[goes_left]
        right_idx = indices[~goes_left]
        if len(left_idx):
            self._predict_into(node.left, X, left_idx, out)
        if len(right_idx):
            self._predict_into(node.right, X, right_idx, out)


class OracleGBT:
    """The boosting loop of ``GradientBoostedTrees`` over oracle trees."""

    def __init__(self, params: GBTParams) -> None:
        self.params = params
        self.trees: List[OracleTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "OracleGBT":
        """Train from scratch, replacing any existing trees."""
        self.trees = []
        return self.fit_increment(X, y, num_rounds=self.params.num_rounds)

    def fit_increment(self, X, y, num_rounds: Optional[int] = None) -> "OracleGBT":
        """Add boosting rounds trained on ``(X, y)``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        rounds = self.params.num_rounds if num_rounds is None else num_rounds
        margin = self.predict_margin(X)
        tree_params = self.params.tree_params()
        for _ in range(rounds):
            prob = sigmoid(margin)
            grad = prob - y
            hess = np.maximum(prob * (1.0 - prob), 1e-16)
            tree = OracleTree(tree_params).fit(X, grad, hess)
            self.trees.append(tree)
            margin = margin + self.params.learning_rate * tree.predict(X)
        return self

    @property
    def base_margin(self) -> float:
        """Log-odds of ``base_score``."""
        p = self.params.base_score
        return float(np.log(p / (1.0 - p)))

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        """Raw additive score (log-odds) for each row."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        margin = np.full(len(X), self.base_margin)
        for tree in self.trees:
            margin += self.params.learning_rate * tree.predict(X)
        return margin

    def predict_one(self, x: np.ndarray) -> float:
        """P(y=1) for a single feature vector."""
        return float(sigmoid(self.predict_margin(np.asarray(x).reshape(1, -1)))[0])


def _node_to_dict(node: OracleNode) -> Dict[str, Any]:
    if node.is_leaf:
        return {"leaf": node.value}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "default_left": node.default_left,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def oracle_tree_to_dict(tree: OracleTree) -> Dict[str, Any]:
    """The document ``repro.ml.serialize.tree_to_dict`` must produce."""
    return {
        "n_features": tree.n_features,
        "params": asdict(tree.params),
        "root": _node_to_dict(tree.root),
    }


def oracle_model_to_dict(model: OracleGBT) -> Dict[str, Any]:
    """The document ``repro.ml.serialize.model_to_dict`` must produce."""
    return {
        "format_version": FORMAT_VERSION,
        "params": asdict(model.params),
        "trees": [oracle_tree_to_dict(tree) for tree in model.trees],
    }
