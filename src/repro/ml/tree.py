"""Regression trees grown with XGBoost-style second-order statistics.

Each tree fits gradient/hessian pairs: leaf weight ``-G / (H + lambda)``
and split gain ``1/2 [G_L^2/(H_L+l) + G_R^2/(H_R+l) - G^2/(H+l)] - gamma``
(Chen & Guestrin 2016, Eq. 6-7).  Missing feature values (NaN) are routed
through a learned *default direction* per split, exactly like XGBoost's
sparsity-aware algorithm: both directions are evaluated and the one with
higher gain wins.

Split search is XGBoost's *exact greedy* algorithm over a presorted
matrix: :func:`presort` sorts every feature column once (NaN last), and
each node keeps a rectangular features x samples matrix of sample
indices in value order, filtered from its parent's by a boolean mask.
Filtering keeps each row's stable order, so a node's rows equal a fresh
stable sort of its own samples and the prefix sums run over the same
values in the same order as a per-node sort would.  Every feature is
scored in one pass at the boundaries between distinct present values;
ties go to the lowest feature, then default-left, then the lowest
position.  Trees are stored as flat node lists (see
:class:`RegressionTree`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class TreeParams:
    """Growth hyperparameters (defaults match XGBoost's)."""

    max_depth: int = 6
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1.0
    min_split_samples: int = 2


class Presorted(NamedTuple):
    """A feature matrix with every column sorted once, shared across trees.

    ``order[i]`` holds the row indices of ``X`` sorted stably by feature
    ``features[i]`` (NaN last) and ``values[i]`` the matching values.
    Features without two distinct present values can never split and
    are left out.  Build it with :func:`presort`; boosting rounds change
    only gradients and hessians, so one presort serves all of them.
    """

    X: np.ndarray
    features: np.ndarray
    order: np.ndarray
    values: np.ndarray


def presort(X: np.ndarray) -> Presorted:
    """Sort each column of the 2-D float matrix ``X`` once (NaN last)."""
    order = np.argsort(X.T, axis=1, kind="stable").astype(np.int32)
    values = np.take_along_axis(X.T, order, axis=1)
    # Sorted ascending with NaN last, so ``>`` marks exactly the
    # boundaries between distinct present values (NaN compares False).
    splittable = (values[:, 1:] > values[:, :-1]).any(axis=1)
    features = np.flatnonzero(splittable)
    return Presorted(X, features, order[features], values[features])


#: Most features x samples cells one split-search pass gathers at once.
_SCAN_BLOCK = 8192


def _prefix_sums(stats: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``stats[:, i, :lengths[i]].sum()`` per row, in numpy's pairwise order.

    numpy sums pairwise only along the axis with the smallest stride, so
    ``stats`` must be C-ordered (build it with ``np.take``: a fancy-indexed
    ``a[:, idx]`` may come out strided and sum in another order).
    """
    out = stats.sum(axis=2)
    full = stats.shape[2]
    for row in np.flatnonzero(lengths < full).tolist():
        out[:, row] = stats[:, row, : lengths[row]].sum(axis=1)
    return out


class RegressionTree:
    """A single CART tree fit to (gradient, hessian) targets.

    Nodes live in flat lists indexed by node id (the root is 0):
    ``feature`` (-1 for a leaf), ``threshold``, ``default_left`` (where
    NaN goes), ``left`` / ``right`` child ids (-1 for a leaf) and
    ``value`` (the leaf weight; internal nodes keep theirs unused).
    """

    def __init__(self, params: Optional[TreeParams] = None) -> None:
        self.params = params or TreeParams()
        self.n_features = 0
        self.depth = 0
        self.feature: List[int] = []
        self.threshold: List[float] = []
        self.default_left: List[bool] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.value: List[float] = []
        self._arrays: Optional[Tuple[np.ndarray, ...]] = None

    @property
    def node_count(self) -> int:
        """Number of nodes, leaves included."""
        return len(self.value)

    # -- training ----------------------------------------------------------
    def fit(
        self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray
    ) -> "RegressionTree":
        """Grow the tree on feature matrix ``X`` (NaN = missing)."""
        X = np.asarray(X, dtype=float)
        grad = np.asarray(grad, dtype=float)
        hess = np.asarray(hess, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if len(grad) != len(X) or len(hess) != len(X):
            raise ValueError("grad/hess length mismatch with X")
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        self.grow(presort(X), grad, hess)
        return self

    def grow(self, data: Presorted, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
        """Grow the tree on presorted data; return each row's leaf weight.

        The returned vector equals ``self.predict(data.X)``, computed
        from the final partition instead of a second traversal.
        """
        params = self.params
        lam = params.reg_lambda
        X = data.X
        n = len(X)
        self.n_features = X.shape[1]
        self.depth = 0
        self.feature, self.threshold, self.default_left = [], [], []
        self.left, self.right, self.value = [], [], []
        self._arrays = None
        # Gradients and hessians side by side, so each gather, sum and
        # prefix sum below is one numpy call for both.
        stats = np.stack((grad, hess))
        fitted = np.empty(n)
        goes_left_by_row = np.zeros(n, dtype=bool)
        # Pending nodes, popped depth-first left to right:
        # (parent id, is left child, depth, rows, features, order, values).
        stack = [(-1, False, 0, np.arange(n), data.features, data.order, data.values)]
        while stack:
            parent, is_left, depth, rows, features, order, values = stack.pop()
            g_sum, h_sum = np.take(stats, rows, axis=1).sum(axis=1).tolist()
            weight = -g_sum / (h_sum + lam)
            node = self._add_leaf(weight)
            if parent >= 0:
                (self.left if is_left else self.right)[parent] = node
            split = None
            if (
                depth < params.max_depth
                and len(rows) >= params.min_split_samples
                and len(features)
            ):
                # distinct[i, p]: a boundary between sorted positions p
                # and p + 1 (the last column stays False).
                distinct = np.zeros(values.shape, dtype=bool)
                np.greater(values[:, 1:], values[:, :-1], out=distinct[:, :-1])
                splittable = distinct.any(axis=1)
                if not splittable.all():
                    # A feature with no boundary here has none below.
                    features = features[splittable]
                    order = order[splittable]
                    values = values[splittable]
                    distinct = distinct[splittable]
                if len(features):
                    split = self._best_split(
                        stats, order, values, distinct, g_sum, h_sum
                    )
            if split is None:
                fitted[rows] = weight
                continue
            row, pos, default = split
            f = int(features[row])
            lo, hi = values[row, pos : pos + 2].tolist()
            cut = 0.5 * (lo + hi)
            column = X[rows, f]
            goes_left = column < cut
            if default:
                goes_left |= np.isnan(column)
            n_left = int(np.count_nonzero(goes_left))
            if n_left == 0 or n_left == len(rows):
                fitted[rows] = weight
                continue
            self.feature[node] = f
            self.threshold[node] = cut
            self.default_left[node] = default
            self.depth = max(self.depth, depth + 1)
            goes_left_by_row[rows] = goes_left
            mask = goes_left_by_row[order]
            shape = (len(features), -1)
            left_child = (
                node,
                True,
                depth + 1,
                rows[goes_left],
                features,
                order[mask].reshape(shape),
                values[mask].reshape(shape),
            )
            np.logical_not(mask, out=mask)
            np.logical_not(goes_left, out=goes_left)
            right_child = (
                node,
                False,
                depth + 1,
                rows[goes_left],
                features,
                order[mask].reshape(shape),
                values[mask].reshape(shape),
            )
            # Free this node's scratch before its children are scanned.
            del mask, goes_left, column
            stack.append(right_child)
            stack.append(left_child)
        return fitted

    def _add_leaf(self, weight: float) -> int:
        """Append a leaf node with ``weight``; return its id."""
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.default_left.append(True)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(weight)
        return len(self.value) - 1

    def _best_split(
        self,
        stats: np.ndarray,
        order: np.ndarray,
        values: np.ndarray,
        distinct: np.ndarray,
        g_sum: float,
        h_sum: float,
    ) -> Optional[Tuple[int, int, bool]]:
        """Best positive-gain split as ``(row, position, default_left)``.

        The split falls between ``values[row, position]`` and the next
        value; ``None`` when no valid split has positive gain.  Rows are
        scanned in blocks of at most ``_SCAN_BLOCK`` cells so a large
        node's temporaries stay small.
        """
        step = max(1, _SCAN_BLOCK // order.shape[1])
        best = (-np.inf, 0, 0, True)
        for start in range(0, len(order), step):
            stop = start + step
            gain, row, pos, default = self._scan(
                stats,
                order[start:stop],
                values[start:stop],
                distinct[start:stop],
                g_sum,
                h_sum,
            )
            # Strict: on a tie the earlier block (lower feature) wins.
            if gain > best[0]:
                best = (gain, start + row, pos, default)
        gain, row, pos, default = best
        if not gain > 0.0:
            return None
        return row, pos, default

    def _scan(
        self,
        stats: np.ndarray,
        order: np.ndarray,
        values: np.ndarray,
        distinct: np.ndarray,
        g_sum: float,
        h_sum: float,
    ) -> Tuple[float, int, int, bool]:
        """Highest-gain split of these rows: ``(gain, row, pos, default_left)``.

        Splits leaving a side under ``min_child_weight`` score ``-inf``.
        """
        params = self.params
        lam = params.reg_lambda
        n_rows, width = order.shape
        # Candidate boundaries as flat (row, pos) cells of ``order``.
        cells = np.flatnonzero(distinct)
        # (grad|hess, row, sorted sample): the node's statistics in each
        # feature's value order.
        sorted_stats = np.take(stats, order, axis=1)
        present = width - np.isnan(values).sum(axis=1)
        # per_row[0]: running total over the present values; per_row[1]:
        # node total minus the pairwise sum of the present values, the
        # missing-value statistics exactly as a per-node sort derives them.
        per_row = np.empty((2, 2, n_rows))
        np.subtract(
            [[g_sum], [h_sum]], _prefix_sums(sorted_stats, present), out=per_row[1]
        )
        # Sequential prefix sums: the left side of a boundary at ``pos``
        # holds sorted samples [0, pos].
        np.cumsum(sorted_stats, axis=2, out=sorted_stats)
        per_row[0] = sorted_stats[:, np.arange(n_rows), present - 1]
        # sides[:, 0]: grad sums, sides[:, 1]: hess sums, of
        # left+missing, left, right, right+missing.
        sides = np.empty((4, 2, len(cells)))
        np.take(sorted_stats.reshape(2, -1), cells, axis=1, out=sides[1])
        del sorted_stats
        per_cell = np.take(per_row, cells // width, axis=2)
        np.subtract(per_cell[0], sides[1], out=sides[2])
        np.add(sides[1], per_cell[1], out=sides[0])
        np.add(sides[2], per_cell[1], out=sides[3])
        del per_cell
        light = sides[:, 1] < params.min_child_weight
        invalid = light[:2] | light[2:]
        sides[:, 1] += lam
        scores = sides[:, 0]
        scores *= scores
        scores /= sides[:, 1]
        # gains[0]: missing go left; gains[1]: missing go right.
        gains = scores[:2] + scores[2:]
        gains -= g_sum * g_sum / (h_sum + lam)
        gains *= 0.5
        if params.gamma:
            gains -= params.gamma
        gains[invalid] = -np.inf
        best_left, best_right = gains.argmax(axis=1).tolist()
        gain_left = float(gains[0, best_left])
        gain_right = float(gains[1, best_right])
        row_left, pos_left = divmod(int(cells[best_left]), width)
        row_right, pos_right = divmod(int(cells[best_right]), width)
        # Ties: lowest feature first, then default-left, then position.
        if gain_left > gain_right or (
            gain_left == gain_right and row_left <= row_right
        ):
            return gain_left, row_left, pos_left, True
        return gain_right, row_right, pos_right, False

    # -- prediction -----------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf weights for each row of ``X`` (level-by-level traversal)."""
        if not self.value:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if not self.depth:
            return np.full(len(X), self.value[0])
        if self._arrays is None:
            self._arrays = self._node_arrays()
        feature, threshold, default_left, left, right, value = self._arrays
        # The root level reads scalars; deeper levels gather per row.
        column = X[:, self.feature[0]]
        goes_left = column < self.threshold[0]
        if self.default_left[0]:
            goes_left |= np.isnan(column)
        node = np.where(goes_left, self.left[0], self.right[0])
        rows = np.arange(len(X))
        for _ in range(self.depth - 1):
            column = X[rows, feature[node]]
            goes_left = column < threshold[node]
            goes_left |= np.isnan(column) & default_left[node]
            node = np.where(goes_left, left[node], right[node])
        return value[node]

    def _node_arrays(self) -> Tuple[np.ndarray, ...]:
        """Node lists as arrays in which a leaf points back at itself."""
        ids = np.arange(self.node_count)
        feature = np.array(self.feature, dtype=np.intp)
        leaf = feature < 0
        feature[leaf] = 0
        left = np.where(leaf, ids, self.left)
        right = np.where(leaf, ids, self.right)
        return (
            feature,
            np.array(self.threshold),
            np.array(self.default_left),
            left,
            right,
            np.array(self.value),
        )

    # -- introspection -----------------------------------------------------------
    def feature_usage(self) -> List[int]:
        """How many splits use each feature (crude importance measure)."""
        counts = [0] * self.n_features
        for f in self.feature:
            if f >= 0:
                counts[f] += 1
        return counts
