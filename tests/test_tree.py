"""Tests for the regression tree learner."""

import numpy as np
import pytest

from repro.ml.tree import RegressionTree, TreeParams

# Warnings (e.g. divide-by-zero in masked gain lanes) fail the test.
pytestmark = pytest.mark.filterwarnings("error")


def logistic_targets(y, margin=0.0):
    """Gradient/hessian of logistic loss at a constant margin."""
    p = 1.0 / (1.0 + np.exp(-margin))
    grad = np.full(len(y), p) - y
    hess = np.full(len(y), max(p * (1 - p), 1e-16))
    return grad, hess


class TestFitBasics:
    def test_single_split_recovers_threshold(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        grad, hess = logistic_targets(y)
        tree = RegressionTree(TreeParams(max_depth=1)).fit(X, grad, hess)
        left = tree.predict(np.array([[0.2]]))[0]
        right = tree.predict(np.array([[0.8]]))[0]
        assert left < 0 < right  # pushes margins toward the labels

    def test_depth_zero_is_stump(self):
        X = np.random.default_rng(0).random((50, 3))
        y = (X[:, 0] > 0.5).astype(float)
        grad, hess = logistic_targets(y)
        tree = RegressionTree(TreeParams(max_depth=0)).fit(X, grad, hess)
        assert tree.depth == 0
        preds = tree.predict(X)
        assert np.allclose(preds, preds[0])

    def test_max_depth_respected(self):
        rng = np.random.default_rng(1)
        X = rng.random((300, 4))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)
        grad, hess = logistic_targets(y)
        tree = RegressionTree(TreeParams(max_depth=3)).fit(X, grad, hess)
        assert tree.depth <= 3

    def test_pure_node_not_split(self):
        X = np.ones((20, 2))
        y = np.ones(20)
        grad, hess = logistic_targets(y)
        tree = RegressionTree().fit(X, grad, hess)
        assert tree.node_count == 1  # no distinct values to split on

    def test_input_validation(self):
        tree = RegressionTree()
        with pytest.raises(ValueError):
            tree.fit(np.ones(5), np.ones(5), np.ones(5))  # 1-D X
        with pytest.raises(ValueError):
            tree.fit(np.ones((5, 1)), np.ones(4), np.ones(5))
        with pytest.raises(ValueError):
            tree.fit(np.empty((0, 2)), np.empty(0), np.empty(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.ones((1, 2)))


class TestMissingValues:
    def test_learns_default_direction(self):
        # Feature 0 is often missing; missing implies positive class.
        rng = np.random.default_rng(2)
        X = rng.random((400, 1))
        y = np.zeros(400)
        missing = rng.random(400) < 0.5
        X[missing, 0] = np.nan
        y[missing] = 1.0
        grad, hess = logistic_targets(y)
        tree = RegressionTree(TreeParams(max_depth=2)).fit(X, grad, hess)
        pred_missing = tree.predict(np.array([[np.nan]]))[0]
        pred_present = tree.predict(np.array([[0.5]]))[0]
        assert pred_missing > pred_present

    def test_all_missing_feature_skipped(self):
        X = np.column_stack([np.full(50, np.nan), np.linspace(0, 1, 50)])
        y = (X[:, 1] > 0.5).astype(float)
        grad, hess = logistic_targets(y)
        tree = RegressionTree(TreeParams(max_depth=2)).fit(X, grad, hess)
        usage = tree.feature_usage()
        assert usage[0] == 0
        assert usage[1] > 0


class TestRegularization:
    def test_gamma_prunes_weak_splits(self):
        rng = np.random.default_rng(3)
        X = rng.random((200, 2))
        y = rng.integers(0, 2, 200).astype(float)  # pure noise
        grad, hess = logistic_targets(y)
        loose = RegressionTree(TreeParams(max_depth=6, gamma=0.0)).fit(X, grad, hess)
        strict = RegressionTree(TreeParams(max_depth=6, gamma=10.0)).fit(X, grad, hess)
        assert strict.node_count <= loose.node_count

    def test_lambda_shrinks_leaf_values(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        grad, hess = logistic_targets(y)
        small = RegressionTree(TreeParams(max_depth=1, reg_lambda=0.1)).fit(
            X, grad, hess
        )
        large = RegressionTree(TreeParams(max_depth=1, reg_lambda=100.0)).fit(
            X, grad, hess
        )
        assert np.abs(large.predict(X)).max() < np.abs(small.predict(X)).max()

    def test_min_child_weight_blocks_tiny_leaves(self):
        X = np.array([[0.0], [1.0], [1.0], [1.0]])
        y = np.array([1.0, 0.0, 0.0, 0.0])
        grad, hess = logistic_targets(y)
        # hessian per sample = 0.25; a single-sample leaf has weight 0.25.
        tree = RegressionTree(TreeParams(max_depth=3, min_child_weight=1.0)).fit(
            X, grad, hess
        )
        assert tree.node_count == 1


class TestPredictVectorization:
    def test_matches_scalar_traversal(self):
        rng = np.random.default_rng(4)
        X = rng.random((200, 5))
        X[rng.random((200, 5)) < 0.1] = np.nan
        y = (np.nan_to_num(X[:, 0], nan=0.7) > 0.5).astype(float)
        grad, hess = logistic_targets(y)
        tree = RegressionTree(TreeParams(max_depth=4)).fit(X, grad, hess)
        batch = tree.predict(X)
        singles = np.array([tree.predict(row.reshape(1, -1))[0] for row in X])
        assert np.allclose(batch, singles)

    def test_1d_input_reshaped(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        grad, hess = logistic_targets(y)
        tree = RegressionTree(TreeParams(max_depth=1)).fit(X, grad, hess)
        assert tree.predict(np.array([0.3])).shape == (1,)
