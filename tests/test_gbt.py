"""Tests for gradient boosted trees."""

import numpy as np
import pytest

from repro.ml.gbt import GBTParams, GradientBoostedTrees, sigmoid
from repro.ml.metrics import accuracy, auc

# Warnings (e.g. divide-by-zero in masked gain lanes) fail the test.
pytestmark = pytest.mark.filterwarnings("error")


def make_problem(n=600, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    y = ((X[:, 0] + 0.5 * X[:, 1]) > 0.8).astype(int)
    return X, y


class TestSigmoid:
    def test_range_and_symmetry(self):
        x = np.linspace(-50, 50, 101)
        s = sigmoid(x)
        assert np.all((s >= 0) & (s <= 1))
        assert np.allclose(s + sigmoid(-x), 1.0)

    def test_extreme_values_stable(self):
        s = sigmoid(np.array([-1000.0, 1000.0]))
        assert s[0] == pytest.approx(0.0)
        assert s[1] == pytest.approx(1.0)


class TestFit:
    def test_learns_separable_problem(self):
        X, y = make_problem()
        model = GradientBoostedTrees(GBTParams(num_rounds=10, max_depth=4)).fit(X, y)
        preds = model.predict(X)
        assert accuracy(y, preds) > 0.95

    def test_probabilities_calibrated_direction(self):
        X, y = make_problem()
        model = GradientBoostedTrees(GBTParams(num_rounds=5, max_depth=3)).fit(X, y)
        probs = model.predict_proba(X)
        assert probs[y == 1].mean() > probs[y == 0].mean()

    def test_refit_replaces_trees(self):
        X, y = make_problem()
        model = GradientBoostedTrees(GBTParams(num_rounds=3, max_depth=3))
        model.fit(X, y)
        model.fit(X, y)
        assert model.num_trees == 3

    def test_label_validation(self):
        model = GradientBoostedTrees()
        with pytest.raises(ValueError):
            model.fit(np.ones((4, 2)), np.array([0, 1, 2, 1]))
        with pytest.raises(ValueError):
            model.fit(np.ones((3, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            model.fit(np.empty((0, 2)), np.empty(0))

    def test_more_rounds_reduce_training_error(self):
        X, y = make_problem(seed=5)
        few = GradientBoostedTrees(GBTParams(num_rounds=1, max_depth=2)).fit(X, y)
        many = GradientBoostedTrees(GBTParams(num_rounds=15, max_depth=2)).fit(X, y)
        assert accuracy(y, many.predict(X)) >= accuracy(y, few.predict(X))


class TestIncremental:
    def test_continuation_improves_on_new_data(self):
        X, y = make_problem(n=2000, seed=1)
        Xtr, ytr = X[:1400], y[:1400]
        Xte, yte = X[1400:], y[1400:]
        model = GradientBoostedTrees(GBTParams(num_rounds=2, max_depth=3))
        model.fit(Xtr[:200], ytr[:200])
        before = auc(yte, model.predict_proba(Xte))
        model.fit_increment(Xtr[200:], ytr[200:], num_rounds=8)
        after = auc(yte, model.predict_proba(Xte))
        assert after >= before
        assert model.num_trees == 10

    def test_increment_on_unfitted_acts_like_fit(self):
        X, y = make_problem()
        model = GradientBoostedTrees(GBTParams(num_rounds=4, max_depth=3))
        model.fit_increment(X, y)
        assert model.is_fitted
        assert model.num_trees == 4

    def test_needs_compaction_flag(self):
        X, y = make_problem(n=200)
        model = GradientBoostedTrees(GBTParams(num_rounds=4, max_depth=2, max_trees=6))
        model.fit(X, y)
        assert not model.needs_compaction
        model.fit_increment(X, y)
        assert model.needs_compaction


class TestPredictApi:
    def test_predict_one_matches_batch(self):
        X, y = make_problem()
        model = GradientBoostedTrees(GBTParams(num_rounds=3, max_depth=3)).fit(X, y)
        assert model.predict_one(X[0]) == pytest.approx(model.predict_proba(X[:1])[0])

    def test_threshold_shifts_labels(self):
        X, y = make_problem()
        model = GradientBoostedTrees(GBTParams(num_rounds=5, max_depth=3)).fit(X, y)
        strict = model.predict(X, threshold=0.9).sum()
        loose = model.predict(X, threshold=0.1).sum()
        assert loose >= strict

    def test_base_score_margin(self):
        model = GradientBoostedTrees(GBTParams(base_score=0.5))
        assert model.base_margin == pytest.approx(0.0)
        skewed = GradientBoostedTrees(GBTParams(base_score=0.9))
        assert skewed.base_margin > 0

    def test_unfitted_predicts_base_score(self):
        model = GradientBoostedTrees(GBTParams(base_score=0.5))
        probs = model.predict_proba(np.ones((3, 2)))
        assert np.allclose(probs, 0.5)

    def test_feature_usage_aggregates(self):
        X, y = make_problem()
        model = GradientBoostedTrees(GBTParams(num_rounds=4, max_depth=3)).fit(X, y)
        usage = model.feature_usage()
        assert len(usage) == X.shape[1]
        assert usage[0] > 0  # dominant feature used

    def test_approx_size_reported(self):
        X, y = make_problem()
        model = GradientBoostedTrees(GBTParams(num_rounds=2, max_depth=2)).fit(X, y)
        assert model.approx_size_bytes() > 0
