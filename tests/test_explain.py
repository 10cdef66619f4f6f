"""Tests for per-prediction path attribution."""

import numpy as np
import pytest

from repro.ml.explain import explain_prediction, tree_contributions
from repro.ml.gbt import GBTParams, GradientBoostedTrees

# Warnings (e.g. divide-by-zero in masked gain lanes) fail the test.
pytestmark = pytest.mark.filterwarnings("error")


def make_model(seed=0, rounds=5):
    rng = np.random.default_rng(seed)
    X = rng.random((500, 4))
    # Feature 0 dominates; feature 3 is pure noise.
    y = (X[:, 0] > 0.5).astype(int)
    model = GradientBoostedTrees(GBTParams(num_rounds=rounds, max_depth=4)).fit(X, y)
    return model, X


class TestAttribution:
    def test_contributions_sum_to_margin(self):
        model, X = make_model()
        for row in X[:20]:
            explanation = explain_prediction(model, row)
            margin = model.predict_margin(row.reshape(1, -1))[0]
            reconstructed = explanation.bias + sum(
                explanation.contributions.values()
            )
            assert reconstructed == pytest.approx(margin, abs=1e-9)
            assert explanation.probability == pytest.approx(
                model.predict_proba(row.reshape(1, -1))[0], abs=1e-9
            )

    def test_dominant_feature_gets_most_credit(self):
        model, X = make_model()
        credit = {}
        for row in X[:50]:
            for feature, value in explain_prediction(model, row).contributions.items():
                credit[feature] = credit.get(feature, 0.0) + abs(value)
        assert max(credit, key=credit.get) == 0

    def test_direction_matches_prediction(self):
        model, _ = make_model()
        high = explain_prediction(model, np.array([0.95, 0.5, 0.5, 0.5]))
        low = explain_prediction(model, np.array([0.05, 0.5, 0.5, 0.5]))
        assert high.contributions.get(0, 0.0) > low.contributions.get(0, 0.0)
        assert high.probability > low.probability

    def test_missing_values_follow_default_direction(self):
        model, _ = make_model()
        explanation = explain_prediction(
            model, np.array([np.nan, 0.5, 0.5, 0.5])
        )
        # Still decomposes exactly.
        margin = model.predict_margin(
            np.array([[np.nan, 0.5, 0.5, 0.5]])
        )[0]
        assert explanation.bias + sum(
            explanation.contributions.values()
        ) == pytest.approx(margin, abs=1e-9)

    def test_top_features_named_and_sorted(self):
        model, X = make_model()
        explanation = explain_prediction(model, X[0])
        top = explanation.top_features(names=["a", "b", "c", "d"], limit=2)
        assert len(top) <= 2
        assert all(isinstance(name, str) for name, _ in top)
        magnitudes = [abs(v) for _, v in top]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_unfitted_tree_rejected(self):
        from repro.ml.tree import RegressionTree

        with pytest.raises(ValueError):
            tree_contributions(RegressionTree(), np.zeros(3))
