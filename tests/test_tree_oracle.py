"""Presorted trees against the per-node-sort oracle in ``tests/ml_oracle.py``.

The production grower sorts each feature once per boosting call and
stores flat node arrays; the oracle re-sorts at every node and links
node objects.  Both are the exact greedy algorithm, so serialized models
must match byte for byte and predictions bit for bit.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ml.gbt import GBTParams, GradientBoostedTrees
from repro.ml.serialize import model_from_dict, model_to_dict, tree_to_dict
from repro.ml import tree as tree_module
from repro.ml.tree import RegressionTree, TreeParams

pytestmark = pytest.mark.filterwarnings("error")

_spec = importlib.util.spec_from_file_location(
    "ml_oracle", Path(__file__).with_name("ml_oracle.py")
)
oracle = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("ml_oracle", oracle)
_spec.loader.exec_module(oracle)

SIZES = (1, 2, 64, 65, 128, 2000)

PARAMS = {
    "default": GBTParams(num_rounds=3, max_depth=6),
    "paper": GBTParams(num_rounds=2, max_depth=20),
    "gamma": GBTParams(num_rounds=3, max_depth=8, gamma=0.5, min_child_weight=0.5),
    "unregularized": GBTParams(
        num_rounds=2, max_depth=5, reg_lambda=0.0, min_child_weight=0.0
    ),
}


def make_batch(n, seed):
    """Awkward features: NaN-heavy, all-NaN, constant, ties, clipped, +-0."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            rng.random(n),
            np.where(rng.random(n) < 0.7, np.nan, rng.random(n)),
            np.full(n, np.nan),
            np.full(n, 0.25),
            rng.integers(0, 3, n).astype(float),
            np.minimum(rng.exponential(0.6, n), 1.0),
            np.where(rng.random(n) < 0.2, np.nan, rng.integers(0, 5, n) / 4.0),
            np.where(rng.random(n) < 0.5, -0.0, 0.0) + (rng.random(n) < 0.3),
        ]
    )
    signal = (
        X[:, 0]
        + np.nan_to_num(X[:, 1], nan=0.9)
        + 0.4 * X[:, 4]
        - 0.5 * X[:, 5]
        + rng.normal(0.0, 0.4, n)
    )
    y = (signal > 1.0).astype(float)
    return X, y


def model_json(model):
    return json.dumps(model_to_dict(model))


def oracle_json(model):
    return json.dumps(oracle.oracle_model_to_dict(model))


def assert_same_predictions(model, reference, X):
    margin = model.predict_margin(X)
    assert margin.tobytes() == reference.predict_margin(X).tobytes()
    for row in X[:25]:
        assert model.predict_one(row) == reference.predict_one(row)


@pytest.mark.parametrize("name", sorted(PARAMS))
@pytest.mark.parametrize("n", SIZES)
def test_fit_then_increments_match_oracle(n, name):
    params = PARAMS[name]
    model = GradientBoostedTrees(params)
    reference = oracle.OracleGBT(params)
    held_out, _ = make_batch(300, seed=99)
    for step in range(4):
        X, y = make_batch(n, seed=10 * n + step)
        if step == 0:
            model.fit(X, y)
            reference.fit(X, y)
        else:
            model.fit_increment(X, y)
            reference.fit_increment(X, y)
        assert model_json(model) == oracle_json(reference)
        assert_same_predictions(model, reference, X)
    assert_same_predictions(model, reference, held_out)
    restored = model_from_dict(json.loads(model_json(model)))
    assert model_json(restored) == model_json(model)
    assert_same_predictions(restored, reference, held_out)


def test_min_child_weight_boundary_is_inclusive():
    # At margin 0 every hessian is exactly 0.25, so a 4-sample side
    # weighs exactly min_child_weight=1.0 and is still a valid child.
    X = np.arange(8, dtype=float).reshape(-1, 1)
    y = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
    params = GBTParams(num_rounds=3, max_depth=3, min_child_weight=1.0)
    model = GradientBoostedTrees(params).fit(X, y)
    reference = oracle.OracleGBT(params).fit(X, y)
    assert model_json(model) == oracle_json(reference)
    assert model.trees[0].feature[0] == 0
    assert model.trees[0].threshold[0] == 3.5


@pytest.mark.parametrize("seed", range(6))
def test_single_trees_match_oracle(seed):
    rng = np.random.default_rng(seed)
    X, _ = make_batch(int(rng.integers(3, 400)), seed=seed)
    grad = rng.normal(0.0, 1.0, len(X))
    hess = rng.uniform(0.01, 0.3, len(X))
    params = TreeParams(max_depth=int(rng.integers(1, 12)), min_child_weight=0.2)
    tree = RegressionTree(params).fit(X, grad, hess)
    reference = oracle.OracleTree(params).fit(X, grad, hess)
    assert json.dumps(tree_to_dict(tree)) == json.dumps(
        oracle.oracle_tree_to_dict(reference)
    )
    assert tree.node_count == reference.node_count
    probe, _ = make_batch(200, seed=seed + 100)
    assert tree.predict(probe).tobytes() == reference.predict(probe).tobytes()


@pytest.mark.parametrize("block", [None, 16])
def test_tie_across_scan_blocks_goes_to_lowest_feature(monkeypatch, block):
    # The last column duplicates column 0, so their best gains tie exactly; the
    # split must stay on feature 0 even when the two land in different
    # scan blocks.
    if block is not None:
        monkeypatch.setattr(tree_module, "_SCAN_BLOCK", block)
    X, y = make_batch(2000 if block is None else 64, seed=5)
    X = np.column_stack([X, X[:, 0]])
    params = GBTParams(num_rounds=2, max_depth=4)
    model = GradientBoostedTrees(params).fit(X, y)
    reference = oracle.OracleGBT(params).fit(X, y)
    assert model_json(model) == oracle_json(reference)
    assert X.shape[1] - 1 not in model.trees[0].feature
