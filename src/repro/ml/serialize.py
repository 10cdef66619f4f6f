"""Model serialization: save/load boosted ensembles as JSON.

A deployed tiering system restarts; its access models should not have to
relearn from scratch (the paper's warm-up gate would block predictions
for the first portion of every run).  The format is a plain JSON
document — versioned, human-inspectable, and stable across platforms.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict

from repro.ml.gbt import GBTParams, GradientBoostedTrees
from repro.ml.tree import RegressionTree, TreeParams

FORMAT_VERSION = 1


def _node_to_dict(tree: RegressionTree, node: int) -> Dict[str, Any]:
    if tree.feature[node] < 0:
        return {"leaf": tree.value[node]}
    return {
        "feature": tree.feature[node],
        "threshold": tree.threshold[node],
        "default_left": tree.default_left[node],
        "left": _node_to_dict(tree, tree.left[node]),
        "right": _node_to_dict(tree, tree.right[node]),
    }


def _add_node(tree: RegressionTree, data: Dict[str, Any], depth: int) -> int:
    """Append ``data``'s subtree to the node lists in preorder; return its id."""
    if "leaf" in data:
        return tree._add_leaf(float(data["leaf"]))
    node = tree._add_leaf(0.0)
    tree.depth = max(tree.depth, depth + 1)
    tree.feature[node] = int(data["feature"])
    tree.threshold[node] = float(data["threshold"])
    tree.default_left[node] = bool(data["default_left"])
    tree.left[node] = _add_node(tree, data["left"], depth + 1)
    tree.right[node] = _add_node(tree, data["right"], depth + 1)
    return node


def tree_to_dict(tree: RegressionTree) -> Dict[str, Any]:
    """Serialize one fitted tree as a nested JSON-ready dict."""
    if not tree.value:
        raise ValueError("cannot serialize an unfitted tree")
    return {
        "n_features": tree.n_features,
        "params": asdict(tree.params),
        "root": _node_to_dict(tree, 0),
    }


def tree_from_dict(data: Dict[str, Any]) -> RegressionTree:
    """Rebuild a tree serialized by :func:`tree_to_dict`."""
    tree = RegressionTree(TreeParams(**data["params"]))
    tree.n_features = int(data["n_features"])
    _add_node(tree, data["root"], 0)
    return tree


def model_to_dict(model: GradientBoostedTrees) -> Dict[str, Any]:
    """Serialize an ensemble (metadata + all trees)."""
    return {
        "format_version": FORMAT_VERSION,
        "params": asdict(model.params),
        "trees": [tree_to_dict(t) for t in model.trees],
    }


def model_from_dict(data: Dict[str, Any]) -> GradientBoostedTrees:
    """Rebuild an ensemble serialized by :func:`model_to_dict`."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {version!r}")
    params = GBTParams(**data["params"])
    model = GradientBoostedTrees(params=params)
    model.trees = [tree_from_dict(t) for t in data["trees"]]
    return model


def save_model(model: GradientBoostedTrees, path: str) -> None:
    """Write the model to ``path`` as JSON."""
    with open(path, "w") as handle:
        json.dump(model_to_dict(model), handle)


def load_model(path: str) -> GradientBoostedTrees:
    """Load a model previously written by :func:`save_model`."""
    with open(path) as handle:
        return model_from_dict(json.load(handle))
