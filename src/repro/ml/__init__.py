"""Machine-learning substrate: gradient boosted trees built from scratch.

The paper uses XGBoost v0.60 (binary logistic objective, ``max_depth=20``,
``num_rounds=10``).  No XGBoost binding is available offline, so this
package implements the same algorithm family in pure numpy:

* :mod:`repro.ml.tree` — CART regression trees grown with XGBoost's
  second-order gain and sparsity-aware (missing-value) default directions,
  by exact greedy search over one presort per boosting call;
* :mod:`repro.ml.gbt` — Newton boosting under logistic loss, with margin
  continuation for incremental learning;
* :mod:`repro.ml.features` — the Sec 4.1 feature pipeline (time deltas,
  normalization, missing-value encoding);
* :mod:`repro.ml.access_model` — the online file-access predictor with
  reference-time training-point generation and warm-up gating (Sec 4.2-4.4);
* :mod:`repro.ml.metrics` — ROC/AUC/accuracy used by the Sec 7.6 evaluation.
"""

from repro.ml.tree import RegressionTree, TreeParams
from repro.ml.gbt import GBTParams, GradientBoostedTrees
from repro.ml.features import FeatureSpec, build_feature_vector, feature_names
from repro.ml.access_model import FileAccessModel, LearningMode, TrainingPoint
from repro.ml.metrics import (
    accuracy,
    auc,
    confusion_matrix,
    log_loss,
    precision_recall,
    roc_curve,
)
from repro.ml.explain import Explanation, explain_prediction
from repro.ml.serialize import load_model, save_model

__all__ = [
    "TreeParams",
    "RegressionTree",
    "GBTParams",
    "GradientBoostedTrees",
    "FeatureSpec",
    "build_feature_vector",
    "feature_names",
    "FileAccessModel",
    "LearningMode",
    "TrainingPoint",
    "roc_curve",
    "auc",
    "accuracy",
    "precision_recall",
    "confusion_matrix",
    "log_loss",
    "Explanation",
    "explain_prediction",
    "save_model",
    "load_model",
]
