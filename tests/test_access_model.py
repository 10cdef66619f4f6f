"""Tests for the online file-access predictor."""

import numpy as np
import pytest

from repro.common.units import MINUTES
from repro.ml.access_model import FileAccessModel, LearningMode
from repro.ml.gbt import GBTParams

# Warnings (e.g. divide-by-zero in masked gain lanes) fail the test.
pytestmark = pytest.mark.filterwarnings("error")


def feed_periodic_pattern(model, n_files=40, periods=(600.0, 7200.0), horizon=20000.0):
    """Synthetic stream: files re-accessed with per-file period.

    Short-period files are accessed within any 30-minute window; the
    long-period files are not — a cleanly learnable rule.
    """
    t = 0.0
    while t < horizon:
        t += 60.0
        for i in range(n_files):
            period = periods[i % len(periods)]
            accesses = [x for x in np.arange(0.0, t + 1, period)][-12:]
            model.add_observation(
                size=64 * 2**20, creation_time=0.0, access_times=accesses, now=t
            )


class TestTrainingPointGeneration:
    def make(self, **kw):
        return FileAccessModel(window=30 * MINUTES, **kw)

    def test_reference_time_shifted_back(self):
        model = self.make()
        point = model.make_training_point(1, 0.0, [1000.0, 1900.0], now=2000.0)
        assert point is not None
        # Access at 1900 is inside (200, 2000] -> positive label.
        assert point.label == 1

    def test_negative_label_when_idle(self):
        model = self.make()
        point = model.make_training_point(1, 0.0, [10.0], now=10000.0)
        assert point is not None
        assert point.label == 0

    def test_none_when_file_younger_than_window(self):
        model = self.make()
        assert model.make_training_point(1, 1900.0, [], now=2000.0) is None

    def test_observation_counter(self):
        model = self.make()
        model.add_observation(1, 0.0, [], now=5000.0)
        assert model.points_seen == 1


class TestWarmupGating:
    def test_not_ready_without_data(self):
        model = FileAccessModel(window=1800.0)
        assert not model.ready
        assert model.predict_probability(1, 0.0, [], now=5000.0) is None

    def test_becomes_ready_on_learnable_stream(self):
        model = FileAccessModel(
            window=1800.0,
            gbt_params=GBTParams(num_rounds=5, max_depth=6),
            min_eval_points=10,
        )
        feed_periodic_pattern(model)
        assert model.is_fitted
        assert model.rolling_error_rate < 0.2
        assert model.ready

    def test_prediction_separates_hot_and_cold(self):
        model = FileAccessModel(
            window=1800.0,
            gbt_params=GBTParams(num_rounds=5, max_depth=6),
            min_eval_points=10,
        )
        feed_periodic_pattern(model)
        now = 21000.0
        # Hot: 10-minute period, next access well inside the 30min window.
        hot = model.predict_probability(
            64 * 2**20, 0.0, list(np.arange(0, now, 600.0)[-12:]), now
        )
        # Cold: 2-hour period, mid-cycle (next access ~1h away, outside
        # the window) — in-distribution for the training stream.
        cold_accesses = list(np.arange(0.0, now - 3500.0, 7200.0)[-12:])
        cold = model.predict_probability(64 * 2**20, 0.0, cold_accesses, now)
        assert hot is not None and cold is not None
        assert hot > cold

    def test_accuracy_history_recorded(self):
        model = FileAccessModel(
            window=1800.0, gbt_params=GBTParams(num_rounds=3, max_depth=4)
        )
        feed_periodic_pattern(model, horizon=8000.0)
        assert len(model.accuracy_history) > 0
        timestamps = [t for t, _ in model.accuracy_history]
        assert timestamps == sorted(timestamps)


class TestLearningModes:
    def test_retrain_mode_defers_training(self):
        model = FileAccessModel(window=1800.0, mode=LearningMode.RETRAIN)
        feed_periodic_pattern(model, horizon=4000.0)
        assert not model.is_fitted
        assert model.retrain()
        assert model.is_fitted

    def test_oneshot_trains_once(self):
        model = FileAccessModel(window=1800.0, mode=LearningMode.ONESHOT)
        feed_periodic_pattern(model, horizon=4000.0)
        assert model.train_now()
        trees_after_first = model.model.num_trees
        feed_periodic_pattern(model, horizon=4000.0)
        assert model.model.num_trees == trees_after_first

    def test_train_now_requires_both_classes(self):
        model = FileAccessModel(window=1800.0, mode=LearningMode.RETRAIN)
        # Only cold observations -> single class.
        for t in range(2000, 10000, 500):
            model.add_observation(1, 0.0, [10.0], now=float(t))
        assert not model.train_now()

    def test_dataset_export(self):
        model = FileAccessModel(window=1800.0, mode=LearningMode.RETRAIN)
        feed_periodic_pattern(model, horizon=3000.0)
        X, y, t = model.dataset()
        assert len(X) == len(y) == len(t) == model.points_seen

    def test_dataset_empty_raises(self):
        with pytest.raises(ValueError):
            FileAccessModel(window=60.0).dataset()


class TestCompaction:
    def test_tree_count_bounded(self):
        model = FileAccessModel(
            window=1800.0,
            gbt_params=GBTParams(num_rounds=5, max_depth=4, max_trees=20),
            batch_size=32,
        )
        feed_periodic_pattern(model, horizon=15000.0)
        # Compaction keeps the ensemble near the cap (fit + one increment).
        assert model.model.num_trees <= 20

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            FileAccessModel(window=0.0)
