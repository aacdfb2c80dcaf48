"""Unit tests for AdaBoost over stumps."""

import numpy as np
import pytest

from repro.booleanfuncs.encoding import random_pm1
from repro.booleanfuncs.ltf import LTF
from repro.learning.boosting import AdaBoost, Stump
from repro.pufs.arbiter import ArbiterPUF, parity_transform
from repro.pufs.crp import generate_crps


class TestStump:
    def test_coordinate_stump(self):
        s = Stump(coordinate=1, polarity=-1)
        x = np.array([[1, 1], [1, -1]], dtype=np.int8)
        assert s.predict(x).tolist() == [-1, 1]

    def test_constant_stump(self):
        s = Stump(coordinate=-1, polarity=1)
        assert np.all(s.predict(np.zeros((5, 3), np.int8)) == 1)


class TestAdaBoost:
    def test_learns_dictator_in_one_round(self):
        rng = np.random.default_rng(0)
        x = random_pm1(8, 500, rng)
        y = x[:, 3]
        result = AdaBoost(rounds=10).fit(x, y)
        assert result.train_accuracy == 1.0
        assert result.rounds_run <= 2

    def test_learns_majority(self):
        rng = np.random.default_rng(1)
        target = LTF(np.ones(9))
        x = random_pm1(9, 4000, rng)
        result = AdaBoost(rounds=120).fit(x, target(x))
        x_test = random_pm1(9, 4000, rng)
        assert np.mean(result.predict(x_test) == target(x_test)) > 0.85

    def test_boosting_beats_best_single_stump(self):
        rng = np.random.default_rng(2)
        target = LTF(np.array([3.0, 2.0, 2.0, 1.0, 1.0, 1.0]))
        x = random_pm1(6, 3000, rng)
        y = target(x)
        one = AdaBoost(rounds=1).fit(x, y)
        many = AdaBoost(rounds=80).fit(x, y)
        assert many.train_accuracy > one.train_accuracy

    def test_arbiter_puf_with_parity_features(self):
        rng = np.random.default_rng(3)
        puf = ArbiterPUF(16, rng)
        crps = generate_crps(puf, 6000, rng)
        result = AdaBoost(rounds=150, feature_map=parity_transform).fit(
            crps.challenges, crps.responses
        )
        test = generate_crps(puf, 4000, rng)
        acc = np.mean(result.predict(test.challenges) == test.responses)
        assert acc > 0.8

    def test_constant_target_handled(self):
        x = random_pm1(5, 100, np.random.default_rng(4))
        y = np.ones(100, dtype=np.int8)
        result = AdaBoost(rounds=10).fit(x, y)
        assert result.train_accuracy == 1.0

    def test_pure_noise_falls_back_gracefully(self):
        rng = np.random.default_rng(5)
        x = random_pm1(5, 2000, rng)
        y = (1 - 2 * rng.integers(0, 2, size=2000)).astype(np.int8)
        result = AdaBoost(rounds=5, min_edge=0.05).fit(x, y)
        # Accuracy near chance, but a valid hypothesis is returned.
        assert 0.4 < result.train_accuracy < 0.65

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaBoost(rounds=0)
        with pytest.raises(ValueError):
            AdaBoost(min_edge=-1)
        booster = AdaBoost()
        with pytest.raises(ValueError):
            booster.fit(np.ones((3, 2)), np.ones(2))
