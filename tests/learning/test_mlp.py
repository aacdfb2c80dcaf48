"""Unit tests for the MLP attack."""

import numpy as np
import pytest

from repro.learning.mlp import MLPAttack
from repro.pufs import BistableRingPUF, generate_crps
from repro.pufs.arbiter import ArbiterPUF, parity_transform
from repro.booleanfuncs.encoding import random_pm1
from repro.booleanfuncs.function import BooleanFunction


class TestMLPAttack:
    def test_learns_arbiter_features(self):
        rng = np.random.default_rng(0)
        puf = ArbiterPUF(24, rng)
        crps = generate_crps(puf, 4000, rng)
        fit = MLPAttack(hidden=16, epochs=30, feature_map=parity_transform).fit(
            crps.challenges, crps.responses, rng
        )
        test = generate_crps(puf, 3000, rng)
        assert np.mean(fit.predict(test.challenges) == test.responses) > 0.93

    def test_clears_brpuf_ltf_cap(self):
        """The improper-learning escape (Section V-B) via a neural net."""
        rng = np.random.default_rng(1)
        puf = BistableRingPUF(20, np.random.default_rng(2))
        train = generate_crps(puf, 15_000, rng)
        test = generate_crps(puf, 6000, rng)
        from repro.learning.logistic import LogisticAttack

        ltf_acc = np.mean(
            LogisticAttack()
            .fit(train.challenges, train.responses, rng)
            .predict(test.challenges)
            == test.responses
        )
        mlp_acc = np.mean(
            MLPAttack(hidden=48, epochs=40)
            .fit(train.challenges, train.responses, rng)
            .predict(test.challenges)
            == test.responses
        )
        assert mlp_acc > ltf_acc + 0.05

    def test_learns_xor_of_two_bits(self):
        """A linear model cannot do XOR; the MLP must."""
        target = BooleanFunction.parity_on(6, [1, 4])
        rng = np.random.default_rng(3)
        x = random_pm1(6, 4000, rng)
        fit = MLPAttack(hidden=8, epochs=60).fit(x, target(x), rng)
        x_test = random_pm1(6, 3000, rng)
        assert np.mean(fit.predict(x_test) == target(x_test)) > 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            MLPAttack(hidden=0)
        with pytest.raises(ValueError):
            MLPAttack(epochs=0)
        with pytest.raises(ValueError):
            MLPAttack(learning_rate=0)
        with pytest.raises(ValueError):
            MLPAttack(l2=-1)
        attack = MLPAttack()
        with pytest.raises(ValueError):
            attack.fit(np.ones((3, 2)), np.ones(4))
