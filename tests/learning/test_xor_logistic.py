"""Unit tests for the product-of-margins XOR PUF attack."""

import numpy as np
import pytest

from repro.learning.xor_logistic import XorLogisticAttack
from repro.pufs.arbiter import ArbiterPUF, parity_transform
from repro.pufs.crp import generate_crps
from repro.pufs.xor_arbiter import XORArbiterPUF


class TestXorLogisticAttack:
    def test_k1_reduces_to_plain_logistic(self):
        rng = np.random.default_rng(0)
        puf = ArbiterPUF(32, rng)
        crps = generate_crps(puf, 3000, rng)
        fit = XorLogisticAttack(1, feature_map=parity_transform).fit(
            crps.challenges, crps.responses, rng
        )
        test = generate_crps(puf, 3000, rng)
        assert np.mean(fit.predict(test.challenges) == test.responses) > 0.97

    def test_breaks_2xor_puf(self):
        rng = np.random.default_rng(1)
        puf = XORArbiterPUF(32, 2, rng)
        crps = generate_crps(puf, 5000, rng)
        fit = XorLogisticAttack(2, feature_map=parity_transform).fit(
            crps.challenges, crps.responses, rng
        )
        test = generate_crps(puf, 5000, rng)
        assert np.mean(fit.predict(test.challenges) == test.responses) > 0.95

    def test_breaks_3xor_puf(self):
        rng = np.random.default_rng(2)
        puf = XORArbiterPUF(24, 3, rng)
        crps = generate_crps(puf, 12_000, rng)
        fit = XorLogisticAttack(3, feature_map=parity_transform, restarts=10).fit(
            crps.challenges, crps.responses, rng
        )
        test = generate_crps(puf, 5000, rng)
        assert np.mean(fit.predict(test.challenges) == test.responses) > 0.90

    def test_underparameterised_model_fails(self):
        """Modelling a 3-XOR with k_guess=1 caps near chance."""
        rng = np.random.default_rng(3)
        puf = XORArbiterPUF(24, 3, rng)
        crps = generate_crps(puf, 8000, rng)
        fit = XorLogisticAttack(1, feature_map=parity_transform).fit(
            crps.challenges, crps.responses, rng
        )
        test = generate_crps(puf, 5000, rng)
        acc = np.mean(fit.predict(test.challenges) == test.responses)
        assert acc < 0.7

    def test_too_few_crps_generalise_poorly(self):
        rng = np.random.default_rng(4)
        puf = XORArbiterPUF(32, 2, rng)
        crps = generate_crps(puf, 150, rng)
        fit = XorLogisticAttack(2, feature_map=parity_transform, restarts=3).fit(
            crps.challenges, crps.responses, rng
        )
        test = generate_crps(puf, 5000, rng)
        acc = np.mean(fit.predict(test.challenges) == test.responses)
        assert acc < 0.92  # far from the converged regime

    def test_restart_accounting(self):
        rng = np.random.default_rng(5)
        puf = XORArbiterPUF(16, 2, rng)
        crps = generate_crps(puf, 2000, rng)
        fit = XorLogisticAttack(2, feature_map=parity_transform, restarts=5).fit(
            crps.challenges, crps.responses, rng
        )
        assert 1 <= fit.restarts_used <= 5

    def test_margin_sign_matches_predictions(self):
        rng = np.random.default_rng(6)
        puf = XORArbiterPUF(16, 2, rng)
        crps = generate_crps(puf, 1000, rng)
        fit = XorLogisticAttack(2, feature_map=parity_transform).fit(
            crps.challenges, crps.responses, rng
        )
        margins = fit.score(crps.challenges)
        preds = fit.predict(crps.challenges)
        assert np.array_equal(np.where(margins >= 0, 1, -1), preds)

    def test_validation(self):
        with pytest.raises(ValueError):
            XorLogisticAttack(0)
        with pytest.raises(ValueError):
            XorLogisticAttack(2, restarts=0)
        with pytest.raises(ValueError):
            XorLogisticAttack(2, l2=-1)
        with pytest.raises(ValueError):
            XorLogisticAttack(2, target_accuracy=0.4)
        attack = XorLogisticAttack(2)
        with pytest.raises(ValueError):
            attack.fit(np.ones((3, 2)), np.ones(2))
