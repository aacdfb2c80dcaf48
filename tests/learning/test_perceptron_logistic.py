"""Unit tests for the Perceptron and logistic-regression attacks."""

import numpy as np
import pytest

from repro.booleanfuncs.encoding import random_pm1
from repro.booleanfuncs.ltf import LTF
from repro.learning.logistic import LogisticAttack
from repro.learning.perceptron import Perceptron
from repro.pufs.arbiter import ArbiterPUF, parity_transform
from repro.pufs.bistable_ring import BistableRingPUF
from repro.pufs.crp import generate_crps


class TestPerceptron:
    def test_learns_separable_data(self):
        rng = np.random.default_rng(0)
        target = LTF.random(10, rng)
        x = random_pm1(10, 2000, rng)
        y = target(x)
        result = Perceptron(max_epochs=100).fit(x, y, rng)
        assert result.converged
        assert result.train_accuracy == 1.0
        # Generalisation on fresh data.
        x_test = random_pm1(10, 2000, rng)
        assert np.mean(result.predict(x_test) == target(x_test)) > 0.95

    def test_mistake_counting(self):
        rng = np.random.default_rng(1)
        target = LTF.random(8, rng)
        x = random_pm1(8, 500, rng)
        result = Perceptron(max_epochs=100).fit(x, target(x), rng)
        assert result.mistakes > 0

    def test_arbiter_puf_with_feature_map(self):
        """The classic result: arbiter PUFs are learnable via parity features."""
        rng = np.random.default_rng(2)
        puf = ArbiterPUF(32, rng)
        crps = generate_crps(puf, 3000, rng)
        result = Perceptron(max_epochs=60, feature_map=parity_transform).fit(
            crps.challenges, crps.responses, rng
        )
        test = generate_crps(puf, 3000, rng)
        acc = np.mean(result.predict(test.challenges) == test.responses)
        assert acc > 0.95

    def test_arbiter_puf_without_feature_map_struggles(self):
        """Wrong representation: raw challenges are not separable."""
        rng = np.random.default_rng(3)
        puf = ArbiterPUF(32, rng)
        crps = generate_crps(puf, 3000, rng)
        result = Perceptron(max_epochs=30).fit(crps.challenges, crps.responses, rng)
        test = generate_crps(puf, 3000, rng)
        raw_acc = np.mean(result.ltf(test.challenges) == test.responses)
        assert raw_acc < 0.9

    def test_averaged_variant_on_nonseparable(self):
        rng = np.random.default_rng(4)
        puf = BistableRingPUF(16, rng)
        crps = generate_crps(puf, 2000, rng)
        plain = Perceptron(max_epochs=20).fit(crps.challenges, crps.responses, rng)
        avg = Perceptron(max_epochs=20, averaged=True).fit(
            crps.challenges, crps.responses, rng
        )
        # Both produce valid LTFs; averaged should not be (much) worse.
        test = generate_crps(puf, 2000, rng)
        acc_avg = np.mean(avg.predict(test.challenges) == test.responses)
        acc_plain = np.mean(plain.predict(test.challenges) == test.responses)
        assert acc_avg >= acc_plain - 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            Perceptron(max_epochs=0)
        with pytest.raises(ValueError):
            Perceptron(learning_rate=0)
        p = Perceptron()
        with pytest.raises(ValueError):
            p.fit(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            p.fit(np.ones((0, 2)), np.ones(0))

    def test_deterministic_without_shuffle(self):
        rng_data = np.random.default_rng(5)
        target = LTF.random(6, rng_data)
        x = random_pm1(6, 200, rng_data)
        y = target(x)
        r1 = Perceptron(max_epochs=10, shuffle=False).fit(x, y)
        r2 = Perceptron(max_epochs=10, shuffle=False).fit(x, y)
        assert np.array_equal(r1.ltf.weights, r2.ltf.weights)
        assert r1.mistakes == r2.mistakes


class TestLogisticAttack:
    def test_learns_separable_data(self):
        rng = np.random.default_rng(6)
        target = LTF.random(10, rng)
        x = random_pm1(10, 2000, rng)
        result = LogisticAttack().fit(x, target(x), rng)
        x_test = random_pm1(10, 3000, rng)
        assert np.mean(result.predict(x_test) == target(x_test)) > 0.95

    def test_breaks_arbiter_puf(self):
        rng = np.random.default_rng(7)
        puf = ArbiterPUF(64, rng)
        crps = generate_crps(puf, 5000, rng)
        result = LogisticAttack(feature_map=parity_transform).fit(
            crps.challenges, crps.responses, rng
        )
        test = generate_crps(puf, 5000, rng)
        assert np.mean(result.predict(test.challenges) == test.responses) > 0.97

    def test_raw_bits_are_the_wrong_feature_space(self):
        """The same LR learner under raw bits stays far from the parity
        model — the representation pitfall, isolated."""
        puf = ArbiterPUF(24, np.random.default_rng(4))
        train = generate_crps(puf, 1500, np.random.default_rng(5))
        test = generate_crps(puf, 1000, np.random.default_rng(6))
        accs = {}
        for name, feature_map in (("parity", parity_transform), ("raw", None)):
            result = LogisticAttack(l2=1e-5, feature_map=feature_map).fit(
                train.challenges, train.responses, np.random.default_rng(7)
            )
            accs[name] = np.mean(result.predict(test.challenges) == test.responses)
        assert accs["parity"] > accs["raw"] + 0.1

    def test_probability_calibrated_sign(self):
        rng = np.random.default_rng(8)
        target = LTF.random(6, rng)
        x = random_pm1(6, 1000, rng)
        result = LogisticAttack().fit(x, target(x), rng)
        probs = result.probability(x)
        preds = np.where(probs >= 0.5, 1, -1)
        assert np.mean(preds == result.predict(x)) > 0.99

    def test_noise_tolerance(self):
        rng = np.random.default_rng(9)
        puf = ArbiterPUF(32, rng, noise_sigma=0.5)
        crps = generate_crps(puf, 4000, rng, noisy=True)
        result = LogisticAttack(feature_map=parity_transform).fit(
            crps.challenges, crps.responses, rng
        )
        test = generate_crps(puf, 4000, rng)  # ideal labels
        assert np.mean(result.predict(test.challenges) == test.responses) > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            LogisticAttack(l2=-1.0)
        with pytest.raises(ValueError):
            LogisticAttack(max_iter=0)
        attack = LogisticAttack()
        with pytest.raises(ValueError):
            attack.fit(np.ones((3, 2)), np.ones(2))
