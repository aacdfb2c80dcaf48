"""Unit tests for the gradient-attack learners as the atlas fits them.

The atlas names its gradient learners ``lr`` and ``mlp`` and its
challenge representations ``parity`` and ``raw``; an ``lr`` cell fits
:class:`LogisticAttack` at k = 1 and :class:`XorLogisticAttack` at
k >= 2, with ``parity_transform`` as the feature map of a parity cell.
"""

import numpy as np
import pytest

from repro.analysis.atlas import LR_L2, MLP_BATCH_SIZE, AtlasTrialSpec
from repro.learning.logistic import LogisticAttack
from repro.learning.mlp import MLPAttack
from repro.learning.xor_logistic import XorLogisticAttack
from repro.pufs.arbiter import ArbiterPUF, parity_transform
from repro.pufs.crp import generate_crps
from repro.pufs.xor_arbiter import XORArbiterPUF


class TestMakeAttacker:
    def test_rejects_unknown_name_and_representation(self):
        with pytest.raises(ValueError, match="unknown learner"):
            AtlasTrialSpec(learners=("svm",))
        with pytest.raises(ValueError, match="unknown representation"):
            AtlasTrialSpec(representations=("fourier",))


class TestGradientAttackProtocol:
    @pytest.mark.parametrize("name", ["lr", "mlp"])
    def test_parity_representation_learns_an_arbiter(self, name):
        puf = ArbiterPUF(24, np.random.default_rng(0))
        train = generate_crps(puf, 1500, np.random.default_rng(1))
        test = generate_crps(puf, 1000, np.random.default_rng(2))
        if name == "lr":
            learner = LogisticAttack(l2=LR_L2, feature_map=parity_transform)
        else:
            learner = MLPAttack(
                hidden=24,
                epochs=40,
                batch_size=MLP_BATCH_SIZE,
                feature_map=parity_transform,
            )
        model = learner.fit(
            train.challenges, train.responses, np.random.default_rng(3)
        )
        predictions = model.predict(test.challenges)
        acc = float(np.mean(predictions == test.responses))
        assert acc > 0.9, f"{name}: {acc:.3f}"
        assert predictions.dtype == np.int8
        assert np.all(np.abs(predictions) == 1)

    def test_lr_k2_breaks_a_2xor(self):
        puf = XORArbiterPUF(16, 2, np.random.default_rng(8))
        train = generate_crps(puf, 3000, np.random.default_rng(9))
        test = generate_crps(puf, 1000, np.random.default_rng(10))
        model = XorLogisticAttack(
            2, restarts=6, max_iter=200, l2=LR_L2, feature_map=parity_transform
        ).fit(train.challenges, train.responses, np.random.default_rng(11))
        assert np.mean(model.predict(test.challenges) == test.responses) > 0.85

    def test_lr_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be"):
            XorLogisticAttack(k=0)
        with pytest.raises(ValueError, match="ks must be"):
            AtlasTrialSpec(ks=(0,))
