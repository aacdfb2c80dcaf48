"""Unit tests for the reliability (Becker-style) attack and its CMA-style
multi-chain variant."""

import numpy as np
import pytest

from repro.learning.reliability_attack import CMAReliabilityAttack, ReliabilityAttack
from repro.pufs.cdc_xor import CDCXORArbiterPUF
from repro.pufs.crp import generate_crps
from repro.pufs.xor_arbiter import XORArbiterPUF


class TestReliabilityAttack:
    @pytest.mark.parametrize("seed", range(2))
    def test_breaks_noisy_2xor(self, seed):
        rng = np.random.default_rng(seed)
        puf = XORArbiterPUF(32, 2, np.random.default_rng(10 + seed), noise_sigma=0.4)
        attack = ReliabilityAttack(crps=6000, repetitions=15)
        result = attack.run(puf, rng)
        test = generate_crps(puf, 4000, np.random.default_rng(20 + seed))
        acc = np.mean(result.predict(test.challenges) == test.responses)
        assert acc > 0.9, f"seed {seed}: {acc:.3f}"
        assert result.reliability_correlation > 0.1

    def test_es_phase_locks_onto_one_chain(self):
        rng = np.random.default_rng(2)
        puf = XORArbiterPUF(32, 2, np.random.default_rng(12), noise_sigma=0.4)
        result = ReliabilityAttack(crps=6000, repetitions=15).run(puf, rng)
        # One of the recovered chain vectors must align strongly with one
        # of the true chains (up to sign).
        best = 0.0
        for recovered in (result.chain_a, result.chain_b):
            r = recovered / np.linalg.norm(recovered)
            for chain in puf.chains:
                t = chain.weights / np.linalg.norm(chain.weights)
                best = max(best, abs(float(r @ t)))
        assert best > 0.85

    def test_measurement_accounting(self):
        rng = np.random.default_rng(3)
        puf = XORArbiterPUF(16, 2, np.random.default_rng(13), noise_sigma=0.3)
        attack = ReliabilityAttack(crps=500, repetitions=5, generations=10)
        result = attack.run(puf, rng)
        assert result.oracle_measurements == 500 * 5

    def test_rejects_wrong_targets(self):
        rng = np.random.default_rng(4)
        attack = ReliabilityAttack(crps=100, repetitions=3, generations=2)
        with pytest.raises(ValueError, match="k = 2"):
            attack.run(XORArbiterPUF(16, 3, rng, noise_sigma=0.3))
        with pytest.raises(ValueError, match="noisy"):
            attack.run(XORArbiterPUF(16, 2, rng, noise_sigma=0.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            ReliabilityAttack(crps=5)
        with pytest.raises(ValueError):
            ReliabilityAttack(repetitions=1)
        with pytest.raises(ValueError):
            ReliabilityAttack(mu=4, lam=2)
        with pytest.raises(ValueError):
            ReliabilityAttack(refinement_rounds=-1)


class TestCMAReliabilityAttack:
    def test_breaks_noisy_2xor(self):
        puf = XORArbiterPUF(16, 2, np.random.default_rng(20), noise_sigma=0.4)
        attack = CMAReliabilityAttack(crps=3000, repetitions=9, generations=30)
        result = attack.run(puf, np.random.default_rng(21))
        test = generate_crps(puf, 1500, np.random.default_rng(22))
        acc = np.mean(result.predict(test.challenges) == test.responses)
        assert acc > 0.85, f"{acc:.3f}"
        assert result.chain_weights.shape == (2, 17)
        # k-1 slots are ES-peeled against the reliability signal; the
        # last chain is recovered by logistic on the residual labels.
        assert len(result.correlations) == 1

    def test_generalises_to_k3(self):
        puf = XORArbiterPUF(16, 3, np.random.default_rng(23), noise_sigma=0.4)
        attack = CMAReliabilityAttack(
            crps=4000, repetitions=9, generations=40, restarts=3
        )
        result = attack.run(puf, np.random.default_rng(24))
        test = generate_crps(puf, 1500, np.random.default_rng(25))
        acc = np.mean(result.predict(test.challenges) == test.responses)
        assert acc > 0.8, f"{acc:.3f}"

    def test_covers_cdc_xor_via_component_features(self):
        puf = CDCXORArbiterPUF(
            16, 2, np.random.default_rng(26), noise_sigma=0.4
        )
        attack = CMAReliabilityAttack(crps=3000, repetitions=9, generations=30)
        result = attack.run(puf, np.random.default_rng(27))
        assert result.shifts == puf.shifts
        c = generate_crps(puf, 1500, np.random.default_rng(28))
        acc = np.mean(result.predict(c.challenges) == c.responses)
        assert acc > 0.8, f"{acc:.3f}"

    def test_measurement_accounting(self):
        puf = XORArbiterPUF(12, 2, np.random.default_rng(29), noise_sigma=0.3)
        attack = CMAReliabilityAttack(crps=400, repetitions=5, generations=5)
        result = attack.run(puf, np.random.default_rng(30))
        assert result.oracle_measurements == 400 * 5

    def test_rejects_noiseless_device(self):
        quiet = XORArbiterPUF(12, 2, np.random.default_rng(31), noise_sigma=0.0)
        with pytest.raises(ValueError, match="noisy"):
            CMAReliabilityAttack(crps=100, repetitions=3, generations=2).run(
                quiet
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            CMAReliabilityAttack(crps=5)
        with pytest.raises(ValueError):
            CMAReliabilityAttack(repetitions=2)
        with pytest.raises(ValueError):
            CMAReliabilityAttack(batches=0)
        with pytest.raises(ValueError):
            CMAReliabilityAttack(repetitions=4, batches=9)
