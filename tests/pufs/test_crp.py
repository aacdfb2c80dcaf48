"""Unit tests for repro.pufs.crp."""

import numpy as np
import pytest

from repro.conformance.pytest_plugin import statistical_test
from repro.kernels.blocking import DEFAULT_BLOCK_SIZE
from repro.pufs.arbiter import ArbiterPUF
from repro.pufs.crp import (
    CRPSet,
    biased_challenges,
    generate_crps,
    low_weight_challenges,
    uniform_challenges,
)


class TestSamplers:
    def test_uniform_shape(self):
        c = uniform_challenges(100, 8, np.random.default_rng(0))
        assert c.shape == (100, 8)
        assert set(np.unique(c)) <= {-1, 1}

    @statistical_test(alpha=2e-8)
    def test_uniform_balance(self, stat):
        c = uniform_challenges(20_000, 4, stat.rng("sampler", 1))
        stat.check_bernoulli(
            int(np.sum(c == -1)), int(c.size), 0.5, name="uniform_fair_bits"
        )

    @statistical_test(alpha=2e-8)
    def test_biased_sampler(self, stat):
        # p=0.9 chance of bit 1 -> value -1, so the -1 count is
        # Binomial(mn, 0.9) exactly.
        sampler = biased_challenges(0.9)
        c = sampler(10_000, 6, stat.rng("sampler", 2))
        stat.check_bernoulli(
            int(np.sum(c == -1)), int(c.size), 0.9, name="biased_bits"
        )

    def test_biased_sampler_validates(self):
        with pytest.raises(ValueError):
            biased_challenges(1.5)

    def test_low_weight_sampler(self):
        sampler = low_weight_challenges(2)
        c = sampler(500, 10, np.random.default_rng(3))
        ones = np.sum(c == -1, axis=1)
        assert np.all(ones <= 2)

    def test_low_weight_validates(self):
        with pytest.raises(ValueError):
            low_weight_challenges(-1)


class TestCRPSet:
    def make(self, m=100, n=8, seed=0):
        rng = np.random.default_rng(seed)
        puf = ArbiterPUF(n, rng)
        return generate_crps(puf, m, rng)

    def test_len_and_n(self):
        crps = self.make(50, 12)
        assert len(crps) == 50
        assert crps.n == 12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CRPSet(np.ones((3, 2, 2), dtype=np.int8), np.ones(3, dtype=np.int8))
        with pytest.raises(ValueError):
            CRPSet(np.ones((3, 2), dtype=np.int8), np.ones(4, dtype=np.int8))

    def test_split_partitions(self):
        crps = self.make(100)
        train, test = crps.split(0.7, np.random.default_rng(1))
        assert len(train) == 70 and len(test) == 30
        combined = {tuple(c) for c in train.challenges} | {
            tuple(c) for c in test.challenges
        }
        original = {tuple(c) for c in crps.challenges}
        assert combined == original

    def test_split_validates(self):
        crps = self.make(10)
        with pytest.raises(ValueError):
            crps.split(1.0)

    def test_subsample(self):
        crps = self.make(100)
        sub = crps.subsample(25, np.random.default_rng(2))
        assert len(sub) == 25
        with pytest.raises(ValueError):
            crps.subsample(101)

    def test_take_prefix(self):
        crps = self.make(100)
        head = crps.take(10)
        assert np.array_equal(head.challenges, crps.challenges[:10])
        with pytest.raises(ValueError):
            crps.take(200)

    def test_save_load_roundtrip(self, tmp_path):
        crps = self.make(40)
        path = tmp_path / "crps.npz"
        crps.save(path)
        loaded = CRPSet.load(path)
        assert np.array_equal(loaded.challenges, crps.challenges)
        assert np.array_equal(loaded.responses, crps.responses)


class TestGenerateCRPs:
    def test_responses_match_puf(self):
        rng = np.random.default_rng(4)
        puf = ArbiterPUF(8, rng)
        crps = generate_crps(puf, 200, rng)
        assert np.array_equal(crps.responses, puf.eval(crps.challenges))

    @statistical_test(alpha=2e-8)
    def test_noisy_generation_differs(self, stat):
        rng = stat.rng("instance+draw", 5)
        puf = ArbiterPUF(32, rng, noise_sigma=0.8)
        crps = generate_crps(puf, 3000, rng, noisy=True)
        ideal = puf.eval(crps.challenges)
        flips = int(np.sum(crps.responses != ideal))
        assert flips > 0, "noisy generation produced no flips"
        stat.check_within(flips, 3000, 0.001, 0.29, name="noisy_crp_flip_band")

    def test_rejects_zero_count(self):
        puf = ArbiterPUF(8, np.random.default_rng(6))
        with pytest.raises(ValueError):
            generate_crps(puf, 0)

    def test_custom_sampler_used(self):
        rng = np.random.default_rng(7)
        puf = ArbiterPUF(8, rng)
        crps = generate_crps(puf, 100, rng, sampler=low_weight_challenges(1))
        assert np.all(np.sum(crps.challenges == -1, axis=1) <= 1)

    def test_respects_biased_sampler(self):
        rng = np.random.default_rng(4)
        puf = ArbiterPUF(12, rng)
        crps = generate_crps(
            puf, 400, np.random.default_rng(5), sampler=biased_challenges(1.0)
        )
        assert (crps.challenges == -1).all()

    def test_prefix_property(self):
        """A longer draw starts with the shorter draw, across a block
        boundary — the property the CRP store's prefix reuse relies on."""
        puf = ArbiterPUF(16, np.random.default_rng(9))
        short = generate_crps(puf, 200, np.random.default_rng(10))
        long = generate_crps(puf, DEFAULT_BLOCK_SIZE + 500, np.random.default_rng(10))
        np.testing.assert_array_equal(long.challenges[:200], short.challenges)
        np.testing.assert_array_equal(long.responses[:200], short.responses)

    def test_ideal_evaluation_is_blocked_and_equals_one_eval(self):
        puf = ArbiterPUF(10, np.random.default_rng(11))
        m = 2 * DEFAULT_BLOCK_SIZE + 123
        rows = []

        def recording_eval(challenges):
            rows.append(challenges.shape[0])
            return ArbiterPUF.eval(puf, challenges)

        puf.eval = recording_eval
        crps = generate_crps(puf, m, np.random.default_rng(12))
        assert rows == [DEFAULT_BLOCK_SIZE, DEFAULT_BLOCK_SIZE, 123]
        np.testing.assert_array_equal(
            crps.challenges, uniform_challenges(m, 10, np.random.default_rng(12))
        )
        np.testing.assert_array_equal(
            crps.responses, ArbiterPUF.eval(puf, crps.challenges)
        )

    def test_noisy_generation_is_one_draw_then_one_measurement(self):
        puf = ArbiterPUF(16, np.random.default_rng(13), noise_sigma=0.4)
        m = DEFAULT_BLOCK_SIZE + 77
        crps_rng, reference_rng = np.random.default_rng(14), np.random.default_rng(14)
        crps = generate_crps(puf, m, crps_rng, noisy=True)
        challenges = uniform_challenges(m, 16, reference_rng)
        np.testing.assert_array_equal(crps.challenges, challenges)
        np.testing.assert_array_equal(
            crps.responses, puf.eval_noisy(challenges, reference_rng)
        )
        assert crps_rng.bit_generator.state == reference_rng.bit_generator.state
