"""Unit tests for repro.pufs.noise and repro.pufs.metrics."""

import numpy as np
import pytest

from repro.booleanfuncs.encoding import random_pm1
from repro.conformance.pytest_plugin import statistical_test
from repro.pufs.arbiter import ArbiterPUF
from repro.pufs.bistable_ring import BistableRingPUF
from repro.pufs.cdc_xor import CDCXORArbiterPUF
from repro.pufs.interpose import InterposePUF
from repro.pufs.metrics import (
    expected_bias,
    reliability,
    response_bias,
    uniformity,
    uniqueness,
)
from repro.pufs.noise import (
    collect_stable_crps,
    majority_vote,
    stable_challenge_mask,
)
from repro.pufs.xor_arbiter import XORArbiterPUF

#: One noisy device per family: XOR and CDC-XOR take the one-draw override
#: of ``eval_noisy_repeated``, interpose its own ``eval_noisy``, arbiter and
#: BR the base class's methods.
DEVICES = {
    "arbiter": lambda rng: ArbiterPUF(8, rng, noise_sigma=0.5),
    "xor": lambda rng: XORArbiterPUF(8, 3, rng, noise_sigma=0.5),
    "cdc-xor": lambda rng: CDCXORArbiterPUF(8, 2, rng, noise_sigma=0.5),
    "interpose": lambda rng: InterposePUF(8, 1, 2, rng, noise_sigma=0.5),
    "br": lambda rng: BistableRingPUF(8, rng, noise_sigma=0.5),
}


class TestNoiseHelpers:
    def test_repeated_measurements_shape(self):
        puf = ArbiterPUF(8, np.random.default_rng(0), noise_sigma=0.5)
        c = random_pm1(8, 30, np.random.default_rng(1))
        meas = puf.eval_noisy_repeated(c, 7, np.random.default_rng(2))
        assert meas.shape == (7, 30) and meas.dtype == np.int8

    def test_repeated_measurements_validates(self):
        """Every family, and ``reliability`` through it, rejects a
        non-positive repetition count."""
        c = random_pm1(8, 5, np.random.default_rng(1))
        for make in DEVICES.values():
            puf = make(np.random.default_rng(0))
            for repetitions in (0, -1):
                with pytest.raises(ValueError, match="repetitions"):
                    puf.eval_noisy_repeated(c, repetitions)
                with pytest.raises(ValueError, match="repetitions"):
                    reliability(puf, m=5, repetitions=repetitions)

    @pytest.mark.parametrize("family", ["arbiter", "interpose"])
    def test_base_repeated_measurements_stack_eval_noisy(self, family):
        """The base method is ``repetitions`` sequential ``eval_noisy``
        calls: same rows, and the generator left in the same state."""
        puf = DEVICES[family](np.random.default_rng(3))
        c = random_pm1(8, 40, np.random.default_rng(4))
        method_rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)
        meas = puf.eval_noisy_repeated(c, 6, method_rng)
        stacked = np.stack([puf.eval_noisy(c, loop_rng) for _ in range(6)])
        np.testing.assert_array_equal(meas, stacked)
        assert meas.dtype == np.int8
        assert method_rng.bit_generator.state == loop_rng.bit_generator.state

    @statistical_test(alpha=2e-8)
    def test_majority_vote_denoises(self, stat):
        puf = ArbiterPUF(32, stat.rng("instance", 3), noise_sigma=0.4)
        c = random_pm1(32, 1000, stat.rng("challenges", 4))
        ideal = puf.eval(c)
        single = int(np.sum(puf.eval_noisy(c, stat.rng("single", 5)) != ideal))
        voted = int(
            np.sum(majority_vote(puf, c, repetitions=21, rng=stat.rng("voted", 6)) != ideal)
        )
        stat.check_two_sample_less(
            voted, 1000, single, 1000, name="majority_vote_denoises"
        )

    def test_majority_vote_noise_free_exact(self):
        puf = ArbiterPUF(16, np.random.default_rng(7))
        c = random_pm1(16, 200, np.random.default_rng(8))
        assert np.array_equal(majority_vote(puf, c, 3), puf.eval(c))

    def test_stable_mask_all_true_when_noise_free(self):
        puf = ArbiterPUF(16, np.random.default_rng(9))
        c = random_pm1(16, 100, np.random.default_rng(10))
        assert np.all(stable_challenge_mask(puf, c, 5))

    def test_stable_mask_filters_noisy(self):
        puf = ArbiterPUF(32, np.random.default_rng(11), noise_sigma=1.0)
        c = random_pm1(32, 2000, np.random.default_rng(12))
        mask = stable_challenge_mask(puf, c, 11, np.random.default_rng(13))
        assert 0.0 < np.mean(mask) < 1.0

    @statistical_test(alpha=2e-8)
    def test_collect_stable_crps(self, stat):
        puf = ArbiterPUF(32, stat.rng("instance", 14), noise_sigma=0.3)
        crps, frac = collect_stable_crps(
            puf, 500, repetitions=7, rng=stat.rng("collection", 15)
        )
        assert len(crps) == 500
        assert 0.0 < frac <= 1.0
        # Stable responses agree with the ideal function almost everywhere:
        # surviving challenges have large margins.
        agreements = int(np.sum(crps.responses == puf.eval(crps.challenges)))
        stat.check_at_least(agreements, 500, 0.98, name="stable_crp_agreement")

    def test_collect_stable_crps_raises_for_hopeless_device(self):
        puf = ArbiterPUF(16, np.random.default_rng(16), noise_sigma=500.0)
        with pytest.raises(RuntimeError):
            collect_stable_crps(
                puf, 1000, repetitions=11, rng=np.random.default_rng(17), max_batches=1
            )

    def test_collect_validates_target(self):
        puf = ArbiterPUF(8, np.random.default_rng(18))
        with pytest.raises(ValueError):
            collect_stable_crps(puf, 0)


class TestMetrics:
    def test_uniformity_and_bias(self):
        r = np.array([1, 1, -1, -1, -1, 1], dtype=np.int8)
        assert uniformity(r) == pytest.approx(0.5)
        assert response_bias(r) == pytest.approx(0.0)

    def test_uniformity_empty_raises(self):
        with pytest.raises(ValueError):
            uniformity(np.array([]))
        with pytest.raises(ValueError):
            response_bias(np.array([]))

    def test_reliability_perfect_when_noise_free(self):
        puf = ArbiterPUF(16, np.random.default_rng(19))
        assert reliability(puf, m=200, rng=np.random.default_rng(20)) == 1.0

    def test_reliability_degrades_with_noise(self):
        quiet = ArbiterPUF(32, np.random.default_rng(21), noise_sigma=0.1)
        loud = ArbiterPUF(32, np.random.default_rng(21), noise_sigma=2.0)
        rng = np.random.default_rng(22)
        assert reliability(loud, m=500, rng=rng) < reliability(quiet, m=500, rng=rng)

    def test_uniqueness_near_half(self):
        pufs = [ArbiterPUF(32, np.random.default_rng(s)) for s in range(30, 36)]
        u = uniqueness(pufs, m=2000, rng=np.random.default_rng(23))
        assert 0.35 < u < 0.65

    def test_uniqueness_validates(self):
        with pytest.raises(ValueError):
            uniqueness([ArbiterPUF(8, np.random.default_rng(0))])
        with pytest.raises(ValueError):
            uniqueness(
                [
                    ArbiterPUF(8, np.random.default_rng(0)),
                    ArbiterPUF(16, np.random.default_rng(1)),
                ]
            )

    def test_expected_bias_close_to_ideal_bias_when_quiet(self):
        puf = BistableRingPUF(16, np.random.default_rng(24), noise_sigma=0.0)
        c = random_pm1(16, 5000, np.random.default_rng(25))
        ideal = np.mean(puf.eval(c))
        eb = expected_bias(puf, m=5000, repetitions=3, rng=np.random.default_rng(26))
        assert eb == pytest.approx(ideal, abs=0.05)

    def test_expected_bias_shrinks_with_noise(self):
        # Heavy attribute noise pushes the expected function toward
        # unbiased coin flips.
        quiet = BistableRingPUF(16, np.random.default_rng(27), noise_sigma=0.0)
        loud = BistableRingPUF(16, np.random.default_rng(27), noise_sigma=50.0)
        rng = np.random.default_rng(28)
        assert abs(expected_bias(loud, rng=rng)) <= abs(expected_bias(quiet, rng=rng)) + 0.02
