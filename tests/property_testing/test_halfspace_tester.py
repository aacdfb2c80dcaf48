"""Unit tests for the MORS halfspace tester."""

import math

import numpy as np
import pytest

from repro.booleanfuncs.encoding import random_pm1
from repro.booleanfuncs.function import BooleanFunction
from repro.booleanfuncs.fourier import spectral_weight_by_degree
from repro.booleanfuncs.ltf import LTF
from repro.property_testing.halfspace_tester import (
    HalfspaceTester,
    degree1_weight_ustat,
    expected_degree1_weight,
)
from repro.pufs.bistable_ring import BistableRingPUF
from repro.pufs.crp import CRPSet, generate_crps


class TestExpectedWeight:
    def test_unbiased_is_two_over_pi(self):
        assert expected_degree1_weight(0.0) == pytest.approx(2.0 / math.pi)

    def test_symmetric_in_bias(self):
        assert expected_degree1_weight(0.3) == pytest.approx(
            expected_degree1_weight(-0.3)
        )

    def test_extreme_bias_vanishes(self):
        assert expected_degree1_weight(1.0) == 0.0
        assert expected_degree1_weight(0.999) < 0.01

    def test_validates(self):
        with pytest.raises(ValueError):
            expected_degree1_weight(1.5)

    def test_matches_scipy_normal(self):
        """The stdlib ``NormalDist`` quantile and density agree with
        scipy's ``norm.ppf`` / ``norm.pdf`` over (-1, 1), and W stays an
        exactly even, finite function up to an ulp from either end."""
        from scipy import stats

        nus = np.concatenate([
            np.linspace(-0.999999, 0.999999, 2001),
            [1e-300, -1e-17, 0.5 - 1e-16, 0.9999999],
        ])
        for nu in nus:
            theta = stats.norm.ppf((1.0 - abs(nu)) / 2.0)
            expected = 4.0 * stats.norm.pdf(theta) ** 2
            got = expected_degree1_weight(nu)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert got == expected_degree1_weight(-nu)
        for nu in (np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)):
            assert 0.0 < expected_degree1_weight(nu) < 1e-29

    def test_matches_exact_weight_of_majority(self):
        # MAJ_n has W1 -> 2/pi; at n=9 it is already close.
        f = LTF(np.ones(9))
        w = spectral_weight_by_degree(f)[1]
        assert w == pytest.approx(2.0 / math.pi, abs=0.06)


class TestUStatistic:
    def test_matches_exact_w1(self):
        f = LTF(np.array([2.0, 1.0, 1.0, -1.0, 0.5, 1.5]))
        exact_w1 = spectral_weight_by_degree(f)[1]
        rng = np.random.default_rng(0)
        x = random_pm1(6, 200_000, rng)
        est = degree1_weight_ustat(x, f(x), rng)
        assert est == pytest.approx(exact_w1, abs=0.03)

    def test_parity_has_no_degree1_weight(self):
        f = BooleanFunction.parity_on(8, [0, 1, 2])
        rng = np.random.default_rng(1)
        x = random_pm1(8, 100_000, rng)
        est = degree1_weight_ustat(x, f(x), rng)
        assert abs(est) < 0.03

    def test_validates(self):
        with pytest.raises(ValueError):
            degree1_weight_ustat(np.ones((1, 3)), np.ones(1))


class TestHalfspaceTester:
    def test_accepts_random_ltfs(self):
        rng = np.random.default_rng(2)
        tester = HalfspaceTester(eps=0.1, delta=0.05)
        for seed in range(4):
            target = LTF.random(24, np.random.default_rng(seed))
            result = tester.test_function(24, target, m=60_000, rng=rng)
            assert result.accepted, result.summary()

    def test_rejects_parity(self):
        """Parity has zero degree-1 weight: maximally far from halfspaces."""
        rng = np.random.default_rng(3)
        target = BooleanFunction.parity_on(16, range(16))
        tester = HalfspaceTester(eps=0.1, delta=0.05)
        result = tester.test_function(16, target, m=60_000, rng=rng)
        assert not result.accepted
        assert result.farness_estimate > 0.2

    def test_rejects_br_puf(self):
        """The Table III effect: BR PUFs are not halfspace-consistent."""
        rng = np.random.default_rng(4)
        puf = BistableRingPUF(32, np.random.default_rng(5), interaction_scale=0.9)
        tester = HalfspaceTester(eps=0.05, delta=0.05)
        result = tester.test_function(32, puf.eval, m=120_000, rng=rng)
        assert not result.accepted

    def test_accepts_linear_br_puf_ablation(self):
        """With interactions off, the BR PUF is an LTF and must pass."""
        rng = np.random.default_rng(6)
        puf = BistableRingPUF(32, np.random.default_rng(7), interaction_scale=0.0)
        tester = HalfspaceTester(eps=0.1, delta=0.05)
        result = tester.test_function(32, puf.eval, m=60_000, rng=rng)
        assert result.accepted, result.summary()

    def test_small_sample_widens_threshold(self):
        rng = np.random.default_rng(8)
        target = LTF.random(16, np.random.default_rng(9))
        tester = HalfspaceTester(eps=0.05)
        small = tester.test_function(16, target, m=200, rng=rng)
        large = tester.test_function(16, target, m=50_000, rng=rng)
        assert small.threshold > large.threshold

    def test_crps_interface(self):
        rng = np.random.default_rng(10)
        puf = BistableRingPUF(16, np.random.default_rng(11))
        crps = generate_crps(puf, 20_000, rng)
        result = HalfspaceTester().test_crps(crps, rng)
        assert result.examples_used == 20_000

    def test_validates(self):
        with pytest.raises(ValueError):
            HalfspaceTester(eps=0.0)
        tester = HalfspaceTester()
        with pytest.raises(ValueError):
            tester.test_crps(
                CRPSet(np.ones((2, 3), dtype=np.int8), np.ones(2, dtype=np.int8))
            )
        with pytest.raises(ValueError):
            tester.test_function(4, lambda x: np.ones(len(x)), m=2)

    def test_summary_text(self):
        rng = np.random.default_rng(12)
        target = LTF.random(8, np.random.default_rng(13))
        result = HalfspaceTester().test_function(8, target, m=10_000, rng=rng)
        assert "W1=" in result.summary()
