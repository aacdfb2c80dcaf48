"""Unit tests for repro.pufs.bistable_ring and feed_forward."""

import contextlib
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.booleanfuncs.encoding import random_pm1
from repro.conformance.pytest_plugin import statistical_test
from repro.pufs.bistable_ring import BistableRingPUF
from repro.pufs.fleet import Fleet, FleetSpec
from repro.pufs.feed_forward import FeedForwardArbiterPUF


class TestBistableRingPUF:
    def test_deterministic(self):
        puf = BistableRingPUF(16, np.random.default_rng(0))
        c = random_pm1(16, 100, np.random.default_rng(1))
        assert np.array_equal(puf.eval(c), puf.eval(c))

    def test_zero_interaction_is_ltf(self):
        """At interaction_scale=0 the BR PUF must be exactly an LTF."""
        puf = BistableRingPUF(12, np.random.default_rng(2), interaction_scale=0.0)
        c = random_pm1(12, 500, np.random.default_rng(3))
        offset = puf.global_offset + np.sum(puf.bias_terms)
        linear = c.astype(float) @ puf.linear_weights + offset
        expected = np.where(linear >= 0, 1, -1)
        assert np.array_equal(puf.eval(c), expected)

    @statistical_test(alpha=2e-8)
    def test_interaction_changes_function(self, stat):
        c = random_pm1(32, 3000, stat.rng("challenges", 4))
        linear = BistableRingPUF(32, stat.rng("linear", 5), interaction_scale=0.0)
        nonlinear = BistableRingPUF(32, stat.rng("nonlinear", 5), interaction_scale=0.8)
        # Same seed, so the linear parts coincide; responses must differ on
        # a non-trivial fraction of challenges.
        disagreements = int(np.sum(linear.eval(c) != nonlinear.eval(c)))
        stat.check_at_least(disagreements, 3000, 0.05, name="interaction_distance")

    @statistical_test(alpha=2e-8)
    def test_not_too_biased(self, stat):
        # |mean| < 0.9 <=> the -1 rate sits in [0.05, 0.95].
        alpha_each = stat.split_alpha(5)
        for seed in range(5):
            puf = BistableRingPUF(64, stat.rng(f"instance {seed}", seed))
            c = random_pm1(64, 4000, stat.rng(f"challenges {seed}", 100 + seed))
            minus = int(np.sum(puf.eval(c) == -1))
            stat.check_within(
                minus, 4000, 0.05, 0.95, alpha=alpha_each, name=f"bias[{seed}]"
            )

    def test_pair_indices_include_ring_neighbours(self):
        puf = BistableRingPUF(10, np.random.default_rng(6))
        pairs = {tuple(p) for p in puf.pair_indices}
        for i in range(10):
            assert tuple(sorted((i, (i + 1) % 10))) in pairs

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BistableRingPUF(8, interaction_scale=-1.0)
        with pytest.raises(ValueError):
            BistableRingPUF(8, pair_density=2.0)
        with pytest.raises(ValueError):
            BistableRingPUF(8, triple_density=-0.5)

    @statistical_test(alpha=2e-8)
    def test_noise_model(self, stat):
        puf = BistableRingPUF(32, stat.rng("instance", 7), noise_sigma=1.0)
        c = random_pm1(32, 2000, stat.rng("challenges", 8))
        flips = int(np.sum(puf.eval(c) != puf.eval_noisy(c, stat.rng("noise", 9))))
        assert flips > 0, "sigma=1.0 produced no flips at all"
        stat.check_within(flips, 2000, 0.001, 0.29, name="br_flip_rate_band")


class TestFeedForwardArbiterPUF:
    def test_no_loops_matches_arbiter_recursion(self):
        puf = FeedForwardArbiterPUF(8, loops=(), rng=np.random.default_rng(0))
        c = random_pm1(8, 50, np.random.default_rng(1))
        # Manual recursion.
        diff = np.zeros(50)
        for i in range(8):
            bit = c[:, i]
            diff = np.where(
                bit > 0, diff + puf.straight_delays[i], -diff + puf.crossed_delays[i]
            )
        assert np.array_equal(puf.eval(c), np.where(diff >= 0, 1, -1))

    def test_loop_overrides_challenge_bit(self):
        puf = FeedForwardArbiterPUF(8, loops=[(2, 5)], rng=np.random.default_rng(2))
        c = random_pm1(8, 400, np.random.default_rng(3))
        c_flipped = c.copy()
        c_flipped[:, 5] = -c_flipped[:, 5]
        # Bit 5 is driven by the loop, so flipping it changes nothing.
        assert np.array_equal(puf.eval(c), puf.eval(c_flipped))

    def test_non_loop_bits_still_matter(self):
        puf = FeedForwardArbiterPUF(8, loops=[(2, 5)], rng=np.random.default_rng(4))
        c = random_pm1(8, 400, np.random.default_rng(5))
        c_flipped = c.copy()
        c_flipped[:, 0] = -c_flipped[:, 0]
        assert np.any(puf.eval(c) != puf.eval(c_flipped))

    def test_invalid_loops(self):
        with pytest.raises(ValueError):
            FeedForwardArbiterPUF(8, loops=[(5, 2)])
        with pytest.raises(ValueError):
            FeedForwardArbiterPUF(8, loops=[(0, 9)])
        with pytest.raises(ValueError):
            FeedForwardArbiterPUF(8, loops=[(0, 4), (1, 4)])

    def test_responses_pm1(self):
        puf = FeedForwardArbiterPUF(16, loops=[(3, 8), (5, 12)], rng=np.random.default_rng(6))
        r = puf.eval(random_pm1(16, 100, np.random.default_rng(7)))
        assert set(np.unique(r)) <= {-1, 1}


@contextlib.contextmanager
def time_limit(seconds):
    """Raise ``TimeoutError`` in the main thread after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    triple_density=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_small_rings_finish_construction(n, triple_density, seed):
    """Rings with fewer than ``max(1, int(triple_density * n))`` distinct
    triples used to redraw forever; the count is capped at C(n, 3)."""
    with time_limit(10):
        puf = BistableRingPUF(
            n, np.random.default_rng(seed), triple_density=triple_density
        )
        spec = FleetSpec("br", n, 2, triple_density=triple_density)
        fleet = Fleet.build(spec, seed)
    wanted = min(max(1, int(triple_density * n)), math.comb(n, 3))
    assert puf.triple_indices.shape == (wanted, 3)
    assert fleet.triple_indices.shape == (wanted, 3)
    c = random_pm1(n, 20, np.random.default_rng(seed))
    assert puf.eval(c).shape == (20,)
    assert fleet.eval(c).shape == (20, 2)
