"""Property-based invariants of fleet-stacked PUF evaluation.

Hypothesis drives the :class:`~repro.pufs.fleet.Fleet` API through the
shapes adversarial callers actually produce — a fleet of one, a single
challenge vector, n=1 stage devices, mixed chain counts across an XOR
fleet, non-contiguous and transposed challenge arrays — and checks the
contracts the conformance relations assert at fixed sizes:

* the stacked GEMM agrees with the per-instance loop on every response
  (arbiter/XOR/LTF weights replay the standalone constructors exactly);
* building twice from the same seed line is bit-identical
  (the SeedSequence fan-out is the fleet's entire identity);
* memory layout of the challenge array never changes the answer.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conformance import note_seed
from repro.pufs.fleet import Fleet, FleetSpec, eval_instance

SETTINGS = settings(max_examples=25, deadline=None)


def build_fleet(family, n, size, seed, k=1):
    note_seed(f"{family} fleet", seed)
    return Fleet.build(FleetSpec(family, n, size, k=k), seed)


def random_challenges(n, seed, m=32):
    note_seed("challenges", seed)
    rng = np.random.default_rng(seed)
    return (1 - 2 * rng.integers(0, 2, size=(m, n))).astype(np.int8)


def loop_eval(fleet, challenges):
    return np.column_stack(
        [eval_instance(p, challenges) for p in fleet.instances()]
    )


fleet_params = st.tuples(
    st.sampled_from(["arbiter", "xor", "br", "ltf"]),
    st.integers(min_value=4, max_value=24),  # challenge length
    st.integers(min_value=1, max_value=6),  # fleet size (includes N=1)
    st.integers(min_value=0, max_value=2**31),  # fleet seed
    st.integers(min_value=0, max_value=2**31),  # challenge seed
)


@SETTINGS
@given(fleet_params)
def test_fleet_matches_instance_loop(params):
    family, n, size, fleet_seed, chal_seed = params
    fleet = build_fleet(family, n, size, fleet_seed)
    challenges = random_challenges(n, chal_seed)
    plane = fleet.eval(challenges)
    assert plane.shape == (challenges.shape[0], size)
    assert plane.dtype == np.int8
    assert np.all(np.abs(plane) == 1)
    assert np.array_equal(plane, loop_eval(fleet, challenges))


@SETTINGS
@given(
    st.integers(min_value=4, max_value=16),
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=2**31),
)
def test_mixed_k_xor_fleet_matches_loop(n, ks, fleet_seed, chal_seed):
    fleet = build_fleet("xor", n, len(ks), fleet_seed, k=tuple(ks))
    challenges = random_challenges(n, chal_seed)
    assert np.array_equal(fleet.eval(challenges), loop_eval(fleet, challenges))


@SETTINGS
@given(fleet_params)
def test_build_twice_is_bit_identical(params):
    family, n, size, fleet_seed, chal_seed = params
    a = build_fleet(family, n, size, fleet_seed)
    b = build_fleet(family, n, size, fleet_seed)
    assert np.array_equal(a.weights, b.weights)
    assert a.seed_line() == b.seed_line()
    challenges = random_challenges(n, chal_seed)
    assert np.array_equal(a.eval(challenges), b.eval(challenges))


@SETTINGS
@given(
    st.sampled_from(["arbiter", "xor", "ltf"]),
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=2**31),
)
def test_layout_does_not_change_responses(family, n, fleet_seed, chal_seed):
    """Non-contiguous and transposed challenge arrays answer identically."""
    fleet = build_fleet(family, n, 3, fleet_seed)
    challenges = random_challenges(n, chal_seed)
    baseline = fleet.eval(challenges)
    buffer = np.zeros((64, n), dtype=np.int8)
    buffer[::2] = challenges
    strided = buffer[::2]
    assert not strided.flags["C_CONTIGUOUS"]
    assert np.array_equal(fleet.eval(strided), baseline)
    transposed = np.asfortranarray(challenges)
    assert np.array_equal(fleet.eval(transposed), baseline)


def test_single_challenge_vector_is_promoted():
    fleet = build_fleet("arbiter", 8, 4, seed=11)
    challenge = random_challenges(8, 5, m=1)
    as_vector = fleet.eval(challenge[0])
    assert as_vector.shape == (1, 4)
    assert np.array_equal(as_vector, fleet.eval(challenge))


@pytest.mark.parametrize("family", ["arbiter", "xor", "ltf"])
def test_one_stage_fleet(family):
    """n=1 devices: one challenge bit, still loop-identical."""
    fleet = build_fleet(family, 1, 3, seed=7, k=2 if family == "xor" else 1)
    challenges = np.array([[1], [-1]], dtype=np.int8)
    assert np.array_equal(fleet.eval(challenges), loop_eval(fleet, challenges))


def test_fleet_of_one_instance():
    fleet = build_fleet("xor", 6, 1, seed=3, k=4)
    challenges = random_challenges(6, 9)
    plane = fleet.eval(challenges)
    assert plane.shape == (challenges.shape[0], 1)
    assert np.array_equal(plane, loop_eval(fleet, challenges))


@SETTINGS
@given(
    st.integers(min_value=2, max_value=16),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**31),
)
def test_seed_fan_out_is_per_instance(n, size, fleet_seed):
    """Instance i's weights depend only on seed child 1+i: growing the
    fleet never perturbs the instances that were already in it."""
    small = build_fleet("arbiter", n, size, fleet_seed)
    grown = build_fleet("arbiter", n, size + 2, fleet_seed)
    assert np.array_equal(grown.weights[:, :size], small.weights)


def test_zero_noise_noisy_eval_equals_ideal():
    fleet = build_fleet("xor", 10, 3, seed=21, k=3)
    challenges = random_challenges(10, 2)
    rng = np.random.default_rng(0)
    assert np.array_equal(fleet.eval_noisy(challenges, rng), fleet.eval(challenges))
    assert np.array_equal(
        fleet.majority_vote(challenges, repetitions=5, rng=rng),
        fleet.eval(challenges),
    )


def test_wrong_challenge_width_raises():
    fleet = build_fleet("arbiter", 8, 2, seed=0)
    with pytest.raises(ValueError):
        fleet.eval(np.ones((4, 9), dtype=np.int8))
