"""The raw-word challenge draw equals the ``integers`` draw it replays.

On a PCG64 generator :func:`repro.pufs.crp.uniform_challenges` reads the
top bit of each 32-bit half of raw words and carries PCG64's buffered
half-word through the generator state.  The values must equal the
frozen ``(1 - 2 * rng.integers(0, 2, size)).astype(np.int8)`` for m·n
of 0, odd and even, with and without a buffered half-word before the
call; afterwards the generator state must be equal too, so the next
``integers``, ``random`` and ``normal`` draws agree.  Other bit
generators take the ``integers`` path itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pufs.crp import uniform_challenges
from tests._reference import naive_uniform_challenges

SETTINGS = settings(max_examples=200, deadline=None)


def generator_pair(seed, buffered, bit_generator=np.random.PCG64):
    """Two generators in one state; ``buffered`` 32-bit draws first, so an
    odd count leaves PCG64 holding a buffered half-word."""
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    for rng in pair:
        rng.integers(0, 2, size=buffered)
    return pair


def same_state(a, b):
    """Equal bit-generator states (nested dicts, some holding arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def assert_same_draw_and_state(fast, slow, m, n):
    got = uniform_challenges(m, n, fast)
    expected = naive_uniform_challenges(m, n, slow)
    assert got.dtype == expected.dtype == np.int8
    assert got.shape == expected.shape == (m, n)
    assert np.array_equal(got, expected)
    assert same_state(fast.bit_generator.state, slow.bit_generator.state)
    for high, size in [(2, 7), (1000, 3)]:
        assert np.array_equal(
            fast.integers(0, high, size=size), slow.integers(0, high, size=size)
        )
    assert fast.random() == slow.random()
    assert np.array_equal(fast.normal(size=5), slow.normal(size=5))


@pytest.mark.parametrize("buffered", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "m, n",
    [(0, 0), (0, 5), (4, 0), (1, 1), (3, 5), (5, 3), (2, 2), (4, 6), (2000, 64)],
    ids=lambda v: str(v),
)
def test_draw_and_state_equal_integers(m, n, buffered):
    """m·n of 0, odd and even; 0 or 2 (no half-word waiting) and 1 or 3
    (one waiting) 32-bit draws before the call."""
    fast, slow = generator_pair(12345, buffered)
    assert fast.bit_generator.state["has_uint32"] == buffered % 2
    assert_same_draw_and_state(fast, slow, m, n)


@SETTINGS
@given(
    m=st.integers(0, 40),
    n=st.integers(0, 40),
    buffered=st.integers(0, 5),
    seed=st.integers(0, 2**64 - 1),
)
def test_draw_and_state_equal_integers_sweep(m, n, buffered, seed):
    fast, slow = generator_pair(seed, buffered)
    assert_same_draw_and_state(fast, slow, m, n)


def test_consecutive_draws_carry_the_buffered_half():
    """Odd draws back to back hand the buffered half-word on each time."""
    fast, slow = generator_pair(7, 0)
    for m, n in [(3, 3), (1, 5), (2, 7), (1, 1), (4, 4)]:
        assert_same_draw_and_state(fast, slow, m, n)


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
)
@pytest.mark.parametrize("buffered", [0, 1])
def test_other_bit_generators_keep_the_integers_path(bit_generator, buffered):
    fast, slow = generator_pair(99, buffered, bit_generator)
    assert_same_draw_and_state(fast, slow, 9, 7)


def test_negative_sizes_raise_like_integers():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        uniform_challenges(-1, 4, rng)
