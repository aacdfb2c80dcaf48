"""The fleet's chain combine and plane uniqueness equal their frozen paths.

``repro.kernels.fleet`` XORs an XOR instance's chains by one word
multiply when every instance has the same k in {2, 4, 8} and by column
position otherwise, and ``response_plane_uniqueness`` counts
disagreements from per-row sums; the ``reduceat`` combines and a
pair-by-pair disagreement count are frozen in ``tests/_reference.py``.
Uniform k from 1 to 9, mixed chain counts (k = 1 included), 2-D and 3-D
flag stacks, the stacked measurements of ``noisy_measurements``, margins
holding NaN, signed zeros and infinities, planes with two columns,
constant columns and odd row counts, int8 and float planes, planes too
wide for 32-bit counts, and the Python-int branch must all agree bit for
bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.backend import NumpyBackend, use_backend
from repro.kernels import fleet as fleet_kernels
from repro.kernels.fleet import _negative_flags, noisy_measurements, sign_responses
from repro.pufs import metrics
from tests._reference import (
    naive_negative_flags,
    naive_plane_uniqueness,
    naive_xor_combine,
)

SETTINGS = settings(max_examples=150, deadline=None)

chain_counts = st.lists(st.integers(1, 5), min_size=1, max_size=9)
# Every instance with the same k: the word path for k in {2, 4, 8}, the
# positional path for the rest.
uniform_counts = st.builds(lambda k, size: [k] * size, st.integers(1, 9),
                           st.integers(1, 9))
any_counts = st.one_of(chain_counts, uniform_counts)
seeds = st.integers(0, 2**32 - 1)


def offsets_of(counts):
    return np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.intp)


@SETTINGS
@given(counts=any_counts, lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
       m=st.integers(0, 7), seed=seeds)
def test_negative_flags_equal_bitwise_xor_reduceat(counts, lead, m, seed):
    rng = np.random.default_rng(seed)
    flags = rng.random(lead + (m, sum(counts))) < rng.random()
    offsets = offsets_of(counts)
    got = _negative_flags(flags, offsets)
    assert got.dtype == np.bool_ and got.flags.c_contiguous
    assert np.array_equal(got, naive_negative_flags(flags, offsets))
    assert _negative_flags(flags, None) is flags


@SETTINGS
@given(counts=any_counts,
       sigma=st.sampled_from([0.0, 0.3, 2.0]), reps=st.integers(1, 4),
       extra=st.integers(0, 2), m=st.integers(1, 5), seed=seeds)
def test_noisy_measurements_match_the_positional_combine(
    counts, sigma, reps, extra, m, seed
):
    """The stacked ``(count, M, K)`` flags ``noisy_measurements`` combines
    give the same votes and tail on either combine path, from the same
    noise stream."""
    margins = np.random.default_rng(seed).standard_normal((m, sum(counts)))
    margins[0, 0] = np.nan
    offsets = offsets_of(counts)

    def measure():
        rng = np.random.default_rng(seed + 1)
        return noisy_measurements(margins, sigma, reps, rng, offsets, extra)

    got = measure()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fleet_kernels, "_PARITY_WORDS", {})
        expected = measure()
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])


@SETTINGS
@given(counts=any_counts, m=st.integers(0, 9), seed=seeds)
def test_xor_combine_equals_multiply_reduceat(counts, m, seed):
    """``sign_responses`` XORs each instance's chains as ``reduceat`` of
    their ±1 signs multiplies them."""
    rng = np.random.default_rng(seed)
    signs = (1 - 2 * rng.integers(0, 2, size=(m, sum(counts)))).astype(np.int8)
    offsets = offsets_of(counts)
    got = sign_responses(signs, offsets)
    assert got.dtype == np.int8
    assert np.array_equal(got, naive_xor_combine(signs, offsets))


special = st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300])


@SETTINGS
@given(counts=any_counts, m=st.integers(1, 6), seed=seeds,
       picks=st.lists(special, min_size=1, max_size=12))
def test_chain_signs_equal_reference_on_special_margins(counts, m, seed, picks):
    """NaN answers -1, both zeros answer +1, infinities keep their sign."""
    rng = np.random.default_rng(seed)
    margins = rng.standard_normal((m, sum(counts)))
    cells = rng.integers(0, margins.size, size=len(picks))
    margins.flat[cells] = picks
    offsets = offsets_of(counts)
    signs = np.where(margins >= 0, 1, -1).astype(np.int8)
    assert np.array_equal(sign_responses(margins), signs)
    assert np.array_equal(
        sign_responses(margins, offsets), naive_xor_combine(signs, offsets)
    )


@st.composite
def planes(draw):
    """±1 planes: N >= 2 columns, odd and even m, some columns constant."""
    m = draw(st.integers(1, 41))
    size = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(seeds))
    plane = (1 - 2 * rng.integers(0, 2, size=(m, size))).astype(np.int8)
    for col in draw(st.lists(st.integers(0, size - 1), max_size=3)):
        plane[:, col] = draw(st.sampled_from([-1, 1]))
    return plane


class RecordingBackend(NumpyBackend):
    """The numpy backend, logging each gemm's operand dtype."""

    def __init__(self):
        super().__init__()
        self.dtypes = []

    def gemm(self, features, weights):
        self.dtypes.append(weights.dtype)
        return super().gemm(features, weights)


@SETTINGS
@given(plane=planes(), as_float=st.booleans())
def test_plane_uniqueness_equals_exact_mean(plane, as_float):
    """The row-sum identity is the correctly rounded exact mean, for int8
    and float planes alike, and issues no GEMM."""
    backend = RecordingBackend()
    with use_backend(backend):
        got = metrics.response_plane_uniqueness(
            plane.astype(np.float64) if as_float else plane
        )
    assert backend.dtypes == []
    assert got == naive_plane_uniqueness(plane)


def counted_plane(negatives, size, seed):
    """A ±1 plane whose row r holds ``negatives[r]`` -1s, shuffled, and the
    exact uniqueness that follows from the counts: a row with ``a`` -1s
    has ``a (N - a)`` disagreeing pairs."""
    plane = np.ones((len(negatives), size), dtype=np.int8)
    for row, a in zip(plane, negatives):
        row[:a] = -1
    plane = np.random.default_rng(seed).permuted(plane, axis=1)
    pairs = sum(a * (size - a) for a in negatives)
    return plane, pairs / (len(negatives) * (size * (size - 1) // 2))


@pytest.mark.parametrize(
    "m, size",
    [(257, 4096), (1, 70_000), (5, 32_767), (5, 32_768), (2, 65_536)],
)
def test_plane_uniqueness_wide_planes_do_not_overflow(m, size):
    """``m N**2`` beyond 2**32, and row sums on both sides of the int16
    accumulator's reach (N up to 32767), stay exact."""
    assert m * size * size > 2**32
    negatives = [int(a) for a in np.random.default_rng(size).integers(0, size + 1, m)]
    if m >= 3:
        negatives[:2] = [0, size]  # row sums of +N and -N
    plane, expected = counted_plane(negatives, size, m)
    assert metrics.response_plane_uniqueness(plane) == expected


@SETTINGS
@given(plane=planes())
def test_plane_uniqueness_python_int_branch(plane):
    """Past int64's reach the squares are added as Python ints; with the
    bound patched down, every plane takes that branch and agrees."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_INT64_MAX", 0)
        got = metrics.response_plane_uniqueness(plane)
    assert got == naive_plane_uniqueness(plane)
