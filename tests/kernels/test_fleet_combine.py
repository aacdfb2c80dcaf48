"""The fleet's chain combine and Gram uniqueness equal their frozen paths.

``repro.kernels.fleet`` XORs an XOR instance's chains by one word
multiply when every instance has the same k in {2, 4, 8} and by column
position otherwise, and ``response_plane_uniqueness`` runs its Gram
matrix in float32; the ``reduceat`` combines and the float64 Gram they
replaced are frozen in ``tests/_reference.py``.  Uniform k from 1 to 9,
mixed chain counts (k = 1 included), 2-D and 3-D flag stacks, the
stacked measurements of ``noisy_measurements``, margins holding NaN,
signed zeros and infinities, planes with two columns, constant columns
and odd row counts, and the float64 Gram branch must all agree bit for
bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.backend import NumpyBackend, use_backend
from repro.kernels import fleet as fleet_kernels
from repro.kernels.fleet import (
    _negative_flags,
    noisy_measurements,
    sign_responses,
    xor_combine,
)
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
    rng = np.random.default_rng(seed)
    signs = (1 - 2 * rng.integers(0, 2, size=(m, sum(counts)))).astype(np.int8)
    offsets = offsets_of(counts)
    got = xor_combine(signs, offsets)
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
        super().__init__(threads=1)
        self.dtypes = []

    def gemm(self, features, weights):
        self.dtypes.append(weights.dtype)
        return super().gemm(features, weights)


@SETTINGS
@given(plane=planes())
def test_plane_uniqueness_equals_float64_gram(plane):
    backend = RecordingBackend()
    with use_backend(backend):
        got = metrics.response_plane_uniqueness(plane)
    assert backend.dtypes == [np.float32]
    assert got == naive_plane_uniqueness(plane)


@SETTINGS
@given(plane=planes(), bound=st.integers(1, 42))
def test_plane_uniqueness_float64_branch(plane, bound):
    """Planes of at least ``GRAM_FLOAT32_EXACT_ROWS`` rows take float64."""
    backend = RecordingBackend()
    with pytest.MonkeyPatch.context() as patch, use_backend(backend):
        patch.setattr(metrics, "GRAM_FLOAT32_EXACT_ROWS", bound)
        got = metrics.response_plane_uniqueness(plane)
    expected = np.float32 if plane.shape[0] < bound else np.float64
    assert backend.dtypes == [expected]
    assert got == naive_plane_uniqueness(plane)
