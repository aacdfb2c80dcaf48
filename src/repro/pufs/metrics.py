"""Standard PUF quality metrics.

These are the figures of merit hardware papers report (uniformity,
reliability, uniqueness) plus the *expected bias* notion from [17] that the
paper invokes when reconciling the LMN results of [17] with the bound of
[9] (Section III-A, point 2).
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from repro.kernels.backend import get_backend
from repro.kernels.fleet import noisy_measurements
from repro.pufs.base import PUF
from repro.pufs.crp import uniform_challenges
from repro.pufs.fleet import Fleet
from repro.pufs.noise import repeated_measurements
from repro.telemetry.meter import unmetered

#: Response planes with fewer rows than this get a float32 Gram matrix in
#: :func:`response_plane_uniqueness`: binary32 holds every integer of
#: magnitude up to 2**24 exactly, and no Gram entry or partial sum of an
#: m-row ±1 plane exceeds m.
GRAM_FLOAT32_EXACT_ROWS = 1 << 24


def uniformity(responses: np.ndarray) -> float:
    """Fraction of -1 responses (i.e. logical 1s); ideal is 0.5."""
    responses = np.asarray(responses)
    if responses.size == 0:
        raise ValueError("need at least one response")
    # Equal to np.mean(responses == -1): its float64 sum of 0/1 values is
    # exact, and both divisions are correctly rounded.
    return np.count_nonzero(responses == -1) / responses.size


def response_bias(responses: np.ndarray) -> float:
    """E[f] estimated from responses; 0 is unbiased, +/-1 is constant."""
    responses = np.asarray(responses)
    if responses.size == 0:
        raise ValueError("need at least one response")
    return float(np.mean(responses))


def reliability(
    puf: PUF,
    m: int = 1000,
    repetitions: int = 11,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Average agreement of noisy measurements with the majority response.

    1.0 means perfectly stable; silicon arbiter PUFs are typically ~0.95+.
    """
    rng = np.random.default_rng() if rng is None else rng
    challenges = uniform_challenges(m, puf.n, rng)
    meas = repeated_measurements(puf, challenges, repetitions, rng)
    sums = np.sum(meas.astype(np.int32), axis=0)
    majority = np.where(sums >= 0, 1, -1)
    return float(np.mean(meas == majority[None, :]))


def uniqueness(
    pufs: Sequence[PUF],
    m: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Mean pairwise inter-chip Hamming distance of responses; ideal 0.5."""
    if len(pufs) < 2:
        raise ValueError("uniqueness needs at least two PUF instances")
    n = pufs[0].n
    if any(p.n != n for p in pufs):
        raise ValueError("all PUF instances must share the challenge length")
    rng = np.random.default_rng() if rng is None else rng
    challenges = uniform_challenges(m, n, rng)
    responses = [p.eval(challenges) for p in pufs]
    dists = []
    for i in range(len(pufs)):
        for j in range(i + 1, len(pufs)):
            dists.append(np.mean(responses[i] != responses[j]))
    return float(np.mean(dists))


def bit_aliasing(
    pufs: Sequence[PUF],
    m: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Per-challenge aliasing across instances: fraction of chips answering -1.

    Values near 0 or 1 flag challenges whose response is determined by the
    design rather than by manufacturing variation (an attacker predicts
    them without any per-chip learning); ideal is 0.5 everywhere.
    Returns a length-``m`` vector for ``m`` shared random challenges.
    """
    if len(pufs) < 2:
        raise ValueError("bit aliasing needs at least two PUF instances")
    n = pufs[0].n
    if any(p.n != n for p in pufs):
        raise ValueError("all PUF instances must share the challenge length")
    rng = np.random.default_rng() if rng is None else rng
    challenges = uniform_challenges(m, n, rng)
    responses = np.stack([p.eval(challenges) for p in pufs], axis=0)
    return np.mean(responses == -1, axis=0)


def _fleet_challenges(
    fleet: Fleet, m: int, rng: Optional[np.random.Generator]
) -> np.ndarray:
    if m <= 0:
        raise ValueError("challenge count must be positive")
    rng = np.random.default_rng() if rng is None else rng
    return uniform_challenges(m, fleet.n, rng)


def fleet_uniformity(
    fleet: Fleet,
    m: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Per-instance uniformity of a fleet — a length-N vector of the
    fraction of -1 responses, from one stacked evaluation (ideal 0.5).

    Quality metrics are not adversary queries, so the evaluation is
    unmetered (matching the per-instance metric helpers, which never
    recorded into the QueryMeter either).
    """
    challenges = _fleet_challenges(fleet, m, rng)
    with unmetered():
        responses = fleet.eval(challenges)
    return np.mean(responses == -1, axis=0)


def response_plane_uniqueness(responses: np.ndarray) -> float:
    """Mean pairwise inter-chip Hamming distance of an ``(m, N)`` ±1
    response plane.

    Computed from the plane's Gram matrix:
    ``disagreements_ij = (m - (R^T R)_ij) / 2``.  Every product is ±1 and
    every partial sum an integer of magnitude at most m, so the GEMM is
    exact in float32 while ``m < 2**24`` (:data:`GRAM_FLOAT32_EXACT_ROWS`)
    and runs in float64 from there.  Pairs are averaged in float64 in
    the same i < j order as :func:`uniqueness`, so for the same
    challenge draw the result is bit-identical to the per-instance loop.
    Only the i < j entries are converted, each by the same exact
    operations; their flat positions are cached per fleet size.
    """
    responses = np.asarray(responses)
    if responses.ndim != 2 or responses.shape[1] < 2:
        raise ValueError("uniqueness needs an (m, N >= 2) response plane")
    m, size = responses.shape
    dtype = np.float32 if m < GRAM_FLOAT32_EXACT_ROWS else np.float64
    r = responses.astype(dtype)
    gram = get_backend().gemm(r.T, r)
    upper = np.take(gram, _upper_pairs(size)).astype(np.float64)
    diff = (m - upper) / 2.0  # exact pairwise disagreement counts
    return float(np.mean(diff / m))


@functools.lru_cache(maxsize=16)
def _upper_pairs(size: int) -> np.ndarray:
    """Flat indices of the i < j entries of a ``(size, size)`` matrix, in
    ``np.triu_indices`` order (read-only: the array is shared)."""
    rows, cols = np.triu_indices(size, k=1)
    flat = rows * size + cols
    flat.flags.writeable = False
    return flat


def fleet_uniqueness(
    fleet: Fleet,
    m: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Mean pairwise inter-chip Hamming distance over the fleet; ideal 0.5.

    One stacked evaluation, then :func:`response_plane_uniqueness`.
    """
    if len(fleet) < 2:
        raise ValueError("uniqueness needs at least two PUF instances")
    challenges = _fleet_challenges(fleet, m, rng)
    with unmetered():
        responses = fleet.eval(challenges)
    return response_plane_uniqueness(responses)


def fleet_bit_aliasing(
    fleet: Fleet,
    m: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Per-challenge aliasing across the fleet (fraction of chips answering
    -1), from one stacked evaluation; ideal 0.5 everywhere."""
    if len(fleet) < 2:
        raise ValueError("bit aliasing needs at least two PUF instances")
    challenges = _fleet_challenges(fleet, m, rng)
    with unmetered():
        responses = fleet.eval(challenges)
    return np.mean(responses == -1, axis=1)


def fleet_reliability(
    fleet: Fleet,
    m: int = 1000,
    repetitions: int = 11,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Per-instance reliability of the whole fleet in one batched pass.

    A length-N vector: instance i's mean agreement of its noisy
    measurements with its per-challenge majority response, the same
    statistic :func:`reliability` computes per PUF.  The measurements
    are one :func:`~repro.kernels.fleet.noisy_measurements` pass (one
    margin GEMM, the noise stream of ``repetitions`` sequential
    :meth:`Fleet.eval_noisy` calls): a cell with ``c`` of ``repetitions``
    answers at -1 agrees ``c`` times with a -1 majority, else
    ``repetitions - c`` times.  Metric draws are not adversary queries,
    so nothing is metered.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    challenges = _fleet_challenges(fleet, m, rng)
    rng = np.random.default_rng() if rng is None else rng
    negatives, _ = noisy_measurements(
        fleet.margins(challenges),
        fleet.spec.noise_sigma,
        repetitions,
        rng,
        fleet.chain_offsets,
    )
    agree = np.where(2 * negatives > repetitions, negatives, repetitions - negatives)
    return np.sum(agree, axis=0) / (repetitions * challenges.shape[0])


def xor_reliability_prediction(chain_flip_rate: float, k: int) -> float:
    """Predicted reliability of a k-XOR PUF from the per-chain flip rate.

    Independent chain flips of rate p compose as
    ``P[XOR stable] = (1 + (1 - 2p)^k) / 2`` — the analytic reason XOR PUF
    reliability collapses with k, which in turn caps the k a designer can
    deploy and puts the bounds of Table I in tension with manufacturability
    (cf. the discussion in [17]).
    """
    if not 0.0 <= chain_flip_rate <= 0.5:
        raise ValueError("chain flip rate must be in [0, 0.5]")
    if k < 1:
        raise ValueError("k must be at least 1")
    return 0.5 * (1.0 + (1.0 - 2.0 * chain_flip_rate) ** k)


def expected_bias(
    puf: PUF,
    m: int = 5000,
    repetitions: int = 11,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Bias of the *noisy* response function — E[f~] in the sense of [17].

    The attribute noise makes the observable function a randomised one; its
    expectation over measurement noise and uniform challenges is the
    'expected bias' [17] uses to assess hardness.  Estimated by averaging
    noisy measurements.
    """
    rng = np.random.default_rng() if rng is None else rng
    challenges = uniform_challenges(m, puf.n, rng)
    meas = repeated_measurements(puf, challenges, repetitions, rng)
    return float(np.mean(meas))
