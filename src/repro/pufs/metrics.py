"""Standard PUF quality metrics.

These are the figures of merit hardware papers report (uniformity,
reliability, uniqueness) plus the *expected bias* notion from [17] that the
paper invokes when reconciling the LMN results of [17] with the bound of
[9] (Section III-A, point 2).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.kernels.fleet import noisy_measurements
from repro.pufs.base import PUF
from repro.pufs.crp import uniform_challenges
from repro.pufs.fleet import Fleet
from repro.pufs.noise import repeated_measurements
from repro.telemetry.meter import unmetered

_INT16_MAX = int(np.iinfo(np.int16).max)
_INT64_MAX = int(np.iinfo(np.int64).max)


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
    """Mean pairwise inter-chip Hamming distance of responses; ideal 0.5.

    The integer disagreement counts of all pairs are added up and divided
    once, so the value is the exact mean, rounded once.
    """
    if len(pufs) < 2:
        raise ValueError("uniqueness needs at least two PUF instances")
    if m <= 0:
        raise ValueError("challenge count must be positive")
    n = pufs[0].n
    if any(p.n != n for p in pufs):
        raise ValueError("all PUF instances must share the challenge length")
    rng = np.random.default_rng() if rng is None else rng
    challenges = uniform_challenges(m, n, rng)
    responses = [p.eval(challenges) for p in pufs]
    disagreements = 0
    for i in range(len(pufs)):
        for j in range(i + 1, len(pufs)):
            disagreements += int(np.count_nonzero(responses[i] != responses[j]))
    pairs = len(pufs) * (len(pufs) - 1) // 2
    return disagreements / (pairs * challenges.shape[0])


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

    Counted per challenge row, in O(mN) and without a Gram matrix: a row
    with sum ``s`` has ``(N + s) / 2`` instances at +1 and ``(N - s) / 2``
    at -1, so ``(N**2 - s**2) / 4`` of its instance pairs disagree, and
    the mean over the ``N (N - 1) / 2`` pairs and ``m`` rows is
    ``(m N**2 - sum(s**2)) / (2 m N (N - 1))``.  Row sums are integers
    of magnitude at most N, accumulated in int16 while that holds (every
    partial sum is exact) and in int64 beyond; ``sum(s**2)`` is an int64
    dot product while ``m N**2`` fits in int64 and a Python-int sum
    beyond.  The result is the exact rational mean, rounded once by one
    int/int division, so it equals :func:`uniqueness` for the same
    challenge draw.  Any ±1 dtype is accepted (the int8 plane of
    :meth:`Fleet.eval` or a float plane).
    """
    responses = np.asarray(responses)
    if responses.ndim != 2 or responses.shape[1] < 2:
        raise ValueError("uniqueness needs an (m, N >= 2) response plane")
    m, size = responses.shape
    if m == 0:
        raise ValueError("uniqueness needs at least one challenge row")
    acc = np.int16 if size <= _INT16_MAX else np.int64
    sums = responses.sum(axis=1, dtype=acc).astype(np.int64)
    agreeing = m * size * size  # sum(s**2) of a plane with no disagreement
    if agreeing <= _INT64_MAX:
        squares = int(sums @ sums)
    else:  # sum(s**2) could overflow int64: add the squares as Python ints
        squares = sum(s * s for s in sums.tolist())
    return (agreeing - squares) / (2 * m * size * (size - 1))


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
