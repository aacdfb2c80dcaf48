"""Stacked-GEMM kernels for evaluating fleets of PUF instances at once.

The per-instance hot paths in this repo all look like
``[puf.eval(challenges) for puf in pufs]`` — one BLAS ``gemv`` (or worse,
one Python-level feature build) per instance.  The sweeps the paper's
Section IV argument needs run *populations*: thousands of instances per
cell.  These kernels restructure that work as one GEMM:

* build the ±1 feature matrix for the challenge batch **once** —
  ``(M, d)`` instead of N times;
* stack the N instances' weight vectors into a ``(d, N)`` matrix;
* one ``(M, d) @ (d, N)`` multiply yields every margin of every
  instance.

Sign-domain post-processing is exact and batched over the whole
``(M, N)`` plane: XOR combination across chains is a ±1 product for one
ideal measurement; repeated noisy measurements
(:func:`noisy_measurements`) draw all their noise slabs in one stream,
decide signs as bool flags, XOR chains with ``reduceat`` and vote by
counting -1 answers.

This module is part of the ``repro.kernels`` leaf package: it imports
numpy and :mod:`repro.kernels.backend` and nothing else from ``repro``.
Query metering and the ``Fleet`` object API live in
:mod:`repro.pufs.fleet`, which builds on these kernels.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.backend import KernelBackend, feature_dtype, get_backend

__all__ = [
    "parity_features",
    "linear_features",
    "br_features",
    "fleet_margins",
    "sign_responses",
    "xor_combine",
    "noisy_sign_responses",
    "noisy_measurements",
    "majority_from_negatives",
    "batched_majority_vote",
    "NOISE_DRAW_BYTES",
]

#: Largest noise draw :func:`noisy_measurements` makes at once, in bytes.
#: Bigger fleets draw whole measurements in groups under it, in stream
#: order, so the values never depend on it.
NOISE_DRAW_BYTES = 1 << 23


# ----------------------------------------------------------------------
# Feature construction — done once per challenge batch, not per instance.
# ----------------------------------------------------------------------
def parity_features(challenges: np.ndarray, tier: str = "float64") -> np.ndarray:
    """The arbiter parity transform as an ``(M, n+1)`` tier-dtype matrix.

    Column ``i`` is ``prod_{j >= i} c_j``; the last column is the
    constant 1 multiplying the bias weight.  All entries are ±1, so the
    transform is exact in every tier (int8 cumprod of ±1 cannot
    overflow; ±1 is exact in binary32/binary64) and the int8 tier's
    features are value-identical to float64's.
    """
    dtype = feature_dtype(tier)
    challenges = np.asarray(challenges)
    if challenges.ndim == 1:
        challenges = challenges[None, :]
    m, n = challenges.shape
    phi = np.ones((m, n + 1), dtype=dtype)
    flipped = np.ascontiguousarray(challenges[:, ::-1]).astype(dtype, copy=False)
    phi[:, :n] = np.cumprod(flipped, axis=1)[:, ::-1]
    return phi


def linear_features(challenges: np.ndarray, tier: str = "float64") -> np.ndarray:
    """``(M, n+1)`` features for plain LTF fleets: the challenge plus a
    constant column carrying each instance's (negated) threshold."""
    dtype = feature_dtype(tier)
    challenges = np.asarray(challenges)
    if challenges.ndim == 1:
        challenges = challenges[None, :]
    m, n = challenges.shape
    feats = np.ones((m, n + 1), dtype=dtype)
    feats[:, :n] = np.ascontiguousarray(challenges).astype(dtype, copy=False)
    return feats


def br_features(
    challenges: np.ndarray,
    pair_indices: np.ndarray,
    triple_indices: np.ndarray,
    tier: str = "float64",
) -> np.ndarray:
    """``(M, 1 + n + P + T)`` monomial features for a BR fleet.

    Layout: ``[1, c_0..c_{n-1}, c_i c_j for (i,j) in pairs,
    c_i c_j c_l for (i,j,l) in triples]``.  Every entry is a ±1
    monomial, exact in all tiers.  The pair/triple index sets are a
    *fleet-level* (design) property shared by all instances so the
    feature matrix can be built once — per-instance manufacturing
    variation lives entirely in the weight columns.
    """
    dtype = feature_dtype(tier)
    challenges = np.asarray(challenges)
    if challenges.ndim == 1:
        challenges = challenges[None, :]
    c = np.ascontiguousarray(challenges).astype(dtype, copy=False)
    m, n = c.shape
    pair_indices = np.asarray(pair_indices, dtype=np.int64).reshape(-1, 2)
    triple_indices = np.asarray(triple_indices, dtype=np.int64).reshape(-1, 3)
    d = 1 + n + len(pair_indices) + len(triple_indices)
    feats = np.ones((m, d), dtype=dtype)
    feats[:, 1 : 1 + n] = c
    lo = 1 + n
    if len(pair_indices):
        pi, pj = pair_indices[:, 0], pair_indices[:, 1]
        feats[:, lo : lo + len(pair_indices)] = c[:, pi] * c[:, pj]
    lo += len(pair_indices)
    if len(triple_indices):
        ti, tj, tl = triple_indices[:, 0], triple_indices[:, 1], triple_indices[:, 2]
        feats[:, lo:] = c[:, ti] * c[:, tj] * c[:, tl]
    return feats


# ----------------------------------------------------------------------
# The stacked GEMM and its sign-domain post-processing.
# ----------------------------------------------------------------------
def fleet_margins(
    features: np.ndarray,
    weights: np.ndarray,
    backend: Optional[KernelBackend] = None,
) -> np.ndarray:
    """``(M, d) @ (d, N)`` margins for N stacked instances (or chains).

    Routed through the installed :class:`KernelBackend` (or the one
    passed explicitly), which owns dtype upcasting and thread tiling.
    """
    backend = get_backend() if backend is None else backend
    return backend.gemm(np.asarray(features), np.asarray(weights))


def sign_responses(margins: np.ndarray) -> np.ndarray:
    """±1 ``int8`` responses with the repo-wide tie rule (0 maps to +1)."""
    return _flags_to_signs(~(np.asarray(margins) >= 0))


def xor_combine(chain_signs: np.ndarray, chain_offsets: np.ndarray) -> np.ndarray:
    """Combine per-chain signs into per-instance XOR responses.

    ``chain_signs`` is ``(M, total_chains)`` ±1 int8 with instance i's
    chains stored contiguously starting at ``chain_offsets[i]``;
    ``reduceat`` multiplies each instance's slice, supporting a
    *mixed-k* fleet (every instance may have a different chain count)
    without Python loops.  Products of ±1 cannot overflow int8.
    """
    chain_signs = np.asarray(chain_signs)
    chain_offsets = np.asarray(chain_offsets, dtype=np.intp)
    if chain_signs.ndim != 2:
        raise ValueError(f"chain_signs must be 2-D, got shape {chain_signs.shape}")
    return np.multiply.reduceat(chain_signs, chain_offsets, axis=1).astype(np.int8)


def noisy_sign_responses(
    margins: np.ndarray,
    noise: Optional[np.ndarray] = None,
    chain_offsets: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One noisy measurement of the whole fleet from explicit noise.

    ``margins`` is ``(M, K)`` — K instances, or K chains for XOR fleets
    (then ``chain_offsets`` selects the per-instance slices).  ``noise``
    must broadcast against it; passing the noise explicitly is what lets
    the conformance relations feed the *same* tensor to this batched
    path and to the per-instance reference loop and demand bit-identical
    votes.
    """
    margins = np.asarray(margins)
    if noise is not None:
        margins = margins + noise
    signs = sign_responses(margins)
    if chain_offsets is not None:
        signs = xor_combine(signs, chain_offsets)
    return signs


def noisy_measurements(
    margins: np.ndarray,
    noise_sigma: float,
    repetitions: int,
    rng: np.random.Generator,
    chain_offsets: Optional[np.ndarray] = None,
    extra: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """``repetitions + extra`` noisy fleet measurements from one noise stream.

    ``margins`` is ``(M, K)`` (K instances, or K chains for XOR fleets
    with ``chain_offsets``).  Returns ``(negatives, tail)``:
    ``negatives`` is the ``(M, N)`` int32 count of -1 answers among the
    first ``repetitions`` measurements, ``tail`` the ``(extra, M, N)``
    ±1 int8 answers of the ``extra`` measurements that follow.

    The noise is one ``(repetitions + extra, M, K)`` C-order normal draw
    — the same stream as that many sequential ``(M, K)`` slabs — split
    into whole-measurement groups of at most :data:`NOISE_DRAW_BYTES`
    each so a large fleet never allocates the whole tensor.  Signs are
    decided in the bool domain — ``noise >= -margins`` is exactly
    ``margins + noise >= 0`` (the sum's rounding cannot cross zero), and
    a NaN margin still answers -1 — and chains combine by XOR of their
    -1 flags.
    With ``noise_sigma <= 0`` nothing is drawn and every measurement is
    the ideal response.
    """
    margins = np.asarray(margins)
    if noise_sigma <= 0:
        ideal = _negative_flags(~(margins >= 0), chain_offsets)
        tail = np.broadcast_to(_flags_to_signs(ideal), (extra,) + ideal.shape)
        return ideal.astype(np.int32) * np.int32(repetitions), tail.copy()
    width = margins.shape[1] if chain_offsets is None else len(chain_offsets)
    negatives = np.zeros((margins.shape[0], width), dtype=np.int32)
    tail = np.empty((extra,) + negatives.shape, dtype=np.int8)
    threshold = -margins
    total = repetitions + extra
    group = max(1, NOISE_DRAW_BYTES // max(1, 8 * margins.size))
    for lo in range(0, total, group):
        shape = (min(group, total - lo),) + margins.shape
        noise = rng.normal(0.0, noise_sigma, size=shape)
        flags = _negative_flags(~(noise >= threshold), chain_offsets)
        # flags[:split] are votes; flags[split:] are tail[start:...].
        split = min(len(flags), max(0, repetitions - lo))
        if split:
            negatives += flags[:split].sum(axis=0, dtype=np.int32)
        if split < len(flags):
            start = lo + split - repetitions
            tail[start : start + len(flags) - split] = _flags_to_signs(flags[split:])
    return negatives, tail


def majority_from_negatives(negatives: np.ndarray, repetitions: int) -> np.ndarray:
    """±1 int8 majority over ``repetitions`` measurements with ``negatives``
    -1 answers; ties (even ``repetitions``) break toward +1."""
    return _flags_to_signs(2 * np.asarray(negatives) > repetitions)


def batched_majority_vote(
    margins: np.ndarray,
    noise_sigma: float,
    repetitions: int,
    rng: np.random.Generator,
    chain_offsets: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Majority vote over ``repetitions`` noisy fleet measurements.

    One :func:`noisy_measurements` pass: the vote draws the same noise
    stream as ``repetitions`` sequential ``(M, K)`` slabs and counts -1
    answers per cell.  Ties (even counts) break toward +1, matching
    :func:`repro.pufs.noise.majority_vote`.
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    negatives, _ = noisy_measurements(
        margins, noise_sigma, repetitions, rng, chain_offsets
    )
    return majority_from_negatives(negatives, repetitions)


def _negative_flags(
    flags: np.ndarray, chain_offsets: Optional[np.ndarray]
) -> np.ndarray:
    """Per-instance -1 flags from per-column flags on the last axis: an
    XOR instance answers -1 iff an odd number of its chains do."""
    if chain_offsets is None:
        return flags
    offsets = np.asarray(chain_offsets, dtype=np.intp)
    return np.bitwise_xor.reduceat(flags, offsets, axis=-1)


def _flags_to_signs(flags: np.ndarray) -> np.ndarray:
    """-1 where ``flags`` is set, +1 elsewhere, as int8."""
    return 1 - 2 * np.asarray(flags).view(np.int8)
