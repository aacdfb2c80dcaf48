"""Frozen pure-python/numpy reference paths, kept for equivalence checks.

Three families live here:

* the historical per-subset loops the character kernel replaced (one
  Python-level iteration per subset, each calling ``np.prod`` over a
  gathered column slice), kept so the property tests can assert the
  kernel is bit-identical to the old behaviour and so
  ``benchmarks/test_kernel_speedup.py`` can time old-path vs kernel-path
  on the same data;
* independent re-implementations of the PUF response paths (parity
  transform, arbiter/XOR/BR margins, LTF margins) and the GF(2) Moebius
  butterfly, written as transparent per-row loops with ``math.fsum``
  accumulation, which the :mod:`repro.conformance` differential
  harnesses drive against the optimised production paths on shared
  seeded inputs;
* the dense fleet noise draw (one normal per measurement, challenge and
  chain), which the band-limited ``noisy_measurements`` must match in
  flip rate (the ``fleet_noise_band_matches_dense`` relation).

The references that only the tests and benchmarks use (per-instance
fleet seeding and weight draws, ``reduceat`` combines, the pair-by-pair
uniqueness count, the ``integers`` challenge draw, the scipy L-BFGS-B
LR fits, the MLP's per-parameter Adam loop, the reliability attack's
per-individual ES fitness and the query meter's set loop) live in
``tests/_reference.py``.

Do not optimise these.  Their slowness *is* the point: a reference must
stay simple enough to audit by eye.  Integer-valued paths (characters,
FWHT on +/-1 tables, Moebius, parity transform) must agree with the
production code bit for bit; float-margin paths use ``math.fsum`` —
correctly-rounded summation — so the production result must land within
a few ulp-scale tolerances of the reference, with sign agreement
guaranteed outside a tolerance-sized guard band around zero.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

Subset = Tuple[int, ...]


def naive_estimate_coefficients(
    x: np.ndarray, y: np.ndarray, subsets: Sequence[Subset]
) -> np.ndarray:
    """Per-subset ``np.mean(y * np.prod(x[:, S], axis=1))`` loop.

    The pre-kernel body of ``LMNLearner.fit_sample`` (and of KM's
    ``_coefficient``), verbatim: one gathered product per subset.
    """
    x = np.asarray(x)
    xf = x.astype(np.float64)
    yf = np.asarray(y, dtype=np.float64)
    estimates = np.empty(len(subsets))
    for j, subset in enumerate(subsets):
        if subset:
            char = np.prod(xf[:, list(subset)], axis=1)
        else:
            char = np.ones(x.shape[0])
        estimates[j] = float(np.mean(yf * char))
    return estimates


def naive_expansion_values(
    x: np.ndarray, spectrum: Dict[Subset, float]
) -> np.ndarray:
    """Per-subset accumulation of ``sum_S fhat(S) chi_S(x)``.

    The pre-kernel body of ``lmn._expansion_sign`` (sorted-items order),
    verbatim.
    """
    x = np.asarray(x)
    xf = x.astype(np.float64)
    acc = np.zeros(x.shape[0])
    for subset, coeff in sorted(spectrum.items()):
        if subset:
            acc += coeff * np.prod(xf[:, list(subset)], axis=1)
        else:
            acc += coeff
    return acc


def naive_sign_of_expansion(
    x: np.ndarray, spectrum: Dict[Subset, float]
) -> np.ndarray:
    """Sign of :func:`naive_expansion_values`, ties to +1, as int8."""
    values = naive_expansion_values(x, spectrum)
    return np.where(values >= 0, 1, -1).astype(np.int8)


def naive_walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """The pre-kernel copying butterfly (one table, two copies per level)."""
    v = np.asarray(values, dtype=np.float64).copy()
    m = v.size
    if m == 0 or m & (m - 1):
        raise ValueError("input length must be a power of two")
    h = 1
    while h < m:
        v = v.reshape(-1, 2, h)
        a = v[:, 0, :].copy()
        b = v[:, 1, :].copy()
        v[:, 0, :] = a + b
        v[:, 1, :] = a - b
        v = v.reshape(m)
        h *= 2
    return v / m


def naive_mobius_f2(values: np.ndarray) -> np.ndarray:
    """Textbook GF(2) Moebius transform: per-subset submask XOR sums.

    Entry ``s`` of the output is the XOR of input entries over all
    bitwise submasks of ``s`` — the definition, evaluated directly with
    a per-subset Python loop over submasks (``O(3^n)`` total), against
    which the in-place butterfly ``mobius_f2_inplace`` is verified.
    Input and output are 0/1 integer arrays over one length-``2^n`` axis.
    """
    v = np.asarray(values)
    m = v.size
    if m == 0 or m & (m - 1):
        raise ValueError("input length must be a power of two")
    flat = [int(x) & 1 for x in v.reshape(m)]
    out = np.zeros(m, dtype=v.dtype)
    for s in range(m):
        acc = 0
        sub = s
        while True:  # enumerate submasks of s, descending
            acc ^= flat[sub]
            if sub == 0:
                break
            sub = (sub - 1) & s
        out[s] = acc
    return out.reshape(v.shape)


# ----------------------------------------------------------------------
# PUF response reference paths (driven by repro.conformance.differential)
# ----------------------------------------------------------------------
def naive_parity_transform(challenges: np.ndarray) -> np.ndarray:
    """Per-row, per-stage arbiter feature map ``phi_i = prod_{j>=i} c_j``.

    Integer products of +/-1 entries, so the result is exact and must be
    bit-identical to the vectorised ``pufs.arbiter.parity_transform``.
    """
    challenges = np.asarray(challenges)
    if challenges.ndim == 1:
        challenges = challenges[None, :]
    m, n = challenges.shape
    phi = np.ones((m, n + 1), dtype=np.float64)
    for row in range(m):
        for i in range(n):
            prod = 1
            for j in range(i, n):
                prod *= int(challenges[row, j])
            phi[row, i] = float(prod)
    return phi


def naive_linear_margin(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-row correctly-rounded dot products via ``math.fsum``.

    The reference accumulator for every float-margin path: each row's
    margin is the exactly-rounded sum of the per-coordinate products, so
    any production dot product (BLAS gemv/gemm, fused or not) must agree
    to a few ulps of the row scale.
    """
    features = np.asarray(features, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    return np.array(
        [
            math.fsum(float(f) * float(w) for f, w in zip(row, weights))
            for row in features
        ]
    )


def naive_arbiter_margin(weights: np.ndarray, challenges: np.ndarray) -> np.ndarray:
    """Reference arbiter delay margin: fsum over parity-transformed stages."""
    return naive_linear_margin(naive_parity_transform(challenges), weights)


def naive_arbiter_response(weights: np.ndarray, challenges: np.ndarray) -> np.ndarray:
    """Reference arbiter response: sign of the fsum margin, ties to +1."""
    margin = naive_arbiter_margin(weights, challenges)
    return np.where(margin >= 0, 1, -1).astype(np.int8)


def naive_xor_arbiter_response(
    chain_weights: Sequence[np.ndarray], challenges: np.ndarray
) -> np.ndarray:
    """Reference k-XOR response: product of per-chain reference signs."""
    challenges = np.asarray(challenges)
    if challenges.ndim == 1:
        challenges = challenges[None, :]
    responses = np.ones(challenges.shape[0], dtype=np.int64)
    for weights in chain_weights:
        responses = responses * naive_arbiter_response(weights, challenges)
    return responses.astype(np.int8)


def naive_cdc_xor_response(
    chain_weights: Sequence[np.ndarray],
    shifts: Sequence[int],
    challenges: np.ndarray,
) -> np.ndarray:
    """Reference CDC k-XOR response: rotate, then per-chain signs.

    Challenge-Driven-Current XOR feeds chain ``i`` the master challenge
    rotated left by ``shifts[i]`` positions (element ``j`` of the
    component challenge is master element ``(j + shift) mod n``).  The
    rotation is built per row with a transparent index loop, then each
    chain's response comes from :func:`naive_arbiter_response`; the
    final response is their product.
    """
    challenges = np.asarray(challenges)
    if challenges.ndim == 1:
        challenges = challenges[None, :]
    m, n = challenges.shape
    responses = np.ones(m, dtype=np.int64)
    for weights, shift in zip(chain_weights, shifts):
        shift = int(shift) % n
        rotated = np.empty_like(challenges)
        for row in range(m):
            for j in range(n):
                rotated[row, j] = challenges[row, (j + shift) % n]
        responses = responses * naive_arbiter_response(weights, rotated)
    return responses.astype(np.int8)


def naive_br_margin(
    challenges: np.ndarray,
    bias_terms: np.ndarray,
    linear_weights: np.ndarray,
    global_offset: float,
    pair_indices: np.ndarray,
    pair_weights: np.ndarray,
    triple_indices: np.ndarray,
    triple_weights: np.ndarray,
) -> np.ndarray:
    """Reference Bistable Ring settling margin, one fsum per challenge.

    Accumulates the constant offset, every linear term, and every pair /
    triple interaction term of ``pufs.bistable_ring.BistableRingPUF`` in
    a single correctly-rounded ``math.fsum`` per row.
    """
    challenges = np.asarray(challenges, dtype=np.float64)
    margins = np.empty(challenges.shape[0])
    constant = [float(global_offset)] + [float(a) for a in bias_terms]
    for row in range(challenges.shape[0]):
        c = challenges[row]
        terms = list(constant)
        terms.extend(float(w) * float(c[i]) for i, w in enumerate(linear_weights))
        terms.extend(
            float(w) * float(c[i]) * float(c[j])
            for (i, j), w in zip(pair_indices, pair_weights)
        )
        terms.extend(
            float(w) * float(c[i]) * float(c[j]) * float(c[l])
            for (i, j, l), w in zip(triple_indices, triple_weights)
        )
        margins[row] = math.fsum(terms)
    return margins


def naive_ltf_margin(
    weights: np.ndarray, threshold: float, x: np.ndarray
) -> np.ndarray:
    """Reference LTF margin ``w . x - theta`` with fsum accumulation."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    return np.array(
        [
            math.fsum(
                [float(v) * float(w) for v, w in zip(row, weights)]
                + [-float(threshold)]
            )
            for row in x
        ]
    )


def naive_dense_noisy_measurements(
    margins: np.ndarray,
    noise_sigma: float,
    repetitions: int,
    rng: np.random.Generator,
    chain_offsets: Optional[np.ndarray] = None,
    extra: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """The pre-band ``noisy_measurements``, verbatim: one normal per
    (measurement, challenge, chain).

    ``repetitions + extra`` noisy fleet measurements from one noise stream.

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
    from repro.kernels.fleet import NOISE_DRAW_BYTES, _flags_to_signs, _negative_flags

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
