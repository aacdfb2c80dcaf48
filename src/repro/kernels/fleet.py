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
``(M, N)`` plane.  Signs are decided once as bool "answers -1" flags at
chain width; an XOR instance's flag is the XOR of its chains' flags —
counted by one multiply over a word view of the flags when every
instance has the same k in {2, 4, 8}, else combined by column position
(one gather of every instance's first chain, then one XOR per further
chain index, over the instances that have it) — and flags become ±1
int8 once, at instance width.  Repeated noisy measurements
(:func:`noisy_measurements`) draw noise only where it can flip an
answer: a chain whose margin lies more than :data:`NOISE_BAND` (t =
8.3) noise standard deviations from the threshold keeps its ideal sign,
which moves each chain's answer distribution by a total-variation
distance below 2·Phi(-t) ~ 1e-16 per measurement.  The chains inside
the band draw all their measurements in one stream; chains combine the
same way and votes count -1 answers.

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
    "NOISE_BAND",
]

#: Largest noise draw (or flag plane) :func:`noisy_measurements` makes at
#: once, in bytes.  Bigger fleets draw whole measurements in groups under
#: it, in stream order, so the values never depend on it.
NOISE_DRAW_BYTES = 1 << 23

#: Half-width of the noise band, in noise standard deviations: only chains
#: with ``|margin| < NOISE_BAND * sigma`` draw measurement noise.  Outside
#: it a dense draw flips a chain with probability below Phi(-8.3) ~ 5e-17.
NOISE_BAND = 8.3


# ----------------------------------------------------------------------
# Feature construction — done once per challenge batch, not per instance.
# ----------------------------------------------------------------------
def parity_features(challenges: np.ndarray, tier: str = "float64") -> np.ndarray:
    """The arbiter parity transform as an ``(M, n+1)`` tier-dtype matrix.

    Column ``i`` is ``prod_{j >= i} c_j``; the last column is the
    constant 1 multiplying the bias weight.  All entries are ±1, so the
    products are taken in int8 (a cumprod of ±1 cannot overflow) and
    cast to the tier dtype once; ±1 is exact in binary32/binary64, so
    every tier's features are value-identical to float64's.
    """
    dtype = feature_dtype(tier)
    challenges = np.asarray(challenges)
    if challenges.ndim == 1:
        challenges = challenges[None, :]
    m, n = challenges.shape
    phi = np.ones((m, n + 1), dtype=dtype)
    flipped = np.asarray(challenges[:, ::-1], dtype=np.int8)
    phi[:, :n] = np.cumprod(flipped, axis=1, dtype=np.int8)[:, ::-1]
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


def sign_responses(
    margins: np.ndarray, chain_offsets: Optional[np.ndarray] = None
) -> np.ndarray:
    """±1 ``int8`` responses with the repo-wide tie rule (0 maps to +1).

    With ``chain_offsets``, ``margins`` holds XOR chains (instance i's
    chains contiguous from ``chain_offsets[i]``) and the result is the
    per-instance XOR response: signs are decided as bool flags at chain
    width, combined by :func:`_negative_flags` and converted to int8
    once, at instance width.  A NaN margin answers -1.
    """
    flags = _negative_flags(~(np.asarray(margins) >= 0), chain_offsets)
    return _flags_to_signs(flags)


def xor_combine(chain_signs: np.ndarray, chain_offsets: np.ndarray) -> np.ndarray:
    """Combine per-chain signs into per-instance XOR responses.

    ``chain_signs`` is ``(M, total_chains)`` ±1 int8 with instance i's
    chains stored contiguously starting at ``chain_offsets[i]``; every
    instance may have a different chain count (a *mixed-k* fleet).  An
    instance answers -1 iff an odd number of its chains do, so this is
    the ±1 product of each slice, computed as an XOR of -1 flags.
    """
    chain_signs = np.asarray(chain_signs)
    if chain_signs.ndim != 2:
        raise ValueError(f"chain_signs must be 2-D, got shape {chain_signs.shape}")
    return _flags_to_signs(_negative_flags(chain_signs < 0, chain_offsets))


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
    return sign_responses(margins, chain_offsets)


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

    Noise is drawn only for the *band*: the chains with ``|margin| <
    NOISE_BAND * noise_sigma``, ``n_band`` of them in C order.  Every
    other chain answers its ideal sign in every measurement.  A dense
    draw would flip it with probability ``Phi(-|margin| / noise_sigma)
    < Phi(-8.3)`` ~ 5e-17, so per chain and measurement the answer's
    total-variation distance to the dense kernel's is below
    ``2 Phi(-8.3)`` ~ 1e-16.  A NaN margin fails the band test and
    answers -1, as its ideal sign does.

    The band noise is one ``(repetitions + extra, n_band)`` C-order
    normal draw — the same stream as that many sequential
    ``(n_band,)`` slabs, so :meth:`~repro.pufs.fleet.Fleet.majority_vote`
    then :meth:`~repro.pufs.fleet.Fleet.eval_noisy` draws exactly what
    one ``vote_and_measure`` does — split into whole-measurement groups
    so that neither a group's noise nor its ``(M, K)`` flag planes
    exceed :data:`NOISE_DRAW_BYTES`.  The draws are scattered into
    copies of the ideal -1 flags; ``noise >= -margin`` is exactly
    ``margin + noise >= 0`` (the sum's rounding cannot cross zero), and
    chains combine by XOR of their -1 flags.  With ``noise_sigma <= 0``
    nothing is drawn and every measurement is the ideal response.
    """
    margins = np.asarray(margins)
    ideal = ~(margins >= 0)
    if noise_sigma <= 0:
        flags = _negative_flags(ideal, chain_offsets)
        tail = np.broadcast_to(_flags_to_signs(flags), (extra,) + flags.shape)
        return flags.astype(np.int32) * np.int32(repetitions), tail.copy()
    band = np.flatnonzero(np.abs(margins) < NOISE_BAND * noise_sigma)
    threshold = -np.take(margins, band)
    width = margins.shape[1] if chain_offsets is None else len(chain_offsets)
    negatives = np.zeros((margins.shape[0], width), dtype=np.int32)
    tail = np.empty((extra,) + negatives.shape, dtype=np.int8)
    total = repetitions + extra
    group = max(1, NOISE_DRAW_BYTES // max(1, 8 * len(band), margins.size))
    for lo in range(0, total, group):
        count = min(group, total - lo)
        noise = rng.normal(0.0, noise_sigma, size=(count, len(band)))
        chains = np.empty((count,) + margins.shape, dtype=bool)
        chains[...] = ideal
        chains.reshape(count, -1)[:, band] = ~(noise >= threshold)
        flags = _negative_flags(chains, chain_offsets)
        # flags[:split] are votes; flags[split:] are tail[start:...].
        split = min(count, max(0, repetitions - lo))
        if split:
            negatives += flags[:split].sum(axis=0, dtype=np.int32)
        if split < count:
            start = lo + split - repetitions
            tail[start : start + count - split] = _flags_to_signs(flags[split:])
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
    XOR instance answers -1 iff an odd number of its chains do.

    Instance i owns the columns from ``chain_offsets[i]`` up to the next
    offset (the last instance up to the end of the axis).  When every
    instance has the same k in {2, 4, 8} chains, the combine reads each
    instance's k flag bytes as one word and counts them in one multiply
    (:func:`_word_parity`).  Any other layout goes by chain position:
    take every instance's first chain, then for each ``j >= 1`` XOR in
    chain ``j`` of the instances that have more than ``j`` chains — one
    pass per chain index, whatever the mix of chain counts, on stacks of
    any leading shape.  Both are the exact parity of the same bits, so
    which one runs depends only on the fleet's layout and never changes
    a value.
    """
    if chain_offsets is None:
        return flags
    flags = np.asarray(flags)
    offsets = np.asarray(chain_offsets, dtype=np.intp)
    counts = np.diff(offsets, append=flags.shape[-1])
    k = int(counts[0]) if len(counts) else 0
    if k in _PARITY_WORDS and flags.dtype == np.bool_:
        if offsets[0] == 0 and np.all(counts == k):
            return _word_parity(flags, k)
    # np.take keeps the result C-ordered (fancy indexing on the last axis
    # would hand back a transposed layout that every consumer re-copies).
    out = np.take(flags, offsets, axis=-1)
    for j in range(1, int(counts.max(initial=1))):
        deeper = np.flatnonzero(counts > j)
        if len(deeper) == len(offsets):
            out ^= np.take(flags, offsets + j, axis=-1)
        else:
            out[..., deeper] ^= np.take(flags, offsets[deeper] + j, axis=-1)
    return out


#: Chains per instance that :func:`_word_parity` combines, and the
#: unsigned word holding one instance's flag bytes.
_PARITY_WORDS = {2: np.uint16, 4: np.uint32, 8: np.uint64}


def _word_parity(flags: np.ndarray, k: int) -> np.ndarray:
    """The XOR of each run of ``k`` bool flags on the last axis, for ``k``
    in :data:`_PARITY_WORDS`.

    A bool is one byte holding 0 or 1, so each instance's ``k`` flags
    are the bytes of one unsigned word.  Multiplying the word by
    ``0x0101...01`` adds every byte into the top one — each byte is 0 or
    1, so no partial sum reaches 256 and nothing carries between bytes —
    and whatever the byte order, the top byte of the product is the
    number of set flags.  Shifting it down and keeping its low bit gives
    the parity exactly.  Integer multiply, shift and AND only, so any
    NumPy version runs it.
    """
    word = _PARITY_WORDS[k]
    ones = word(sum(1 << (8 * i) for i in range(k)))
    counts = np.ascontiguousarray(flags).view(word) * ones
    counts >>= 8 * (k - 1)
    parity = counts.astype(np.uint8)
    parity &= 1
    return parity.view(np.bool_)


def _flags_to_signs(flags: np.ndarray) -> np.ndarray:
    """-1 where ``flags`` is set, +1 elsewhere, as int8."""
    return 1 - 2 * np.asarray(flags).view(np.int8)
