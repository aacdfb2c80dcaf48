"""Frozen reference paths that only the tests and benchmarks use.

Each one is the slow, obvious form of a fleet-trial kernel, kept so the
tests can demand that the kernel equals it exactly:

* ``naive_uniform_challenges``: the ``rng.integers`` challenge draw that
  :func:`repro.pufs.crp.uniform_challenges` replays from raw PCG64 words
  (values and generator state afterwards);
* ``naive_child_generators``: one ``SeedSequence`` child and one
  ``default_rng`` per instance, which :mod:`repro.kernels.spawn` derives
  in one array pass;
* ``naive_fleet_weights``: the per-instance weight draws of the fleet
  build, which the stacked draws of :mod:`repro.pufs.fleet` match;
* ``naive_xor_combine`` / ``naive_negative_flags``: ``reduceat`` chain
  combines, which the word-parity and positional combines of
  :mod:`repro.kernels.fleet` match;
* ``naive_plane_uniqueness``: the float64 Gram uniqueness, which the
  float32 Gram of :mod:`repro.pufs.metrics` matches.

The references the conformance suite and the ``bench`` commands drive
ship in :mod:`repro.kernels.reference`.  Do not optimise these either.
"""

from __future__ import annotations

from typing import List

import numpy as np


def naive_uniform_challenges(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``m`` uniform +/-1 challenges of length ``n`` from ``rng.integers``."""
    return (1 - 2 * rng.integers(0, 2, size=(m, n))).astype(np.int8)


def naive_child_generators(
    root: np.random.SeedSequence, start: int, count: int
) -> List[np.random.Generator]:
    """One ``SeedSequence`` child and one ``default_rng`` per instance:
    children ``spawn_key + (start + i,)`` of ``root``, built one by one."""
    return [
        np.random.default_rng(
            np.random.SeedSequence(
                entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (start + i,)
            )
        )
        for i in range(count)
    ]


def naive_fleet_weights(spec, root: np.random.SeedSequence) -> np.ndarray:
    """The per-instance fleet build loop: the float64 stacked weight columns
    of a :class:`~repro.pufs.fleet.FleetSpec` built from ``root``.

    Instance ``i`` draws from its own generator on child ``1 + i`` in the
    standalone constructor's order; a BR fleet first draws its shared
    topology from child 0.  (BR draw helpers are imported lazily from
    :mod:`repro.pufs.fleet`; this module stays numpy-only at import.)
    """
    n, size = spec.n, spec.size
    if spec.family == "arbiter":
        cols = np.empty((n + 1, size))
        for i, rng in enumerate(naive_child_generators(root, 1, size)):
            cols[:, i] = rng.normal(0.0, spec.weight_sigma, size=n + 1)
        return cols
    if spec.family == "xor":
        counts = spec.chain_counts
        cols = np.empty((n + 1, sum(counts)))
        mix = np.sqrt(1.0 - spec.correlation**2)
        col = 0
        for k_i, rng in zip(counts, naive_child_generators(root, 1, size)):
            shared = rng.normal(0.0, spec.weight_sigma, size=n + 1)
            for _ in range(k_i):
                own = rng.normal(0.0, spec.weight_sigma, size=n + 1)
                cols[:, col] = mix * own + spec.correlation * shared
                col += 1
        return cols
    if spec.family == "br":
        from repro.pufs.fleet import _br_instance_weights, _br_topology

        (topology_rng,) = naive_child_generators(root, 0, 1)
        pairs, triples = _br_topology(spec, topology_rng)
        cols = np.empty((1 + n + len(pairs) + len(triples), size))
        for i, rng in enumerate(naive_child_generators(root, 1, size)):
            bias, linear, offset, pair_w, triple_w = _br_instance_weights(
                spec, rng, len(pairs), len(triples)
            )
            cols[:, i] = np.concatenate(
                ([offset + np.sum(bias)], linear, pair_w, triple_w)
            )
        return cols
    cols = np.zeros((n + 1, size))
    for i, rng in enumerate(naive_child_generators(root, 1, size)):
        cols[:n, i] = rng.normal(0.0, spec.weight_sigma, size=n)
    return cols


def naive_xor_combine(
    chain_signs: np.ndarray, chain_offsets: np.ndarray
) -> np.ndarray:
    """The pre-flag ``xor_combine``: ``np.multiply.reduceat`` of each
    instance's contiguous slice of ±1 chain signs, as int8."""
    offsets = np.asarray(chain_offsets, dtype=np.intp)
    products = np.multiply.reduceat(np.asarray(chain_signs), offsets, axis=1)
    return products.astype(np.int8)


def naive_negative_flags(flags: np.ndarray, chain_offsets) -> np.ndarray:
    """The pre-positional ``_negative_flags``: ``np.bitwise_xor.reduceat``
    of each instance's slice of -1 flags on the last axis."""
    if chain_offsets is None:
        return flags
    offsets = np.asarray(chain_offsets, dtype=np.intp)
    return np.bitwise_xor.reduceat(flags, offsets, axis=-1)


def naive_plane_uniqueness(responses: np.ndarray) -> float:
    """The pre-float32 ``response_plane_uniqueness``: a float64 Gram
    matrix through a contiguous transposed copy, then the i < j mean."""
    responses = np.asarray(responses)
    m, size = responses.shape
    r = responses.astype(np.float64)
    gram = np.ascontiguousarray(r.T) @ r
    diff = (m - gram) / 2.0
    upper = diff[np.triu_indices(size, k=1)]
    return float(np.mean(upper / m))
