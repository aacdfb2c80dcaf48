"""Challenge-response pair (CRP) containers and generators.

CRP sets are the learning examples of the PAC framework.  The distribution
the challenges are drawn from is the first axis of the paper's adversary
model (Section III), so the generator takes the distribution as an explicit
argument instead of hard-coding "uniform".
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.kernels.blocking import iter_blocks
from repro.pufs.base import PUF

ChallengeSampler = Callable[[int, int, np.random.Generator], np.ndarray]


def uniform_challenges(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """m uniform +/-1 challenges — the distribution of Section III.

    The values and the generator state afterwards are those of
    ``(1 - 2 * rng.integers(0, 2, size=(m, n))).astype(np.int8)``.  On
    a ``PCG64`` generator the bits come straight from raw words instead
    (see :func:`_pcg64_top_bits`); any other bit generator takes the
    ``integers`` path itself.
    """
    bit_generator = getattr(rng, "bit_generator", None)
    if type(bit_generator) is np.random.PCG64 and min(m, n) >= 0:
        return 1 - 2 * _pcg64_top_bits(bit_generator, m * n).reshape(m, n)
    return (1 - 2 * rng.integers(0, 2, size=(m, n))).astype(np.int8)


def _pcg64_top_bits(bit_generator: np.random.PCG64, count: int) -> np.ndarray:
    """The ``count`` int8 draws of ``integers(0, 2)`` on a PCG64 generator.

    ``integers(0, 2)`` takes one 32-bit half-word per draw and returns
    its top bit: Lemire's multiply-shift maps ``u`` to ``(2 u) >> 32``,
    and its rejection threshold ``(2**32 - 2) % 2`` is 0, so it never
    draws again.  PCG64 serves the low half of each 64-bit word first
    and buffers the high half in ``has_uint32``/``uinteger`` for the next
    32-bit request.  So the draws are: the buffered half, if one is
    waiting, then the two halves of each raw word in order, and an odd
    count leaves the last word's high half buffered — which is written
    back to the generator's state, with ``uinteger`` as the C code
    leaves it.
    """
    out = np.empty(count, dtype=np.int8)
    if count == 0:
        return out
    state = bit_generator.state
    start = 0
    if state["has_uint32"]:
        out[0] = state["uinteger"] >> 31
        start = 1
    words = (count - start + 1) // 2
    if words:
        raw = np.asarray(bit_generator.random_raw(words), dtype="<u8")
        # Byte 3 of each little-endian 32-bit half holds its top bit.
        top = raw.view(np.uint8)[3::4][: count - start]
        np.right_shift(top, 7, out=out[start:].view(np.uint8))
        state = bit_generator.state
        state["uinteger"] = int(raw[-1] >> np.uint64(32))
    state["has_uint32"] = int((count - start) % 2)
    bit_generator.state = state
    return out


def biased_challenges(p: float) -> ChallengeSampler:
    """A product distribution over +/-1 challenges with bias ``p``.

    Each bit independently takes the value ``-1`` with probability ``p``
    and ``+1`` with probability ``1 - p``.  (``-1`` is the +/-1 encoding
    of the *logical one*, via the standard map ``b -> (-1)**b``; so
    ``p = 1.0`` yields all-(-1) rows and ``p = 0.0`` all-(+1) rows.  The
    exact convention is pinned by tests/property/test_crp_distributions.py.)

    Used to demonstrate distribution-dependence: a learner tuned to the
    uniform distribution can fail badly under a skewed product measure.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bit probability must be in [0, 1], got {p}")

    def sample(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
        bits = rng.random(size=(m, n)) < p
        return (1 - 2 * bits.astype(np.int8)).astype(np.int8)

    return sample


def low_weight_challenges(max_ones: int) -> ChallengeSampler:
    """Challenges with at most ``max_ones`` bits set (a sparse distribution)."""
    if max_ones < 0:
        raise ValueError("max_ones must be non-negative")

    def sample(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
        out = np.ones((m, n), dtype=np.int8)
        for row in range(m):
            weight = int(rng.integers(0, min(max_ones, n) + 1))
            if weight:
                idx = rng.choice(n, size=weight, replace=False)
                out[row, idx] = -1
        return out

    return sample


@dataclasses.dataclass
class CRPSet:
    """A set of challenge-response pairs in the +/-1 encoding."""

    challenges: np.ndarray
    responses: np.ndarray

    def __post_init__(self) -> None:
        self.challenges = np.asarray(self.challenges, dtype=np.int8)
        self.responses = np.asarray(self.responses, dtype=np.int8)
        if self.challenges.ndim != 2:
            raise ValueError("challenges must be a 2-D array")
        if self.responses.shape != (self.challenges.shape[0],):
            raise ValueError(
                "responses must be a vector matching the number of challenges"
            )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.challenges.shape[0]

    @property
    def n(self) -> int:
        """Challenge length."""
        return self.challenges.shape[1]

    def split(
        self, train_fraction: float, rng: Optional[np.random.Generator] = None
    ) -> Tuple["CRPSet", "CRPSet"]:
        """Shuffle and split into (train, test)."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = np.random.default_rng() if rng is None else rng
        order = rng.permutation(len(self))
        cut = int(round(train_fraction * len(self)))
        tr, te = order[:cut], order[cut:]
        return (
            CRPSet(self.challenges[tr], self.responses[tr]),
            CRPSet(self.challenges[te], self.responses[te]),
        )

    def subsample(
        self, m: int, rng: Optional[np.random.Generator] = None
    ) -> "CRPSet":
        """A uniform random subset of ``m`` CRPs (without replacement)."""
        if m > len(self):
            raise ValueError(f"cannot subsample {m} from {len(self)} CRPs")
        rng = np.random.default_rng() if rng is None else rng
        idx = rng.choice(len(self), size=m, replace=False)
        return CRPSet(self.challenges[idx], self.responses[idx])

    def take(self, m: int) -> "CRPSet":
        """The first ``m`` CRPs (deterministic prefix)."""
        if m > len(self):
            raise ValueError(f"cannot take {m} from {len(self)} CRPs")
        return CRPSet(self.challenges[:m], self.responses[:m])

    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Persist as a compressed .npz file."""
        np.savez_compressed(
            Path(path), challenges=self.challenges, responses=self.responses
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CRPSet":
        """Load a CRP set saved with :meth:`save`."""
        data = np.load(Path(path))
        return cls(data["challenges"], data["responses"])

    def __repr__(self) -> str:
        return f"CRPSet(m={len(self)}, n={self.n})"


def generate_crps(
    puf: PUF,
    m: int,
    rng: Optional[np.random.Generator] = None,
    sampler: ChallengeSampler = uniform_challenges,
    noisy: bool = False,
) -> CRPSet:
    """Draw ``m`` challenges from ``sampler`` and evaluate ``puf`` on them.

    With ``noisy=True`` each response is a single noisy measurement (the
    realistic CRP-collection setting); otherwise the ideal response is
    recorded.

    The challenges are one sampler call.  Ideal responses are evaluated
    in blocks of :data:`~repro.kernels.blocking.DEFAULT_BLOCK_SIZE` rows,
    so the ``(rows, n + 1)`` float64 features ``puf.eval`` builds stay
    cache-sized however large ``m`` is; each row's response does not
    depend on its block, so the result is that of one ``puf.eval`` call.
    Noisy responses are one :meth:`~repro.pufs.base.PUF.eval_noisy` call,
    which fixes the order the noise is drawn in.
    """
    if m <= 0:
        raise ValueError("CRP count must be positive")
    rng = np.random.default_rng() if rng is None else rng
    challenges = sampler(m, puf.n, rng)
    if noisy:
        responses = puf.eval_noisy(challenges, rng)
    else:
        responses = np.empty(m, dtype=np.int8)
        for start, stop in iter_blocks(m):
            responses[start:stop] = puf.eval(challenges[start:stop])
    from repro.telemetry.meter import record as _record

    _record(
        "ex",
        queries=m,
        examples=m,
        challenges=challenges,
        response_bytes=responses.nbytes,
    )
    return CRPSet(challenges, responses)
