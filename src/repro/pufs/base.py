"""The common PUF interface.

A PUF is modelled as a deterministic *ideal* Boolean function plus a
measurement noise process.  The ideal function is what the PAC analysis is
about; the noise process produces the "attribute noise" (metastability,
aging, thermal effects — footnote 1 of the paper) that real CRP collection
has to contend with and that the LMN algorithm tolerates.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.booleanfuncs.function import BooleanFunction


class PUF(abc.ABC):
    """Abstract base class for simulated PUFs.

    Subclasses implement :meth:`raw_margin`, the real-valued analog quantity
    (a delay difference or settling tendency) whose sign is the response.
    Measurement noise is modelled as additive Gaussian noise on that margin,
    so challenges with small margins are exactly the metastable ones — the
    same mechanism silicon exhibits.
    """

    #: standard deviation of the additive measurement noise on the margin;
    #: 0.0 gives a perfectly stable device.
    noise_sigma: float = 0.0

    def __init__(self, n: int, noise_sigma: float = 0.0) -> None:
        if n <= 0:
            raise ValueError(f"challenge length must be positive, got {n}")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self.n = n
        self.noise_sigma = float(noise_sigma)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def raw_margin(self, challenges: np.ndarray) -> np.ndarray:
        """The noise-free analog margin for each +/-1 challenge row."""

    # ------------------------------------------------------------------
    def eval(self, challenges: np.ndarray) -> np.ndarray:
        """Ideal (noise-free) +/-1 responses."""
        challenges = self._check(challenges)
        margin = self.raw_margin(challenges)
        return np.where(margin >= 0, 1, -1).astype(np.int8)

    def eval_noisy(
        self, challenges: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """One noisy measurement per challenge row.

        Gaussian noise of standard deviation ``noise_sigma`` is added to the
        margin before taking the sign, so the flip probability of a
        challenge depends on its ideal margin — near-threshold challenges
        are metastable, large-margin challenges are stable.
        """
        challenges = self._check(challenges)
        margin = self.raw_margin(challenges)
        if self.noise_sigma > 0:
            rng = np.random.default_rng() if rng is None else rng
            margin = margin + rng.normal(0.0, self.noise_sigma, size=margin.shape)
        return np.where(margin >= 0, 1, -1).astype(np.int8)

    def eval_noisy_repeated(
        self,
        challenges: np.ndarray,
        repetitions: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """``repetitions`` noisy measurements of each challenge, ``(R, m)`` int8.

        Row ``r`` is the ``r``-th of ``repetitions`` sequential
        :meth:`eval_noisy` calls on ``rng``: the repeated-measurement
        protocol behind majority voting, stable-CRP filtering and the
        reliability metrics.  A family may override it with a faster path
        that gives the same rows and leaves ``rng`` in the same state.
        """
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        rng = np.random.default_rng() if rng is None else rng
        return np.stack(
            [self.eval_noisy(challenges, rng) for _ in range(repetitions)], axis=0
        )

    def as_boolean_function(self) -> BooleanFunction:
        """The ideal response function as a :class:`BooleanFunction`."""
        return BooleanFunction(
            self.n, lambda x: self.eval(x), name=type(self).__name__
        )

    # ------------------------------------------------------------------
    def _check(self, challenges: np.ndarray) -> np.ndarray:
        challenges = np.asarray(challenges)
        if challenges.ndim == 1:
            challenges = challenges[None, :]
        if challenges.ndim != 2 or challenges.shape[1] != self.n:
            raise ValueError(
                f"{type(self).__name__} expects (m, {self.n}) challenges, "
                f"got shape {challenges.shape}"
            )
        return challenges

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, noise_sigma={self.noise_sigma:g})"
