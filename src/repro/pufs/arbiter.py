"""The Arbiter PUF under the additive delay model.

An n-stage arbiter PUF races a rising edge through n switch stages; the
challenge bit of each stage decides whether the two paths go straight or
cross.  Under the standard additive delay model [Gassend et al. 2004] the
final delay difference is linear in the *parity-transformed* challenge

    phi_i(c) = prod_{j=i}^{n-1} c_j   (c in {-1,+1}^n),  phi_n = 1,

so the response ``sgn(w . phi(c))`` is a linear threshold function — the
representation all of Section III of the paper builds on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.booleanfuncs.ltf import LTF
from repro.kernels.fleet import parity_features
from repro.pufs.base import PUF


def parity_transform(challenges: np.ndarray) -> np.ndarray:
    """Map +/-1 challenges to the (m, n+1) float64 arbiter feature vectors.

    Column ``i`` is ``prod_{j >= i} c_j`` and the last column is the
    constant 1 (it multiplies the bias/threshold weight).  This is
    :func:`repro.kernels.fleet.parity_features`, which takes the products
    in int8.
    """
    return parity_features(challenges)


class ArbiterPUF(PUF):
    """A single arbiter chain with Gaussian stage delays.

    Parameters
    ----------
    n:
        Number of stages (challenge bits).
    rng:
        Source of manufacturing randomness; each instance drawn from a
        fresh generator is a distinct "chip".
    weight_sigma:
        Standard deviation of the stage delay differences.
    noise_sigma:
        Measurement noise on the final delay difference (see
        :class:`repro.pufs.base.PUF`).
    weights:
        Explicit ``(n+1,)`` delay weights; overrides ``rng`` when given.
    """

    def __init__(
        self,
        n: int,
        rng: Optional[np.random.Generator] = None,
        weight_sigma: float = 1.0,
        noise_sigma: float = 0.0,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(n, noise_sigma)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (n + 1,):
                raise ValueError(
                    f"explicit weights must have shape ({n + 1},), got {weights.shape}"
                )
            self.weights = weights
        else:
            rng = np.random.default_rng() if rng is None else rng
            self.weights = rng.normal(0.0, weight_sigma, size=n + 1)

    def raw_margin(self, challenges: np.ndarray) -> np.ndarray:
        return parity_transform(challenges) @ self.weights

    def as_feature_ltf(self) -> LTF:
        """The PUF as an LTF *over the feature space* phi(c).

        Note the subtlety the paper leans on: the arbiter PUF is an LTF in
        phi(c), and because phi is a bijection on the hypercube the PUF is
        also expressible as an LTF over a transformed challenge — this is
        what "Arbiter PUFs can be represented by LTFs" [6], [8] means.
        """
        return LTF(self.weights[:-1], -self.weights[-1], name="arbiter_ltf")
