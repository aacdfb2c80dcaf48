"""XOR Arbiter PUFs — composed hardware in the paper's sense.

k arbiter chains receive the same challenge; their responses are XORed
(multiplied in the +/-1 encoding) [Suh & Devadas 2007].  Two regimes matter
for the paper:

* **Uncorrelated chains** (default) — the setting of the bound in [9] and
  of Corollaries 1 and 2: learnability collapses as k grows.
* **Correlated chains** — the RocknRoll setting of [17], where the chains
  intentionally share delay structure; the effective noise sensitivity is
  lower and the LMN algorithm keeps working for large k (the ~75 % accuracy
  result the paper reconciles in Section V-B).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.pufs.arbiter import ArbiterPUF, parity_transform
from repro.pufs.base import PUF


class XORArbiterPUF(PUF):
    """k-chain XOR Arbiter PUF.

    Parameters
    ----------
    n:
        Challenge length (stages per chain).
    k:
        Number of chains.
    rng:
        Manufacturing randomness.
    correlation:
        In [0, 1).  0 gives independent chains; rho > 0 mixes a shared
        weight vector into every chain: ``w_i = sqrt(1-rho^2) u_i + rho s``
        with u_i, s independent Gaussians, so any two chains' weights have
        correlation rho^2.
    noise_sigma:
        Per-chain measurement noise (each chain's arbiter flips
        independently, which is why XOR PUF reliability degrades with k).
    """

    def __init__(
        self,
        n: int,
        k: int,
        rng: Optional[np.random.Generator] = None,
        correlation: float = 0.0,
        weight_sigma: float = 1.0,
        noise_sigma: float = 0.0,
    ) -> None:
        super().__init__(n, noise_sigma)
        if k <= 0:
            raise ValueError(f"chain count k must be positive, got {k}")
        if not 0.0 <= correlation < 1.0:
            raise ValueError(f"correlation must be in [0, 1), got {correlation}")
        self.k = k
        self.correlation = float(correlation)
        rng = np.random.default_rng() if rng is None else rng
        shared = rng.normal(0.0, weight_sigma, size=n + 1)
        mix = np.sqrt(1.0 - correlation**2)
        self.chains: List[ArbiterPUF] = []
        for _ in range(k):
            own = rng.normal(0.0, weight_sigma, size=n + 1)
            weights = mix * own + correlation * shared
            self.chains.append(ArbiterPUF(n, weights=weights, noise_sigma=noise_sigma))

    # ------------------------------------------------------------------
    def component_features(self, challenges: np.ndarray) -> np.ndarray:
        """Per-component parity features, shape ``(k, m, n+1)``.

        Every chain of a plain XOR arbiter sees the master challenge, so
        this is one ``parity_transform`` broadcast k times (a view, no
        copy).  Subclasses with per-component challenge derivation (the
        CDC-XOR construction) override it; the reliability side-channel
        attack correlates against these features chain by chain, which
        is what lets one attack implementation cover both families.
        """
        challenges = self._check(challenges)
        phi = parity_transform(challenges)
        return np.broadcast_to(phi, (self.k,) + phi.shape)

    def chain_margins(self, challenges: np.ndarray) -> np.ndarray:
        """(m, k) matrix of per-chain noise-free margins."""
        challenges = self._check(challenges)
        phi = parity_transform(challenges)
        weights = np.stack([c.weights for c in self.chains], axis=1)
        return phi @ weights

    def raw_margin(self, challenges: np.ndarray) -> np.ndarray:
        """Product of per-chain margins — its sign is the XOR of chain signs.

        Only the sign of this quantity is meaningful; the magnitude is not
        a physical delay (each chain has its own arbiter).  Noise is
        therefore injected per chain in :meth:`eval_noisy`, not here.
        """
        margins = self.chain_margins(challenges)
        return np.prod(margins, axis=1)

    def eval_noisy(
        self, challenges: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Noisy measurement: each chain's margin is perturbed independently."""
        return self.eval_noisy_repeated(challenges, 1, rng)[0]

    def eval_noisy_repeated(
        self,
        challenges: np.ndarray,
        repetitions: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """``repetitions`` noisy measurements of each challenge, ``(R, m)`` int8.

        Equal, bit for bit and in ``rng``'s state afterwards, to stacking
        ``repetitions`` sequential :meth:`eval_noisy` calls: the chain
        margins are computed once and the noise is one
        ``(repetitions, m, k)`` normal draw, which ``Generator.normal``
        fills in C order from the same stream as that many ``(m, k)``
        draws.  :meth:`eval_noisy` is the ``repetitions=1`` case, and
        subclasses inherit both through :meth:`chain_margins`.
        """
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        challenges = self._check(challenges)
        rng = np.random.default_rng() if rng is None else rng
        margins = self.chain_margins(challenges)
        shape = (repetitions,) + margins.shape
        if self.noise_sigma > 0:
            margins = margins + rng.normal(0.0, self.noise_sigma, size=shape)
        else:
            margins = np.broadcast_to(margins, shape)
        signs = np.where(margins >= 0, 1, -1).astype(np.int8)
        return np.prod(signs, axis=2).astype(np.int8)

    @classmethod
    def rocknroll(
        cls,
        n: int,
        k: int,
        rng: Optional[np.random.Generator] = None,
        correlation: float = 0.95,
        noise_sigma: float = 0.0,
    ) -> "XORArbiterPUF":
        """The RocknRoll construction of [17]: intentionally correlated chains.

        [17] crafts 'provably secure PUFs from less secure ones' by rolling
        one master chain into k strongly correlated copies.  The paper uses
        this to reconcile the bound of [9] (which assumes independent
        chains) with [17]'s successful LMN attacks at k >> ln n: the
        correlation keeps the effective noise sensitivity — and hence the
        LMN degree — low.  See benchmarks/test_lmn_xorpuf.py.
        """
        return cls(
            n,
            k,
            rng=rng,
            correlation=correlation,
            noise_sigma=noise_sigma,
        )

    def __repr__(self) -> str:
        return (
            f"XORArbiterPUF(n={self.n}, k={self.k}, "
            f"correlation={self.correlation:g}, noise_sigma={self.noise_sigma:g})"
        )
