"""A behavioural Bistable Ring (BR) PUF model.

The paper stresses that "no concrete, mathematically precise model is known"
for BR PUFs (Section II-B), and its experiments (Tables II and III) show
that BR PUFs on a Cyclone IV FPGA are *not* close to any halfspace: LTF
learners saturate around 92-95 % accuracy, and a halfspace property tester
reports them epsilon-far from every LTF.

Our substitute keeps exactly the property the experiments probe.  Following
the first-order models in the BR PUF literature (Xu et al. [11];
Schuster & Hesselbarth), each stage i contributes a cell-dependent weight
selected by challenge bit c_i, giving a *linear* settling tendency

    L(c) = sum_i (a_i + b_i c_i),

which alone would make the device an LTF (this is why LTF learners get most
of the way there).  On silicon, coupling between neighbouring stages and
supply/loading effects add challenge-dependent terms a linear model cannot
express; we model them as pairwise and triple interactions

    Q(c) = g2 * sum_{(i,j) in P2} u_ij c_i c_j
         + g3 * sum_{(i,j,l) in P3} v_ijl c_i c_j c_l,

and the response is ``sgn(L(c) + Q(c))``.  The interaction strength
``interaction_scale`` (g2 = g3 = scale relative to the linear part) is the
ablation knob called out in DESIGN.md: at 0.0 the device is an LTF and the
paper's pitfall disappears; at the default 0.55 the accuracy cap and
far-from-halfspace behaviour of Tables II/III are reproduced.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.pufs.base import PUF


def draw_pair_indices(
    n: int, pair_density: float, rng: np.random.Generator
) -> np.ndarray:
    """``(P, 2)`` pair-interaction indices: every adjacent ring pair plus
    ``int(pair_density * n(n-1)/2)`` random ones, capped at all pairs."""
    pairs = [(i, (i + 1) % n) for i in range(n)]
    num_random = int(pair_density * n * (n - 1) / 2)
    seen = {tuple(sorted(p)) for p in pairs}
    while len(seen) < len(pairs) + num_random and len(seen) < n * (n - 1) // 2:
        i, j = rng.choice(n, size=2, replace=False)
        seen.add(tuple(sorted((int(i), int(j)))))
    return np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)


def draw_triple_indices(
    n: int, triple_density: float, rng: np.random.Generator
) -> np.ndarray:
    """``(T, 3)`` distinct random triples, ``max(1, int(triple_density * n))``
    of them but never more than the ring's C(n, 3) (none for n < 3)."""
    num_triples = min(max(1, int(triple_density * n)), math.comb(n, 3))
    triples = set()
    while len(triples) < num_triples:
        t = rng.choice(n, size=3, replace=False)
        triples.add(tuple(sorted(int(v) for v in t)))
    return np.array(sorted(triples), dtype=np.int64).reshape(-1, 3)


class BistableRingPUF(PUF):
    """Behavioural BR PUF with tunable non-linear stage interactions.

    Parameters
    ----------
    n:
        Ring size (challenge length); even on real devices, not enforced
        here.
    rng:
        Manufacturing randomness.
    interaction_scale:
        Relative strength of the non-linear component.  0.0 degenerates to
        an LTF.  The default 0.55 reproduces the paper's accuracy caps.
    pair_density:
        Fraction of the n(n-1)/2 possible pairs carrying an interaction
        term (nearest-neighbour coupling plus random longer-range pairs).
    triple_density:
        Fraction of ~n random triples carrying a third-order term (at
        most the ring's C(n, 3) distinct triples).
    noise_sigma:
        Measurement noise on the settling margin.
    """

    def __init__(
        self,
        n: int,
        rng: Optional[np.random.Generator] = None,
        interaction_scale: float = 0.55,
        pair_density: float = 0.25,
        triple_density: float = 1.0,
        noise_sigma: float = 0.0,
    ) -> None:
        super().__init__(n, noise_sigma)
        if interaction_scale < 0:
            raise ValueError("interaction_scale must be non-negative")
        if not 0.0 <= pair_density <= 1.0:
            raise ValueError("pair_density must be in [0, 1]")
        if triple_density < 0:
            raise ValueError("triple_density must be non-negative")
        rng = np.random.default_rng() if rng is None else rng
        self.interaction_scale = float(interaction_scale)

        # Linear part: intrinsic cell asymmetries.  The a_i sum to a
        # device-specific offset; sigma 1/sqrt(n) keeps that offset O(1) so
        # instances are biased (as real BR PUFs are) but not degenerate.
        self.bias_terms = rng.normal(0.0, 1.0 / np.sqrt(n), size=n)  # a_i
        self.linear_weights = rng.normal(0.0, 1.0, size=n)  # b_i
        self.global_offset = rng.normal(0.0, 0.5)

        # Pairwise couplings: all adjacent ring pairs, plus random pairs.
        self.pair_indices = draw_pair_indices(n, pair_density, rng)
        self.pair_weights = rng.normal(0.0, 1.0, size=len(self.pair_indices))

        # Third-order couplings: ~ triple_density * n random triples.
        self.triple_indices = draw_triple_indices(n, triple_density, rng)
        self.triple_weights = rng.normal(0.0, 1.0, size=len(self.triple_indices))

        # Normalise the non-linear part to the requested relative strength.
        lin_scale = float(np.sqrt(np.sum(self.linear_weights**2)))
        pair_scale = float(np.sqrt(np.sum(self.pair_weights**2)))
        tri_scale = float(np.sqrt(np.sum(self.triple_weights**2)))
        if pair_scale > 0:
            self.pair_weights *= interaction_scale * lin_scale / pair_scale
        if tri_scale > 0:
            self.triple_weights *= interaction_scale * lin_scale / tri_scale

    @classmethod
    def from_parameters(
        cls,
        n: int,
        bias_terms: np.ndarray,
        linear_weights: np.ndarray,
        global_offset: float,
        pair_indices: np.ndarray,
        pair_weights: np.ndarray,
        triple_indices: np.ndarray,
        triple_weights: np.ndarray,
        interaction_scale: float = 0.55,
        noise_sigma: float = 0.0,
    ) -> "BistableRingPUF":
        """Materialise an instance from explicit, already-normalised
        parameters (no rng draws).

        This is how :class:`repro.pufs.fleet.Fleet` produces standalone
        BR comparators: a fleet shares one interaction topology (a
        design/layout property) across its instances, so its members
        cannot be rebuilt through the drawing constructor, whose
        topology selection is interleaved with the weight draws.
        """
        self = cls.__new__(cls)
        PUF.__init__(self, n, noise_sigma)
        self.interaction_scale = float(interaction_scale)
        self.bias_terms = np.asarray(bias_terms, dtype=np.float64)
        self.linear_weights = np.asarray(linear_weights, dtype=np.float64)
        self.global_offset = float(global_offset)
        self.pair_indices = np.asarray(pair_indices, dtype=np.int64).reshape(-1, 2)
        self.pair_weights = np.asarray(pair_weights, dtype=np.float64)
        self.triple_indices = np.asarray(triple_indices, dtype=np.int64).reshape(-1, 3)
        self.triple_weights = np.asarray(triple_weights, dtype=np.float64)
        if self.bias_terms.shape != (n,) or self.linear_weights.shape != (n,):
            raise ValueError("bias_terms and linear_weights must have shape (n,)")
        if self.pair_weights.shape != (len(self.pair_indices),):
            raise ValueError("pair_weights must match pair_indices")
        if self.triple_weights.shape != (len(self.triple_indices),):
            raise ValueError("triple_weights must match triple_indices")
        return self

    def raw_margin(self, challenges: np.ndarray) -> np.ndarray:
        c = challenges.astype(np.float64)
        margin = (
            self.global_offset
            + np.sum(self.bias_terms)
            + c @ self.linear_weights
        )
        pi, pj = self.pair_indices[:, 0], self.pair_indices[:, 1]
        margin = margin + (c[:, pi] * c[:, pj]) @ self.pair_weights
        ti, tj, tl = (
            self.triple_indices[:, 0],
            self.triple_indices[:, 1],
            self.triple_indices[:, 2],
        )
        margin = margin + (c[:, ti] * c[:, tj] * c[:, tl]) @ self.triple_weights
        return margin

    def __repr__(self) -> str:
        return (
            f"BistableRingPUF(n={self.n}, "
            f"interaction_scale={self.interaction_scale:g}, "
            f"noise_sigma={self.noise_sigma:g})"
        )
