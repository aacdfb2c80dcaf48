"""Testing juntas: does f depend on at most k coordinates?

The companion to the halfspace tester on the representation axis, and the
property behind Corollary 2's first step (every LTF is close to an
O(eps^{-3/2})-junta, Bourgain [23]).  The tester estimates each
coordinate's influence by pair sampling, takes the k most influential
coordinates as the candidate junta, and measures the *residual* influence
outside it: a true k-junta has residual 0, while a function eps-far from
every k-junta has residual Omega(eps) (flipping off-junta coordinates
changes the value with noticeable probability).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.pufs.crp import uniform_challenges

Target = Callable[[np.ndarray], np.ndarray]


@dataclasses.dataclass
class JuntaTestResult:
    """Outcome of a junta test."""

    accepted: bool
    k: int
    candidate_coordinates: List[int]
    residual_influence: float  # Pr[f changes] when off-candidate bits resample
    threshold: float
    queries_used: int

    def summary(self) -> str:
        verdict = f"consistent with a {self.k}-junta" if self.accepted else (
            f"far from every {self.k}-junta"
        )
        return (
            f"{verdict}: candidate {self.candidate_coordinates}, residual "
            f"influence {self.residual_influence:.4f} "
            f"(threshold {self.threshold:.4f})"
        )


class JuntaTester:
    """Influence-based k-junta tester over membership queries.

    Parameters
    ----------
    k:
        Junta size under test.
    eps:
        Farness parameter.
    delta:
        Confidence.
    influence_samples:
        Pairs per single-coordinate influence estimate.
    residual_samples:
        Pairs for the residual-influence estimate.
    """

    def __init__(
        self,
        k: int,
        eps: float = 0.05,
        delta: float = 0.05,
        influence_samples: int = 2048,
        residual_samples: int = 8192,
    ) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        if not 0 < eps < 1 or not 0 < delta < 1:
            raise ValueError("eps and delta must be in (0, 1)")
        if influence_samples < 1 or residual_samples < 1:
            raise ValueError("sample counts must be positive")
        self.k = k
        self.eps = eps
        self.delta = delta
        self.influence_samples = influence_samples
        self.residual_samples = residual_samples

    def test(
        self,
        n: int,
        target: Target,
        rng: Optional[np.random.Generator] = None,
    ) -> JuntaTestResult:
        """Run the tester against a +/-1 membership oracle of arity n."""
        if self.k >= n:
            raise ValueError("k must be smaller than the arity n")
        rng = np.random.default_rng() if rng is None else rng
        queries = 0

        # Estimate each coordinate's influence.
        influences = np.zeros(n)
        m = self.influence_samples
        for i in range(n):
            x = uniform_challenges(m, n, rng)
            x_flip = x.copy()
            x_flip[:, i] = -x_flip[:, i]
            influences[i] = float(np.mean(target(x) != target(x_flip)))
            queries += 2 * m

        candidate = sorted(np.argsort(influences)[::-1][: self.k].tolist())

        # Residual influence: resample all off-candidate coordinates at once.
        mask = np.ones(n, dtype=bool)
        mask[candidate] = False
        mr = self.residual_samples
        x = uniform_challenges(mr, n, rng)
        y = x.copy()
        y[:, mask] = uniform_challenges(mr, int(mask.sum()), rng)
        residual = float(np.mean(target(x) != target(y)))
        queries += 2 * mr

        slack = math.sqrt(math.log(2.0 / self.delta) / (2.0 * mr))
        threshold = self.eps / 4.0 + slack
        return JuntaTestResult(
            accepted=residual <= threshold,
            k=self.k,
            candidate_coordinates=[int(c) for c in candidate],
            residual_influence=residual,
            threshold=threshold,
            queries_used=queries,
        )
