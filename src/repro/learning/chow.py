"""Learning LTFs from Chow parameters (De et al. [25]; paper Section V-A).

The Table II experiment: estimate the n+1 Chow parameters of the target
from CRPs, build the LTF f' they induce, and check whether training on f'
generalises back to the device.  If the device *is* (close to) an LTF this
must work with error -> 0; the paper's point is that for BR PUFs it
plateaus, exposing the representation error.

The full De-Diakonikolas-Feldman-Servedio algorithm iteratively corrects
the weight vector so that the hypothesis' Chow parameters match the
estimates; we implement that projection loop (a small number of rounds is
enough at our scale) with the plain Chow heuristic as its starting point.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.booleanfuncs.ltf import (
    LTF,
    estimate_chow_parameters,
    ltf_from_chow_parameters,
)
from repro.pufs.crp import CRPSet, uniform_challenges


@dataclasses.dataclass
class ChowResult:
    """Outcome of Chow-parameter learning."""

    ltf: LTF
    chow_estimate: np.ndarray
    rounds_run: int
    residual: float  # ||chow(hypothesis) - chow(target estimate)||_2

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.ltf(x)


class ChowLearner:
    """Reconstruct an LTF from estimated Chow parameters.

    Parameters
    ----------
    correction_rounds:
        Iterations of the Chow-parameter matching loop of [25].  0 gives
        the plain "use the Chow vector as weights" heuristic.
    step:
        Step size of the correction updates.
    estimation_sample:
        Monte-Carlo sample size used to estimate the *hypothesis'* Chow
        parameters in each correction round.
    """

    def __init__(
        self,
        correction_rounds: int = 12,
        step: float = 0.5,
        estimation_sample: int = 20_000,
    ) -> None:
        if correction_rounds < 0:
            raise ValueError("correction_rounds must be non-negative")
        if step <= 0:
            raise ValueError("step must be positive")
        if estimation_sample <= 0:
            raise ValueError("estimation_sample must be positive")
        self.correction_rounds = correction_rounds
        self.step = step
        self.estimation_sample = estimation_sample

    def fit(
        self,
        crps: CRPSet,
        rng: Optional[np.random.Generator] = None,
    ) -> ChowResult:
        """Estimate Chow parameters from ``crps`` and reconstruct an LTF."""
        rng = np.random.default_rng() if rng is None else rng
        target_chow = estimate_chow_parameters(crps.challenges, crps.responses)
        n = crps.n

        # Start from the plain Chow heuristic.
        current = target_chow.copy()
        ltf = ltf_from_chow_parameters(current)
        residual = self._residual(ltf, target_chow, rng)
        best = (ltf, residual)
        rounds = 0
        for rounds in range(1, self.correction_rounds + 1):
            hyp_chow = self._hypothesis_chow(ltf, rng)
            gap = target_chow - hyp_chow
            current = current + self.step * gap
            ltf = ltf_from_chow_parameters(current)
            residual = float(np.linalg.norm(self._hypothesis_chow(ltf, rng) - target_chow))
            if residual < best[1]:
                best = (ltf, residual)
            if residual < 2.0 / np.sqrt(self.estimation_sample) * (n + 1):
                break
        ltf, residual = best
        return ChowResult(
            ltf=ltf,
            chow_estimate=target_chow,
            rounds_run=rounds,
            residual=residual,
        )

    # ------------------------------------------------------------------
    def _hypothesis_chow(
        self, ltf: LTF, rng: np.random.Generator
    ) -> np.ndarray:
        x = uniform_challenges(self.estimation_sample, ltf.n, rng)
        return estimate_chow_parameters(x, ltf(x))

    def _residual(
        self, ltf: LTF, target_chow: np.ndarray, rng: np.random.Generator
    ) -> float:
        return float(np.linalg.norm(self._hypothesis_chow(ltf, rng) - target_chow))
