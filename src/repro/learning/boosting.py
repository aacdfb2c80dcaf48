"""AdaBoost over decision stumps — another improper learner.

Boosting illustrates the paper's Section V-B point from a different angle
than LMN: weak LTF-ish hypotheses (single-feature stumps) are combined
into a majority-of-stumps hypothesis that is *not* an LTF over the inputs,
so the learner escapes proper-LTF limitations while only ever training
trivial base classifiers.

Stumps here are signed single-coordinate tests ``sign(s * x_i)`` plus the
two constant classifiers; on +/-1 challenge data this is the natural weak
class (axis-aligned thresholds degenerate to exactly these).
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

import numpy as np

from repro.learning.features import FeatureMap, _fit_inputs, _mapped


@dataclasses.dataclass
class Stump:
    """A weak hypothesis: sign(polarity * x[coordinate]) or a constant."""

    coordinate: int  # -1 for the constant stump
    polarity: int  # +1 or -1

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.coordinate < 0:
            return np.full(x.shape[0], self.polarity, dtype=np.int8)
        return (self.polarity * x[:, self.coordinate]).astype(np.int8)


@dataclasses.dataclass
class AdaBoostResult:
    """A weighted vote over stumps."""

    stumps: List[Stump]
    alphas: List[float]
    train_accuracy: float
    rounds_run: int
    feature_map: Optional[FeatureMap] = None

    def score(self, x: np.ndarray) -> np.ndarray:
        feats = _mapped(x, self.feature_map)
        acc = np.zeros(feats.shape[0])
        for stump, alpha in zip(self.stumps, self.alphas):
            acc += alpha * stump.predict(feats)
        return acc

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.where(self.score(x) >= 0, 1, -1).astype(np.int8)


class AdaBoost:
    """Discrete AdaBoost with single-coordinate stumps.

    Parameters
    ----------
    rounds:
        Boosting rounds (stumps in the final vote).
    feature_map:
        Optional transform; boosting over parity features turns the weak
        class into the arbiter-PUF-relevant one.
    min_edge:
        Stop early when the best stump's edge over 1/2 drops below this.
    """

    def __init__(
        self,
        rounds: int = 50,
        feature_map: Optional[FeatureMap] = None,
        min_edge: float = 1e-6,
    ) -> None:
        if rounds < 1:
            raise ValueError("rounds must be positive")
        if min_edge < 0:
            raise ValueError("min_edge must be non-negative")
        self.rounds = rounds
        self.feature_map = feature_map
        self.min_edge = min_edge

    def fit(self, x: np.ndarray, y: np.ndarray) -> AdaBoostResult:
        """Train on +/-1 inputs and labels."""
        feats, y = _fit_inputs(x, y, self.feature_map)
        m, n = feats.shape

        weights = np.full(m, 1.0 / m)
        stumps: List[Stump] = []
        alphas: List[float] = []
        rounds_run = 0
        for _ in range(self.rounds):
            stump, error = self._best_stump(feats, y, weights)
            edge = 0.5 - error
            if edge <= self.min_edge:
                break
            rounds_run += 1
            if error <= 1e-9:
                # A perfect weak hypothesis: it alone is the answer.
                stumps.append(stump)
                alphas.append(1.0)
                break
            error = min(max(error, 1e-12), 1 - 1e-12)
            alpha = 0.5 * math.log((1.0 - error) / error)
            preds = stump.predict(feats)
            weights = weights * np.exp(-alpha * y * preds)
            weights = weights / np.sum(weights)
            stumps.append(stump)
            alphas.append(alpha)

        result = AdaBoostResult(
            stumps=stumps,
            alphas=alphas,
            train_accuracy=0.0,
            rounds_run=rounds_run,
            feature_map=self.feature_map,
        )
        if stumps:
            acc = np.zeros(m)
            for stump, alpha in zip(stumps, alphas):
                acc += alpha * stump.predict(feats)
            result.train_accuracy = float(np.mean(np.where(acc >= 0, 1, -1) == y))
        else:
            # Degenerate: no stump beat chance; fall back to the majority
            # constant.
            majority = 1 if np.mean(y) >= 0 else -1
            result.stumps = [Stump(-1, majority)]
            result.alphas = [1.0]
            result.train_accuracy = float(np.mean(majority == y))
        return result

    @staticmethod
    def _best_stump(
        feats: np.ndarray, y: np.ndarray, weights: np.ndarray
    ) -> Tuple[Stump, float]:
        """Lowest-weighted-error stump, vectorised over coordinates."""
        # Weighted correlation of each coordinate with the labels.
        corr = (weights * y) @ feats  # in [-1, 1]
        best_coord = int(np.argmax(np.abs(corr)))
        polarity = 1 if corr[best_coord] >= 0 else -1
        error_coord = 0.5 - 0.5 * abs(corr[best_coord])
        # Constant stump error.
        bias = float(np.sum(weights * y))
        error_const = 0.5 - 0.5 * abs(bias)
        if error_const < error_coord:
            return Stump(-1, 1 if bias >= 0 else -1), error_const
        return Stump(best_coord, polarity), error_coord
