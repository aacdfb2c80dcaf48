"""Logistic-regression modelling attack (the Rührmair et al. [8] baseline).

The empirical state of the art the paper contrasts with *provable* learners:
gradient-based LR over the arbiter parity features breaks plain arbiter
PUFs with a few thousand CRPs and small XOR PUFs with polynomially more.
Implemented directly on NumPy: the convex loss is minimised by damped
Newton (:func:`repro.learning.solvers.newton_logistic`).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from repro.booleanfuncs.ltf import LTF
from repro.learning.solvers import newton_logistic
from repro.telemetry import trace

FeatureMap = Callable[[np.ndarray], np.ndarray]


@dataclasses.dataclass
class LogisticResult:
    """Outcome of a logistic-regression attack."""

    ltf: LTF
    converged: bool
    final_loss: float
    train_accuracy: float
    feature_map: Optional[FeatureMap] = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        feats = x if self.feature_map is None else self.feature_map(x)
        return self.ltf(feats)

    def probability(self, x: np.ndarray) -> np.ndarray:
        """P(response = +1) under the logistic model."""
        feats = x if self.feature_map is None else self.feature_map(x)
        margin = np.asarray(feats, dtype=np.float64) @ self.ltf.weights - self.ltf.threshold
        return 1.0 / (1.0 + np.exp(-margin))


class LogisticAttack:
    """L2-regularised logistic regression trained by damped Newton.

    Parameters
    ----------
    l2:
        Ridge penalty on the weights (not the intercept).
    feature_map:
        Optional challenge transform (e.g. the arbiter parity transform,
        which makes arbiter-PUF CRPs linearly separable).
    max_iter:
        Newton step cap; ``converged`` is False when a fit hits it.
    """

    def __init__(
        self,
        l2: float = 1e-4,
        feature_map: Optional[FeatureMap] = None,
        max_iter: int = 500,
    ) -> None:
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        if max_iter <= 0:
            raise ValueError("max_iter must be positive")
        self.l2 = l2
        self.feature_map = feature_map
        self.max_iter = max_iter

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> LogisticResult:
        """Train on +/-1 challenges and labels."""
        x = np.asarray(x)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError("x must be (m, n) and y length m")
        if x.shape[0] == 0:
            raise ValueError("need at least one example")
        feats = x if self.feature_map is None else self.feature_map(x)
        feats = np.asarray(feats, dtype=np.float64)
        m, d = feats.shape
        rng = np.random.default_rng() if rng is None else rng
        theta0 = rng.normal(0.0, 0.01, size=d + 1)

        with trace("logistic.fit", examples=m, features=d):
            theta, loss, converged = newton_logistic(
                feats, y, theta0, self.l2, self.max_iter
            )
        w, b = theta[:d], theta[d]
        ltf = LTF(w, -b, name="logistic_ltf")
        preds = ltf(feats)
        return LogisticResult(
            ltf=ltf,
            converged=converged,
            final_loss=loss,
            train_accuracy=float(np.mean(preds == y)),
            feature_map=self.feature_map,
        )
