"""Logistic-regression modelling attack (the Rührmair et al. [8] baseline).

The empirical state of the art the paper contrasts with *provable* learners:
gradient-based LR over the arbiter parity features breaks plain arbiter
PUFs with a few thousand CRPs and small XOR PUFs with polynomially more.
Implemented directly on NumPy/SciPy (no sklearn in this environment).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from repro.booleanfuncs.ltf import LTF
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
    """L2-regularised logistic regression trained with L-BFGS.

    Parameters
    ----------
    l2:
        Ridge penalty on the weights (not the intercept).
    feature_map:
        Optional challenge transform (e.g. the arbiter parity transform,
        which makes arbiter-PUF CRPs linearly separable).
    max_iter:
        L-BFGS iteration cap.
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
        from scipy import optimize

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

        def loss_and_grad(theta: np.ndarray):
            w, b = theta[:d], theta[d]
            margin = y * (feats @ w + b)
            # log(1 + exp(-margin)) computed stably.
            loss = np.mean(np.logaddexp(0.0, -margin)) + 0.5 * self.l2 * (w @ w)
            sig = 1.0 / (1.0 + np.exp(np.clip(margin, -500, 500)))
            coef = -y * sig / m
            grad_w = feats.T @ coef + self.l2 * w
            grad_b = np.sum(coef)
            return loss, np.concatenate([grad_w, [grad_b]])

        with trace("logistic.fit", examples=m, features=d):
            result = optimize.minimize(
                loss_and_grad,
                theta0,
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": self.max_iter},
            )
        w, b = result.x[:d], result.x[d]
        ltf = LTF(w, -b, name="logistic_ltf")
        preds = ltf(feats)
        return LogisticResult(
            ltf=ltf,
            converged=bool(result.success),
            final_loss=float(result.fun),
            train_accuracy=float(np.mean(preds == y)),
            feature_map=self.feature_map,
        )
