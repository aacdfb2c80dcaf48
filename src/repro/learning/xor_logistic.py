"""The empirical XOR Arbiter PUF modelling attack (Rührmair et al. [8]).

Models a k-XOR arbiter PUF as a product of linear margins over the parity
features,

    m(c) = prod_{j=1..k} (w_j . phi(c)),     y_hat = sgn(m(c)),

and fits the chain weights by logistic regression on y * m(c) with L-BFGS
and random restarts.  This is the attack that broke small-k XOR PUFs in
practice and is the empirical counterpart of the provable machinery in
:mod:`repro.learning.lmn` / :mod:`repro.learning.learn_poly`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np
from scipy import optimize

from repro.telemetry import trace

FeatureMap = Callable[[np.ndarray], np.ndarray]


@dataclasses.dataclass
class XorLogisticResult:
    """Outcome of the product-of-margins attack."""

    chain_weights: np.ndarray  # (k, d)
    converged: bool
    final_loss: float
    train_accuracy: float
    restarts_used: int
    feature_map: Optional[FeatureMap] = None

    def margin(self, x: np.ndarray) -> np.ndarray:
        feats = x if self.feature_map is None else self.feature_map(x)
        feats = np.asarray(feats, dtype=np.float64)
        margins = feats @ self.chain_weights.T  # (m, k)
        return np.prod(margins, axis=1)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.where(self.margin(x) >= 0, 1, -1).astype(np.int8)


class XorLogisticAttack:
    """Product-of-margins logistic attack on k-XOR PUF CRPs.

    Parameters
    ----------
    k:
        Number of chains to model (attacker's guess; equals the real k in
        the standard threat model).
    restarts:
        Random restarts of L-BFGS; the loss is non-convex for k >= 2.
    max_iter:
        L-BFGS iterations per restart.
    l2:
        Ridge penalty on all weights.
    feature_map:
        Challenge transform; use
        :func:`repro.pufs.arbiter.parity_transform` for arbiter chains.
    target_accuracy:
        Stop restarting once training accuracy reaches this level.
    """

    def __init__(
        self,
        k: int,
        restarts: int = 8,
        max_iter: int = 300,
        l2: float = 1e-5,
        feature_map: Optional[FeatureMap] = None,
        target_accuracy: float = 0.98,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        if restarts < 1 or max_iter < 1:
            raise ValueError("restarts and max_iter must be positive")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        if not 0.5 < target_accuracy <= 1.0:
            raise ValueError("target_accuracy must be in (0.5, 1]")
        self.k = k
        self.restarts = restarts
        self.max_iter = max_iter
        self.l2 = l2
        self.feature_map = feature_map
        self.target_accuracy = target_accuracy

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> XorLogisticResult:
        """Fit on +/-1 challenges and responses."""
        x = np.asarray(x)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError("x must be (m, n) and y length m")
        if x.shape[0] == 0:
            raise ValueError("need at least one example")
        rng = np.random.default_rng() if rng is None else rng
        feats = x if self.feature_map is None else self.feature_map(x)
        feats = np.asarray(feats, dtype=np.float64)
        m, d = feats.shape
        k = self.k

        def loss_and_grad(theta: np.ndarray):
            w = theta.reshape(k, d)
            margins = feats @ w.T  # (m, k)
            prod = np.prod(margins, axis=1)
            z = y * prod
            loss = np.mean(np.logaddexp(0.0, -z)) + 0.5 * self.l2 * np.sum(w * w)
            sig = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
            coef = -y * sig / m  # dLoss/dprod
            grad = np.empty_like(w)
            for j in range(k):
                others = np.prod(
                    np.delete(margins, j, axis=1), axis=1
                ) if k > 1 else np.ones(m)
                grad[j] = feats.T @ (coef * others) + self.l2 * w[j]
            return loss, grad.ravel()

        best: Optional[XorLogisticResult] = None
        for attempt in range(self.restarts):
            # One span per restart: each is a full L-BFGS run.
            with trace(
                "xor_logistic.fit", examples=m, features=d, k=k, restart=attempt
            ):
                theta0 = rng.normal(0.0, 1.0, size=k * d)
                result = optimize.minimize(
                    loss_and_grad,
                    theta0,
                    jac=True,
                    method="L-BFGS-B",
                    options={"maxiter": self.max_iter},
                )
                w = result.x.reshape(k, d)
                margins = np.prod(feats @ w.T, axis=1)
                acc = float(np.mean(np.where(margins >= 0, 1, -1) == y))
            candidate = XorLogisticResult(
                chain_weights=w,
                converged=bool(result.success),
                final_loss=float(result.fun),
                train_accuracy=acc,
                restarts_used=attempt + 1,
                feature_map=self.feature_map,
            )
            if best is None or candidate.train_accuracy > best.train_accuracy:
                best = candidate
            if best.train_accuracy >= self.target_accuracy:
                break
        assert best is not None
        return best
