"""A small multilayer perceptron, trained with Adam (NumPy only).

The modern face of the improper adversary: a one-hidden-layer tanh network
can represent the pairwise/triple interactions a BR PUF has and an LTF
cannot, so it clears the proper-LTF accuracy cap of [11]/Table II the same
way the LMN low-degree expansion does — with the usual empirical-ML
trade-off (no PAC certificate, but excellent accuracy per CRP).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.learning.features import FeatureMap, _fit_inputs, _mapped
from repro.telemetry import trace


@dataclasses.dataclass
class MLPResult:
    """A trained one-hidden-layer network."""

    w1: np.ndarray  # (d, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float
    train_accuracy: float
    epochs_run: int
    final_loss: float
    feature_map: Optional[FeatureMap] = None

    def score(self, x: np.ndarray) -> np.ndarray:
        hidden = np.tanh(_mapped(x, self.feature_map) @ self.w1 + self.b1)
        return hidden @ self.w2 + self.b2

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.where(self.score(x) >= 0, 1, -1).astype(np.int8)


def _views(flat: np.ndarray, d: int, h: int):
    """``(w1, b1, w2, b2)`` views into one flat ``d*h + 2h + 1`` buffer."""
    w1 = flat[: d * h].reshape(d, h)
    b1 = flat[d * h : d * h + h]
    w2 = flat[d * h + h : d * h + 2 * h]
    b2 = flat[d * h + 2 * h :]
    return w1, b1, w2, b2


class MLPAttack:
    """One-hidden-layer tanh MLP with logistic loss and Adam.

    Parameters
    ----------
    hidden:
        Hidden units.
    epochs:
        Full passes over the data.
    batch_size, learning_rate, l2:
        The usual knobs.

    :meth:`fit` keeps all four parameter arrays as views into one flat
    float64 buffer (``w1 | b1 | w2 | b2``), with matching flat gradient
    and Adam-moment buffers, so each minibatch takes one fused Adam
    step.  The update is elementwise, so the result is bit-identical to
    the per-parameter loop frozen as
    :func:`repro.kernels.reference.naive_mlp_fit`.  The returned
    :class:`MLPResult` weights are views into that buffer.
    """

    def __init__(
        self,
        hidden: int = 32,
        epochs: int = 60,
        batch_size: int = 128,
        learning_rate: float = 0.01,
        l2: float = 1e-5,
        feature_map: Optional[FeatureMap] = None,
    ) -> None:
        if hidden < 1 or epochs < 1 or batch_size < 1:
            raise ValueError("hidden, epochs, and batch_size must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.l2 = l2
        self.feature_map = feature_map

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> MLPResult:
        """Train on +/-1 inputs and labels."""
        feats, y = _fit_inputs(x, y, self.feature_map)
        rng = np.random.default_rng() if rng is None else rng
        m, d = feats.shape
        h = self.hidden

        # All parameters live in one flat buffer (w1 | b1 | w2 | b2) with
        # named views into it, and so do their gradients and the Adam
        # moments: one fused elementwise Adam step updates everything.
        theta = np.zeros(d * h + 2 * h + 1)
        grad = np.empty_like(theta)
        w1, b1, w2, b2 = _views(theta, d, h)
        g_w1, g_b1, g_w2, g_b2 = _views(grad, d, h)
        w1[...] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h))
        w2[...] = rng.normal(0.0, 1.0 / np.sqrt(h), size=h)

        mom1 = np.zeros_like(theta)
        mom2 = np.zeros_like(theta)
        beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
        lr, l2 = self.learning_rate, self.l2
        step = 0
        loss = np.inf
        last_start = ((m - 1) // self.batch_size) * self.batch_size

        # One span for the whole optimisation, not per epoch or batch.
        with trace("mlp.fit", examples=m, features=d, epochs=self.epochs):
            for epoch in range(self.epochs):
                order = rng.permutation(m)
                for start in range(0, m, self.batch_size):
                    idx = order[start : start + self.batch_size]
                    xb, yb = feats[idx], y[idx]
                    # Forward.
                    hid = np.tanh(xb @ w1 + b1)
                    z = yb * (hid @ w2 + b2[0])
                    if epoch == self.epochs - 1 and start == last_start:
                        # Only the last minibatch's loss is reported.
                        loss = float(
                            np.mean(np.logaddexp(0.0, -z))
                            + 0.5 * l2 * (np.sum(w1**2) + np.sum(w2**2))
                        )
                    # Backward.
                    sig = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
                    dscore = -yb * sig / xb.shape[0]
                    back = (dscore[:, None] * w2[None, :]) * (1 - hid**2)
                    g_w1[...] = xb.T @ back
                    g_w1 += l2 * w1
                    g_b1[...] = np.sum(back, axis=0)
                    g_w2[...] = hid.T @ dscore
                    g_w2 += l2 * w2
                    g_b2[0] = np.sum(dscore)
                    step += 1
                    mom1 *= beta1
                    mom1 += (1 - beta1) * grad
                    mom2 *= beta2
                    mom2 += (1 - beta2) * grad * grad
                    m_hat = mom1 / (1 - beta1**step)
                    v_hat = mom2 / (1 - beta2**step)
                    theta -= lr * m_hat / (np.sqrt(v_hat) + eps_adam)

        result = MLPResult(
            w1=w1,
            b1=b1,
            w2=w2,
            b2=float(b2[0]),
            train_accuracy=0.0,
            epochs_run=self.epochs,
            final_loss=loss,
            feature_map=self.feature_map,
        )
        result.train_accuracy = float(
            np.mean(result.predict(x) == y.astype(np.int8))
        )
        return result
