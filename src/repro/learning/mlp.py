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
    """``(w1, w2, b1, b2)`` views into one flat ``d*h + 2h + 1`` buffer.

    The weights lead (``w1 | w2 | b1 | b2``), so the L2 penalty covers
    the one slice ``flat[: (d + 1) * h]``.
    """
    dh = d * h
    w1 = flat[:dh].reshape(d, h)
    w2 = flat[dh : dh + h]
    b1 = flat[dh + h : dh + 2 * h]
    b2 = flat[dh + 2 * h :]
    return w1, w2, b1, b2


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
    float64 buffer (``w1 | w2 | b1 | b2``), with a matching flat
    gradient and one ``(2, P)`` buffer for both Adam moments, so each
    minibatch takes one fused Adam step.  Each epoch's shuffled data is
    gathered once and cut into contiguous minibatches, and the forward
    and backward passes write into buffers allocated once per fit.
    Every operation is elementwise or the same BLAS product in the same
    order, so the result is bit-identical to the per-parameter loop
    frozen as ``naive_mlp_fit`` in ``tests/_reference.py``.  The
    returned :class:`MLPResult` weights are views into that buffer.
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
        ridge = (d + 1) * h

        # All parameters live in one flat buffer (w1 | w2 | b1 | b2) with
        # named views into it, and so does the gradient.  Row 0 of the
        # (2, P) Adam buffers is the first moment, row 1 the second, so
        # one call updates (or bias-corrects) both.
        theta = np.zeros(d * h + 2 * h + 1)
        grad = np.empty_like(theta)
        w1, w2, b1, b2 = _views(theta, d, h)
        g_w1, g_w2, g_b1, g_b2 = _views(grad, d, h)
        w1[...] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h))
        w2[...] = rng.normal(0.0, 1.0 / np.sqrt(h), size=h)
        theta_ridge, grad_ridge = theta[:ridge], grad[:ridge]
        ridge_term = np.empty(ridge)

        beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
        decay = np.array([[beta1], [beta2]])
        gain = np.array([[1 - beta1], [1 - beta2]])
        correction = np.empty((2, 1))
        moments = np.zeros((2, theta.size))
        update = np.empty_like(moments)
        corrected = np.empty_like(moments)
        m_hat, v_hat = corrected
        update_v = update[1]
        lr, l2 = self.learning_rate, self.l2
        step = 0
        loss = np.inf

        # The shuffled epoch lands in these buffers; each minibatch is a
        # contiguous row slice of them.  The forward/backward scratch is
        # allocated once for a full batch; a ragged last batch uses its
        # leading rows, which are contiguous too.  Every view (and
        # transposed view) is made here, not per step.
        feats_ep = np.empty_like(feats)
        y_ep = np.empty_like(y)
        neg_y_ep = np.empty_like(y)
        neg_y = -y
        batch_size = min(self.batch_size, m)
        hid_full = np.empty((batch_size, h))
        z_full = np.empty(batch_size)
        sig_full = np.empty(batch_size)
        dscore_full = np.empty(batch_size)
        dtanh_full = np.empty((batch_size, h))
        back_full = np.empty((batch_size, h))
        batches = []
        for start in range(0, m, batch_size):
            stop = min(start + batch_size, m)
            rows = stop - start
            xb = feats_ep[start:stop]
            hid = hid_full[:rows]
            dscore = dscore_full[:rows]
            batches.append(
                (stop == m, rows, xb, xb.T, y_ep[start:stop], neg_y_ep[start:stop])
                + (hid, hid.T, z_full[:rows], sig_full[:rows], dscore)
                + (dscore[:, None], dtanh_full[:rows], back_full[:rows])
            )

        # One span for the whole optimisation, not per epoch or batch.
        with trace("mlp.fit", examples=m, features=d, epochs=self.epochs):
            for epoch in range(self.epochs):
                order = rng.permutation(m)
                np.take(feats, order, axis=0, out=feats_ep, mode="clip")
                np.take(y, order, out=y_ep, mode="clip")
                np.take(neg_y, order, out=neg_y_ep, mode="clip")
                final_epoch = epoch == self.epochs - 1
                for batch in batches:
                    final_batch, rows, xb, xb_t, yb, neg_yb = batch[:6]
                    hid, hid_t, z, sig, dscore, dscore_col, dtanh, back = batch[6:]
                    # Forward: hid = tanh(xb @ w1 + b1), z = yb * score.
                    np.matmul(xb, w1, out=hid)
                    hid += b1
                    np.tanh(hid, out=hid)
                    np.matmul(hid, w2, out=z)
                    z += b2
                    z *= yb
                    if final_epoch and final_batch:
                        # Only the last minibatch's loss is reported.
                        loss = float(
                            np.mean(np.logaddexp(0.0, -z))
                            + 0.5 * l2 * (np.sum(w1**2) + np.sum(w2**2))
                        )
                    # Backward: sig = 1 / (1 + exp(clip(z, -500, 500))).
                    np.maximum(z, -500.0, out=sig)
                    np.minimum(sig, 500.0, out=sig)
                    np.exp(sig, out=sig)
                    sig += 1.0
                    np.divide(1.0, sig, out=sig)
                    np.multiply(neg_yb, sig, out=dscore)
                    dscore /= rows
                    np.square(hid, out=dtanh)
                    np.subtract(1.0, dtanh, out=dtanh)
                    np.multiply(dscore_col, w2, out=back)
                    back *= dtanh
                    np.matmul(xb_t, back, out=g_w1)
                    np.matmul(hid_t, dscore, out=g_w2)
                    np.add.reduce(back, axis=0, out=g_b1)
                    g_b2[0] = np.add.reduce(dscore)
                    np.multiply(l2, theta_ridge, out=ridge_term)
                    grad_ridge += ridge_term
                    # Adam, both moments at once.
                    step += 1
                    np.multiply(gain, grad, out=update)
                    update_v *= grad
                    moments *= decay
                    moments += update
                    correction[0, 0] = 1 - beta1**step
                    correction[1, 0] = 1 - beta2**step
                    np.divide(moments, correction, out=corrected)
                    np.sqrt(v_hat, out=v_hat)
                    v_hat += eps_adam
                    m_hat *= lr
                    m_hat /= v_hat
                    theta -= m_hat

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
