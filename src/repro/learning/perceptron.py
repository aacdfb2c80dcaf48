"""The Perceptron algorithm with mistake accounting.

The bound of [9] in Table I rests on the Perceptron's mistake bound
(margin/radius analysis), so the implementation tracks mistakes explicitly.
This is also the learner the paper runs (via Weka) on the Chow-parameter
LTF f' in Table II, and on raw BR PUF CRPs in [11].

An optional feature map lets the same learner operate in the parity-feature
space of arbiter PUFs (where the target *is* linearly separable).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.booleanfuncs.ltf import LTF
from repro.learning.features import FeatureMap, _fit_inputs


@dataclasses.dataclass
class PerceptronResult:
    """Outcome of a Perceptron run."""

    ltf: LTF
    mistakes: int
    epochs_run: int
    converged: bool
    train_accuracy: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.ltf(self._features(x))

    def _features(self, x: np.ndarray) -> np.ndarray:
        return x if self.feature_map is None else self.feature_map(x)

    feature_map: Optional[FeatureMap] = None


class Perceptron:
    """Classic Perceptron, run for multiple epochs over a fixed sample.

    Parameters
    ----------
    max_epochs:
        Passes over the data; training stops early on a mistake-free epoch.
    learning_rate:
        Update step (scale-invariant for the final classifier but kept for
        fidelity to the textbook algorithm).
    feature_map:
        Optional transform applied to challenges before the linear model
        (e.g. :func:`repro.pufs.arbiter.parity_transform`).
    averaged:
        If True, use the averaged-Perceptron weight vector (more stable on
        non-separable data such as BR PUF CRPs).
    """

    def __init__(
        self,
        max_epochs: int = 50,
        learning_rate: float = 1.0,
        feature_map: Optional[FeatureMap] = None,
        averaged: bool = False,
        shuffle: bool = True,
    ) -> None:
        if max_epochs <= 0:
            raise ValueError("max_epochs must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.max_epochs = max_epochs
        self.learning_rate = learning_rate
        self.feature_map = feature_map
        self.averaged = averaged
        self.shuffle = shuffle

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> PerceptronResult:
        """Train on +/-1 challenges ``x`` and labels ``y``."""
        feats, y = _fit_inputs(x, y, self.feature_map)
        rng = np.random.default_rng() if rng is None else rng
        m, d = feats.shape
        w = np.zeros(d)
        b = 0.0
        w_sum = np.zeros(d)
        b_sum = 0.0
        updates_seen = 0
        mistakes = 0
        converged = False
        epochs_run = 0

        for epoch in range(self.max_epochs):
            epochs_run = epoch + 1
            order = rng.permutation(m) if self.shuffle else np.arange(m)
            epoch_mistakes = 0
            for i in order:
                margin = feats[i] @ w + b
                pred = 1 if margin >= 0 else -1
                if pred != y[i]:
                    w += self.learning_rate * y[i] * feats[i]
                    b += self.learning_rate * y[i]
                    mistakes += 1
                    epoch_mistakes += 1
                w_sum += w
                b_sum += b
                updates_seen += 1
            if epoch_mistakes == 0:
                converged = True
                break

        if self.averaged and updates_seen:
            w_final, b_final = w_sum / updates_seen, b_sum / updates_seen
        else:
            w_final, b_final = w, b
        ltf = LTF(w_final, -b_final, name="perceptron_ltf")
        preds = ltf(feats.astype(np.int8) if self._pm1(feats) else feats)
        train_acc = float(np.mean(preds == y))
        return PerceptronResult(
            ltf=ltf,
            mistakes=mistakes,
            epochs_run=epochs_run,
            converged=converged,
            train_accuracy=train_acc,
            feature_map=self.feature_map,
        )

    @staticmethod
    def _pm1(feats: np.ndarray) -> bool:
        return bool(np.all(np.abs(feats) == 1))
