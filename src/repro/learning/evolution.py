"""Evolution-strategies modelling attack (the ES attack of [8]).

Rührmair et al.'s second empirical weapon besides logistic regression: a
(mu, lambda) evolution strategy over the physical model's parameters,
with training-set agreement as the fitness.  ES needs nothing but forward
evaluations, so it attacks *any* parametric PUF model — including ones
whose margins are non-differentiable — at the price of more CRPs/compute.
Included to populate the "empirical, distribution-free, proper" corner of
the adversary-model space.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.learning.features import FeatureMap, _fit_inputs, _mapped


@dataclasses.dataclass
class ESResult:
    """Outcome of an evolution-strategies attack."""

    weights: np.ndarray  # (k, d) chain weights of the best individual
    train_accuracy: float
    generations_run: int
    evaluations: int
    feature_map: Optional[FeatureMap] = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        margins = np.prod(_mapped(x, self.feature_map) @ self.weights.T, axis=1)
        return np.where(margins >= 0, 1, -1).astype(np.int8)


class EvolutionStrategiesAttack:
    """(mu, lambda)-ES over product-of-LTF-margins PUF models.

    Parameters
    ----------
    k:
        Number of chains modelled.
    mu, lam:
        Parents kept / offspring generated per generation.
    generations:
        Generation cap.
    sigma0:
        Initial mutation step; self-adapted multiplicatively per offspring
        (log-normal rule).
    target_accuracy:
        Early-stop once the best individual's training accuracy reaches
        this level.
    feature_map:
        Challenge transform (use the arbiter parity transform).
    """

    def __init__(
        self,
        k: int,
        mu: int = 8,
        lam: int = 32,
        generations: int = 120,
        sigma0: float = 0.5,
        target_accuracy: float = 0.97,
        feature_map: Optional[FeatureMap] = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        if mu < 1 or lam < mu:
            raise ValueError("need lam >= mu >= 1")
        if generations < 1:
            raise ValueError("generations must be positive")
        if sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        if not 0.5 < target_accuracy <= 1.0:
            raise ValueError("target_accuracy must be in (0.5, 1]")
        self.k = k
        self.mu = mu
        self.lam = lam
        self.generations = generations
        self.sigma0 = sigma0
        self.target_accuracy = target_accuracy
        self.feature_map = feature_map

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> ESResult:
        """Evolve chain weights against +/-1 CRPs."""
        feats, y = _fit_inputs(x, y, self.feature_map)
        rng = np.random.default_rng() if rng is None else rng
        d = feats.shape[1]

        def fitness(weights: np.ndarray) -> float:
            margins = np.prod(feats @ weights.T, axis=1)
            return float(np.mean(np.where(margins >= 0, 1, -1) == y))

        # Initial parents: random Gaussian individuals with step sizes.
        parents = [
            (rng.normal(0.0, 1.0, size=(self.k, d)), self.sigma0)
            for _ in range(self.mu)
        ]
        parent_fitness = [fitness(w) for w, _ in parents]
        evaluations = self.mu
        tau = 1.0 / np.sqrt(2.0 * self.k * d)
        best_idx = int(np.argmax(parent_fitness))
        best = (parents[best_idx][0].copy(), parent_fitness[best_idx])
        generations_run = 0

        for generation in range(self.generations):
            generations_run = generation + 1
            offspring = []
            offspring_fitness = []
            for _ in range(self.lam):
                w, sigma = parents[int(rng.integers(0, self.mu))]
                new_sigma = sigma * float(np.exp(tau * rng.normal()))
                child = w + new_sigma * rng.normal(0.0, 1.0, size=w.shape)
                offspring.append((child, new_sigma))
                offspring_fitness.append(fitness(child))
            evaluations += self.lam
            order = np.argsort(offspring_fitness)[::-1][: self.mu]
            parents = [offspring[int(i)] for i in order]
            parent_fitness = [offspring_fitness[int(i)] for i in order]
            if parent_fitness[0] > best[1]:
                best = (parents[0][0].copy(), parent_fitness[0])
            if best[1] >= self.target_accuracy:
                break

        return ESResult(
            weights=best[0],
            train_accuracy=best[1],
            generations_run=generations_run,
            evaluations=evaluations,
            feature_map=self.feature_map,
        )
