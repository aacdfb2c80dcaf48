"""Becker-style reliability attack on XOR Arbiter PUFs.

The access-model extension the paper's taxonomy invites: besides the
challenge-response bit, a physical attacker can measure each challenge
repeatedly and record its *reliability* — and reliability is a property of
the **individual chains** (a challenge is unstable when some chain's
margin is small), not of the XOR.  Correlating a hypothetical chain's
|margin| with measured reliability therefore singles out one chain at a
time, making the attack polynomial in k where response-only attacks fight
the full XOR.  This implementation covers the k = 2 case end to end:

1. measure CRPs R times; reliability r_i = |sum of measurements| / R;
2. evolve a weight vector maximising |corr(|phi w|, r)| (CMA-ES in the
   original; a (mu, lambda)-ES here) — converges onto one chain;
3. infer the other chain's labels from b = y * sign(phi w_A) and fit it by
   logistic regression;
4. EM-refine both chains alternately.

The k = 2 :class:`ReliabilityAttack` is kept unchanged as the historical
baseline; :class:`CMAReliabilityAttack` below generalises it to
arbitrary k and to *multi-measurement reliability vectors* (per-batch
reliabilities instead of one pooled scalar, the Li–Zhuang
representation), with a CMA-style evolution strategy (weighted
recombination, cumulative step-size adaptation, diagonal covariance)
replacing the plain (mu, lambda)-ES, and chain peeling driven by a
distinctness penalty against already-recovered chains.  Because the
hypothetical chain is correlated through the device's
``component_features`` layout, the same attack covers plain XOR and
CDC-XOR arbiters.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.learning.logistic import LogisticAttack
from repro.pufs.arbiter import parity_transform
from repro.pufs.cdc_xor import derive_component_challenges
from repro.pufs.crp import uniform_challenges
from repro.pufs.xor_arbiter import XORArbiterPUF
from repro.telemetry import trace


@dataclasses.dataclass
class ReliabilityAttackResult:
    """Recovered 2-XOR model."""

    chain_a: np.ndarray  # (n+1,) weights over parity features
    chain_b: np.ndarray
    reliability_correlation: float  # achieved |corr| of the ES phase
    train_accuracy: float
    oracle_measurements: int  # total noisy evaluations consumed

    def predict(self, challenges: np.ndarray) -> np.ndarray:
        """+/-1 responses of the recovered 2-XOR model (int8)."""
        phi = parity_transform(challenges)
        a = np.where(phi @ self.chain_a >= 0, 1, -1)
        b = np.where(phi @ self.chain_b >= 0, 1, -1)
        return (a * b).astype(np.int8)


class ReliabilityAttack:
    """Reliability side-channel attack on 2-XOR Arbiter PUFs.

    Parameters
    ----------
    crps:
        Challenges measured.
    repetitions:
        Noisy measurements per challenge (the reliability resolution).
    generations, mu, lam:
        ES schedule for the reliability-correlation phase.
    restarts:
        Independent ES restarts (the correlation landscape has poor local
        optima; the best run is kept and the loop stops early once the
        correlation is clearly locked onto a chain).
    refinement_rounds:
        Alternating logistic refinements after the ES phase.
    """

    def __init__(
        self,
        crps: int = 6000,
        repetitions: int = 15,
        generations: int = 80,
        mu: int = 6,
        lam: int = 24,
        restarts: int = 4,
        refinement_rounds: int = 3,
    ) -> None:
        if crps < 10 or repetitions < 3:
            raise ValueError("need >= 10 CRPs and >= 3 repetitions")
        if generations < 1 or mu < 1 or lam < mu:
            raise ValueError("invalid ES schedule")
        if restarts < 1:
            raise ValueError("restarts must be positive")
        if refinement_rounds < 0:
            raise ValueError("refinement_rounds must be non-negative")
        self.crps = crps
        self.repetitions = repetitions
        self.generations = generations
        self.mu = mu
        self.lam = lam
        self.restarts = restarts
        self.refinement_rounds = refinement_rounds

    def run(
        self,
        puf: XORArbiterPUF,
        rng: Optional[np.random.Generator] = None,
    ) -> ReliabilityAttackResult:
        """Attack a noisy 2-XOR PUF through repeated measurements."""
        if puf.k != 2:
            raise ValueError("this implementation targets k = 2 XOR PUFs")
        if puf.noise_sigma <= 0:
            raise ValueError(
                "the reliability side channel needs a noisy device "
                "(noise_sigma > 0)"
            )
        rng = np.random.default_rng() if rng is None else rng
        n = puf.n
        challenges = uniform_challenges(self.crps, n, rng)
        measurements = puf.eval_noisy_repeated(challenges, self.repetitions, rng)
        reliability = np.abs(measurements.sum(axis=0)) / self.repetitions
        responses = np.where(measurements.sum(axis=0) >= 0, 1, -1).astype(np.int8)
        phi = parity_transform(challenges)

        rel_centred = reliability - reliability.mean()
        rel_norm = float(np.sqrt(np.sum(rel_centred**2))) or 1.0

        def fitness(w: np.ndarray) -> float:
            h = np.abs(phi @ w)
            hc = h - h.mean()
            denom = float(np.sqrt(np.sum(hc**2))) * rel_norm
            if denom == 0:
                return 0.0
            return abs(float(np.sum(hc * rel_centred)) / denom)

        # (mu, lambda)-ES on the reliability correlation, with restarts.
        best_w, best_fit = None, -1.0
        for _ in range(self.restarts):
            w, fit = self._es_phase(fitness, n, rng)
            if fit > best_fit:
                best_w, best_fit = w, fit
            if best_fit > 0.2:  # clearly locked onto a chain
                break
        assert best_w is not None

        # Divide and conquer: chain B's labels follow from chain A's signs.
        chain_a = best_w
        chain_b = np.zeros(n + 1)
        for _ in range(self.refinement_rounds + 1):
            a_pred = np.where(phi @ chain_a >= 0, 1, -1)
            b_fit = LogisticAttack().fit(
                phi, (responses * a_pred).astype(np.float64), rng
            )
            chain_b = b_fit.ltf.weights.copy()
            chain_b[-1] -= b_fit.ltf.threshold
            b_pred = np.where(phi @ chain_b >= 0, 1, -1)
            a_fit = LogisticAttack().fit(
                phi, (responses * b_pred).astype(np.float64), rng
            )
            chain_a = a_fit.ltf.weights.copy()
            chain_a[-1] -= a_fit.ltf.threshold

        result = ReliabilityAttackResult(
            chain_a=chain_a,
            chain_b=chain_b,
            reliability_correlation=best_fit,
            train_accuracy=0.0,
            oracle_measurements=self.crps * self.repetitions,
        )
        result.train_accuracy = float(
            np.mean(result.predict(challenges) == responses)
        )
        return result

    def _es_phase(self, fitness, n: int, rng: np.random.Generator):
        """One (mu, lambda)-ES run; returns (best weights, best fitness)."""
        population = [(rng.normal(size=n + 1), 0.5) for _ in range(self.mu)]
        best_w, best_fit = population[0][0], fitness(population[0][0])
        for _ in range(self.generations):
            offspring = []
            scores = []
            for _ in range(self.lam):
                w, step = population[int(rng.integers(0, self.mu))]
                new_step = step * float(np.exp(0.1 * rng.normal()))
                child = w + new_step * rng.normal(size=n + 1)
                offspring.append((child, new_step))
                scores.append(fitness(child))
            order = np.argsort(scores)[::-1][: self.mu]
            population = [offspring[int(i)] for i in order]
            if scores[int(order[0])] > best_fit:
                best_fit = scores[int(order[0])]
                best_w = population[0][0].copy()
        return best_w, best_fit


def _profiles(phi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Centred, unit-norm |margin| profiles, one row per weight row of ``x``.

    ``phi`` is ``(m, d)`` and ``x`` is ``(lam, d)``; a row whose centred
    profile is all zero is divided by 1, so it stays zero (never NaN).
    """
    h = np.abs(x @ phi.T)  # (lam, m)
    h -= h.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(h**2, axis=1))
    norms[norms == 0] = 1.0
    h /= norms[:, None]
    return h


def cma_fitness(
    phi: np.ndarray,
    x: np.ndarray,
    rel_matrix: np.ndarray,
    rel_norms: np.ndarray,
    found: np.ndarray,
    distinct_penalty: float,
) -> np.ndarray:
    """Reliability-correlation fitness of a whole ES generation.

    Row ``i`` of ``x`` is a hypothetical chain over the features ``phi``;
    its fitness is the mean |correlation| of its |margin| profile
    against the centred reliability columns ``rel_matrix`` (each divided
    by its entry of ``rel_norms``), minus ``distinct_penalty`` times its
    largest |overlap| with the rows of ``found`` (the profiles of the
    chains already recovered; no rows for no penalty).  Equal to the
    per-individual loop frozen as ``naive_cma_fitness`` in
    ``tests/_reference.py``, per row up to BLAS rounding.
    """
    hc = _profiles(phi, x)
    corr = np.mean(np.abs(hc @ rel_matrix) / rel_norms, axis=1)
    if len(found) and distinct_penalty > 0:
        corr -= distinct_penalty * np.max(np.abs(hc @ found.T), axis=1)
    return corr


@dataclasses.dataclass
class MultiReliabilityResult:
    """Recovered k-chain model from the generalised reliability attack."""

    chain_weights: np.ndarray  # (k, n+1) weights over parity features
    correlations: Tuple[float, ...]  # achieved |corr| per ES-peeled slot
    train_accuracy: float
    oracle_measurements: int  # total noisy evaluations consumed
    #: Per-component rotation offsets of a CDC-XOR target; None for a
    #: plain XOR arbiter (every slot sees the master challenge).
    shifts: Optional[Tuple[int, ...]] = None

    def predict(self, challenges: np.ndarray) -> np.ndarray:
        """+/-1 predictions: the product of per-slot model signs."""
        challenges = np.asarray(challenges)
        if challenges.ndim == 1:
            challenges = challenges[None, :]
        k = self.chain_weights.shape[0]
        if self.shifts is None:
            phi = parity_transform(challenges)
            phis = [phi] * k
        else:
            derived = derive_component_challenges(challenges, k, self.shifts)
            phis = [parity_transform(derived[j]) for j in range(k)]
        out = np.ones(challenges.shape[0], dtype=np.int64)
        for j in range(k):
            out = out * np.where(phis[j] @ self.chain_weights[j] >= 0, 1, -1)
        return out.astype(np.int8)


class CMAReliabilityAttack:
    """CMA-style reliability side-channel attack on k-XOR / CDC-XOR PUFs.

    Generalises :class:`ReliabilityAttack` along the three axes the atlas
    sweeps:

    * **k** — chains are peeled one component slot at a time.  Slots
      ``0 .. k-2`` are recovered by the evolution strategy (with a
      distinctness penalty against every already-recovered chain's
      |margin| profile, which is what separates identical slots of a
      plain XOR arbiter); the last slot's labels then follow from the
      product of the recovered signs and are fit by logistic regression,
      after which every slot is EM-refined in turn.
    * **reliability vectors** — the R measurements are split into
      ``batches`` groups and a per-batch reliability is computed for
      each challenge, giving an (m, batches) matrix per Li–Zhuang; the
      ES fitness is the mean |correlation| of a hypothetical chain's
      |margin| against the batch columns, which is strictly more robust
      than the pooled scalar when the noise process drifts.
    * **device family** — all per-slot features come from the target's
      ``component_features`` layout, so CDC-XOR devices (whose slot j is
      linear over the *rotated* parity features) are attacked through
      exactly the same code path as plain XOR arbiters.

    The evolution strategy itself is CMA-flavoured: log-rank weighted
    recombination of the top quarter, cumulative step-size adaptation on
    the evolution path, and a diagonal covariance (per-coordinate
    variance) update.
    """

    def __init__(
        self,
        crps: int = 4000,
        repetitions: int = 9,
        batches: int = 3,
        generations: int = 40,
        lam: int = 20,
        restarts: int = 3,
        refinement_rounds: int = 2,
        distinct_penalty: float = 1.0,
    ) -> None:
        if crps < 10 or repetitions < 3:
            raise ValueError("need >= 10 CRPs and >= 3 repetitions")
        if not 1 <= batches <= repetitions:
            raise ValueError("batches must be in [1, repetitions]")
        if generations < 1 or lam < 4:
            raise ValueError("invalid ES schedule (generations >= 1, lam >= 4)")
        if restarts < 1:
            raise ValueError("restarts must be positive")
        if refinement_rounds < 0:
            raise ValueError("refinement_rounds must be non-negative")
        if distinct_penalty < 0:
            raise ValueError("distinct_penalty must be non-negative")
        self.crps = crps
        self.repetitions = repetitions
        self.batches = batches
        self.generations = generations
        self.lam = lam
        self.restarts = restarts
        self.refinement_rounds = refinement_rounds
        self.distinct_penalty = distinct_penalty

    # ------------------------------------------------------------------
    def run(
        self,
        puf: XORArbiterPUF,
        rng: Optional[np.random.Generator] = None,
    ) -> MultiReliabilityResult:
        """Attack a noisy k-XOR (or CDC-XOR) PUF via repeated measurement."""
        if puf.noise_sigma <= 0:
            raise ValueError(
                "the reliability side channel needs a noisy device "
                "(noise_sigma > 0)"
            )
        rng = np.random.default_rng() if rng is None else rng
        n, k = puf.n, puf.k
        challenges = uniform_challenges(self.crps, n, rng)
        measurements = puf.eval_noisy_repeated(challenges, self.repetitions, rng)
        from repro.telemetry.meter import record as _record

        _record(
            "ex",
            queries=self.crps * self.repetitions,
            examples=self.crps * self.repetitions,
            challenges=challenges,
            response_bytes=measurements.nbytes,
        )
        responses = np.where(measurements.sum(axis=0) >= 0, 1, -1).astype(
            np.int8
        )
        # Multi-measurement reliability vectors: one column per batch of
        # repetitions, each centred for the correlation fitness.
        rel_columns = []
        for batch in np.array_split(measurements, self.batches, axis=0):
            rel = np.abs(batch.sum(axis=0)) / batch.shape[0]
            rel_columns.append(rel - rel.mean())
        rel_matrix = np.stack(rel_columns, axis=1)  # (m, batches), centred
        rel_norms = np.sqrt(np.sum(rel_matrix**2, axis=0))
        rel_norms[rel_norms == 0] = 1.0

        phis = puf.component_features(challenges)  # (k, m, n+1)
        chains = np.zeros((k, n + 1))
        correlations = []
        # Centred, normalised |margin| profiles of the found chains.
        found = np.empty((0, self.crps))

        for slot in range(k - 1):
            phi = phis[slot]

            def fitness(x: np.ndarray) -> np.ndarray:
                return cma_fitness(
                    phi, x, rel_matrix, rel_norms, found, self.distinct_penalty
                )

            best_w, best_fit = None, -np.inf
            for restart in range(self.restarts):
                with trace(
                    "reliability.cma", examples=self.crps, slot=slot, restart=restart
                ):
                    w, fit = self._cma_phase(fitness, n + 1, rng)
                if fit > best_fit:
                    best_w, best_fit = w, fit
            assert best_w is not None
            chains[slot] = best_w
            correlations.append(float(best_fit))
            found = np.vstack([found, _profiles(phi, best_w[None, :])])

        # The last slot's labels follow from the recovered signs; then
        # EM-refine every slot in turn against the others' predictions.
        order = [k - 1] + [j for r in range(self.refinement_rounds) for j in range(k)]
        with trace("reliability.refine", examples=self.crps, fits=len(order)):
            for c in order:
                others = np.ones(self.crps)
                for j in range(k):
                    if j != c and np.any(chains[j]):
                        others = others * np.where(phis[j] @ chains[j] >= 0, 1, -1)
                fit = LogisticAttack().fit(
                    np.asarray(phis[c], dtype=np.float64),
                    (responses * others).astype(np.float64),
                    rng,
                )
                chains[c] = fit.ltf.weights.copy()
                chains[c][-1] -= fit.ltf.threshold

        result = MultiReliabilityResult(
            chain_weights=chains,
            correlations=tuple(correlations),
            train_accuracy=0.0,
            oracle_measurements=self.crps * self.repetitions,
            shifts=getattr(puf, "shifts", None),
        )
        result.train_accuracy = float(
            np.mean(result.predict(challenges) == responses)
        )
        return result

    # ------------------------------------------------------------------
    def _cma_phase(self, fitness, dim: int, rng: np.random.Generator):
        """One CMA-style ES run; returns (best weights, best fitness).

        ``fitness`` scores a whole generation at once: it maps a
        ``(lam, dim)`` population to ``lam`` fitness values.

        Weighted recombination + cumulative step-size adaptation + a
        diagonal covariance update — the separable reduction of CMA-ES,
        which is all the reliability-correlation landscape needs (the
        objective is scale-invariant in ``w``).
        """
        lam = self.lam
        mu = max(2, lam // 4)
        weights = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        weights = weights / weights.sum()
        mu_eff = 1.0 / float(np.sum(weights**2))
        c_sigma = (mu_eff + 2.0) / (dim + mu_eff + 5.0)
        d_sigma = 1.0 + c_sigma
        c_var = min(0.5, 2.0 * mu_eff / ((dim + 2.0) ** 2 + mu_eff))
        chi_n = np.sqrt(dim) * (1.0 - 1.0 / (4.0 * dim) + 1.0 / (21.0 * dim**2))

        mean = rng.normal(size=dim)
        sigma = 0.5
        var = np.ones(dim)
        p_sigma = np.zeros(dim)
        best_w, best_fit = mean.copy(), float(fitness(mean[None, :])[0])
        for _ in range(self.generations):
            z = rng.normal(size=(lam, dim))
            x = mean + sigma * z * np.sqrt(var)
            scores = fitness(x)
            order = np.argsort(scores)[::-1]
            if scores[order[0]] > best_fit:
                best_fit = float(scores[order[0]])
                best_w = x[order[0]].copy()
            z_sel = z[order[:mu]]
            x_sel = x[order[:mu]]
            mean = weights @ x_sel
            z_mean = weights @ z_sel
            p_sigma = (1.0 - c_sigma) * p_sigma + np.sqrt(
                c_sigma * (2.0 - c_sigma) * mu_eff
            ) * z_mean
            sigma *= float(
                np.exp(
                    (c_sigma / d_sigma)
                    * (np.linalg.norm(p_sigma) / chi_n - 1.0)
                )
            )
            var = (1.0 - c_var) * var + c_var * (weights @ (z_sel**2))
            var = np.maximum(var, 1e-12)
        return best_w, best_fit
