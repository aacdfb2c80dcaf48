"""The Kushilevitz-Mansour (Goldreich-Levin) algorithm.

Finds all *heavy* Fourier coefficients of a Boolean function using
membership queries — no degree limit, unlike LMN.  This is the engine
behind Fourier-analysis-based PUF attacks (cf. [19], by the paper's
authors) and a clean illustration of the access-model axis: with random
examples one pays n^O(d) to see degree-d structure (LMN); with membership
queries one pays poly(n, 1/theta) for *any* coefficient above theta.

The algorithm recursively partitions the coefficient index set by prefix:
bucket (k, alpha) holds all subsets S whose membership pattern on the
first k coordinates equals alpha, with weight

    W(k, alpha) = sum_{S in bucket} fhat(S)^2
                = E_{z, z', x} [ f(z x) chi_alpha(z) f(z' x) chi_alpha(z') ],

where z, z' are independent uniform on the first k coordinates and x is a
shared uniform suffix.  Buckets lighter than theta^2/2 are pruned; at
depth n each surviving singleton is a heavy coefficient.  Parseval bounds
the number of surviving buckets per level by 4/theta^2, so the total query
count is poly(n, 1/theta) (for a +/-1 function).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.booleanfuncs.function import BooleanFunction
from repro.kernels import CharacterBasis, character_column
from repro.kernels import sign_of_expansion as _kernel_sign_of_expansion
from repro.pufs.crp import uniform_challenges
from repro.telemetry import QueryMeter, current_meter, metered, trace
from repro.telemetry import meter as _meter

Target = Callable[[np.ndarray], np.ndarray]


@dataclasses.dataclass
class KMResult:
    """Outcome of a Kushilevitz-Mansour run."""

    spectrum: Dict[Tuple[int, ...], float]
    hypothesis: BooleanFunction
    membership_queries: int
    buckets_explored: int
    telemetry: Optional[dict] = None  # learner-local query-meter snapshot

    def heavy_subsets(self) -> List[Tuple[int, ...]]:
        """The located subsets, heaviest first."""
        return sorted(self.spectrum, key=lambda s: -abs(self.spectrum[s]))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.hypothesis(x)


class KushilevitzMansour:
    """Locate all Fourier coefficients with |fhat(S)| >= theta.

    Parameters
    ----------
    theta:
        Heaviness threshold.  Queries scale with 1/theta^2 per estimate
        and at most 4/theta^2 buckets survive per level.
    bucket_samples:
        Samples per bucket-weight estimate.
    coefficient_samples:
        Samples in the final coefficient-estimation batch, which is
        *shared*: all surviving buckets are estimated from one sample via
        one blocked GEMM (``coefficient_samples`` membership queries in
        total, not per bucket).
    max_buckets:
        Guard rail on simultaneous buckets (defaults to 8/theta^2).
    """

    def __init__(
        self,
        theta: float = 0.1,
        bucket_samples: int = 2048,
        coefficient_samples: int = 8192,
        max_buckets: Optional[int] = None,
    ) -> None:
        if not 0 < theta <= 1:
            raise ValueError("theta must be in (0, 1]")
        if bucket_samples < 1 or coefficient_samples < 1:
            raise ValueError("sample counts must be positive")
        self.theta = theta
        self.bucket_samples = bucket_samples
        self.coefficient_samples = coefficient_samples
        self.max_buckets = (
            int(np.ceil(8.0 / theta**2)) if max_buckets is None else max_buckets
        )

    # ------------------------------------------------------------------
    def fit(
        self,
        n: int,
        target: Target,
        rng: Optional[np.random.Generator] = None,
    ) -> KMResult:
        """Run KM against a +/-1 membership oracle of arity n.

        Pass a *raw* target callable, not a
        :class:`~repro.learning.oracles.MembershipOracle`: the learner's
        internal :meth:`_query` path already records every row as an
        ``mq`` query (wrapping would double-count).  The result's
        ``telemetry`` is a learner-local meter snapshot; counts also
        forward to any ambient trial meter.
        """
        rng = np.random.default_rng() if rng is None else rng
        self._queries = 0
        self._target = target
        local = QueryMeter(parent=current_meter())

        with metered(local), trace("km.fit", theta=self.theta):
            # Buckets are (depth k, alpha) with alpha a tuple of 0/1
            # membership flags for coordinates 0..k-1.
            buckets: List[Tuple[int, ...]] = [()]
            explored = 0
            for depth in range(n):
                next_buckets: List[Tuple[int, ...]] = []
                for alpha in buckets:
                    for flag in (0, 1):
                        candidate = alpha + (flag,)
                        explored += 1
                        weight = self._bucket_weight(n, candidate, rng)
                        if weight >= self.theta**2 / 2.0:
                            next_buckets.append(candidate)
                if len(next_buckets) > self.max_buckets:
                    # Keep the heaviest (Parseval says the rest are noise).
                    weights = [
                        self._bucket_weight(n, a, rng) for a in next_buckets
                    ]
                    order = np.argsort(weights)[::-1][: self.max_buckets]
                    next_buckets = [next_buckets[int(i)] for i in order]
                buckets = next_buckets
                if not buckets:
                    break

            # Final coefficient estimates: one shared sample and one blocked
            # GEMM across all surviving buckets, instead of a fresh
            # coefficient_samples-sized query batch per bucket.  Statistically
            # this is the same estimator (a shared sample only correlates the
            # estimates, each remains an unbiased mean of m products) and it
            # costs m membership queries total rather than m per bucket.
            spectrum: Dict[Tuple[int, ...], float] = {}
            if buckets:
                subsets = [
                    tuple(i for i, flag in enumerate(alpha) if flag)
                    for alpha in buckets
                ]
                m = self.coefficient_samples
                x = uniform_challenges(m, n, rng)
                y = self._query(x)
                basis = CharacterBasis.from_subsets(n, subsets)
                estimates = basis.estimate_coefficients(x, y)
                for subset, estimate in zip(subsets, estimates):
                    if abs(estimate) >= self.theta / 2.0:
                        spectrum[subset] = float(estimate)

            hypothesis = _sign_of_spectrum(n, spectrum)
        return KMResult(
            spectrum=spectrum,
            hypothesis=hypothesis,
            membership_queries=self._queries,
            buckets_explored=explored,
            telemetry=local.snapshot(),
        )

    # ------------------------------------------------------------------
    def _query(self, x: np.ndarray) -> np.ndarray:
        self._queries += x.shape[0]
        y = np.asarray(self._target(x), dtype=np.float64)
        _meter.record(
            "mq", queries=x.shape[0], challenges=x, response_bytes=y.nbytes
        )
        return y

    def _bucket_weight(
        self, n: int, alpha: Tuple[int, ...], rng: np.random.Generator
    ) -> float:
        """Estimate W(k, alpha) with the pairwise-prefix estimator."""
        k = len(alpha)
        m = self.bucket_samples
        z1 = uniform_challenges(m, k, rng)
        z2 = uniform_challenges(m, k, rng)
        x = uniform_challenges(m, n - k, rng)
        subset = tuple(i for i, flag in enumerate(alpha) if flag)
        chi1 = character_column(z1, subset)
        chi2 = character_column(z2, subset)
        f1 = self._query(np.concatenate([z1, x], axis=1))
        f2 = self._query(np.concatenate([z2, x], axis=1))
        return float(np.mean(f1 * chi1 * f2 * chi2))


def _sign_of_spectrum(
    n: int, spectrum: Dict[Tuple[int, ...], float]
) -> BooleanFunction:
    return _kernel_sign_of_expansion(n, spectrum, name="km_hypothesis")
