"""The Matulef-O'Donnell-Rubinfeld-Servedio (MORS) halfspace tester [28].

The tester rests on a Fourier characterisation: a +/-1 function f that *is*
a (regular) halfspace with bias nu = E[f] has degree-1 Fourier weight

    W1[f] = sum_i fhat(i)^2  ~=  W(nu) := 4 phi(Phi^{-1}((1 - nu)/2))^2,

where phi/Phi are the standard normal pdf/cdf (for the majority-like case
nu = 0 this is the familiar 2/pi).  A function that is eps-far from every
halfspace must show a gap between its measured W1 and W(nu).  The tester
therefore estimates nu and W1 from uniformly chosen examples and rejects
when the gap exceeds a threshold.

W1 is estimated without enumerating coordinates via the pair U-statistic

    E_{x,y}[f(x) f(y) (x . y)] = sum_i fhat(i)^2,

which needs only uniformly chosen labelled examples — exactly the
"poly(1/eps) uniformly chosen examples - noiseless CRPs in our case" the
paper feeds its MATLAB implementation.
"""

from __future__ import annotations

import dataclasses
import math
from statistics import NormalDist
from typing import Optional

import numpy as np

from repro.pufs.crp import CRPSet, uniform_challenges


def expected_degree1_weight(nu: float) -> float:
    """W(nu): the degree-1 Fourier weight of a regular halfspace with bias nu.

    W is even in nu, so the quantile is taken at ``(1 - |nu|) / 2``, which
    lies in (0, 1/2] for every |nu| < 1 (``1 - nu`` could round to 2).
    """
    if not -1.0 <= nu <= 1.0:
        raise ValueError(f"bias must be in [-1, 1], got {nu}")
    if abs(nu) >= 1.0:
        return 0.0
    normal = NormalDist()
    theta = normal.inv_cdf((1.0 - abs(nu)) / 2.0)
    return 4.0 * normal.pdf(theta) ** 2


def degree1_weight_ustat(
    challenges: np.ndarray, responses: np.ndarray, rng: Optional[np.random.Generator] = None
) -> float:
    """Estimate W1[f] = sum_i fhat(i)^2 from labelled examples.

    Splits the sample into disjoint pairs (x, y) and averages
    f(x) f(y) (x . y); with m examples this gives m/2 i.i.d. terms.
    """
    challenges = np.asarray(challenges, dtype=np.float64)
    responses = np.asarray(responses, dtype=np.float64)
    m = challenges.shape[0]
    if m < 2:
        raise ValueError("need at least two examples for the pair statistic")
    rng = np.random.default_rng() if rng is None else rng
    order = rng.permutation(m)
    half = m // 2
    xa, xb = challenges[order[:half]], challenges[order[half : 2 * half]]
    ya, yb = responses[order[:half]], responses[order[half : 2 * half]]
    terms = ya * yb * np.sum(xa * xb, axis=1)
    return float(np.mean(terms))


def degree1_weight_coordinate(
    challenges: np.ndarray, responses: np.ndarray
) -> float:
    """Estimate W1[f] coordinate-wise with bias correction.

    Each fhat(i) is estimated as mean(y x_i); squaring adds a 1/m bias per
    coordinate, so n/m is subtracted.  Far lower variance than the pair
    U-statistic when m is small relative to n — this matches the paper's
    n=16 / 100-CRP Table III row being informative at all.
    """
    challenges = np.asarray(challenges, dtype=np.float64)
    responses = np.asarray(responses, dtype=np.float64)
    m, n = challenges.shape
    if m < 2:
        raise ValueError("need at least two examples")
    coeffs = (challenges * responses[:, None]).mean(axis=0)
    return float(np.sum(coeffs**2) - n / m)


@dataclasses.dataclass
class HalfspaceTestResult:
    """Outcome of one MORS test."""

    accepted: bool  # True: consistent with being a halfspace
    bias: float  # estimated E[f]
    degree1_weight: float  # estimated W1
    expected_weight: float  # W(nu) for a true halfspace of that bias
    gap: float  # expected_weight - degree1_weight (positive = missing weight)
    threshold: float  # rejection threshold used
    farness_estimate: float  # crude lower-bound estimate of dist(f, halfspaces)
    examples_used: int

    def summary(self) -> str:
        verdict = "halfspace-consistent" if self.accepted else "far from halfspaces"
        return (
            f"{verdict}: W1={self.degree1_weight:.3f} vs W(nu)={self.expected_weight:.3f} "
            f"(gap {self.gap:+.3f}, threshold {self.threshold:.3f}), "
            f"farness >= {self.farness_estimate:.0%}"
        )


class HalfspaceTester:
    """MORS-style tester over uniformly chosen labelled examples.

    Parameters
    ----------
    eps:
        Farness parameter: the tester distinguishes halfspaces from
        functions eps-far from every halfspace.
    delta:
        Confidence; the rejection threshold includes a
        sqrt(ln(1/delta)/m)-scale sampling slack (the n-dependent variance
        of the pair statistic is accounted for with the observed sample
        standard deviation).
    """

    def __init__(self, eps: float = 0.05, delta: float = 0.01) -> None:
        if not 0 < eps < 1 or not 0 < delta < 1:
            raise ValueError("eps and delta must be in (0, 1)")
        self.eps = eps
        self.delta = delta

    def test_crps(
        self, crps: CRPSet, rng: Optional[np.random.Generator] = None
    ) -> HalfspaceTestResult:
        """Run the tester on a set of uniformly collected CRPs."""
        if len(crps) < 4:
            raise ValueError("need at least four CRPs")
        rng = np.random.default_rng() if rng is None else rng
        challenges = crps.challenges.astype(np.float64)
        responses = crps.responses.astype(np.float64)
        m, n = challenges.shape

        nu = float(np.mean(responses))
        w1 = degree1_weight_coordinate(challenges, responses)
        expected = expected_degree1_weight(np.clip(nu, -0.999999, 0.999999))
        gap = expected - w1

        # Sampling slack of the coordinate estimator: each fhat(i) estimate
        # carries 1/m variance; the bias-corrected sum of squares has
        # variance ~ 4 W1 / m + 2 n / m^2.
        z = math.sqrt(2.0 * math.log(2.0 / self.delta))
        slack = z * math.sqrt(
            4.0 * max(w1, 0.02) / m + 2.0 * n / (m * m)
        )

        # An eps-far function is missing Omega(eps) degree-1 weight relative
        # to the halfspace value (MORS Theorem 1 regime); we use eps/2 as
        # the detection margin.  Rejection is one-sided: only *deficient*
        # degree-1 weight indicates farness (excess W1 means the function
        # is close to a dictator-like LTF — FKN theorem), so irregular but
        # genuine halfspaces are not rejected.
        threshold = self.eps / 2.0 + slack
        accepted = gap <= threshold

        # Crude farness estimate: fraction of missing weight, halved (each
        # disagreement point moves W1 by at most 4/m-scale contributions).
        rel_missing = max(0.0, gap - slack) / max(expected, 1e-12)
        farness = min(0.5, 0.5 * rel_missing)
        return HalfspaceTestResult(
            accepted=accepted,
            bias=nu,
            degree1_weight=w1,
            expected_weight=expected,
            gap=gap,
            threshold=threshold,
            farness_estimate=farness,
            examples_used=len(crps),
        )

    def test_function(
        self,
        n: int,
        target,
        m: int,
        rng: Optional[np.random.Generator] = None,
    ) -> HalfspaceTestResult:
        """Draw ``m`` uniform examples of ``target`` and run the tester."""
        if m < 4:
            raise ValueError("need at least four examples")
        rng = np.random.default_rng() if rng is None else rng
        x = uniform_challenges(m, n, rng)
        y = np.asarray(target(x), dtype=np.int8)
        return self.test_crps(CRPSet(x, y), rng)
