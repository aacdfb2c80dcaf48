"""Declarative metamorphic relations over PUFs, oracles, and bounds.

A *metamorphic relation* is an executable identity that must hold
between two runs of the system under a known input transformation —
"negating the last challenge bit negates an unbiased arbiter's margin",
"a 1-XOR PUF is an arbiter PUF", "more noise means more flips".  Each
relation here is a :class:`Relation` object: a name, a kind, a claim,
and a check function that receives a seeded :class:`RelationContext`
and either returns a details dict or raises.  The suite runner
(:mod:`repro.conformance.suite`) enumerates them, derives each one's
seed from the master ``SeedSequence`` fan-out, allocates statistical
relations an alpha from the family-wise :class:`~repro.conformance
.oracles.ErrorBudget`, and writes one ledger record per relation.

Deterministic relations assert exact (bit-identical) facts and consume
no alpha; statistical relations route every stochastic comparison
through the :mod:`repro.conformance.oracles` checks, so the suite's
total false-failure probability is the documented family bound.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.conformance import oracles as orc
from repro.conformance.seeds import seed_identity
from repro.runtime.seeding import SeedLike, as_seed_sequence


class ConformanceViolation(AssertionError):
    """A relation's contract is refuted by the system under test."""


class RelationContext:
    """Per-relation execution context: seeding, alpha, and scale.

    Parameters
    ----------
    seed:
        The relation's own :class:`~numpy.random.SeedSequence` (a child
        of the suite's master seed fan-out).  Sub-streams are spawned
        deterministically via :meth:`rng`.
    alpha:
        The relation's total false-failure budget; 0.0 for deterministic
        relations (any statistical check request then fails loudly).
    scale:
        Sample-size multiplier; the smoke tier runs at ``scale < 1``.
    """

    def __init__(
        self, seed: SeedLike, alpha: float = 0.0, scale: float = 1.0
    ) -> None:
        self.seed = as_seed_sequence(seed)
        self.alpha = float(alpha)
        self.scale = float(scale)
        self.checks: List[orc.CheckResult] = []
        self._spawned = 0
        self._alpha_spent = 0.0

    def rng(self) -> np.random.Generator:
        """A fresh Generator from the next spawned child seed."""
        child = np.random.SeedSequence(
            self.seed.entropy,
            spawn_key=tuple(self.seed.spawn_key) + (self._spawned,),
        )
        self._spawned += 1
        return np.random.default_rng(child)

    def samples(self, full: int, minimum: int = 512) -> int:
        """Scale a full-tier sample size, never below ``minimum``."""
        return max(minimum, int(full * self.scale))

    def split_alpha(self, parts: int) -> float:
        """An even share of this relation's alpha for one of ``parts`` checks."""
        if self.alpha <= 0.0:
            raise ConformanceViolation(
                "deterministic relation attempted a statistical check "
                "(no alpha allocated)"
            )
        if parts <= 0:
            raise ValueError("parts must be positive")
        return self.alpha / parts

    def check(self, result: orc.CheckResult) -> orc.CheckResult:
        """Record a statistical check, enforce the alpha ledger, require it."""
        self._alpha_spent += result.alpha
        if self._alpha_spent > self.alpha * (1.0 + 1e-12):
            raise ConformanceViolation(
                f"relation overspent its alpha: {self._alpha_spent:g} > {self.alpha:g}"
            )
        self.checks.append(result)
        return result.require()


@dataclasses.dataclass
class Relation:
    """One conformance relation: a named, seeded, reportable contract."""

    name: str  #: unique id, used for ledger records and budget registration
    kind: str  #: "metamorphic" or "differential"
    description: str  #: the contract in one sentence
    check: Callable[[RelationContext], Optional[Dict[str, object]]]
    statistical: bool = False  #: True iff the relation consumes alpha

    def run(self, ctx: RelationContext) -> "RelationReport":
        """Execute against the installed package; never raises."""
        start = time.perf_counter()
        details: Dict[str, object] = {}
        error: Optional[str] = None
        try:
            returned = self.check(ctx)
            if returned:
                details.update(returned)
            passed = True
        except AssertionError as exc:  # includes ConformanceViolation
            passed, error = False, str(exc)
        except Exception as exc:  # a crash is a violation, not a skip
            passed, error = False, f"{type(exc).__name__}: {exc}"
        return RelationReport(
            name=self.name,
            kind=self.kind,
            description=self.description,
            passed=passed,
            error=error,
            alpha=ctx.alpha,
            seed=seed_identity(ctx.seed),
            seconds=time.perf_counter() - start,
            details=details,
            checks=[c.as_dict() for c in ctx.checks],
        )


@dataclasses.dataclass
class RelationReport:
    """JSON-ready outcome of one relation run."""

    name: str
    kind: str
    description: str
    passed: bool
    error: Optional[str]
    alpha: float
    seed: Dict[str, object]
    seconds: float
    details: Dict[str, object]
    checks: List[Dict[str, object]]

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for the JSONL ledger."""
        return dataclasses.asdict(self)

    def summary(self) -> str:
        """One status line for the CLI table."""
        status = "ok" if self.passed else "VIOLATED"
        return f"{status:8s} {self.kind:12s} {self.name}"


# ----------------------------------------------------------------------
# Metamorphic relations
# ----------------------------------------------------------------------
def _random_challenges(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return (1 - 2 * rng.integers(0, 2, size=(m, n))).astype(np.int8)


def _arbiter_negation_symmetry(ctx: RelationContext) -> Dict[str, object]:
    """Flipping the last challenge bit negates an unbiased arbiter margin.

    Every parity feature ``phi_i = prod_{j>=i} c_j`` (i < n) contains the
    last bit, so negating it negates the whole feature vector except the
    bias column; with the bias weight pinned to zero the delay margin —
    and hence the response — must negate *bit-exactly* (IEEE negation
    commutes with addition).
    """
    from repro.pufs.arbiter import ArbiterPUF

    rng = ctx.rng()
    n = 32
    weights = rng.normal(0.0, 1.0, size=n + 1)
    weights[-1] = 0.0  # unbiased: kill the constant column
    puf = ArbiterPUF(n, weights=weights)
    c = _random_challenges(ctx.rng(), 2048, n)
    flipped = c.copy()
    flipped[:, -1] = -flipped[:, -1]
    margin, margin_f = puf.raw_margin(c), puf.raw_margin(flipped)
    if np.any(margin == 0.0):
        raise ConformanceViolation("degenerate zero margin in negation check")
    if not np.array_equal(margin_f, -margin):
        raise ConformanceViolation(
            "last-bit flip did not negate the unbiased arbiter margin bit-exactly"
        )
    if not np.array_equal(puf.eval(flipped), -puf.eval(c)):
        raise ConformanceViolation("responses did not negate under last-bit flip")
    return {"challenges": int(c.shape[0]), "n": n}


def _xor_k1_is_arbiter(ctx: RelationContext) -> Dict[str, object]:
    """A 1-chain XOR arbiter PUF is exactly its single arbiter chain."""
    from repro.pufs.arbiter import ArbiterPUF
    from repro.pufs.xor_arbiter import XORArbiterPUF

    n = 48
    xor = XORArbiterPUF(n, 1, ctx.rng())
    plain = ArbiterPUF(n, weights=xor.chains[0].weights)
    c = _random_challenges(ctx.rng(), 4096, n)
    if not np.array_equal(xor.eval(c), plain.eval(c)):
        raise ConformanceViolation("XOR k=1 response differs from its arbiter chain")
    if not np.array_equal(xor.eval(c), xor.chains[0].eval(c)):
        raise ConformanceViolation("XOR k=1 response differs from chains[0].eval")
    return {"challenges": int(c.shape[0]), "n": n}


def _br_ablation_is_ltf(ctx: RelationContext) -> Dict[str, object]:
    """At ``interaction_scale=0`` the BR PUF collapses to an explicit LTF.

    The ablated device's settling margin is the affine form
    ``offset + sum(a_i) + c . b`` — the same two addends the LTF
    ``sgn(c . b - theta)`` with ``theta = -(offset + sum(a_i))``
    computes, so the responses must agree on every challenge.
    """
    from repro.booleanfuncs.ltf import LTF
    from repro.pufs.bistable_ring import BistableRingPUF

    n = 24
    puf = BistableRingPUF(n, ctx.rng(), interaction_scale=0.0)
    theta = -(puf.global_offset + float(np.sum(puf.bias_terms)))
    ltf = LTF(puf.linear_weights, theta, name="br_ablation")
    c = _random_challenges(ctx.rng(), 4096, n)
    if not np.array_equal(puf.eval(c), ltf(c)):
        raise ConformanceViolation(
            "interaction-free BR PUF disagrees with its explicit LTF form"
        )
    return {"challenges": int(c.shape[0]), "n": n}


def _br_ablation_passes_halfspace_test(ctx: RelationContext) -> Dict[str, object]:
    """The halfspace tester must *accept* the interaction-free BR PUF.

    The property-testing side of the ablation: with the non-linear terms
    off, the device is a halfspace, so a MORS tester run at confidence
    ``delta = alpha`` accepts except with probability ``<= alpha``.
    """
    from repro.property_testing.halfspace_tester import HalfspaceTester
    from repro.pufs.bistable_ring import BistableRingPUF

    puf = BistableRingPUF(32, ctx.rng(), interaction_scale=0.0)
    tester = HalfspaceTester(eps=0.1, delta=ctx.alpha)
    result = tester.test_function(
        32, puf.eval, m=ctx.samples(60_000, minimum=20_000), rng=ctx.rng()
    )
    if not result.accepted:
        raise ConformanceViolation(
            f"tester rejected an actual halfspace: {result.summary()}"
        )
    return {"tester": result.summary(), "m": result.examples_used}


def _br_default_far_from_halfspace(ctx: RelationContext) -> Dict[str, object]:
    """With interactions on, the BR PUF is epsilon-far from every LTF.

    The Table III effect the paper reproduces: the tester must *reject*
    a strongly-interacting BR PUF.  (Rejection power comes from the
    MORS completeness guarantee at this sample size.)
    """
    from repro.property_testing.halfspace_tester import HalfspaceTester
    from repro.pufs.bistable_ring import BistableRingPUF

    puf = BistableRingPUF(32, ctx.rng(), interaction_scale=0.9)
    tester = HalfspaceTester(eps=0.05, delta=0.05)
    result = tester.test_function(
        32, puf.eval, m=ctx.samples(120_000, minimum=30_000), rng=ctx.rng()
    )
    if result.accepted:
        raise ConformanceViolation(
            f"tester accepted a far-from-halfspace BR PUF: {result.summary()}"
        )
    return {"tester": result.summary(), "m": result.examples_used}


def _oracle_noise_conformance(ctx: RelationContext) -> Dict[str, object]:
    """``ExampleOracle(noise_rate=p)`` flips labels at exactly rate p."""
    from repro.learning.oracles import ExampleOracle

    def parity(x: np.ndarray) -> np.ndarray:
        return np.prod(x, axis=1).astype(np.int8)

    rates = (0.05, 0.2, 0.4)
    alpha_each = ctx.split_alpha(len(rates))
    m = ctx.samples(40_000, minimum=8_000)
    observed = {}
    for p in rates:
        oracle = ExampleOracle(8, parity, ctx.rng(), noise_rate=p)
        x, y = oracle.draw(m)
        flips = int(np.sum(y != parity(x)))
        ctx.check(
            orc.check_bernoulli(
                flips, m, p, alpha_each, name=f"oracle_noise_rate[p={p}]"
            )
        )
        observed[str(p)] = flips / m
    return {"m": m, "observed": observed}


def _oracle_noise_monotonicity(ctx: RelationContext) -> Dict[str, object]:
    """A noisier example oracle flips strictly more labels."""
    from repro.learning.oracles import ExampleOracle

    def parity(x: np.ndarray) -> np.ndarray:
        return np.prod(x, axis=1).astype(np.int8)

    m = ctx.samples(20_000, minimum=4_000)
    counts = []
    for p in (0.1, 0.3):
        oracle = ExampleOracle(8, parity, ctx.rng(), noise_rate=p)
        x, y = oracle.draw(m)
        counts.append(int(np.sum(y != parity(x))))
    ctx.check(
        orc.check_two_sample_less(
            counts[0], m, counts[1], m, ctx.alpha, name="noise_rate_monotone"
        )
    )
    return {"m": m, "flips": counts}


def _puf_noise_sigma_monotonicity(ctx: RelationContext) -> Dict[str, object]:
    """A louder measurement process flips more arbiter responses."""
    from repro.pufs.arbiter import ArbiterPUF

    n = 32
    weights = ctx.rng().normal(0.0, 1.0, size=n + 1)
    m = ctx.samples(20_000, minimum=4_000)
    c = _random_challenges(ctx.rng(), m, n)
    counts = []
    for sigma in (0.2, 1.0):
        puf = ArbiterPUF(n, weights=weights, noise_sigma=sigma)
        flips = int(np.sum(puf.eval(c) != puf.eval_noisy(c, ctx.rng())))
        counts.append(flips)
    ctx.check(
        orc.check_two_sample_less(
            counts[0], m, counts[1], m, ctx.alpha, name="noise_sigma_monotone"
        )
    )
    return {"m": m, "flips": counts}


def _majority_vote_denoises(ctx: RelationContext) -> Dict[str, object]:
    """Majority-voted measurements err no more often than single shots."""
    from repro.pufs.arbiter import ArbiterPUF
    from repro.pufs.noise import majority_vote

    n = 32
    puf = ArbiterPUF(n, ctx.rng(), noise_sigma=0.5)
    m = ctx.samples(8_000, minimum=2_000)
    c = _random_challenges(ctx.rng(), m, n)
    ideal = puf.eval(c)
    single = int(np.sum(puf.eval_noisy(c, ctx.rng()) != ideal))
    voted = int(
        np.sum(majority_vote(puf, c, repetitions=15, rng=ctx.rng()) != ideal)
    )
    ctx.check(
        orc.check_two_sample_less(
            voted, m, single, m, ctx.alpha, name="majority_vote_denoises"
        )
    )
    return {"m": m, "single_flips": single, "voted_flips": voted}


def _fleet_majority_vote_denoises(ctx: RelationContext) -> Dict[str, object]:
    """Batched fleet majority voting errs no more than single shots.

    The fleet analogue of :func:`_majority_vote_denoises`: over the whole
    ``(m, N)`` response plane, majority-voted measurements disagree with
    the ideal plane no more often than one noisy measurement does.
    """
    from repro.pufs.fleet import Fleet, FleetSpec

    spec = FleetSpec("arbiter", 32, 8, noise_sigma=0.5)
    fleet = Fleet.build(spec, int(ctx.rng().integers(0, 2**63)))
    m = ctx.samples(2_000, minimum=500)
    c = _random_challenges(ctx.rng(), m, spec.n)
    ideal = fleet.eval(c)
    cells = m * spec.size
    single = int(np.sum(fleet.eval_noisy(c, ctx.rng()) != ideal))
    voted = int(
        np.sum(fleet.majority_vote(c, repetitions=15, rng=ctx.rng()) != ideal)
    )
    ctx.check(
        orc.check_two_sample_less(
            voted, cells, single, cells, ctx.alpha, name="fleet_majority_vote"
        )
    )
    return {"cells": cells, "single_flips": single, "voted_flips": voted}


def _challenge_sampler_conformance(ctx: RelationContext) -> Dict[str, object]:
    """Uniform challenges are fair; ``biased_challenges(p)`` hits rate p."""
    from repro.pufs.crp import biased_challenges, uniform_challenges

    m, n = ctx.samples(2_000, minimum=500), 32
    alpha_each = ctx.split_alpha(2)
    uniform = uniform_challenges(m, n, ctx.rng())
    ctx.check(
        orc.check_bernoulli(
            int(np.sum(uniform == -1)), m * n, 0.5, alpha_each, name="uniform_fair"
        )
    )
    p = 0.7
    biased = biased_challenges(p)(m, n, ctx.rng())
    ctx.check(
        orc.check_bernoulli(
            int(np.sum(biased == -1)), m * n, p, alpha_each, name=f"biased[p={p}]"
        )
    )
    return {"bits": m * n}


def _bounds_monotone(ctx: RelationContext) -> Dict[str, object]:
    """Every Table I bound shrinks as eps or delta grows (easier targets).

    Sample complexity is monotone non-increasing in both PAC parameters;
    a violation would mean a bound formula was transcribed wrong.
    """
    from repro.pac import PACParameters
    from repro.pac.bounds import (
        general_vc_bound,
        learnpoly_bound,
        lmn_bound_log10,
        perceptron_bound,
        sq_chow_example_bound,
    )

    n, k = 64, 4
    eps_grid = (0.01, 0.05, 0.1, 0.2)
    delta_grid = (0.001, 0.01, 0.1, 0.3)
    bounds = {
        "perceptron": lambda p: perceptron_bound(n, k, p),
        "general_vc": lambda p: general_vc_bound(n, k, p),
        "lmn_log10": lambda p: lmn_bound_log10(n, k, p),
        "learnpoly": lambda p: learnpoly_bound(n, k, p, junta_size=4),
    }
    checked = 0
    for name, fn in bounds.items():
        for delta in delta_grid:
            values = [fn(PACParameters(eps=e, delta=delta)) for e in eps_grid]
            if any(a < b for a, b in zip(values, values[1:])):
                raise ConformanceViolation(f"{name} not monotone in eps: {values}")
            checked += 1
        for eps in eps_grid:
            values = [fn(PACParameters(eps=eps, delta=d)) for d in delta_grid]
            if any(a < b for a, b in zip(values, values[1:])):
                raise ConformanceViolation(f"{name} not monotone in delta: {values}")
            checked += 1
    tau_values = [sq_chow_example_bound(n, t) for t in (0.01, 0.05, 0.2)]
    if any(a < b for a, b in zip(tau_values, tau_values[1:])):
        raise ConformanceViolation(f"sq bound not monotone in tau: {tau_values}")
    return {"grids_checked": checked}


def _eq_sample_growth(ctx: RelationContext) -> Dict[str, object]:
    """Simulated-EQ sample sizes grow with the round and with 1/eps, 1/delta."""
    from repro.learning.oracles import angluin_eq_sample_size

    rounds = [angluin_eq_sample_size(0.05, 0.05, i) for i in range(12)]
    if any(a > b for a, b in zip(rounds, rounds[1:])):
        raise ConformanceViolation(f"EQ sample size not monotone in round: {rounds}")
    if not (
        angluin_eq_sample_size(0.01, 0.05, 3) >= angluin_eq_sample_size(0.1, 0.05, 3)
        and angluin_eq_sample_size(0.05, 0.001, 3)
        >= angluin_eq_sample_size(0.05, 0.1, 3)
    ):
        raise ConformanceViolation("EQ sample size not monotone in (eps, delta)")
    return {"round_sizes": rounds[:5]}


def _parseval_exact(ctx: RelationContext) -> Dict[str, object]:
    """FWHT of a +/-1 truth table satisfies Parseval *exactly*.

    Fourier coefficients of a 2^n table are dyadic rationals with
    denominator 2^n; their squares and sum are exactly representable in
    binary64 at n=8, so ``sum fhat^2 == 1.0`` must hold bit-exactly, and
    the unnormalised transform applied twice must give ``2^n * table``.
    """
    from repro.kernels import fwht

    n = 8
    table = (1 - 2 * ctx.rng().integers(0, 2, size=2**n)).astype(np.float64)
    coeffs = fwht(table)
    energy = float(np.sum(coeffs**2))
    if energy != 1.0:
        raise ConformanceViolation(f"Parseval violated: sum fhat^2 = {energy!r}")
    twice = fwht(fwht(table, normalise=False), normalise=False)
    if not np.array_equal(twice, table * 2**n):
        raise ConformanceViolation("unnormalised FWHT is not a scaled involution")
    return {"n": n}


def _xor_response_is_chain_product(ctx: RelationContext) -> Dict[str, object]:
    """A k-XOR response equals the product of its chains' responses."""
    from repro.pufs.xor_arbiter import XORArbiterPUF

    n, k = 24, 5
    puf = XORArbiterPUF(n, k, ctx.rng())
    c = _random_challenges(ctx.rng(), 2048, n)
    product = np.prod(
        np.stack([chain.eval(c) for chain in puf.chains]), axis=0
    ).astype(np.int8)
    if not np.array_equal(puf.eval(c), product):
        raise ConformanceViolation("XOR response is not the product of chain signs")
    return {"n": n, "k": k, "challenges": int(c.shape[0])}


def _active_adaptive_beats_passive(ctx: RelationContext) -> Dict[str, object]:
    """Adaptive selection is no less accurate than passive at equal budget.

    Over several fresh arbiter instances, uncertainty sampling and the
    passive baseline each spend the same total query budget (metered MQ
    vs EX) against the same held-out test set; the adaptive runs' pooled
    error count must not significantly exceed the passive runs' — the
    access-model ordering of Section IV, measured.  One-sided: the check
    only fires on significant evidence that adaptivity *hurts*.
    """
    from repro.learning.active import make_strategy, run_active_attack
    from repro.pufs.arbiter import ArbiterPUF

    n, total, rounds = 24, 160, 3
    test_size = ctx.samples(1_500, minimum=600)
    adaptive_errors = passive_errors = 0
    for _ in range(rounds):
        puf = ArbiterPUF(n, ctx.rng())
        # One seed per round: both strategies then share the held-out
        # test draw (their selection/fit streams stay independent), so
        # the comparison is paired on everything but the access model.
        seed = int(ctx.rng().integers(0, 2**63))
        runs = {
            name: run_active_attack(
                n,
                puf.eval,
                make_strategy(name),
                (total,),
                batch=20,
                pool_size=512,
                test_size=test_size,
                seed=seed,
            )
            for name in ("uncertainty", "passive")
        }
        adaptive_errors += int(
            round((1.0 - runs["uncertainty"].final_accuracy()) * test_size)
        )
        passive_errors += int(
            round((1.0 - runs["passive"].final_accuracy()) * test_size)
        )
    cells = rounds * test_size
    ctx.check(
        orc.check_two_sample_less(
            adaptive_errors,
            cells,
            passive_errors,
            cells,
            ctx.alpha,
            name="active_adaptive_beats_passive",
        )
    )
    return {
        "budget": total,
        "cells": cells,
        "adaptive_errors": adaptive_errors,
        "passive_errors": passive_errors,
    }


def _reliability_attack_beats_chance(ctx: RelationContext) -> Dict[str, object]:
    """The reliability side channel models noisy XOR PUFs above chance.

    Over several fresh noisy 2-XOR arbiter instances, the CMA-ES
    reliability attack trains from repeated measurements alone and
    predicts a noise-free held-out set; the pooled accuracy must clear
    0.6 — far above the 0.5 of a response-only attacker that ignored
    the side channel, far below the attack's typical 0.9+, so the band
    only fires when the covariance adaptation or the chain-peeling
    recursion actually breaks.  One-sided ``check_at_least`` under the
    relation's share of the family alpha.
    """
    from repro.learning.reliability_attack import CMAReliabilityAttack
    from repro.pufs.xor_arbiter import XORArbiterPUF

    n, k, rounds = 16, 2, 3
    test_size = ctx.samples(1_200, minimum=400)
    correct = 0
    accuracies = []
    for _ in range(rounds):
        puf = XORArbiterPUF(n, k, ctx.rng(), noise_sigma=0.4)
        attack = CMAReliabilityAttack(
            crps=3_000,
            repetitions=9,
            generations=30,
            restarts=3,
            refinement_rounds=2,
        )
        result = attack.run(puf, ctx.rng())
        c = _random_challenges(ctx.rng(), test_size, n)
        hits = int(np.sum(result.predict(c) == puf.eval(c)))
        correct += hits
        accuracies.append(hits / test_size)
    cells = rounds * test_size
    ctx.check(
        orc.check_at_least(
            correct,
            cells,
            0.6,
            ctx.alpha,
            name="reliability_attack_beats_chance",
        )
    )
    return {
        "n": n,
        "k": k,
        "cells": cells,
        "accuracies": [round(a, 4) for a in accuracies],
    }


def _fleet_noise_band_matches_dense(ctx: RelationContext) -> Dict[str, object]:
    """Band-limited measurement noise flips answers as often as dense noise.

    :func:`repro.kernels.fleet.noisy_measurements` draws noise only for
    chains within ``NOISE_BAND`` noise standard deviations of the
    threshold; the frozen :func:`repro.kernels.reference
    .naive_dense_noisy_measurements` draws it for every chain.  On an
    arbiter fleet and on a mixed-k XOR fleet whose margins spread about
    three noise sigmas (nearly every chain inside the band, the flip
    probability far from 0 and 1), the two kernels, fed independent
    streams, must disagree with the ideal answer equally often over
    every vote and tail measurement: two one-sided
    ``check_two_sample_less`` per fleet, each at a quarter of the
    relation's alpha.  A band narrower than the noise reach (t = 1)
    loses about 0.02 of flip rate and fails here.
    """
    from repro.kernels.fleet import noisy_measurements, sign_responses
    from repro.kernels.reference import naive_dense_noisy_measurements
    from repro.pufs.fleet import Fleet, FleetSpec

    alpha = ctx.split_alpha(4)
    n, repetitions, extra = 32, 5, 2
    m = ctx.samples(4_000, minimum=1_000)
    specs = {
        "arbiter": FleetSpec("arbiter", n, 64, noise_sigma=2.0),
        "mixed-xor": FleetSpec("xor", n, 64, k=(1, 2, 3, 4) * 16, noise_sigma=2.0),
    }
    details: Dict[str, object] = {"m": m, "measurements": repetitions + extra}
    for name, spec in specs.items():
        fleet = Fleet.build(spec, int(ctx.rng().integers(0, 2**63)))
        margins = fleet.margins(_random_challenges(ctx.rng(), m, n))
        ideal = sign_responses(margins, fleet.chain_offsets)
        flips = []
        for kernel in (noisy_measurements, naive_dense_noisy_measurements):
            negatives, tail = kernel(
                margins,
                spec.noise_sigma,
                repetitions,
                ctx.rng(),
                fleet.chain_offsets,
                extra,
            )
            vote_flips = np.where(ideal < 0, repetitions - negatives, negatives)
            flips.append(int(np.sum(vote_flips)) + int(np.sum(tail != ideal)))
        cells = (repetitions + extra) * m * spec.size
        band, dense = flips
        ctx.check(
            orc.check_two_sample_less(
                band, cells, dense, cells, alpha, name=f"{name}_band_le_dense"
            )
        )
        ctx.check(
            orc.check_two_sample_less(
                dense, cells, band, cells, alpha, name=f"{name}_dense_le_band"
            )
        )
        details[name] = {"cells": cells, "band_flips": band, "dense_flips": dense}
    return details


def metamorphic_relations() -> List[Relation]:
    """The registry of metamorphic relations, in stable order."""
    return [
        Relation(
            "arbiter_last_bit_negation",
            "metamorphic",
            "flipping the last challenge bit negates an unbiased arbiter "
            "margin bit-exactly",
            _arbiter_negation_symmetry,
        ),
        Relation(
            "xor_k1_equals_arbiter",
            "metamorphic",
            "a 1-chain XOR arbiter PUF is exactly its arbiter chain",
            _xor_k1_is_arbiter,
        ),
        Relation(
            "br_ablation_is_ltf",
            "metamorphic",
            "interaction_scale=0 collapses the BR PUF to an explicit LTF",
            _br_ablation_is_ltf,
        ),
        Relation(
            "br_ablation_passes_halfspace_test",
            "metamorphic",
            "the MORS tester accepts the interaction-free BR PUF",
            _br_ablation_passes_halfspace_test,
            statistical=True,
        ),
        Relation(
            "br_default_far_from_halfspace",
            "metamorphic",
            "the MORS tester rejects a strongly-interacting BR PUF (Table III)",
            _br_default_far_from_halfspace,
            statistical=True,
        ),
        Relation(
            "oracle_noise_rate_conformance",
            "metamorphic",
            "ExampleOracle(noise_rate=p) flips labels at exactly rate p",
            _oracle_noise_conformance,
            statistical=True,
        ),
        Relation(
            "oracle_noise_rate_monotonicity",
            "metamorphic",
            "higher oracle noise_rate means more label flips",
            _oracle_noise_monotonicity,
            statistical=True,
        ),
        Relation(
            "puf_noise_sigma_monotonicity",
            "metamorphic",
            "higher measurement noise_sigma means more response flips",
            _puf_noise_sigma_monotonicity,
            statistical=True,
        ),
        Relation(
            "majority_vote_denoises",
            "metamorphic",
            "majority-voted measurements err no more than single shots",
            _majority_vote_denoises,
            statistical=True,
        ),
        Relation(
            "fleet_majority_vote_denoises",
            "metamorphic",
            "batched fleet majority voting errs no more than single shots",
            _fleet_majority_vote_denoises,
            statistical=True,
        ),
        Relation(
            "challenge_sampler_conformance",
            "metamorphic",
            "uniform challenges are fair coins; biased_challenges hits its p",
            _challenge_sampler_conformance,
            statistical=True,
        ),
        Relation(
            "bounds_monotone_in_eps_delta",
            "metamorphic",
            "every Table I bound is monotone non-increasing in eps and delta",
            _bounds_monotone,
        ),
        Relation(
            "eq_sample_size_growth",
            "metamorphic",
            "simulated-EQ sample sizes grow with round index, 1/eps, 1/delta",
            _eq_sample_growth,
        ),
        Relation(
            "parseval_exact",
            "metamorphic",
            "FWHT of a +/-1 truth table satisfies Parseval bit-exactly",
            _parseval_exact,
        ),
        Relation(
            "xor_response_is_chain_product",
            "metamorphic",
            "a k-XOR response is the product of its chains' responses",
            _xor_response_is_chain_product,
        ),
        Relation(
            "active_adaptive_beats_passive",
            "metamorphic",
            "adaptive uncertainty sampling is no less accurate than the "
            "passive baseline at equal query budget",
            _active_adaptive_beats_passive,
            statistical=True,
        ),
        Relation(
            "reliability_attack_beats_chance",
            "metamorphic",
            "the CMA-ES reliability side channel models noisy XOR PUFs "
            "well above chance from repeated measurements alone",
            _reliability_attack_beats_chance,
            statistical=True,
        ),
        Relation(
            "fleet_noise_band_matches_dense",
            "metamorphic",
            "fleet measurements that draw noise only near the threshold flip "
            "answers as often as the frozen dense noise draw",
            _fleet_noise_band_matches_dense,
            statistical=True,
        ),
    ]
