"""Picklable trial workloads for the parallel runtime.

:class:`~repro.runtime.runner.TrialRunner` ships trial functions to
worker processes, so they must be module-level callables.  This module
collects the standard experiment shapes — the learning-curve trial used
by ``python -m repro trials`` and the CRP-collection trial the cache
benchmarks replay — with all parameters passed as plain dataclasses.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.kernels import CharacterBasis, DEFAULT_CHARACTER_BLOCK
from repro.learning.logistic import LogisticAttack
from repro.pufs.arbiter import ArbiterPUF, parity_transform
from repro.pufs.bistable_ring import BistableRingPUF
from repro.pufs.crp import generate_crps, uniform_challenges
from repro.pufs.fleet import Fleet, FleetSpec
from repro.pufs.metrics import response_plane_uniqueness
from repro.pufs.xor_arbiter import XORArbiterPUF
from repro.runtime.chunking import DEFAULT_BLOCK_SIZE, generate_crps_blocked
from repro.runtime.store import ArtifactStore
from repro.runtime.runner import TrialContext
from repro.telemetry import unmetered


@dataclasses.dataclass(frozen=True)
class LearningCurveSpec:
    """One learning-curve trial: fresh PUF, one pool, accuracy per budget."""

    n: int = 48
    k: int = 1  # 1 = plain arbiter chain; >1 = XOR arbiter
    budgets: Tuple[int, ...] = (100, 400, 1600)
    test_size: int = 2000

    def __post_init__(self) -> None:
        if self.n <= 0 or self.k <= 0:
            raise ValueError("n and k must be positive")
        if not self.budgets or min(self.budgets) < 1:
            raise ValueError("budgets must be positive")
        if self.test_size <= 0:
            raise ValueError("test_size must be positive")

    @property
    def sorted_budgets(self) -> Tuple[int, ...]:
        """The CRP budgets in ascending order (the evaluation order)."""
        return tuple(sorted(int(b) for b in self.budgets))


def learning_curve_trial(ctx: TrialContext, spec: LearningCurveSpec) -> np.ndarray:
    """Accuracy of the logistic attack at each budget, for one fresh PUF.

    All randomness (instance weights, CRP draws, learner init) comes from
    ``ctx``, so the result is a pure function of ``(master_seed, index)``
    — the determinism contract of :class:`TrialRunner`.
    """
    rng = ctx.rng
    if spec.k == 1:
        puf = ArbiterPUF(spec.n, rng)
    else:
        puf = XORArbiterPUF(spec.n, spec.k, rng)
    budgets = spec.sorted_budgets
    pool = generate_crps_blocked(puf, budgets[-1], rng)
    # Held-out evaluation is not an adversary query: suspend the meter so
    # the ledger's EX count equals the attack budget exactly.
    with unmetered():
        test = generate_crps_blocked(puf, spec.test_size, rng)
    accuracies = np.empty(len(budgets))
    for i, budget in enumerate(budgets):
        result = LogisticAttack(feature_map=parity_transform).fit(
            pool.challenges[:budget], pool.responses[:budget], rng
        )
        accuracies[i] = float(
            np.mean(result.predict(test.challenges) == test.responses)
        )
    return accuracies


@dataclasses.dataclass(frozen=True)
class ActiveTrialSpec:
    """One active-learning trial: adaptive challenge selection on a fresh PUF.

    The trial collects a :class:`~repro.learning.active.Trajectory` with
    the named strategy (``passive``/``uncertainty``/``committee``/
    ``fastslow``), then fits a logistic hypothesis at every budget prefix
    and reports held-out accuracy — the adaptive counterpart of
    :class:`LearningCurveSpec`, with every oracle call metered under the
    access model that produced it ("ex" passive, "mq" adaptive).
    """

    n: int = 32
    k: int = 1  # 1 = plain arbiter chain; >1 = XOR arbiter
    strategy: str = "uncertainty"
    budgets: Tuple[int, ...] = (64, 128, 256)
    batch: int = 16
    pool_size: int = 1024
    committee: int = 3
    fast_fraction: float = 0.5
    test_size: int = 2000
    noise_rate: float = 0.0

    def __post_init__(self) -> None:
        from repro.learning.active import STRATEGY_NAMES

        if self.n <= 0 or self.k <= 0:
            raise ValueError("n and k must be positive")
        if self.strategy not in STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected {STRATEGY_NAMES}"
            )
        if not self.budgets or min(self.budgets) < 1:
            raise ValueError("budgets must be positive")
        if self.batch < 1 or self.committee < 1:
            raise ValueError("batch and committee must be positive")
        if self.pool_size < max(self.budgets):
            raise ValueError("pool_size must cover the largest budget")
        if not 0.0 <= self.fast_fraction <= 1.0:
            raise ValueError("fast_fraction must be in [0, 1]")
        if self.test_size <= 0:
            raise ValueError("test_size must be positive")
        if not 0.0 <= self.noise_rate < 0.5:
            raise ValueError("noise_rate must be in [0, 0.5)")

    @property
    def sorted_budgets(self) -> Tuple[int, ...]:
        """The query budgets in ascending order (the checkpoint order)."""
        return tuple(sorted(int(b) for b in self.budgets))


def active_trial(
    ctx: TrialContext,
    spec: ActiveTrialSpec,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
) -> np.ndarray:
    """Held-out accuracy at each budget checkpoint for one adaptive attack.

    Seed layout (four independent streams off the trial seed): instance
    weights, query selection, checkpoint fit initialisations, and the
    held-out test draw.  With ``cache_dir`` set, the completed trajectory
    is memoised in an :class:`~repro.runtime.store.ArtifactStore` keyed
    by (PUF spec, trial seed, strategy parameters); a warm rerun skips
    the entire selection loop — every near-hyperplane re-evaluation —
    and replays the cached query sequence, with the hit recorded under
    the strategy's own query kind (``"mq"`` for adaptive strategies) so
    the ledger stays an honest account of the access model.  Because the
    selection stream is independent of the fit and test streams, cold
    and warm runs are bit-identical.
    """
    from repro.learning.active import (
        collect_trajectory,
        evaluate_trajectory,
        make_strategy,
    )
    from repro.pufs.crp import CRPSet

    instance_seed, select_seed, fit_seed, test_seed = ctx.seed.spawn(4)
    instance_rng = np.random.default_rng(instance_seed)
    if spec.k == 1:
        puf = ArbiterPUF(spec.n, instance_rng)
        puf_spec = f"ArbiterPUF(n={spec.n})"
    else:
        puf = XORArbiterPUF(spec.n, spec.k, instance_rng)
        puf_spec = f"XORArbiterPUF(n={spec.n}, k={spec.k})"
    strategy = make_strategy(
        spec.strategy,
        committee=spec.committee,
        fast_fraction=spec.fast_fraction,
    )
    budgets = spec.sorted_budgets
    total = budgets[-1]
    # The challenge-set identity of an adaptive trajectory is its full
    # generation recipe (strategy + loop shape), not a distribution name.
    # The total budget is key material: unlike i.i.d. draws, a shorter
    # adaptive trajectory is not in general a prefix of a longer one
    # (the fast/slow phase boundary moves with the total), so the
    # store's row-count-free prefix reuse must not cross budgets.
    trajectory_id = (
        f"active:{strategy.describe()}:batch={spec.batch}"
        f":pool={spec.pool_size}:noise={spec.noise_rate}:total={total}"
    )

    def generate() -> CRPSet:
        trajectory = collect_trajectory(
            spec.n,
            puf.eval,
            strategy,
            total,
            batch=spec.batch,
            pool_size=spec.pool_size,
            rng=np.random.default_rng(select_seed),
            noise_rate=spec.noise_rate,
        )
        return CRPSet(trajectory.challenges, trajectory.responses)

    if cache_dir is not None:
        crps = ArtifactStore(cache_dir, max_bytes=cache_max_bytes).get_or_generate(
            puf_spec=puf_spec,
            seed=(ctx.seed.entropy, tuple(ctx.seed.spawn_key), ctx.index),
            distribution=trajectory_id,
            m=total,
            generate=generate,
            noisy=spec.noise_rate > 0,
            record_kind=strategy.kind,
        )
    else:
        crps = generate()
    with unmetered():
        test_rng = np.random.default_rng(test_seed)
        test_x = uniform_challenges(spec.test_size, spec.n, test_rng)
        test_y = puf.eval(test_x)
    accuracies = evaluate_trajectory(
        crps.challenges,
        crps.responses,
        budgets,
        test_x,
        test_y,
        rng=np.random.default_rng(fit_seed),
    )
    return np.asarray(accuracies, dtype=np.float64)


@dataclasses.dataclass(frozen=True)
class FaultInjectionSpec:
    """Deterministic fault injection for the runtime's failure semantics.

    The trial draws ``size`` uniforms from its own stream (so survivors
    and retries are bit-identical to a clean run), then misbehaves on the
    configured indices:

    * ``fail_indices`` raise ``ValueError`` on *every* attempt — a
      deterministic trial bug, which the runner must report as a
      :class:`~repro.runtime.runner.TrialError` and never retry;
    * ``exit_indices`` hard-kill the hosting process with ``os._exit`` —
      what a SIGKILL'd/OOM'd worker looks like to the pool
      (``BrokenProcessPool``); **never run these on the serial path**,
      they would kill the parent;
    * ``hang_indices`` sleep ``hang_seconds`` — a hung worker for the
      ``trial_timeout`` machinery.

    With ``once_dir`` set, exit/hang faults arm only on the first attempt:
    a marker file per index (atomic ``O_EXCL`` create, so pool workers
    race safely) disarms the fault and the retry succeeds.  ``fail``
    faults ignore ``once_dir`` — a deterministic exception that vanished
    on retry would be exactly the misreporting this runtime exists to
    prevent.  ``sleep_seconds`` stretches every trial, giving kill-test
    harnesses a window to interrupt mid-run.
    """

    size: int = 4
    sleep_seconds: float = 0.0
    fail_indices: Tuple[int, ...] = ()
    exit_indices: Tuple[int, ...] = ()
    hang_indices: Tuple[int, ...] = ()
    hang_seconds: float = 60.0
    once_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("size must be positive")
        if self.sleep_seconds < 0 or self.hang_seconds < 0:
            raise ValueError("sleep/hang durations must be non-negative")


def _fault_armed(spec: FaultInjectionSpec, index: int) -> bool:
    """Whether an injected infra fault fires on this attempt.

    Without ``once_dir`` faults always fire; with it, the first caller to
    create the marker wins the right to misbehave and later attempts run
    clean.
    """
    if spec.once_dir is None:
        return True
    marker = Path(spec.once_dir) / f"fault-fired-{index}"
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def fault_injection_trial(ctx: TrialContext, spec: FaultInjectionSpec) -> np.ndarray:
    """A cheap trial that can fail, hang, or kill its host on demand.

    The returned draw is a pure function of the trial's seed, so killed
    and resumed runs reproduce surviving trials bit-identically — the
    property every fault test in ``tests/runtime`` pins down.
    """
    value = ctx.rng.random(spec.size)
    if spec.sleep_seconds > 0:
        time.sleep(spec.sleep_seconds)
    if ctx.index in spec.exit_indices and _fault_armed(spec, ctx.index):
        os._exit(42)  # abrupt worker death; the pool sees BrokenProcessPool
    if ctx.index in spec.hang_indices and _fault_armed(spec, ctx.index):
        time.sleep(spec.hang_seconds)
    if ctx.index in spec.fail_indices:
        raise ValueError(f"injected failure in trial {ctx.index}")
    return value


@dataclasses.dataclass(frozen=True)
class SkewedSleepSpec:
    """A sleep-bound trial mix with all the slow trials clustered up front.

    The adversarial case for static partitioning: contiguous sharding
    hands every slow trial to shard 0, so without stealing the run's
    wall clock is shard 0's serial grind while the other shards idle.
    The work-stealing scheduler must rebalance it — this is the trial
    mix behind the ``--shards`` scaling case of ``BENCH_store.json``.
    Trials sleep (they do not spin), so shard scaling is observable even
    on a single-CPU host.

    ``slow_count`` leading trial indices sleep ``slow_seconds``; the
    rest sleep ``fast_seconds``.  The returned draw is a pure function
    of the trial's seed (sleeps consume no randomness), preserving
    bit-identical replay across shard counts.
    """

    slow_count: int = 4
    slow_seconds: float = 0.4
    fast_seconds: float = 0.01
    size: int = 4

    def __post_init__(self) -> None:
        if self.slow_count < 0:
            raise ValueError("slow_count must be non-negative")
        if self.slow_seconds < 0 or self.fast_seconds < 0:
            raise ValueError("sleep durations must be non-negative")
        if self.size <= 0:
            raise ValueError("size must be positive")


def skewed_sleep_trial(ctx: TrialContext, spec: SkewedSleepSpec) -> np.ndarray:
    """Sleep slow/fast by index position, return a seed-pure draw."""
    value = ctx.rng.random(spec.size)
    duration = (
        spec.slow_seconds if ctx.index < spec.slow_count else spec.fast_seconds
    )
    if duration > 0:
        time.sleep(duration)
    return value


@dataclasses.dataclass(frozen=True)
class ChowTrialSpec:
    """One Chow-parameter trial on a fresh BR PUF — generation-heavy."""

    n: int = 64
    m: int = 20_000
    interaction_scale: float = 0.55
    block_size: int = DEFAULT_BLOCK_SIZE


def chow_brpuf_trial(
    ctx: TrialContext,
    spec: ChowTrialSpec,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
) -> np.ndarray:
    """Chow parameters of a fresh BR PUF from ``m`` noiseless CRPs.

    The CRP pool dominates the cost; with ``cache_dir`` set it is
    memoised in an :class:`~repro.runtime.store.ArtifactStore` keyed by
    (spec, trial seed), so a warm re-run skips generation entirely and
    only the O(n m) Chow estimate remains.  The hit path consumes no
    randomness, so cold and warm runs are bit-identical.
    ``cache_max_bytes`` caps the store with LRU eviction.
    """
    instance_rng, crp_rng = ctx.spawn_rngs(2)
    puf = BistableRingPUF(
        spec.n, instance_rng, interaction_scale=spec.interaction_scale
    )
    puf_spec = (
        f"BistableRingPUF(n={spec.n}, interaction_scale={spec.interaction_scale})"
    )

    def generate():
        return generate_crps_blocked(
            puf, spec.m, crp_rng, block_size=spec.block_size
        )

    if cache_dir is not None:
        crps = ArtifactStore(cache_dir, max_bytes=cache_max_bytes).get_or_generate(
            puf_spec=puf_spec,
            seed=(ctx.seed.entropy, tuple(ctx.seed.spawn_key), ctx.index),
            distribution="uniform",
            m=spec.m,
            generate=generate,
        )
    else:
        crps = generate()
    # Chow parameters are exactly the degree-<=1 Fourier coefficients
    # E[f(x)] and E[f(x) x_i], in the kernel's [(), (0,), ..., (n-1,)]
    # column order — one blocked GEMM, bit-identical to the former
    # explicit ``x.T @ y / m`` (integer-valued partial sums are exact).
    basis = CharacterBasis.low_degree(spec.n, 1)
    return basis.estimate_coefficients(
        crps.challenges, crps.responses, block_size=spec.block_size
    )


@dataclasses.dataclass(frozen=True)
class FleetEvalSpec:
    """One fleet-evaluation trial: build a population, evaluate it batched.

    The trial is the runtime face of the stacked-GEMM fleet layer: it
    constructs a :class:`~repro.pufs.fleet.Fleet` from the trial's seed
    line, answers ``m`` challenges against all ``size`` instances in one
    GEMM, and reports population statistics.  ``tier`` selects the dtype
    tier; the cache key of the memoised response plane includes it, so
    an int8 run can never be served a float64 entry (or vice versa).
    """

    family: str = "arbiter"
    n: int = 64
    size: int = 256
    k: int = 4
    correlation: float = 0.0
    noise_sigma: float = 0.05
    tier: str = "float64"
    m: int = 2000
    repetitions: int = 5

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError("m must be positive")
        if self.repetitions <= 0:
            raise ValueError("repetitions must be positive")
        self.fleet_spec()  # validates family/n/size/k/tier eagerly

    def fleet_spec(self) -> FleetSpec:
        """The validated FleetSpec this trial builds."""
        return FleetSpec(
            family=self.family,
            n=self.n,
            size=self.size,
            k=self.k if self.family == "xor" else 1,
            correlation=self.correlation,
            noise_sigma=self.noise_sigma,
            tier=self.tier,
        )


def fleet_eval_trial(
    ctx: TrialContext,
    spec: FleetEvalSpec,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
) -> np.ndarray:
    """[uniqueness, mean uniformity, mean reliability] of one fresh fleet.

    Seed layout: the trial seed's first spawn child builds the fleet
    (its own fan-out gives every instance a private line), the second
    drives challenge draws and measurement noise.  The ideal response
    plane is memoised by (fleet spec, seed, tier, shape) when
    ``cache_dir`` is set; reliability needs fresh noisy measurements and
    is always computed live.

    Work a store hit makes redundant is skipped, without changing any
    value.  The fleet is built lazily, at most once: only when the plane
    is generated (no store, or a store miss) or the noisy reliability
    branch runs.  The build consumes only the fleet seed, so when it
    happens does not matter.  The challenges are drawn only when the
    plane is generated, or just before the noisy branch on a hit: the
    measurement noise comes from the same generator right after the
    challenge draw, so that branch must advance it past the draw.  A
    noiseless store hit builds nothing and draws nothing.
    """
    fleet_seed, crp_seed = ctx.seed.spawn(2)
    fleet_spec = spec.fleet_spec()
    fleet: Optional[Fleet] = None
    rng = np.random.default_rng(crp_seed)
    generated = False

    def built_fleet() -> Fleet:
        nonlocal fleet
        if fleet is None:
            fleet = Fleet.build(fleet_spec, fleet_seed)
        return fleet

    def generate():
        nonlocal generated
        generated = True
        challenges = uniform_challenges(spec.m, spec.n, rng)
        return challenges, built_fleet().eval(challenges)

    if cache_dir is not None:
        store = ArtifactStore(cache_dir, max_bytes=cache_max_bytes)
        challenges, plane = store.get_or_generate_fleet(
            fleet_spec=fleet_spec.describe(),
            seed=(ctx.seed.entropy, tuple(ctx.seed.spawn_key), ctx.index),
            distribution="uniform",
            tier=spec.tier,
            shape=(spec.n, spec.size),
            m=spec.m,
            generate=generate,
        )
    else:
        challenges, plane = generate()

    uniqueness = (
        response_plane_uniqueness(plane) if spec.size >= 2 else float("nan")
    )
    uniformity = float(np.mean(plane == -1))
    if spec.noise_sigma > 0 and spec.repetitions > 1:
        if not generated:
            # A hit's rows are this draw; the noise must follow it.
            uniform_challenges(spec.m, spec.n, rng)
        voted, meas = built_fleet().vote_and_measure(
            challenges, spec.repetitions, rng
        )
        reliability = float(np.mean(meas == voted))
    else:
        reliability = 1.0
    return np.array([uniqueness, uniformity, reliability])


@dataclasses.dataclass(frozen=True)
class LMNTrialSpec:
    """One LMN trial on a fresh XOR Arbiter PUF over parity features.

    Mirrors the E4 benchmark shape: the n-stage challenge is mapped to
    the n-column parity feature space (the constant feature dropped), and
    the degree-<=``degree`` spectrum is estimated from ``m`` uniform
    CRPs through the character kernel.
    """

    n: int = 12
    k: int = 2
    degree: int = 3
    m: int = 25_000
    test_size: int = 5_000
    block_size: int = DEFAULT_CHARACTER_BLOCK

    def __post_init__(self) -> None:
        if self.n <= 0 or self.k <= 0:
            raise ValueError("n and k must be positive")
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if self.m <= 0 or self.test_size <= 0:
            raise ValueError("m and test_size must be positive")


def lmn_trial(ctx: TrialContext, spec: LMNTrialSpec) -> np.ndarray:
    """[captured_weight, test_accuracy] of LMN on one fresh XOR PUF.

    The training sample is drawn through an
    :class:`~repro.learning.oracles.ExampleOracle` so the trial meter sees
    exactly ``m`` EX queries; the held-out test draw is unmetered.  The
    oracle's uniform sampler consumes the rng stream identically to the
    former inline draw, so results are bit-identical across PRs.
    """
    from repro.learning.lmn import LMNLearner
    from repro.learning.oracles import ExampleOracle

    instance_rng, crp_rng = ctx.spawn_rngs(2)
    puf = XORArbiterPUF(spec.n, spec.k, instance_rng)

    def features(challenges: np.ndarray) -> np.ndarray:
        return parity_transform(challenges)[:, :-1].astype(np.int8)

    oracle = ExampleOracle(spec.n, puf.eval, rng=crp_rng)
    train, responses = oracle.draw(spec.m)
    result = LMNLearner(degree=spec.degree).fit_sample(
        features(train), responses
    )
    with unmetered():
        test = uniform_challenges(spec.test_size, spec.n, crp_rng)
    accuracy = float(
        np.mean(result.hypothesis(features(test)) == puf.eval(test))
    )
    return np.array([result.captured_weight, accuracy])


@dataclasses.dataclass(frozen=True)
class KMTrialSpec:
    """One Kushilevitz-Mansour trial against an arbiter PUF's feature LTF.

    The arbiter parity map is a bijection on the hypercube, so a
    membership query in feature space is a physically realisable
    chosen-challenge query — the access model of Table I row 4.  The
    target has arity ``n + 1`` (the n parity features plus the constant
    column, freed to +/-1 under membership queries).
    """

    n: int = 12
    theta: float = 0.25
    bucket_samples: int = 2048
    coefficient_samples: int = 8192
    test_size: int = 2000

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        if not 0 < self.theta <= 1:
            raise ValueError("theta must be in (0, 1]")
        if self.bucket_samples < 1 or self.coefficient_samples < 1:
            raise ValueError("sample counts must be positive")
        if self.test_size <= 0:
            raise ValueError("test_size must be positive")


def km_trial(ctx: TrialContext, spec: KMTrialSpec) -> np.ndarray:
    """[test_accuracy, membership_queries] of KM on one fresh arbiter PUF.

    The raw target callable goes straight to
    :class:`~repro.learning.KushilevitzMansour`, whose internal query path
    records every row as an MQ query (wrapping the target in a
    ``MembershipOracle`` would double-count).
    """
    from repro.learning.kushilevitz_mansour import KushilevitzMansour

    instance_rng, query_rng = ctx.spawn_rngs(2)
    puf = ArbiterPUF(spec.n, instance_rng)
    weights = puf.weights
    arity = spec.n + 1

    def target(z: np.ndarray) -> np.ndarray:
        margins = np.asarray(z, dtype=np.float64) @ weights
        return np.where(margins >= 0, 1, -1).astype(np.int8)

    km = KushilevitzMansour(
        theta=spec.theta,
        bucket_samples=spec.bucket_samples,
        coefficient_samples=spec.coefficient_samples,
    )
    result = km.fit(arity, target, query_rng)
    with unmetered():
        test = uniform_challenges(spec.test_size, arity, query_rng)
    accuracy = float(np.mean(result.hypothesis(test) == target(test)))
    return np.array([accuracy, float(result.membership_queries)])


@dataclasses.dataclass(frozen=True)
class SQTrialSpec:
    """One statistical-query Chow trial on a random feature-space LTF.

    ``n`` is the oracle arity (the feature dimension); the learner asks
    exactly ``n + 1`` correlational queries.  ``mode`` selects the
    sampling oracle (realistic, example-backed) or the adversarial
    tau-rounding oracle of the SQ lower-bound argument.
    """

    n: int = 32
    tau: float = 0.05
    mode: str = "sampling"
    test_size: int = 2000

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        if not 0 < self.tau < 1:
            raise ValueError("tau must be in (0, 1)")
        if self.mode not in ("adversarial", "sampling"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.test_size <= 0:
            raise ValueError("test_size must be positive")


def sq_trial(ctx: TrialContext, spec: SQTrialSpec) -> np.ndarray:
    """[test_accuracy, sq_queries] of the Chow learner on a random LTF."""
    from repro.learning.statistical_query import SQChowLearner, SQOracle

    instance_rng, query_rng = ctx.spawn_rngs(2)
    weights = instance_rng.normal(0.0, 1.0, size=spec.n)

    def target(z: np.ndarray) -> np.ndarray:
        margins = np.asarray(z, dtype=np.float64) @ weights
        return np.where(margins >= 0, 1, -1).astype(np.int8)

    oracle = SQOracle(spec.n, target, tau=spec.tau, mode=spec.mode, rng=query_rng)
    result = SQChowLearner().fit(oracle)
    with unmetered():
        test = uniform_challenges(spec.test_size, spec.n, query_rng)
    accuracy = float(np.mean(result.predict(test) == target(test)))
    return np.array([accuracy, float(result.queries_made)])
