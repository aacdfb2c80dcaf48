"""Adaptive challenge-selection strategies for the membership-query adversary.

The paper's access-model axis (Section IV) says the *kind* of oracle
access — not just the sample count — decides attack feasibility.  The
passive learning curves elsewhere in this repo draw challenges i.i.d.
from a distribution (an :class:`~repro.learning.oracles.ExampleOracle`);
this module gives the adversary the stronger chosen-challenge access of
Table I row 4 and lets it *choose* each next query adaptively:

* :class:`UncertaintyStrategy` — margin-based uncertainty sampling: fit
  the current hypothesis (logistic regression over the arbiter parity
  features), then query the candidate challenges closest to the
  hypothesis hyperplane, where one label is worth the most.
* :class:`CommitteeStrategy` — query-by-committee via bagging: a
  committee of logistic fits (the full labelled set plus bootstrap
  resamples) scores each candidate by the magnitude of its *mean*
  margin; candidates the members disagree on (mean margin near zero)
  are queried first.  A committee of one is definitionally identical to
  uncertainty sampling — a differential conformance relation pins that.
* :class:`FastSlowStrategy` — the two-phase schedule of
  Dumoulin–Rao–Devroye (arXiv:2308.13645): a "fast" random exploration
  phase buys a coarse hypothesis cheaply, then a "slow" margin-guided
  refinement phase spends the remaining budget near the boundary.
* :class:`PassiveStrategy` — the i.i.d. baseline, routed through the
  same runner so adaptive-vs-passive comparisons share every other
  degree of freedom (fitter, test set, seed layout).

Query accounting
----------------
Every oracle interaction is metered by the ambient
:class:`~repro.telemetry.meter.QueryMeter`: passive draws land under the
``"ex"`` kind (via :class:`~repro.learning.oracles.ExampleOracle`),
adaptive queries under ``"mq"`` (via
:class:`~repro.learning.oracles.MembershipOracle`), and both inherit the
oracles' count-then-raise budget semantics.  Candidate enumeration and
hypothesis re-evaluation are the attacker's own computation — free — and
held-out test draws run :func:`~repro.telemetry.meter.unmetered`, so the
ledger's query counts equal the attack budget exactly.

Determinism
-----------
A trajectory is a pure function of ``(strategy, target, seed)``: the
candidate pool draw, the first (blind) batch, every bootstrap resample,
and every fit initialisation consume one shared generator in a fixed
order.  Checkpoint evaluation is prefix-based — the labelled set at
budget ``b`` is exactly the first ``b`` queries of the full trajectory —
so curves are comparable point to point like the passive
:func:`~repro.analysis.learning_curves.learning_curve`, and a cached
trajectory (see :func:`repro.runtime.workloads.active_trial`) replays
bit-identically.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from repro.learning.features import FeatureMap
from repro.learning.logistic import LogisticAttack
from repro.learning.oracles import ExampleOracle, MembershipOracle, Target
from repro.pufs.arbiter import parity_transform
from repro.pufs.crp import ChallengeSampler, uniform_challenges
from repro.telemetry import unmetered

#: The strategy names :func:`make_strategy` accepts (the CLI choices).
STRATEGY_NAMES = ("passive", "uncertainty", "committee", "fastslow")


def _smallest_scores(scores: np.ndarray, batch: int) -> np.ndarray:
    """Indices of the ``batch`` smallest scores, ties broken by position.

    A *stable* argsort makes the selection a deterministic function of
    the score vector — the property the committee-of-one ≡ uncertainty
    differential relation relies on.
    """
    order = np.argsort(scores, kind="stable")
    return order[:batch]


class PassiveStrategy:
    """The i.i.d. baseline: challenges drawn from the distribution D.

    Never calls :meth:`select`; :func:`collect_trajectory` routes it
    through an :class:`~repro.learning.oracles.ExampleOracle`, so its
    queries are metered under ``"ex"`` like every other passive draw in
    the repo.
    """

    name = "passive"
    kind = "ex"
    adaptive = False

    def describe(self) -> str:
        """Canonical parameter string (store-key material)."""
        return "passive"


class UncertaintyStrategy:
    """Margin-based uncertainty sampling near the hypothesis hyperplane.

    Each round fits a fresh logistic hypothesis on everything labelled
    so far and queries the candidates with the smallest ``|margin|`` —
    the NumPy-native selection rule for an LTF target: for a halfspace,
    label information is concentrated at the boundary.

    Parameters
    ----------
    feature_map:
        Challenge transform under which the target is (near-)linear;
        defaults to the arbiter parity transform.
    l2, max_iter:
        Passed to :class:`~repro.learning.logistic.LogisticAttack`.
    """

    name = "uncertainty"
    kind = "mq"
    adaptive = True

    def __init__(
        self,
        feature_map: Optional[FeatureMap] = parity_transform,
        l2: float = 1e-4,
        max_iter: int = 500,
    ) -> None:
        self.feature_map = feature_map
        self.l2 = l2
        self.max_iter = max_iter

    def describe(self) -> str:
        """Canonical parameter string (store-key material)."""
        return f"uncertainty(l2={self.l2},max_iter={self.max_iter})"

    def select(
        self,
        x: np.ndarray,
        y: np.ndarray,
        pool: np.ndarray,
        batch: int,
        rng: np.random.Generator,
        total_budget: int,
    ) -> np.ndarray:
        """Indices of the ``batch`` pool candidates nearest the hyperplane."""
        attack = LogisticAttack(
            l2=self.l2, feature_map=self.feature_map, max_iter=self.max_iter
        )
        result = attack.fit(x, y, rng)
        # Raw margins: only magnitudes within one pass are compared, so
        # the weight norm cancels.
        scores = np.abs(result.score(pool))
        return _smallest_scores(scores, batch)


class CommitteeStrategy:
    """Query-by-committee disagreement sampling via bagging.

    Member 0 fits the full labelled set; members 1..c-1 fit bootstrap
    resamples of it (logistic loss is convex, so resampling — not
    initialisation — is what diversifies the committee).  Candidates are
    scored by ``|mean margin across members|``: a mean margin near zero
    means the members disagree on the label, the classic QBC signal.

    With ``committee=1`` the score reduces to ``|margin|`` of the
    full-set fit and the generator consumption matches
    :class:`UncertaintyStrategy` exactly, so the two strategies select
    bit-identical trajectories — the pinned differential relation.
    """

    name = "committee"
    kind = "mq"
    adaptive = True

    def __init__(
        self,
        committee: int = 3,
        feature_map: Optional[FeatureMap] = parity_transform,
        l2: float = 1e-4,
        max_iter: int = 500,
    ) -> None:
        if committee < 1:
            raise ValueError("committee size must be at least 1")
        self.committee = committee
        self.feature_map = feature_map
        self.l2 = l2
        self.max_iter = max_iter

    def describe(self) -> str:
        """Canonical parameter string (store-key material)."""
        return (
            f"committee(c={self.committee},l2={self.l2},"
            f"max_iter={self.max_iter})"
        )

    def select(
        self,
        x: np.ndarray,
        y: np.ndarray,
        pool: np.ndarray,
        batch: int,
        rng: np.random.Generator,
        total_budget: int,
    ) -> np.ndarray:
        """Indices of the ``batch`` candidates the committee disputes most."""
        attack = LogisticAttack(
            l2=self.l2, feature_map=self.feature_map, max_iter=self.max_iter
        )
        margins = np.zeros(pool.shape[0], dtype=np.float64)
        m = y.shape[0]
        for member in range(self.committee):
            if member == 0:
                xr, yr = x, y
            else:
                resample = rng.integers(0, m, size=m)
                xr, yr = x[resample], y[resample]
            result = attack.fit(xr, yr, rng)
            margins += result.score(pool)
        scores = np.abs(margins / self.committee)
        return _smallest_scores(scores, batch)


class FastSlowStrategy:
    """The fast/slow two-phase schedule of arXiv:2308.13645.

    Phase 1 ("fast"): spend ``fast_fraction`` of the total budget on
    uniformly random candidates — cheap exploration that buys a coarse
    hypothesis without per-round fitting.  Phase 2 ("slow"): spend the
    remainder on margin-guided refinement, identical to
    :class:`UncertaintyStrategy`.  The phase boundary is a function of
    the labelled count, so checkpoint prefixes still replay exactly.
    """

    name = "fastslow"
    kind = "mq"
    adaptive = True

    def __init__(
        self,
        fast_fraction: float = 0.5,
        feature_map: Optional[FeatureMap] = parity_transform,
        l2: float = 1e-4,
        max_iter: int = 500,
    ) -> None:
        if not 0.0 <= fast_fraction <= 1.0:
            raise ValueError("fast_fraction must be in [0, 1]")
        self.fast_fraction = fast_fraction
        self.feature_map = feature_map
        self.l2 = l2
        self.max_iter = max_iter

    def describe(self) -> str:
        """Canonical parameter string (store-key material)."""
        return (
            f"fastslow(fast={self.fast_fraction},l2={self.l2},"
            f"max_iter={self.max_iter})"
        )

    def select(
        self,
        x: np.ndarray,
        y: np.ndarray,
        pool: np.ndarray,
        batch: int,
        rng: np.random.Generator,
        total_budget: int,
    ) -> np.ndarray:
        """Random picks in the fast phase, min-|margin| picks in the slow one."""
        if y.shape[0] < self.fast_fraction * total_budget:
            return rng.choice(pool.shape[0], size=batch, replace=False)
        attack = LogisticAttack(
            l2=self.l2, feature_map=self.feature_map, max_iter=self.max_iter
        )
        result = attack.fit(x, y, rng)
        scores = np.abs(result.score(pool))
        return _smallest_scores(scores, batch)


def make_strategy(
    name: str,
    committee: int = 3,
    fast_fraction: float = 0.5,
    feature_map: Optional[FeatureMap] = parity_transform,
    l2: float = 1e-4,
    max_iter: int = 500,
):
    """A :data:`STRATEGY_NAMES` strategy by name, with shared knobs."""
    if name == "passive":
        return PassiveStrategy()
    if name == "uncertainty":
        return UncertaintyStrategy(feature_map=feature_map, l2=l2, max_iter=max_iter)
    if name == "committee":
        return CommitteeStrategy(
            committee=committee, feature_map=feature_map, l2=l2, max_iter=max_iter
        )
    if name == "fastslow":
        return FastSlowStrategy(
            fast_fraction=fast_fraction,
            feature_map=feature_map,
            l2=l2,
            max_iter=max_iter,
        )
    raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")


@dataclasses.dataclass
class Trajectory:
    """The labelled query sequence one strategy produced, in query order."""

    strategy: str  #: the producing strategy's name
    kind: str  #: the meter kind its oracle calls landed in ("ex" or "mq")
    challenges: np.ndarray  #: (B, n) int8, row i was the i-th query asked
    responses: np.ndarray  #: (B,) int8 labels as answered (noise included)
    queries: int  #: oracle queries asked (== B; the accounting identity)


def collect_trajectory(
    n: int,
    target: Target,
    strategy,
    total_budget: int,
    batch: int = 16,
    pool_size: int = 1024,
    rng: Optional[np.random.Generator] = None,
    noise_rate: float = 0.0,
    max_queries: Optional[int] = None,
    sampler: ChallengeSampler = uniform_challenges,
) -> Trajectory:
    """Run one strategy's query loop to ``total_budget`` labelled examples.

    Adaptive strategies draw a free candidate pool (the attacker's own
    enumeration, unmetered), ask their first batch blind (uniformly at
    random from the pool — there is no hypothesis to consult yet), and
    then alternate fit/select/query rounds; every answered challenge is
    a metered ``"mq"`` query against a
    :class:`~repro.learning.oracles.MembershipOracle`.  The passive
    strategy draws i.i.d. batches from an
    :class:`~repro.learning.oracles.ExampleOracle` (metered ``"ex"``).

    ``max_queries`` caps the underlying oracle *below* the requested
    budget if desired; the oracles' count-then-raise semantics apply
    unchanged on the adaptive path (the refused batch is counted, then
    :class:`~repro.learning.oracles.QueryBudgetExceeded` is raised).

    ``noise_rate`` flips each adaptive answer independently, mirroring
    ExampleOracle's classification noise on the passive path.
    """
    if total_budget < 1:
        raise ValueError("total_budget must be positive")
    if batch < 1:
        raise ValueError("batch must be positive")
    rng = np.random.default_rng() if rng is None else rng
    cap = total_budget if max_queries is None else max_queries

    if not strategy.adaptive:
        oracle = ExampleOracle(
            n, target, rng=rng, noise_rate=noise_rate, max_examples=cap
        )
        xs: List[np.ndarray] = []
        ys: List[np.ndarray] = []
        labelled = 0
        while labelled < total_budget:
            take = min(batch, total_budget - labelled)
            x, y = oracle.draw(take)
            xs.append(x)
            ys.append(y)
            labelled += take
        return Trajectory(
            strategy=strategy.name,
            kind=strategy.kind,
            challenges=np.concatenate(xs, axis=0),
            responses=np.concatenate(ys, axis=0),
            queries=oracle.examples_drawn,
        )

    if pool_size < total_budget:
        raise ValueError(
            f"pool_size {pool_size} cannot cover total_budget {total_budget}"
        )
    oracle = MembershipOracle(n, target, max_queries=cap)
    # The candidate pool is the attacker's own enumeration, not an oracle
    # interaction — drawing it must not count toward any query budget.
    with unmetered():
        pool = sampler(pool_size, n, rng)
    available = np.ones(pool_size, dtype=bool)
    challenges = np.empty((0, n), dtype=np.int8)
    responses = np.empty(0, dtype=np.int8)
    while responses.shape[0] < total_budget:
        take = min(batch, total_budget - responses.shape[0])
        open_idx = np.flatnonzero(available)
        candidates = pool[open_idx]
        if responses.shape[0] == 0:
            picks = rng.choice(candidates.shape[0], size=take, replace=False)
        else:
            picks = strategy.select(
                challenges, responses, candidates, take, rng, total_budget
            )
        rows = candidates[picks]
        answers = oracle.query(rows)
        if noise_rate > 0:
            flips = rng.random(take) < noise_rate
            answers = np.where(flips, -answers, answers).astype(np.int8)
        available[open_idx[picks]] = False
        challenges = np.concatenate([challenges, rows.astype(np.int8)], axis=0)
        responses = np.concatenate([responses, answers])
    return Trajectory(
        strategy=strategy.name,
        kind=strategy.kind,
        challenges=challenges,
        responses=responses,
        queries=oracle.queries_made,
    )


def evaluate_trajectory(
    challenges: np.ndarray,
    responses: np.ndarray,
    budgets: Sequence[int],
    test_challenges: np.ndarray,
    test_responses: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    feature_map: Optional[FeatureMap] = parity_transform,
    l2: float = 1e-4,
    max_iter: int = 500,
) -> List[float]:
    """Held-out accuracy of a fresh logistic fit at each budget prefix.

    Budget ``b`` trains on the trajectory's first ``b`` queries — the
    labelled set the adversary actually held after ``b`` oracle calls —
    so the returned curve has the same prefix semantics as the passive
    :func:`~repro.analysis.learning_curves.learning_curve`.  Evaluation
    consumes no oracle queries (the test set was drawn by the caller).
    """
    budgets = sorted(int(b) for b in budgets)
    if not budgets or budgets[0] < 1:
        raise ValueError("budgets must be positive")
    if responses.shape[0] < budgets[-1]:
        raise ValueError(
            f"trajectory has {responses.shape[0]} queries, "
            f"fewer than the largest budget {budgets[-1]}"
        )
    rng = np.random.default_rng() if rng is None else rng
    accuracies = []
    for budget in budgets:
        result = LogisticAttack(
            l2=l2, feature_map=feature_map, max_iter=max_iter
        ).fit(challenges[:budget], responses[:budget], rng)
        accuracies.append(
            float(np.mean(result.predict(test_challenges) == test_responses))
        )
    return accuracies


@dataclasses.dataclass
class ActiveRunResult:
    """One strategy's full adaptive (or passive) attack on one target."""

    strategy: str  #: strategy name
    kind: str  #: meter kind the queries landed in
    budgets: List[int]  #: checkpoint budgets, ascending
    accuracies: List[float]  #: held-out accuracy at each checkpoint
    queries: int  #: metered oracle queries over the whole run
    trajectory: Trajectory  #: the labelled query sequence

    def queries_to_reach(self, accuracy: float) -> Optional[int]:
        """Smallest checkpoint budget whose accuracy meets the target."""
        for budget, acc in zip(self.budgets, self.accuracies):
            if acc >= accuracy:
                return budget
        return None

    def final_accuracy(self) -> float:
        """Accuracy at the largest checkpoint."""
        return self.accuracies[-1]


def run_active_attack(
    n: int,
    target: Target,
    strategy,
    budgets: Sequence[int],
    batch: int = 16,
    pool_size: int = 1024,
    test_size: int = 2000,
    noise_rate: float = 0.0,
    seed: object = 0,
) -> ActiveRunResult:
    """Collect a trajectory, then score it at every checkpoint budget.

    ``seed`` (an int or :class:`numpy.random.SeedSequence`) fans out into
    three independent streams — selection, checkpoint fits, test draw —
    so a cached trajectory can skip the selection stream entirely and
    still reproduce the checkpoint accuracies bit-identically (the
    warm-start property of the ``active`` workload).
    """
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    select_seed, fit_seed, test_seed = root.spawn(3)
    budgets = sorted(int(b) for b in budgets)
    trajectory = collect_trajectory(
        n,
        target,
        strategy,
        budgets[-1],
        batch=batch,
        pool_size=pool_size,
        rng=np.random.default_rng(select_seed),
        noise_rate=noise_rate,
    )
    with unmetered():
        test_x = uniform_challenges(test_size, n, np.random.default_rng(test_seed))
        test_y = np.asarray(target(test_x), dtype=np.int8)
    accuracies = evaluate_trajectory(
        trajectory.challenges,
        trajectory.responses,
        budgets,
        test_x,
        test_y,
        rng=np.random.default_rng(fit_seed),
    )
    return ActiveRunResult(
        strategy=trajectory.strategy,
        kind=trajectory.kind,
        budgets=list(budgets),
        accuracies=accuracies,
        queries=trajectory.queries,
        trajectory=trajectory,
    )
