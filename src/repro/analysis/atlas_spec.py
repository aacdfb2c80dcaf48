"""The atlas workload: its grid spec, its cell trial and the smoke grid.

:data:`~repro.runtime.workloads.WORKLOADS` lists the atlas as a workload
through these three names alone, so this module is kept apart from
:mod:`repro.analysis.atlas` (grid expansion, reduction, boundary maps,
the end-to-end run), which :func:`atlas_trial` imports in its body and
which re-exports all three.  A fleet or serve process that imports the
registry loads this module, never the atlas proper.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.runtime.runner import TrialContext

#: Canonical axis orders; specs are reordered onto these regardless of
#: how the caller listed the values, so cell enumeration (and therefore
#: the trial-index mapping and every digest) is axis-order invariant.
FAMILY_ORDER: Tuple[str, ...] = ("xor", "cdc_xor")
LEARNER_ORDER: Tuple[str, ...] = ("lr", "mlp", "reliability")
REPRESENTATION_ORDER: Tuple[str, ...] = ("parity", "raw")


def _canonical(values: Sequence, order: Sequence, axis: str) -> Tuple:
    """Dedupe ``values`` and sort them onto the canonical ``order``."""
    unique = set(values)
    unknown = sorted(unique - set(order))
    if unknown:
        raise ValueError(f"unknown {axis} value(s) {unknown}; expected {order}")
    return tuple(v for v in order if v in unique)


@dataclasses.dataclass(frozen=True)
class AtlasTrialSpec:
    """The full atlas grid plus per-learner tuning knobs.

    Axis fields are canonicalised (deduped, reordered) at construction,
    so two specs listing the same axes in different orders are *equal* —
    they expand to the same cells, map trial indices identically, and
    reduce to the same digest.  All fields are JSON-plain, which is what
    makes the atlas a servable workload (``workload="atlas"``).
    """

    families: Tuple[str, ...] = ("xor", "cdc_xor")
    learners: Tuple[str, ...] = ("lr", "mlp", "reliability")
    representations: Tuple[str, ...] = ("parity",)
    ns: Tuple[int, ...] = (24,)
    ks: Tuple[int, ...] = (1, 2)
    noise_sigmas: Tuple[float, ...] = (0.0, 0.35)
    budgets: Tuple[int, ...] = (150, 400, 1000)
    replicates: int = 1
    test_size: int = 1000
    # Reliability side-channel knobs (per-cell budget m = measured CRPs).
    repetitions: int = 9
    batches: int = 3
    es_generations: int = 30
    es_population: int = 16
    es_restarts: int = 2
    es_refinements: int = 2
    # Gradient-suite knobs.
    mlp_hidden: int = 16
    mlp_epochs: int = 25
    lr_restarts: int = 4
    lr_max_iter: int = 200

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(self, "families", _canonical(self.families, FAMILY_ORDER, "family"))
        set_(self, "learners", _canonical(self.learners, LEARNER_ORDER, "learner"))
        set_(
            self,
            "representations",
            _canonical(
                self.representations, REPRESENTATION_ORDER, "representation"
            ),
        )
        set_(self, "ns", tuple(sorted({int(v) for v in self.ns})))
        set_(self, "ks", tuple(sorted({int(v) for v in self.ks})))
        set_(
            self,
            "noise_sigmas",
            tuple(sorted({float(v) for v in self.noise_sigmas})),
        )
        set_(self, "budgets", tuple(sorted({int(v) for v in self.budgets})))
        if not (self.families and self.learners and self.representations):
            raise ValueError("families, learners, representations must be non-empty")
        if not self.ns or min(self.ns) < 4:
            raise ValueError("ns must be non-empty with n >= 4")
        if not self.ks or min(self.ks) < 1:
            raise ValueError("ks must be non-empty and positive")
        if not self.noise_sigmas or min(self.noise_sigmas) < 0:
            raise ValueError("noise_sigmas must be non-empty and non-negative")
        if not self.budgets or min(self.budgets) < 10:
            raise ValueError("budgets must be non-empty with m >= 10")
        if self.replicates < 1 or self.test_size < 1:
            raise ValueError("replicates and test_size must be positive")
        if self.repetitions < 3 or not 1 <= self.batches <= self.repetitions:
            raise ValueError(
                "repetitions must be >= 3 and batches in [1, repetitions]"
            )
        if (
            self.es_generations < 1
            or self.es_population < 4
            or self.es_restarts < 1
            or self.es_refinements < 0
        ):
            raise ValueError("invalid ES schedule")
        if self.mlp_hidden < 1 or self.mlp_epochs < 1:
            raise ValueError("mlp_hidden and mlp_epochs must be positive")
        if self.lr_restarts < 1 or self.lr_max_iter < 1:
            raise ValueError("lr_restarts and lr_max_iter must be positive")


def atlas_trial(
    ctx: TrialContext,
    spec: AtlasTrialSpec,
    cache_dir: Optional[str] = None,
    cache_max_bytes: Optional[int] = None,
) -> np.ndarray:
    """One atlas cell replicate: ``[held_out_accuracy, metered_queries]``.

    Seed layout (four independent streams off the trial seed): device
    weights, CRP/measurement draws, learner initialisation, held-out
    test draw.  Gradient cells memoise their CRP pool in the
    :class:`~repro.runtime.store.ArtifactStore` when ``cache_dir`` is
    set (keyed by device spec + trial seed + budget), so a resumed or
    repeated sweep warm-starts collection; reliability cells measure
    live (their artifact is the repetition stack, which the attack
    consumes in one pass).  Held-out evaluation runs unmetered, so the
    query column is exactly the adversary's spend: ``m`` for gradient
    cells, ``m x repetitions`` for reliability cells.
    """
    from repro.analysis.atlas import (
        LR_L2,
        MLP_BATCH_SIZE,
        _build_puf,
        cell_of_trial,
    )
    from repro.learning.logistic import LogisticAttack
    from repro.learning.mlp import MLPAttack
    from repro.learning.reliability_attack import CMAReliabilityAttack
    from repro.learning.xor_logistic import XorLogisticAttack
    from repro.pufs.arbiter import parity_transform
    from repro.pufs.crp import generate_crps, uniform_challenges
    from repro.runtime.store import trial_artifact
    from repro.telemetry import unmetered

    cell, _replicate = cell_of_trial(spec, ctx.index)
    instance_seed, draw_seed, fit_seed, test_seed = ctx.seed.spawn(4)
    puf = _build_puf(cell, np.random.default_rng(instance_seed))

    if cell.learner == "reliability":
        attack = CMAReliabilityAttack(
            crps=cell.m,
            repetitions=spec.repetitions,
            batches=spec.batches,
            generations=spec.es_generations,
            lam=spec.es_population,
            restarts=spec.es_restarts,
            refinement_rounds=spec.es_refinements,
        )
        model = attack.run(puf, np.random.default_rng(draw_seed))
        queries = model.oracle_measurements
        predict = model.predict
    else:
        noisy = cell.noise_sigma > 0

        def generate():
            pool = generate_crps(
                puf, cell.m, np.random.default_rng(draw_seed), noisy=noisy
            )
            return pool.challenges, pool.responses

        challenges, responses = trial_artifact(
            ctx,
            "crps",
            f"{cell.family}(n={cell.n}, k={cell.k}, noise_sigma={cell.noise_sigma})",
            cell.m,
            generate,
            cache_dir,
            cache_max_bytes,
            noisy=noisy,
        )
        feature_map = (
            parity_transform if cell.representation == "parity" else None
        )
        if cell.learner == "mlp":
            learner = MLPAttack(
                hidden=spec.mlp_hidden,
                epochs=spec.mlp_epochs,
                batch_size=MLP_BATCH_SIZE,
                feature_map=feature_map,
            )
        elif cell.k == 1:
            learner = LogisticAttack(
                l2=LR_L2, feature_map=feature_map, max_iter=spec.lr_max_iter
            )
        else:
            learner = XorLogisticAttack(
                cell.k,
                restarts=spec.lr_restarts,
                max_iter=spec.lr_max_iter,
                l2=LR_L2,
                feature_map=feature_map,
            )
        model = learner.fit(challenges, responses, np.random.default_rng(fit_seed))
        queries = cell.m
        predict = model.predict

    with unmetered():
        test_rng = np.random.default_rng(test_seed)
        test_x = uniform_challenges(spec.test_size, cell.n, test_rng)
        test_y = puf.eval(test_x)
    accuracy = float(np.mean(predict(test_x) == test_y))
    return np.array([accuracy, float(queries)], dtype=np.float64)


def smoke_spec() -> AtlasTrialSpec:
    """The CI smoke grid: 108 cells covering all three scenario families.

    2 families x {lr, mlp} x 2 representations x 2 k x 2 sigma x 3 m
    = 96 gradient cells, plus 2 x 2 x 3 = 12 reliability cells (parity
    only, noisy only) — small n and tight learner schedules keep the
    whole sweep inside a CI smoke budget.
    """
    return AtlasTrialSpec(
        families=("xor", "cdc_xor"),
        learners=("lr", "mlp", "reliability"),
        representations=("parity", "raw"),
        ns=(16,),
        ks=(1, 2),
        noise_sigmas=(0.0, 0.33),
        budgets=(60, 150, 400),
        replicates=1,
        test_size=600,
        repetitions=9,
        batches=3,
        es_generations=25,
        es_population=16,
        es_restarts=2,
        es_refinements=1,
        mlp_hidden=12,
        mlp_epochs=15,
        lr_restarts=2,
        lr_max_iter=120,
    )
