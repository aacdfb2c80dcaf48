"""Differential harnesses: optimized hot paths vs frozen references.

Each relation here drives a production code path (the blocked-GEMM
character kernel, the in-place FWHT / Moebius butterflies, the
vectorised PUF margin evaluators, LTF evaluation) and its independent
re-implementation from :mod:`repro.kernels.reference` over *shared
seeded inputs*, then asserts agreement:

* **bit-identical** wherever both paths compute with integer-valued
  intermediates (characters, +/-1 FWHT tables, GF(2) Moebius, parity
  transform) — any difference is a logic bug, full stop;
* **interval-bounded** for float margins, where the reference
  accumulates with ``math.fsum`` (correct rounding) and the production
  path uses BLAS: margins must agree to a few ulps of the row scale,
  and the *signs* must agree on every row whose reference margin
  clears a tolerance-sized guard band around zero (rows inside the
  band are counted and reported, never silently passed).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.conformance.relations import (
    ConformanceViolation,
    Relation,
    RelationContext,
)
from repro.kernels import reference as ref


def _random_challenges(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return (1 - 2 * rng.integers(0, 2, size=(m, n))).astype(np.int8)


def _compare_margins(
    name: str,
    production: np.ndarray,
    reference: np.ndarray,
    production_signs: np.ndarray,
    scale: np.ndarray,
) -> Dict[str, object]:
    """Interval-bounded margin agreement plus guard-banded sign identity.

    ``scale`` is a per-row magnitude bound (sum of absolute terms); the
    tolerance is ``1e-9 * scale`` — generous against ulp accumulation,
    vanishingly small against any real logic difference.
    """
    tol = 1e-9 * np.maximum(scale, 1.0)
    err = np.abs(production - reference)
    if np.any(err > tol):
        worst = int(np.argmax(err - tol))
        raise ConformanceViolation(
            f"{name}: margin mismatch at row {worst}: "
            f"production {production[worst]!r} vs reference {reference[worst]!r} "
            f"(tolerance {tol[worst]:.3e})"
        )
    clear = np.abs(reference) > tol
    ref_signs = np.where(reference >= 0, 1, -1).astype(np.int8)
    if not np.array_equal(production_signs[clear], ref_signs[clear]):
        raise ConformanceViolation(
            f"{name}: response signs differ outside the guard band"
        )
    return {
        "rows": int(reference.size),
        "guard_band_rows": int(np.sum(~clear)),
        "max_margin_error": float(np.max(err)) if err.size else 0.0,
    }


# ----------------------------------------------------------------------
# Exact (integer-valued) paths
# ----------------------------------------------------------------------
def _diff_character_estimates(ctx: RelationContext) -> Dict[str, object]:
    """Character-kernel coefficient estimation is bit-identical to the
    per-subset loops across degrees and block boundaries."""
    from repro.kernels import CharacterBasis

    rng = ctx.rng()
    cases = 0
    for n, degree, m, block in (
        (10, 3, 257, 16),
        (6, 0, 100, 7),
        (8, 8, 64, 100),
        (1, 1, 1, 1),
        (12, 2, 999, 31),
    ):
        x = _random_challenges(rng, m, n)
        y = (1 - 2 * rng.integers(0, 2, size=m)).astype(np.int8)
        basis = CharacterBasis.low_degree(n, min(degree, n))
        kernel = basis.estimate_coefficients(x, y, block_size=block)
        naive = ref.naive_estimate_coefficients(x, y, list(basis.subsets))
        if not np.array_equal(kernel, naive):
            raise ConformanceViolation(
                f"estimate_coefficients(n={n}, d={degree}, m={m}, block={block}) "
                "differs from the reference loop"
            )
        cases += 1
    return {"cases": cases}


def _diff_expansion_sign(ctx: RelationContext) -> Dict[str, object]:
    """Expansion evaluation and sign prediction match the reference on
    dyadic spectra (both paths exact, so equality is bit-level)."""
    from repro.kernels import CharacterBasis

    rng = ctx.rng()
    cases = 0
    for n, degree, log2_m, block in ((8, 3, 9, 13), (5, 5, 6, 1), (1, 0, 0, 8)):
        m = 2**log2_m
        x = _random_challenges(rng, m, n)
        y = (1 - 2 * rng.integers(0, 2, size=m)).astype(np.int8)
        basis = CharacterBasis.low_degree(n, min(degree, n))
        coeffs = basis.estimate_coefficients(x, y)
        spectrum = dict(zip(basis.subsets, coeffs))
        if not np.array_equal(
            basis.evaluate_expansion(x, coeffs, block_size=block),
            ref.naive_expansion_values(x, spectrum),
        ):
            raise ConformanceViolation(
                f"evaluate_expansion(n={n}, d={degree}, m={m}) differs"
            )
        if not np.array_equal(
            basis.predict_sign(x, coeffs, block_size=block),
            ref.naive_sign_of_expansion(x, spectrum),
        ):
            raise ConformanceViolation(f"predict_sign(n={n}, d={degree}) differs")
        cases += 1
    return {"cases": cases}


def _diff_fwht(ctx: RelationContext) -> Dict[str, object]:
    """Batched in-place FWHT is bit-identical to the copying butterfly."""
    from repro.kernels import fwht

    rng = ctx.rng()
    cases = 0
    for n, batch in ((0, 1), (1, 3), (6, 4), (10, 2)):
        tables = (1 - 2 * rng.integers(0, 2, size=(batch, 2**n))).astype(np.float64)
        batched = fwht(tables)
        for row_in, row_out in zip(tables, batched):
            if not np.array_equal(ref.naive_walsh_hadamard(row_in), row_out):
                raise ConformanceViolation(f"fwht differs at n={n}, batch={batch}")
        cases += 1
    return {"cases": cases}


def _diff_mobius(ctx: RelationContext) -> Dict[str, object]:
    """The GF(2) Moebius butterfly matches the submask-sum definition
    and is an involution."""
    from repro.kernels import mobius_f2_inplace

    rng = ctx.rng()
    cases = 0
    for n in (0, 1, 4, 8):
        values = rng.integers(0, 2, size=2**n).astype(np.uint8)
        butterfly = mobius_f2_inplace(values.copy())
        if not np.array_equal(butterfly, ref.naive_mobius_f2(values)):
            raise ConformanceViolation(f"mobius_f2 differs at n={n}")
        if not np.array_equal(mobius_f2_inplace(butterfly.copy()), values):
            raise ConformanceViolation(f"mobius_f2 not an involution at n={n}")
        cases += 1
    return {"cases": cases}


def _diff_parity_transform(ctx: RelationContext) -> Dict[str, object]:
    """Vectorised cumprod parity transform equals the per-stage loops."""
    from repro.pufs.arbiter import parity_transform

    rng = ctx.rng()
    cases = 0
    for m, n in ((64, 16), (1, 1), (7, 3), (128, 48)):
        c = _random_challenges(rng, m, n)
        if not np.array_equal(parity_transform(c), ref.naive_parity_transform(c)):
            raise ConformanceViolation(f"parity_transform differs at (m={m}, n={n})")
        cases += 1
    return {"cases": cases}


# ----------------------------------------------------------------------
# Interval-bounded (float-margin) paths
# ----------------------------------------------------------------------
def _diff_arbiter_response(ctx: RelationContext) -> Dict[str, object]:
    """Arbiter margins/responses agree with the fsum reference path."""
    from repro.pufs.arbiter import ArbiterPUF, parity_transform

    rng = ctx.rng()
    n = 48
    weights = rng.normal(0.0, 1.0, size=n + 1)
    puf = ArbiterPUF(n, weights=weights)
    c = _random_challenges(ctx.rng(), ctx.samples(2_000, minimum=256), n)
    scale = np.abs(parity_transform(c)) @ np.abs(weights)
    return _compare_margins(
        "arbiter",
        puf.raw_margin(c),
        ref.naive_arbiter_margin(weights, c),
        puf.eval(c),
        scale,
    )


def _diff_xor_response(ctx: RelationContext) -> Dict[str, object]:
    """Per-chain XOR margins agree with the fsum reference; responses
    match wherever every chain clears the guard band."""
    from repro.pufs.arbiter import parity_transform
    from repro.pufs.xor_arbiter import XORArbiterPUF

    n, k = 32, 4
    puf = XORArbiterPUF(n, k, ctx.rng())
    c = _random_challenges(ctx.rng(), ctx.samples(1_500, minimum=256), n)
    margins = puf.chain_margins(c)
    phi_abs = np.abs(parity_transform(c))
    guard_clear = np.ones(c.shape[0], dtype=bool)
    details: Dict[str, object] = {"chains": k}
    for idx, chain in enumerate(puf.chains):
        reference = ref.naive_arbiter_margin(chain.weights, c)
        scale = phi_abs @ np.abs(chain.weights)
        chain_signs = np.where(margins[:, idx] >= 0, 1, -1).astype(np.int8)
        sub = _compare_margins(
            f"xor_chain[{idx}]", margins[:, idx], reference, chain_signs, scale
        )
        guard_clear &= np.abs(reference) > 1e-9 * np.maximum(scale, 1.0)
        details[f"chain_{idx}_max_error"] = sub["max_margin_error"]
    expected = ref.naive_xor_arbiter_response(
        [chain.weights for chain in puf.chains], c
    )
    if not np.array_equal(puf.eval(c)[guard_clear], expected[guard_clear]):
        raise ConformanceViolation("XOR responses differ outside the guard band")
    details["guard_band_rows"] = int(np.sum(~guard_clear))
    return details


def _diff_cdc_xor_response(ctx: RelationContext) -> Dict[str, object]:
    """CDC-XOR per-chain margins over *rotated* challenges agree with the
    fsum reference; the combined response matches the pure-python
    rotate-then-sign reference wherever every chain clears the band."""
    from repro.pufs.arbiter import parity_transform
    from repro.pufs.cdc_xor import CDCXORArbiterPUF, derive_component_challenges

    n, k = 24, 3
    puf = CDCXORArbiterPUF(n, k, ctx.rng())
    c = _random_challenges(ctx.rng(), ctx.samples(1_200, minimum=256), n)
    components = derive_component_challenges(c, k, puf.shifts)
    margins = puf.chain_margins(c)
    guard_clear = np.ones(c.shape[0], dtype=bool)
    details: Dict[str, object] = {"chains": k, "shifts": list(puf.shifts)}
    for idx, chain in enumerate(puf.chains):
        reference = ref.naive_arbiter_margin(chain.weights, components[idx])
        scale = np.abs(parity_transform(components[idx])) @ np.abs(chain.weights)
        chain_signs = np.where(margins[:, idx] >= 0, 1, -1).astype(np.int8)
        sub = _compare_margins(
            f"cdc_chain[{idx}]", margins[:, idx], reference, chain_signs, scale
        )
        guard_clear &= np.abs(reference) > 1e-9 * np.maximum(scale, 1.0)
        details[f"chain_{idx}_max_error"] = sub["max_margin_error"]
    expected = ref.naive_cdc_xor_response(
        [chain.weights for chain in puf.chains], puf.shifts, c
    )
    if not np.array_equal(puf.eval(c)[guard_clear], expected[guard_clear]):
        raise ConformanceViolation(
            "CDC-XOR responses differ outside the guard band"
        )
    details["guard_band_rows"] = int(np.sum(~guard_clear))
    return details


def _diff_cdc_xor_k1_eq_arbiter(ctx: RelationContext) -> Dict[str, object]:
    """A k=1 CDC-XOR collapses to the plain arbiter chain bit for bit.

    Component 0's rotation is zero by construction, so the single-chain
    CDC instance must reproduce its own chain's ``ArbiterPUF`` margins
    and responses *bit-identically* — same GEMV, same operand order, no
    tolerance.  Any drift means the CDC margin path reassociated the
    arithmetic and the k=1 anchor to the validated arbiter is lost.
    """
    from repro.pufs.arbiter import ArbiterPUF
    from repro.pufs.cdc_xor import CDCXORArbiterPUF

    cases = 0
    for n in (8, 24, 48):
        puf = CDCXORArbiterPUF(n, 1, ctx.rng())
        plain = ArbiterPUF(n, weights=puf.chains[0].weights)
        c = _random_challenges(ctx.rng(), 512, n)
        if not np.array_equal(puf.raw_margin(c), plain.raw_margin(c)):
            raise ConformanceViolation(
                f"k=1 CDC-XOR margins differ from the plain arbiter at n={n}"
            )
        if not np.array_equal(puf.eval(c), plain.eval(c)):
            raise ConformanceViolation(
                f"k=1 CDC-XOR responses differ from the plain arbiter at n={n}"
            )
        cases += 1
    return {"cases": cases}


def _diff_br_margin(ctx: RelationContext) -> Dict[str, object]:
    """Bistable Ring margins agree with the per-term fsum reference."""
    from repro.pufs.bistable_ring import BistableRingPUF

    n = 24
    puf = BistableRingPUF(n, ctx.rng())
    c = _random_challenges(ctx.rng(), ctx.samples(1_000, minimum=256), n)
    reference = ref.naive_br_margin(
        c,
        puf.bias_terms,
        puf.linear_weights,
        puf.global_offset,
        puf.pair_indices,
        puf.pair_weights,
        puf.triple_indices,
        puf.triple_weights,
    )
    scale = np.full(
        c.shape[0],
        abs(puf.global_offset)
        + float(np.sum(np.abs(puf.bias_terms)))
        + float(np.sum(np.abs(puf.linear_weights)))
        + float(np.sum(np.abs(puf.pair_weights)))
        + float(np.sum(np.abs(puf.triple_weights))),
    )
    return _compare_margins(
        "bistable_ring", puf.raw_margin(c), reference, puf.eval(c), scale
    )


def _diff_ltf_eval(ctx: RelationContext) -> Dict[str, object]:
    """LTF margins and signs agree with the fsum reference evaluator."""
    from repro.booleanfuncs.ltf import LTF

    rng = ctx.rng()
    n = 40
    ltf = LTF(rng.normal(0.0, 1.0, size=n), threshold=rng.normal())
    x = _random_challenges(ctx.rng(), ctx.samples(2_000, minimum=256), n)
    reference = ref.naive_ltf_margin(ltf.weights, ltf.threshold, x)
    scale = np.full(
        x.shape[0], float(np.sum(np.abs(ltf.weights))) + abs(ltf.threshold)
    )
    return _compare_margins("ltf", ltf.margin(x), reference, ltf(x), scale)


# ----------------------------------------------------------------------
# Fleet (stacked-GEMM) paths vs the per-instance loop
# ----------------------------------------------------------------------
def _fleet_seed(ctx: RelationContext) -> int:
    """A replayable fleet root seed drawn from the relation's own stream."""
    return int(ctx.rng().integers(0, 2**63))


def _diff_fleet_arbiter(ctx: RelationContext) -> Dict[str, object]:
    """An arbiter fleet's stacked-GEMM margins agree with the fsum
    reference run per instance, and the stacked weight matrix is
    bit-identical to the standalone constructors' weights."""
    from repro.pufs.arbiter import parity_transform
    from repro.pufs.fleet import Fleet, FleetSpec

    spec = FleetSpec("arbiter", 32, 12)
    fleet = Fleet.build(spec, _fleet_seed(ctx))
    instances = fleet.instances()
    stacked = np.column_stack([p.weights for p in instances])
    if not np.array_equal(stacked, fleet.weights):
        raise ConformanceViolation(
            "fleet weight columns differ from the standalone constructors'"
        )
    c = _random_challenges(ctx.rng(), ctx.samples(1_000, minimum=256), spec.n)
    margins = fleet.margins(c)
    responses = fleet.eval(c)
    reference = np.column_stack(
        [ref.naive_arbiter_margin(p.weights, c) for p in instances]
    )
    scale = np.abs(parity_transform(c)).astype(np.float64) @ np.abs(fleet.weights)
    details = _compare_margins(
        "fleet_arbiter",
        margins.ravel(),
        reference.ravel(),
        responses.ravel(),
        scale.ravel(),
    )
    details["instances"] = spec.size
    return details


def _diff_fleet_xor(ctx: RelationContext) -> Dict[str, object]:
    """A mixed-k XOR fleet's per-chain margins agree with the fsum
    reference, and the chain combine (an XOR of -1 flags over each
    instance's chain slice) matches the per-instance loop bit-identically
    on every row whose chains all clear the guard band."""
    from repro.pufs.arbiter import parity_transform
    from repro.pufs.fleet import Fleet, FleetSpec, eval_instance

    spec = FleetSpec("xor", 24, 6, k=(1, 2, 3, 5, 2, 4))
    fleet = Fleet.build(spec, _fleet_seed(ctx))
    instances = fleet.instances()
    c = _random_challenges(ctx.rng(), ctx.samples(800, minimum=256), spec.n)
    chain_margins = fleet.margins(c)
    chains = [chain for puf in instances for chain in puf.chains]
    reference = np.column_stack(
        [ref.naive_arbiter_margin(chain.weights, c) for chain in chains]
    )
    scale = np.abs(parity_transform(c)).astype(np.float64) @ np.abs(fleet.weights)
    chain_signs = np.where(chain_margins >= 0, 1, -1).astype(np.int8)
    details = _compare_margins(
        "fleet_xor_chains",
        chain_margins.ravel(),
        reference.ravel(),
        chain_signs.ravel(),
        scale.ravel(),
    )
    guard_clear = np.all(np.abs(reference) > 1e-9 * np.maximum(scale, 1.0), axis=1)
    loop = np.column_stack([eval_instance(p, c) for p in instances])
    if not np.array_equal(fleet.eval(c)[guard_clear], loop[guard_clear]):
        raise ConformanceViolation(
            "mixed-k XOR fleet responses differ from the per-instance "
            "loop outside the guard band"
        )
    details["chains"] = len(chains)
    details["guard_band_challenge_rows"] = int(np.sum(~guard_clear))
    return details


def _diff_fleet_br_ltf(ctx: RelationContext) -> Dict[str, object]:
    """BR and LTF fleet margins agree with their fsum references."""
    from repro.pufs.fleet import Fleet, FleetSpec

    details: Dict[str, object] = {}
    br = Fleet.build(FleetSpec("br", 16, 5), _fleet_seed(ctx))
    c = _random_challenges(ctx.rng(), ctx.samples(600, minimum=256), 16)
    br_instances = br.instances()
    reference = np.column_stack(
        [
            ref.naive_br_margin(
                c,
                p.bias_terms,
                p.linear_weights,
                p.global_offset,
                p.pair_indices,
                p.pair_weights,
                p.triple_indices,
                p.triple_weights,
            )
            for p in br_instances
        ]
    )
    scale = np.broadcast_to(
        np.array(
            [
                abs(p.global_offset)
                + float(np.sum(np.abs(p.bias_terms)))
                + float(np.sum(np.abs(p.linear_weights)))
                + float(np.sum(np.abs(p.pair_weights)))
                + float(np.sum(np.abs(p.triple_weights)))
                for p in br_instances
            ]
        ),
        reference.shape,
    )
    sub = _compare_margins(
        "fleet_br",
        br.margins(c).ravel(),
        reference.ravel(),
        br.eval(c).ravel(),
        scale.ravel(),
    )
    details["br_max_margin_error"] = sub["max_margin_error"]
    details["br_guard_band_rows"] = sub["guard_band_rows"]

    ltf = Fleet.build(FleetSpec("ltf", 20, 8), _fleet_seed(ctx))
    x = _random_challenges(ctx.rng(), ctx.samples(600, minimum=256), 20)
    ltf_instances = ltf.instances()
    reference = np.column_stack(
        [ref.naive_ltf_margin(f.weights, f.threshold, x) for f in ltf_instances]
    )
    scale = np.broadcast_to(
        np.array(
            [
                float(np.sum(np.abs(f.weights))) + abs(f.threshold)
                for f in ltf_instances
            ]
        ),
        reference.shape,
    )
    sub = _compare_margins(
        "fleet_ltf",
        ltf.margins(x).ravel(),
        reference.ravel(),
        ltf.eval(x).ravel(),
        scale.ravel(),
    )
    details["ltf_max_margin_error"] = sub["max_margin_error"]
    details["ltf_guard_band_rows"] = sub["guard_band_rows"]
    return details


def _diff_fleet_integer_exact(ctx: RelationContext) -> Dict[str, object]:
    """Fleet margins are exact on integer-valued weights.

    With small integer weights every product and partial sum of the
    float64 GEMM is an exactly representable integer, so the fleet's
    margins and signs must equal an int64-arithmetic reference bit for
    bit.
    """
    from repro.pufs.arbiter import parity_transform
    from repro.pufs.fleet import Fleet, FleetSpec

    n, size = 16, 6
    int_weights = ctx.rng().integers(-8, 9, size=(n + 1, size)).astype(np.float64)
    c = _random_challenges(ctx.rng(), 512, n)
    exact = parity_transform(c).astype(np.int64) @ int_weights.astype(np.int64)
    fleet = Fleet(FleetSpec("arbiter", n, size), np.random.SeedSequence(0), int_weights)
    if not np.array_equal(fleet.margins(c), exact):
        raise ConformanceViolation(
            "fleet margins differ from exact integer arithmetic "
            "on integer-valued weights"
        )
    if not np.array_equal(fleet.eval(c), np.where(exact >= 0, 1, -1)):
        raise ConformanceViolation(
            "fleet responses differ from exact integer arithmetic"
        )
    return {"rows": int(c.shape[0]), "instances": size}


def _diff_fleet_majority_vote(ctx: RelationContext) -> Dict[str, object]:
    """Batched noisy measurement and majority vote are bit-identical to
    a per-instance reference fed the *same* noise stream.

    The batched path draws noise only for the chains inside the noise
    band (``|margin| < NOISE_BAND * sigma``).  The reference replays
    that stream slab by slab into a full ``(M, chains)`` noise tensor
    that holds the band draws inside the band and zero outside it, so
    the ±1 integer post-processing — sign, per-instance XOR combine,
    vote accumulation, the ties-to-+1 rule — must agree bit-for-bit.
    """
    from repro.kernels.fleet import (
        NOISE_BAND,
        majority_from_negatives,
        noisy_measurements,
        sign_responses,
    )
    from repro.pufs.fleet import Fleet, FleetSpec

    spec = FleetSpec("xor", 16, 5, k=(1, 2, 3, 2, 4), noise_sigma=0.6)
    fleet = Fleet.build(spec, _fleet_seed(ctx))
    c = _random_challenges(ctx.rng(), ctx.samples(400, minimum=128), spec.n)
    margins = fleet.margins(c)
    counts = spec.chain_counts
    offsets = np.asarray(fleet.chain_offsets)
    repetitions = 9
    entropy = _fleet_seed(ctx)

    def combine_loop(signs: np.ndarray) -> np.ndarray:
        cols = []
        for i in range(spec.size):
            lo = int(offsets[i])
            cols.append(np.prod(signs[:, lo : lo + counts[i]], axis=1))
        return np.column_stack(cols).astype(np.int8)

    noise = np.random.default_rng(entropy).normal(
        0.0, spec.noise_sigma, size=margins.shape
    )
    single = sign_responses(margins + noise, offsets)
    if not np.array_equal(
        single, combine_loop(np.where(margins + noise >= 0, 1, -1))
    ):
        raise ConformanceViolation(
            "batched noisy measurement differs from the per-instance "
            "loop under the same noise tensor"
        )

    voted = fleet.majority_vote(c, repetitions, np.random.default_rng(entropy))
    band = np.abs(margins) < NOISE_BAND * spec.noise_sigma
    replay = np.random.default_rng(entropy)
    votes = np.zeros((c.shape[0], spec.size), dtype=np.int64)
    for _ in range(repetitions):
        slab = np.zeros(margins.shape)
        slab[band] = replay.normal(0.0, spec.noise_sigma, size=int(band.sum()))
        votes += combine_loop(np.where(margins + slab >= 0, 1, -1))
    if not np.array_equal(voted, np.where(votes >= 0, 1, -1).astype(np.int8)):
        raise ConformanceViolation(
            "batched majority vote differs from the per-instance reference "
            "under the same noise stream"
        )
    negatives, _ = noisy_measurements(
        margins, 0.0, 3, np.random.default_rng(entropy), offsets
    )
    if not np.array_equal(
        majority_from_negatives(negatives, 3), sign_responses(margins, offsets)
    ):
        raise ConformanceViolation(
            "zero-noise majority vote differs from the ideal response"
        )
    return {
        "rows": int(c.shape[0]),
        "chains": int(sum(counts)),
        "repetitions": repetitions,
        "band_fraction": round(float(np.mean(band)), 4),
    }


def _diff_active_committee_of_one(ctx: RelationContext) -> Dict[str, object]:
    """A committee of one is uncertainty sampling, bit for bit.

    Query-by-committee with ``committee=1`` fits exactly one hypothesis
    (the full labelled set) and scores candidates by ``|margin / 1|`` —
    definitionally the uncertainty rule.  Both strategies are driven
    from one seed against one arbiter instance; the selected challenge
    sequence, the answered labels, and every checkpoint accuracy must
    be bit-identical.  Any drift means the committee's scoring or its
    generator consumption silently diverged from the uncertainty path.
    """
    from repro.learning.active import (
        CommitteeStrategy,
        UncertaintyStrategy,
        run_active_attack,
    )
    from repro.pufs.arbiter import ArbiterPUF

    n = 20
    puf = ArbiterPUF(n, ctx.rng())
    seed = int(ctx.rng().integers(0, 2**63))
    budgets = (32, 96)
    runs = {}
    for label, strategy in (
        ("uncertainty", UncertaintyStrategy()),
        ("committee_of_one", CommitteeStrategy(committee=1)),
    ):
        runs[label] = run_active_attack(
            n,
            puf.eval,
            strategy,
            budgets,
            batch=16,
            pool_size=256,
            test_size=500,
            seed=seed,
        )
    unc, com = runs["uncertainty"], runs["committee_of_one"]
    if not np.array_equal(
        unc.trajectory.challenges, com.trajectory.challenges
    ):
        raise ConformanceViolation(
            "committee-of-one selected a different challenge sequence "
            "than uncertainty sampling"
        )
    if not np.array_equal(unc.trajectory.responses, com.trajectory.responses):
        raise ConformanceViolation(
            "committee-of-one collected different labels than uncertainty"
        )
    if unc.accuracies != com.accuracies:
        raise ConformanceViolation(
            f"checkpoint accuracies diverge: {unc.accuracies} "
            f"vs {com.accuracies}"
        )
    return {
        "n": n,
        "budgets": list(budgets),
        "accuracies": unc.accuracies,
    }


def differential_relations() -> List[Relation]:
    """The registry of differential relations, in stable order."""
    return [
        Relation(
            "diff_character_estimates",
            "differential",
            "character kernel coefficient estimates are bit-identical to "
            "the per-subset reference loops",
            _diff_character_estimates,
        ),
        Relation(
            "diff_expansion_sign",
            "differential",
            "expansion evaluation and sign prediction are bit-identical "
            "to the reference on dyadic spectra",
            _diff_expansion_sign,
        ),
        Relation(
            "diff_fwht",
            "differential",
            "in-place batched FWHT is bit-identical to the copying butterfly",
            _diff_fwht,
        ),
        Relation(
            "diff_mobius_f2",
            "differential",
            "GF(2) Moebius butterfly matches the submask-sum definition",
            _diff_mobius,
        ),
        Relation(
            "diff_parity_transform",
            "differential",
            "vectorised parity transform equals the per-stage loops",
            _diff_parity_transform,
        ),
        Relation(
            "diff_arbiter_response",
            "differential",
            "arbiter margins agree with the fsum reference within ulp bounds",
            _diff_arbiter_response,
        ),
        Relation(
            "diff_xor_response",
            "differential",
            "XOR arbiter chain margins and responses agree with the reference",
            _diff_xor_response,
        ),
        Relation(
            "diff_cdc_xor_response",
            "differential",
            "CDC-XOR chain margins over rotated challenges and the combined "
            "response agree with the pure-python reference",
            _diff_cdc_xor_response,
        ),
        Relation(
            "diff_cdc_xor_k1_eq_arbiter",
            "differential",
            "a k=1 CDC-XOR is bit-identical to its plain arbiter chain",
            _diff_cdc_xor_k1_eq_arbiter,
        ),
        Relation(
            "diff_br_margin",
            "differential",
            "Bistable Ring margins agree with the per-term fsum reference",
            _diff_br_margin,
        ),
        Relation(
            "diff_ltf_eval",
            "differential",
            "LTF margins and signs agree with the fsum reference evaluator",
            _diff_ltf_eval,
        ),
        Relation(
            "diff_fleet_arbiter",
            "differential",
            "arbiter fleet stacked-GEMM margins agree with the per-instance "
            "fsum reference and stack bit-identical weights",
            _diff_fleet_arbiter,
        ),
        Relation(
            "diff_fleet_xor",
            "differential",
            "mixed-k XOR fleet chain margins agree with the reference; the "
            "chain-XOR combine matches the per-instance loop",
            _diff_fleet_xor,
        ),
        Relation(
            "diff_fleet_br_ltf",
            "differential",
            "BR and LTF fleet margins agree with their fsum references",
            _diff_fleet_br_ltf,
        ),
        Relation(
            "diff_fleet_integer_exact",
            "differential",
            "fleet margins and signs equal exact int64 arithmetic on "
            "integer-valued weights",
            _diff_fleet_integer_exact,
        ),
        Relation(
            "diff_fleet_majority_vote",
            "differential",
            "batched noisy eval and majority vote are bit-identical to the "
            "per-instance loop under the same band-limited noise stream",
            _diff_fleet_majority_vote,
        ),
        Relation(
            "diff_active_committee_of_one",
            "differential",
            "a committee of one selects, labels, and scores bit-identically "
            "to uncertainty sampling",
            _diff_active_committee_of_one,
        ),
    ]
