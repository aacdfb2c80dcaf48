"""The PAC adversary-model framework — the paper's primary contribution.

The paper's thesis is that an ML-based security claim about a hardware
primitive is only meaningful relative to an explicit adversary model with
three axes:

1. the **distribution** the learning examples come from (Section III),
2. the attacker's **access** to the device (Section IV), and
3. the **representations** of concept and hypothesis (Section V).

This package makes the model a first-class, machine-checkable object
(:class:`AdversaryModel`), provides the four closed-form sample-complexity
bounds of Table I (:mod:`repro.pac.bounds`), and an assessment engine
(:mod:`repro.pac.assessment`) that derives feasibility verdicts for XOR
Arbiter PUFs under each model — the verdicts the paper shows to disagree
when the model is changed, which is exactly the "pitfall".
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "framework": (
            "PACParameters",
            "Distribution",
            "AccessType",
            "HypothesisClass",
            "blumer_sample_bound",
        ),
        "bounds": (
            "vc_dim_xor_arbiter",
            "perceptron_bound",
            "general_vc_bound",
            "lmn_bound_log10",
            "lmn_bound",
            "learnpoly_bound",
            "bourgain_junta_size",
            "TABLE1_SETTINGS",
            "bound_with_noise",
            "km_query_bound",
            "noisy_sample_inflation",
            "sq_chow_example_bound",
            "sq_chow_query_count",
        ),
        "adversary": (
            "AdversaryModel",
            "comparable",
            "dominates",
            "PERCEPTRON_ADVERSARY",
            "GENERAL_UNIFORM_ADVERSARY",
            "LMN_ADVERSARY",
            "LEARNPOLY_ADVERSARY",
        ),
        "audit": (
            "ClaimKind",
            "TransferAudit",
            "TransferVerdict",
            "audit_transfer",
            "audit_assessments",
        ),
        "circuit_bounds": (
            "CircuitClassAssessment",
            "ac0_distribution_free_time_log10",
            "ac0_uniform_lmn_sample_log10",
            "assess_circuit_learnability",
            "assess_netlist_learnability",
        ),
        "assessment": (
            "XorArbiterSpec",
            "Assessment",
            "Verdict",
            "assess_xor_arbiter",
            "table1_rows",
        ),
    },
)
