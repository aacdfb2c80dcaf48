"""Machine-learning algorithms, implemented from scratch.

Each learner corresponds to a row of the paper's adversary-model taxonomy:

================  =====================  ==========================  ==========
Learner           Distribution           Access                      Hypothesis
================  =====================  ==========================  ==========
Perceptron        arbitrary (online)     random examples             proper (LTF)
LogisticAttack    arbitrary              random examples             proper (LTF)
ChowLearner       uniform                random examples             proper (LTF)
LMNLearner        uniform                random examples             improper
LearnPoly         uniform                membership queries          improper
LStarLearner      exact                  membership + equivalence    DFA
================  =====================  ==========================  ==========

All example-based learners consume +/-1 challenge matrices and +/-1 labels;
oracles live in :mod:`repro.learning.oracles`.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "oracles": (
            "ExampleOracle",
            "MembershipOracle",
            "QueryBudgetExceeded",
            "SimulatedEquivalenceOracle",
            "angluin_eq_sample_size",
        ),
        "active": (
            "STRATEGY_NAMES",
            "ActiveRunResult",
            "CommitteeStrategy",
            "FastSlowStrategy",
            "PassiveStrategy",
            "Trajectory",
            "UncertaintyStrategy",
            "collect_trajectory",
            "evaluate_trajectory",
            "make_strategy",
            "run_active_attack",
        ),
        "metrics": ("accuracy", "error_rate", "evaluate_hypothesis"),
        "perceptron": ("Perceptron", "PerceptronResult"),
        "logistic": ("LogisticAttack", "LogisticResult"),
        "lmn": ("LMNLearner", "LMNResult"),
        "chow": ("ChowLearner", "ChowResult"),
        "learn_poly": ("LearnPoly", "LearnPolyResult"),
        "angluin": ("LStarLearner", "LStarResult"),
        "boosting": ("AdaBoost", "AdaBoostResult"),
        "evolution": ("EvolutionStrategiesAttack", "ESResult"),
        "interpose_attack": (
            "InterposeSplittingAttack",
            "InterposeAttackResult",
            "attack_interpose_puf",
        ),
        "kushilevitz_mansour": ("KushilevitzMansour", "KMResult"),
        "mlp": ("MLPAttack", "MLPResult"),
        "reliability_attack": (
            "ReliabilityAttack",
            "ReliabilityAttackResult",
            "CMAReliabilityAttack",
            "MultiReliabilityResult",
        ),
        "statistical_query": ("SQOracle", "SQChowLearner", "SQChowResult"),
        "xor_logistic": ("XorLogisticAttack", "XorLogisticResult"),
    },
)
