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

from repro.learning.oracles import (
    ExampleOracle,
    MembershipOracle,
    QueryBudgetExceeded,
    SimulatedEquivalenceOracle,
    angluin_eq_sample_size,
)
from repro.learning.active import (
    STRATEGY_NAMES,
    ActiveRunResult,
    CommitteeStrategy,
    FastSlowStrategy,
    PassiveStrategy,
    Trajectory,
    UncertaintyStrategy,
    collect_trajectory,
    evaluate_trajectory,
    make_strategy,
    run_active_attack,
)
from repro.learning.metrics import accuracy, error_rate, evaluate_hypothesis
from repro.learning.perceptron import Perceptron, PerceptronResult
from repro.learning.logistic import LogisticAttack, LogisticResult
from repro.learning.lmn import LMNLearner, LMNResult
from repro.learning.chow import ChowLearner, ChowResult
from repro.learning.learn_poly import LearnPoly, LearnPolyResult
from repro.learning.angluin import LStarLearner, LStarResult
from repro.learning.boosting import AdaBoost, AdaBoostResult
from repro.learning.evolution import ESResult, EvolutionStrategiesAttack
from repro.learning.interpose_attack import (
    InterposeAttackResult,
    InterposeSplittingAttack,
    attack_interpose_puf,
)
from repro.learning.kushilevitz_mansour import KushilevitzMansour, KMResult
from repro.learning.mlp import MLPAttack, MLPResult
from repro.learning.reliability_attack import (
    CMAReliabilityAttack,
    MultiReliabilityResult,
    ReliabilityAttack,
    ReliabilityAttackResult,
)
from repro.learning.statistical_query import SQChowLearner, SQChowResult, SQOracle
from repro.learning.xor_logistic import XorLogisticAttack, XorLogisticResult

__all__ = [
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
    "ExampleOracle",
    "MembershipOracle",
    "QueryBudgetExceeded",
    "SimulatedEquivalenceOracle",
    "angluin_eq_sample_size",
    "accuracy",
    "error_rate",
    "evaluate_hypothesis",
    "Perceptron",
    "PerceptronResult",
    "LogisticAttack",
    "LogisticResult",
    "LMNLearner",
    "LMNResult",
    "ChowLearner",
    "ChowResult",
    "LearnPoly",
    "LearnPolyResult",
    "LStarLearner",
    "LStarResult",
    "AdaBoost",
    "AdaBoostResult",
    "EvolutionStrategiesAttack",
    "ESResult",
    "InterposeSplittingAttack",
    "InterposeAttackResult",
    "attack_interpose_puf",
    "KushilevitzMansour",
    "KMResult",
    "MLPAttack",
    "MLPResult",
    "XorLogisticAttack",
    "XorLogisticResult",
    "SQOracle",
    "SQChowLearner",
    "SQChowResult",
    "ReliabilityAttack",
    "ReliabilityAttackResult",
    "CMAReliabilityAttack",
    "MultiReliabilityResult",
]
