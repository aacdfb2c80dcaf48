"""The shared face of the scored learner results: ``predict`` is the
sign of ``score`` as int8 +/-1, with a tie at 0 going to +1."""

import numpy as np
import pytest

from repro.booleanfuncs.ltf import LTF
from repro.learning.boosting import AdaBoostResult, Stump
from repro.learning.logistic import LogisticResult
from repro.learning.mlp import MLPResult
from repro.learning.xor_logistic import XorLogisticResult

#: Each result scores a challenge ``x`` exactly as ``x0 - x1`` (up to a
#: monotone map fixing 0), so two of the four +/-1 challenges below tie.
RESULTS = [
    LogisticResult(
        ltf=LTF(np.array([1.0, -1.0])),
        converged=True,
        final_loss=0.0,
        train_accuracy=1.0,
    ),
    XorLogisticResult(
        chain_weights=np.array([[1.0, -1.0]]),
        converged=True,
        final_loss=0.0,
        train_accuracy=1.0,
        restarts_used=1,
    ),
    MLPResult(
        w1=np.array([[1.0], [-1.0]]),
        b1=np.zeros(1),
        w2=np.ones(1),
        b2=0.0,
        train_accuracy=1.0,
        epochs_run=1,
        final_loss=0.0,
    ),
    AdaBoostResult(
        stumps=[Stump(0, 1), Stump(1, -1)],
        alphas=[1.0, 1.0],
        train_accuracy=1.0,
        rounds_run=2,
    ),
]

CHALLENGES = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8)


@pytest.mark.parametrize(
    "result", RESULTS, ids=[type(result).__name__ for result in RESULTS]
)
def test_predict_is_the_sign_of_score(result):
    scores = result.score(CHALLENGES)
    assert np.array_equal(scores == 0, [True, False, False, True])
    predictions = result.predict(CHALLENGES)
    assert predictions.dtype == np.int8
    assert predictions.tolist() == [1, 1, -1, 1]
