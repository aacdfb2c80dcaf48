"""The in-repo LR solvers against the scipy L-BFGS-B fits they replaced.

``LogisticAttack`` (damped Newton) and ``XorLogisticAttack`` (NumPy
L-BFGS) cannot be bit-identical to the frozen scipy fits in
``tests/_reference.py``: a different optimiser stops at a
different point.  What must hold is statistical equivalence on the
shapes the atlas sweeps: over a fixed panel of smoke-shaped cells, the
pooled held-out error of the new fits is no larger than the reference's
(a one-sided two-sample check at the test's alpha).  The convex k = 1
fit must also reach the reference loss: Newton solves the problem the
L-BFGS-B run only approximates.
"""

import numpy as np
import pytest

from repro.analysis.atlas import LR_L2, AtlasCell, _build_puf, smoke_spec
from repro.conformance.pytest_plugin import statistical_test
from repro.learning.features import _mapped
from repro.learning.logistic import LogisticAttack
from repro.learning.xor_logistic import XorLogisticAttack
from repro.pufs.arbiter import parity_transform
from repro.pufs.crp import generate_crps, uniform_challenges
from tests._reference import naive_lbfgsb_logistic_fit, naive_lbfgsb_xor_fit

SPEC = smoke_spec()

#: Smoke-shaped (family, representation, k, sigma, m) cells: both
#: families, both representations, both ks, both noise levels, and the
#: noiseless k = 1 parity cell at every smoke budget.
PANEL = [
    ("xor", "parity", 1, 0.0, 60),
    ("xor", "parity", 1, 0.0, 150),
    ("xor", "parity", 1, 0.0, 400),
    ("xor", "parity", 1, 0.33, 150),
    ("cdc_xor", "parity", 1, 0.33, 400),
    ("xor", "raw", 1, 0.0, 400),
    ("xor", "parity", 2, 0.0, 150),
    ("xor", "parity", 2, 0.0, 400),
    ("xor", "parity", 2, 0.33, 400),
    ("cdc_xor", "parity", 2, 0.0, 400),
    ("xor", "raw", 2, 0.33, 150),
]

DEVICES = 12


def _fit_both(cell, device):
    """Held-out errors and final losses of the new and reference fits.

    Both fits see the same CRPs and a fit generator from the same seed,
    so they draw the same starting points; the learner settings are the
    atlas smoke grid's.
    """
    family, representation, k, sigma, m = cell
    seeds = np.random.SeedSequence([device, k, m, int(100 * sigma)]).spawn(4)
    puf = _build_puf(
        AtlasCell(family, "lr", representation, SPEC.ns[0], k, sigma, m),
        np.random.default_rng(seeds[0]),
    )
    pool = generate_crps(puf, m, np.random.default_rng(seeds[1]), noisy=sigma > 0)
    test_x = uniform_challenges(
        SPEC.test_size, SPEC.ns[0], np.random.default_rng(seeds[3])
    )
    test_y = puf.eval(test_x)

    feature_map = parity_transform if representation == "parity" else None
    feats = _mapped(pool.challenges, feature_map)
    y = pool.responses.astype(np.float64)
    test_feats = _mapped(test_x, feature_map)
    max_iter = SPEC.lr_max_iter
    new_rng, ref_rng = (np.random.default_rng(seeds[2]) for _ in range(2))
    if k == 1:
        new = LogisticAttack(l2=LR_L2, max_iter=max_iter).fit(feats, y, new_rng)
        new_scores = new.score(test_feats)
        ref = naive_lbfgsb_logistic_fit(
            feats, y, ref_rng, l2=LR_L2, max_iter=max_iter
        )
        ref_scores = test_feats @ ref["w"] + ref["b"]
    else:
        options = dict(restarts=SPEC.lr_restarts, max_iter=max_iter, l2=LR_L2)
        attack = XorLogisticAttack(k, **options)
        new = attack.fit(feats, y, new_rng)
        new_scores = new.score(test_feats)
        ref = naive_lbfgsb_xor_fit(
            feats, y, ref_rng, k=k, target_accuracy=attack.target_accuracy, **options
        )
        ref_scores = np.prod(test_feats @ ref["chain_weights"].T, axis=1)

    def errors(scores):
        return int(np.sum(np.where(scores >= 0, 1, -1) != test_y))

    return errors(new_scores), errors(ref_scores), new.final_loss, ref["final_loss"]


@pytest.fixture(scope="module")
def panel_fits():
    return {
        cell: [_fit_both(cell, device) for device in range(DEVICES)]
        for cell in PANEL
    }


@statistical_test(alpha=2e-8)
def test_new_solvers_are_no_worse_held_out(stat, panel_fits):
    fits = [fit for cell_fits in panel_fits.values() for fit in cell_fits]
    n = len(fits) * SPEC.test_size
    new_errors = sum(fit[0] for fit in fits)
    ref_errors = sum(fit[1] for fit in fits)
    stat.check_two_sample_less(
        new_errors, n, ref_errors, n, name="held-out error new <= scipy"
    )


def test_newton_reaches_the_reference_loss(panel_fits):
    for _, _, new_loss, ref_loss in panel_fits[("xor", "parity", 1, 0.0, 400)]:
        assert new_loss <= ref_loss + 1e-6
