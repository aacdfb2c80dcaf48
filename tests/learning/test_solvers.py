"""Unit tests for the NumPy LR solvers in :mod:`repro.learning.solvers`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.learning.solvers import GTOL, lbfgs, newton_logistic

SRC = Path(__file__).resolve().parents[2] / "src"


def _logistic_problem(m=300, d=8, seed=0):
    """Noisy labels of a random halfspace: a non-separable convex fit."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(m, d))
    y = np.sign(feats @ rng.normal(size=d) + rng.normal(size=m))
    return feats, y, rng.normal(0.0, 0.01, size=d + 1)


def _logistic_gradient(feats, y, theta, l2):
    m, d = feats.shape
    margin = y * (feats @ theta[:d] + theta[d])
    coef = -y / (1.0 + np.exp(margin)) / m
    return np.append(feats.T @ coef + l2 * theta[:d], coef.sum())


class TestNewtonLogistic:
    def test_converges_to_a_stationary_point(self):
        feats, y, theta0 = _logistic_problem()
        theta, loss, converged = newton_logistic(feats, y, theta0, 1e-2, 100)
        assert converged
        assert np.abs(_logistic_gradient(feats, y, theta, 1e-2)).max() <= GTOL
        margin = y * (feats @ theta[:-1] + theta[-1])
        expected = np.mean(np.logaddexp(0.0, -margin)) + 0.5e-2 * theta[:-1] @ theta[:-1]
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_intercept_is_not_penalised(self):
        feats, y, theta0 = _logistic_problem()
        y = np.where(np.arange(y.size) % 4 == 0, -1.0, 1.0)  # 75 % positive
        theta, _, converged = newton_logistic(feats, y, theta0, 1e3, 100)
        assert converged
        # A huge ridge pins w to ~0; the free intercept still fits the
        # base rate, log(0.75 / 0.25).
        assert np.abs(theta[:-1]).max() < 1e-3
        assert theta[-1] == pytest.approx(np.log(3.0), abs=1e-3)

    def test_unpenalised_collinear_features_still_descend(self):
        # A constant feature duplicates the intercept column, so with no
        # ridge the Hessian is singular; the fit must stay finite and
        # still lower the loss.
        feats, y, theta0 = _logistic_problem()
        feats = np.hstack([feats, np.ones((y.size, 1))])
        theta0 = np.insert(theta0, -1, 0.0)
        _, start, _ = newton_logistic(feats, y, theta0, 0.0, 0)
        theta, loss, _ = newton_logistic(feats, y, theta0, 0.0, 50)
        assert np.all(np.isfinite(theta))
        assert loss < start

    def test_respects_max_iter(self):
        feats, y, theta0 = _logistic_problem()
        losses = []
        for cap in (1, 2, 3):
            _, loss, converged = newton_logistic(feats, y, theta0, 1e-2, cap)
            assert not converged
            losses.append(loss)
        _, best, converged = newton_logistic(feats, y, theta0, 1e-2, 100)
        assert converged
        assert losses[0] > losses[1] > losses[2] > best


class TestLbfgs:
    def test_minimises_a_convex_quadratic(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(20, 20)))
        a = (q * np.linspace(1.0, 50.0, 20)) @ q.T
        b = rng.normal(size=20)
        optimum = np.linalg.solve(a, b)

        calls = []

        def fg(x):
            calls.append(1)
            return 0.5 * x @ a @ x - b @ x, a @ x - b

        x, loss, converged = lbfgs(fg, np.zeros(20), 200)
        assert converged
        assert loss - fg(optimum)[0] <= 1e-8
        assert np.abs(x - optimum).max() <= 1e-5
        # The curvature pairs pay off: steepest descent needs ~800
        # evaluations here, L-BFGS a few dozen.
        assert len(calls) <= 60

    def test_respects_max_iter(self):
        calls = []

        def fg(x):
            calls.append(1)
            return float(np.sum(x**4) + np.sum(x**2)), 4 * x**3 + 2 * x

        _, _, converged = lbfgs(fg, np.full(10, 3.0), 2)
        assert not converged
        assert len(calls) >= 3  # the start plus at least one per step


#: Runs both solvers on atlas-shaped problems and a larger one, printing
#: the exact bytes of every result.
_DETERMINISM = """
import json, sys
import numpy as np
from repro.learning.solvers import lbfgs, newton_logistic

out = []
for m, d in ((60, 17), (400, 17), (5000, 65)):
    rng = np.random.default_rng(m)
    feats = rng.choice([-1.0, 1.0], size=(m, d))
    y = np.sign(feats @ rng.normal(size=d) + 0.3 * rng.normal(size=m))
    theta, loss, ok = newton_logistic(feats, y, rng.normal(0, 0.01, d + 1), 1e-5, 120)
    out.append([theta.tobytes().hex(), float(loss).hex(), ok])

    def fg(theta):
        w = theta.reshape(2, d)
        margins = feats @ w.T
        z = y * margins[:, 0] * margins[:, 1]
        coef = -y / (1.0 + np.exp(np.minimum(z, 500.0))) / m
        grad = (coef[:, None] * margins[:, ::-1]).T @ feats + 1e-5 * w
        loss = np.mean(np.logaddexp(0.0, -z)) + 0.5e-5 * theta @ theta
        return float(loss), grad.ravel()

    x, loss, ok = lbfgs(fg, rng.normal(size=2 * d), 120)
    out.append([x.tobytes().hex(), float(loss).hex(), ok])
print("RESULT:" + json.dumps(out))
"""


def _run_with_threads(threads):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-c", _DETERMINISM],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    line = [ln for ln in proc.stdout.splitlines() if ln.startswith("RESULT:")][-1]
    return json.loads(line[len("RESULT:"):])


_BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.mark.skipif(
    "openblas" not in _BLAS.lower(),
    reason=f"cross-thread bit-identity assumes OpenBLAS, not {_BLAS}",
)
def test_bit_identical_across_blas_threads():
    assert _run_with_threads(1) == _run_with_threads(2)
