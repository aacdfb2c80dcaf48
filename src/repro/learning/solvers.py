"""Small NumPy optimisers behind the logistic-regression learners.

The LR attacks fit tiny problems (tens of parameters, hundreds of
examples) thousands of times per atlas sweep, so a general-purpose
driver's per-iteration overhead costs more than the loss itself.  Two
solvers cover them:

* :func:`newton_logistic` — damped Newton on the convex L2-regularised
  logistic loss (:class:`~repro.learning.logistic.LogisticAttack`): the
  exact Hessian of a d + 1 parameter problem is one small GEMM and one
  (d + 1) x (d + 1) solve, and converges in a handful of steps;
* :func:`lbfgs` — two-loop L-BFGS for the non-convex product-of-margins
  loss (:class:`~repro.learning.xor_logistic.XorLogisticAttack`).

Both use Armijo backtracking and stop on the default tests of scipy's
L-BFGS-B (gradient inf-norm <= :data:`GTOL`, or relative decrease of the
loss <= :data:`FTOL`), and both return ``(x, loss, converged)`` where
``converged`` is True iff one of those tests fired; a run that hits its
iteration cap, or whose line search finds no decrease, reports False.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

#: Gradient inf-norm stopping test (L-BFGS-B's default ``pgtol``).
GTOL = 1e-5

EPS = float(np.finfo(float).eps)

#: Relative-decrease stopping test (L-BFGS-B's default ``factr * eps``).
FTOL = 1e7 * EPS

#: Armijo sufficient-decrease constant.
ARMIJO = 1e-4

#: Step halvings before a line search gives up.
MAX_BACKTRACKS = 40

#: Largest m * n * k of one Hessian GEMM.  A threaded GEMM rounds
#: differently from a serial one, so the Hessian is summed over row
#: blocks of at most this size, which OpenBLAS runs on one thread: its
#: default build threads a GEMM only above SMP_THRESHOLD_MIN (65536) x
#: GEMM_MULTITHREAD_THRESHOLD (4) = 2^18.  With that build every fit is
#: bit-identical whatever the BLAS thread count.  An OpenBLAS built with
#: another threshold, MKL or Accelerate may thread these GEMMs and break
#: that; the fits stay deterministic for a fixed thread count.
SERIAL_GEMM_SIZE = 1 << 18

Solution = Tuple[np.ndarray, float, bool]


def _decrease_converged(f_old: float, f_new: float) -> bool:
    """L-BFGS-B's ``ftol`` test on one accepted step."""
    return (f_old - f_new) <= FTOL * max(abs(f_old), abs(f_new), 1.0)


def newton_logistic(
    feats: np.ndarray,
    y: np.ndarray,
    theta0: np.ndarray,
    l2: float,
    max_iter: int,
) -> Solution:
    """Minimise ``mean(log(1 + exp(-y (X w + b)))) + l2/2 |w|^2`` by Newton.

    ``theta0`` is ``[w, b]`` (length d + 1); the intercept ``b`` is not
    penalised.  Each step solves ``H p = -g`` with the exact Hessian
    ``(X~.T * s(1-s)/m) @ X~ + diag(l2, ..., l2, 0)`` over the
    intercept-augmented design ``X~ = [X, 1]``, then backtracks until the
    Armijo condition holds.  At most ``max_iter`` steps are taken.  The
    Hessian is summed over row blocks of at most
    ``SERIAL_GEMM_SIZE // (d + 1) ** 2`` rows (:data:`SERIAL_GEMM_SIZE`).
    """
    feats = np.asarray(feats, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, d = feats.shape
    design = np.empty((m, d + 1))
    design[:, :d] = feats
    design[:, d] = 1.0
    ridge = np.full(d + 1, float(l2))
    ridge[d] = 0.0
    diag = np.arange(d + 1)
    block = max(1, SERIAL_GEMM_SIZE // (d + 1) ** 2)

    def loss_at(theta: np.ndarray) -> Tuple[float, np.ndarray]:
        margin = y * (design @ theta)
        w = theta[:d]
        # log(1 + exp(-margin)) computed stably.
        loss = np.logaddexp(0.0, -margin).sum() / m + 0.5 * l2 * (w @ w)
        return float(loss), margin

    theta = np.array(theta0, dtype=np.float64)
    f, margin = loss_at(theta)
    for step_count in range(max_iter + 1):
        # wrong = P(label != y) under the model, i.e. 1 - sigmoid(margin);
        # exp is clipped above only, where it would overflow.
        wrong = 1.0 / (1.0 + np.exp(np.minimum(margin, 500.0)))
        grad = design.T @ (y * wrong / -m) + ridge * theta
        if np.abs(grad).max() <= GTOL:
            return theta, f, True
        if step_count == max_iter:
            break
        weighted = design.T * (wrong * (1.0 - wrong) / m)
        hess = weighted[:, :block] @ design[:block]
        for start in range(block, m, block):
            hess += weighted[:, start : start + block] @ design[start : start + block]
        hess[diag, diag] += ridge
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        slope = float(grad @ step)
        if not slope < 0.0:
            step, slope = -grad, -float(grad @ grad)
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            candidate = theta + t * step
            f_new, margin_new = loss_at(candidate)
            if f_new <= f + ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            return theta, f, False
        done = _decrease_converged(f, f_new)
        theta, f, margin = candidate, f_new, margin_new
        if done:
            return theta, f, True
    return theta, f, False


def _inverse_hessian_times(
    g: np.ndarray, S: np.ndarray, Y: np.ndarray, sy: List[List[float]], gamma: float
) -> np.ndarray:
    """The L-BFGS two-loop recursion ``H g`` from precomputed dot products.

    ``S`` and ``Y`` hold the curvature pairs oldest first, ``sy[i][j]``
    is ``s_i . y_j`` and ``gamma`` scales the initial ``H0 = gamma I``.
    Each loop's running vector only ever enters through dot products
    with the stored pairs, so both loops reduce to scalar recurrences
    over ``sy`` plus four matrix-vector products — the same ``H g`` as
    the textbook loops, without a NumPy call per pair.
    """
    p = len(sy)
    a = (S @ g).tolist()
    alpha = [0.0] * p
    for i in range(p - 1, -1, -1):  # first loop, newest pair first
        row = sy[i]
        acc = a[i]
        for j in range(i + 1, p):
            acc -= alpha[j] * row[j]
        alpha[i] = acc / row[i]
    r = (g - np.array(alpha) @ Y) * gamma
    c = (Y @ r).tolist()
    step = [0.0] * p
    for i in range(p):  # second loop, oldest pair first
        acc = c[i]
        for j in range(i):
            acc += step[j] * sy[j][i]
        step[i] = alpha[i] - acc / sy[i][i]
    return r + np.array(step) @ S


def lbfgs(
    fg: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    x0: np.ndarray,
    max_iter: int,
    history: int = 10,
) -> Solution:
    """Minimise a smooth ``fg(x) -> (loss, gradient)`` by L-BFGS.

    The inverse-Hessian estimate keeps the last ``history`` curvature
    pairs (a pair without positive curvature ``s.y`` is skipped), with
    ``H0`` scaled by ``s.y / y.y`` of the newest pair.  The first step,
    and any step after a non-descent direction resets the memory, is
    steepest descent of length ``1 / |g|``.  At most ``max_iter`` steps
    are taken.
    """
    x = np.array(x0, dtype=np.float64)
    f, g = fg(x)
    # Pair buffers, oldest first; the first len(sy) rows are live.
    S = np.empty((history, x.size))
    Y = np.empty((history, x.size))
    sy: List[List[float]] = []
    gamma = 1.0
    for step_count in range(max_iter + 1):
        if np.abs(g).max() <= GTOL:
            return x, f, True
        if step_count == max_iter:
            break
        p = len(sy)
        if p:
            direction = -_inverse_hessian_times(g, S[:p], Y[:p], sy, gamma)
            slope = float(g @ direction)
            t = 1.0
        if not p or not slope < 0.0:
            sy = []
            direction = -g
            slope = -float(g @ g)
            t = 1.0 / np.sqrt(-slope)
        for _ in range(MAX_BACKTRACKS):
            s = t * direction
            x_new = x + s
            f_new, g_new = fg(x_new)
            if f_new <= f + ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            return x, f, False
        yv = g_new - g
        yy = float(yv @ yv)
        if float(s @ yv) > EPS * yy:
            p = len(sy)
            if p == history:  # forget the oldest pair
                S[:-1] = S[1:]
                Y[:-1] = Y[1:]
                sy = [r[1:] for r in sy[1:]]
                p -= 1
            S[p] = s
            Y[p] = yv
            col = (S[: p + 1] @ yv).tolist()  # s_i . y_new, the new pair last
            for r, c in zip(sy, col):
                r.append(c)
            sy.append((Y[:p] @ s).tolist() + [col[-1]])
            gamma = col[-1] / yy
        done = _decrease_converged(f, f_new)
        x, f, g = x_new, f_new, g_new
        if done:
            return x, f, True
    return x, f, False
