"""Frozen reference paths that only the tests and benchmarks use.

Each one is the slow, obvious form of a kernel or learner, kept so the
tests can demand that the fast path equals it (exactly, except for the
two scipy fits and the ES fitness):

* ``naive_uniform_challenges``: the ``rng.integers`` challenge draw that
  :func:`repro.pufs.crp.uniform_challenges` replays from raw PCG64 words
  (values and generator state afterwards);
* ``naive_child_generators``: one ``SeedSequence`` child and one
  ``default_rng`` per instance, which :mod:`repro.kernels.spawn` derives
  in one array pass;
* ``naive_fleet_weights``: the per-instance weight draws of the fleet
  build, which the stacked draws of :mod:`repro.pufs.fleet` match;
* ``naive_xor_combine`` / ``naive_negative_flags``: ``reduceat`` chain
  combines, which the word-parity and positional combines of
  :mod:`repro.kernels.fleet` match;
* ``naive_plane_uniqueness``: the exact mean of the per-pair integer
  disagreement counts, rounded once, which the row-sum identity of
  :mod:`repro.pufs.metrics` matches;
* ``naive_lbfgsb_logistic_fit`` / ``naive_lbfgsb_xor_fit``: the scipy
  L-BFGS-B fits the NumPy LR solvers of :mod:`repro.learning.solvers`
  replaced, which they must match statistically (scipy, a test-only
  dependency here, is imported inside the two functions);
* ``naive_row_keys`` / ``naive_observe``: the query meter's set-based
  distinct tracking, which the sorted-array meter of
  :mod:`repro.telemetry.meter` matches exactly and
  ``benchmarks/test_telemetry_overhead.py`` times;
* ``naive_mlp_fit``: the per-parameter Adam loop of the MLP, which the
  fused flat-buffer step of :class:`repro.learning.mlp.MLPAttack`
  matches bit for bit;
* ``naive_cma_fitness``: the reliability attack's one-call-per-individual
  ES fitness, which the generation-at-once
  :func:`repro.learning.reliability_attack.cma_fitness` matches up to
  BLAS rounding.

The references the conformance suite and the ``bench`` commands drive
ship in :mod:`repro.kernels.reference`.  Do not optimise these either.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def naive_uniform_challenges(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``m`` uniform +/-1 challenges of length ``n`` from ``rng.integers``."""
    return (1 - 2 * rng.integers(0, 2, size=(m, n))).astype(np.int8)


def naive_child_generators(
    root: np.random.SeedSequence, start: int, count: int
) -> List[np.random.Generator]:
    """One ``SeedSequence`` child and one ``default_rng`` per instance:
    children ``spawn_key + (start + i,)`` of ``root``, built one by one."""
    return [
        np.random.default_rng(
            np.random.SeedSequence(
                entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (start + i,)
            )
        )
        for i in range(count)
    ]


def naive_fleet_weights(spec, root: np.random.SeedSequence) -> np.ndarray:
    """The per-instance fleet build loop: the float64 stacked weight columns
    of a :class:`~repro.pufs.fleet.FleetSpec` built from ``root``.

    Instance ``i`` draws from its own generator on child ``1 + i`` in the
    standalone constructor's order; a BR fleet first draws its shared
    topology from child 0.  (BR draw helpers are imported lazily from
    :mod:`repro.pufs.fleet`; this module stays numpy-only at import.)
    """
    n, size = spec.n, spec.size
    if spec.family == "arbiter":
        cols = np.empty((n + 1, size))
        for i, rng in enumerate(naive_child_generators(root, 1, size)):
            cols[:, i] = rng.normal(0.0, spec.weight_sigma, size=n + 1)
        return cols
    if spec.family == "xor":
        counts = spec.chain_counts
        cols = np.empty((n + 1, sum(counts)))
        mix = np.sqrt(1.0 - spec.correlation**2)
        col = 0
        for k_i, rng in zip(counts, naive_child_generators(root, 1, size)):
            shared = rng.normal(0.0, spec.weight_sigma, size=n + 1)
            for _ in range(k_i):
                own = rng.normal(0.0, spec.weight_sigma, size=n + 1)
                cols[:, col] = mix * own + spec.correlation * shared
                col += 1
        return cols
    if spec.family == "br":
        from repro.pufs.fleet import _br_instance_weights, _br_topology

        (topology_rng,) = naive_child_generators(root, 0, 1)
        pairs, triples = _br_topology(spec, topology_rng)
        cols = np.empty((1 + n + len(pairs) + len(triples), size))
        for i, rng in enumerate(naive_child_generators(root, 1, size)):
            bias, linear, offset, pair_w, triple_w = _br_instance_weights(
                spec, rng, len(pairs), len(triples)
            )
            cols[:, i] = np.concatenate(
                ([offset + np.sum(bias)], linear, pair_w, triple_w)
            )
        return cols
    cols = np.zeros((n + 1, size))
    for i, rng in enumerate(naive_child_generators(root, 1, size)):
        cols[:n, i] = rng.normal(0.0, spec.weight_sigma, size=n)
    return cols


def naive_xor_combine(
    chain_signs: np.ndarray, chain_offsets: np.ndarray
) -> np.ndarray:
    """The pre-flag ``xor_combine``: ``np.multiply.reduceat`` of each
    instance's contiguous slice of ±1 chain signs, as int8."""
    offsets = np.asarray(chain_offsets, dtype=np.intp)
    products = np.multiply.reduceat(np.asarray(chain_signs), offsets, axis=1)
    return products.astype(np.int8)


def naive_negative_flags(flags: np.ndarray, chain_offsets) -> np.ndarray:
    """The pre-positional ``_negative_flags``: ``np.bitwise_xor.reduceat``
    of each instance's slice of -1 flags on the last axis."""
    if chain_offsets is None:
        return flags
    offsets = np.asarray(chain_offsets, dtype=np.intp)
    return np.bitwise_xor.reduceat(flags, offsets, axis=-1)


def naive_plane_uniqueness(responses: np.ndarray) -> float:
    """Uniqueness pair by pair: the integer disagreement count of every
    i < j column pair of an ``(m, N)`` ±1 plane, added up as Python ints
    and divided once (the exact mean, correctly rounded)."""
    responses = np.asarray(responses)
    m, size = responses.shape
    disagreements = 0
    for i in range(size):
        for j in range(i + 1, size):
            disagreements += int(np.count_nonzero(responses[:, i] != responses[:, j]))
    return disagreements / (m * (size * (size - 1) // 2))


def naive_lbfgsb_logistic_fit(
    feats: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    *,
    l2: float,
    max_iter: int,
) -> Dict[str, object]:
    """scipy L-BFGS-B fit of the L2-regularised logistic loss.

    The pre-Newton body of ``LogisticAttack.fit``, verbatim, on the
    already-mapped float features: theta0 drawn as
    ``rng.normal(0, 0.01, d + 1)``, then ``scipy.optimize.minimize``.
    Returns the weights ``w``, intercept ``b``, ``converged``,
    ``final_loss`` and ``train_accuracy`` of ``sgn(X w + b)``.
    """
    from scipy import optimize

    from repro.booleanfuncs.ltf import LTF

    feats = np.asarray(feats, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, d = feats.shape
    theta0 = rng.normal(0.0, 0.01, size=d + 1)

    def loss_and_grad(theta: np.ndarray):
        w, b = theta[:d], theta[d]
        margin = y * (feats @ w + b)
        # log(1 + exp(-margin)) computed stably.
        loss = np.mean(np.logaddexp(0.0, -margin)) + 0.5 * l2 * (w @ w)
        sig = 1.0 / (1.0 + np.exp(np.clip(margin, -500, 500)))
        coef = -y * sig / m
        grad_w = feats.T @ coef + l2 * w
        grad_b = np.sum(coef)
        return loss, np.concatenate([grad_w, [grad_b]])

    result = optimize.minimize(
        loss_and_grad,
        theta0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter},
    )
    w, b = result.x[:d], result.x[d]
    preds = LTF(w, -b, name="logistic_ltf")(feats)
    return {
        "w": w,
        "b": float(b),
        "converged": bool(result.success),
        "final_loss": float(result.fun),
        "train_accuracy": float(np.mean(preds == y)),
    }


def naive_lbfgsb_xor_fit(
    feats: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    *,
    k: int,
    restarts: int,
    max_iter: int,
    l2: float,
    target_accuracy: float,
) -> Dict[str, object]:
    """scipy L-BFGS-B product-of-margins fit with random restarts.

    The pre-NumPy-L-BFGS body of ``XorLogisticAttack.fit``, verbatim, on
    the already-mapped float features: per restart a fresh
    ``rng.normal(0, 1, k * d)`` start, one ``scipy.optimize.minimize``,
    the gradient built chain by chain from ``np.delete`` copies; the
    best training accuracy wins and ``target_accuracy`` stops early.
    Returns ``chain_weights`` (k, d), ``converged``, ``final_loss``,
    ``train_accuracy`` and ``restarts_used`` of the winning restart.
    """
    from scipy import optimize

    feats = np.asarray(feats, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, d = feats.shape

    def loss_and_grad(theta: np.ndarray):
        w = theta.reshape(k, d)
        margins = feats @ w.T  # (m, k)
        prod = np.prod(margins, axis=1)
        z = y * prod
        loss = np.mean(np.logaddexp(0.0, -z)) + 0.5 * l2 * np.sum(w * w)
        sig = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
        coef = -y * sig / m  # dLoss/dprod
        grad = np.empty_like(w)
        for j in range(k):
            others = np.prod(
                np.delete(margins, j, axis=1), axis=1
            ) if k > 1 else np.ones(m)
            grad[j] = feats.T @ (coef * others) + l2 * w[j]
        return loss, grad.ravel()

    best: Optional[Dict[str, object]] = None
    for attempt in range(restarts):
        theta0 = rng.normal(0.0, 1.0, size=k * d)
        result = optimize.minimize(
            loss_and_grad,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iter},
        )
        w = result.x.reshape(k, d)
        margins = np.prod(feats @ w.T, axis=1)
        acc = float(np.mean(np.where(margins >= 0, 1, -1) == y))
        candidate = {
            "chain_weights": w,
            "converged": bool(result.success),
            "final_loss": float(result.fun),
            "train_accuracy": acc,
            "restarts_used": attempt + 1,
        }
        if best is None or candidate["train_accuracy"] > best["train_accuracy"]:
            best = candidate
        if best["train_accuracy"] >= target_accuracy:
            break
    assert best is not None
    return best


def naive_row_keys(rows: np.ndarray):
    """One hashable key per challenge row, the pre-packbits ``_row_keys``.

    Rows of width <= 64: ``(rows < 1)`` as uint64 bits times the powers
    of two, one uint64 ``matmul``.  Wider rows: per-row bytes.
    """
    m, n = rows.shape
    if n <= 64:
        bits = (rows < 1).astype(np.uint64)
        weights = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
        return bits @ weights
    return [rows[i].tobytes() for i in range(m)]


def naive_observe(seen: set, x: np.ndarray, distinct_cap: int) -> Tuple[int, bool]:
    """The pre-sorted-array ``QueryMeter._observe`` loop, verbatim.

    Updates ``seen`` (one set holding uint64 keys as ints and wide-row
    bytes) with the non-empty row batch ``x`` and returns ``(repeated,
    saturated)``: the rows of ``x`` counted as repeats and whether a new
    key was turned away at ``distinct_cap``.  Unique keys are visited in
    ascending order, so the cap admits the smallest new keys first.
    """
    repeated, saturated = 0, False
    keys = naive_row_keys(np.ascontiguousarray(x, dtype=np.int8))
    unique = np.unique(keys) if isinstance(keys, np.ndarray) else sorted(set(keys))
    repeated += x.shape[0] - len(unique)
    for key in unique:
        key = int(key) if isinstance(keys, np.ndarray) else key
        if key in seen:
            repeated += 1
        elif len(seen) < distinct_cap:
            seen.add(key)
        else:
            saturated = True
    return repeated, saturated


def naive_mlp_fit(
    feats: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    *,
    hidden: int,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    l2: float,
) -> Dict[str, object]:
    """Per-parameter Adam training loop of the one-hidden-layer MLP.

    The pre-fusion body of ``MLPAttack.fit``, verbatim: four separate
    parameter arrays, four separate Adam moment pairs, the backward
    term built twice, and the loss evaluated on every minibatch.
    ``feats`` are the already-mapped float features.  Returns the
    trained ``w1``, ``b1``, ``w2``, ``b2``, the last minibatch's
    ``final_loss`` and the ``train_accuracy`` of the sign of the score.
    """
    feats = np.asarray(feats, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, d = feats.shape
    h = hidden

    w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h))
    b1 = np.zeros(h)
    w2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=h)
    b2 = 0.0

    params = [w1, b1, w2, np.array([b2])]
    m1 = [np.zeros_like(p) for p in params]
    m2 = [np.zeros_like(p) for p in params]
    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
    step = 0
    loss = np.inf
    for _ in range(epochs):
        order = rng.permutation(m)
        for start in range(0, m, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = feats[idx], y[idx]
            pre = xb @ params[0] + params[1]
            hid = np.tanh(pre)
            score = hid @ params[2] + params[3][0]
            z = yb * score
            loss = float(
                np.mean(np.logaddexp(0.0, -z))
                + 0.5 * l2 * (np.sum(params[0] ** 2) + np.sum(params[2] ** 2))
            )
            sig = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
            dscore = -yb * sig / xb.shape[0]
            grads = [
                xb.T @ ((dscore[:, None] * params[2][None, :]) * (1 - hid**2))
                + l2 * params[0],
                np.sum((dscore[:, None] * params[2][None, :]) * (1 - hid**2), axis=0),
                hid.T @ dscore + l2 * params[2],
                np.array([np.sum(dscore)]),
            ]
            step += 1
            for p, g, mm, vv in zip(params, grads, m1, m2):
                mm *= beta1
                mm += (1 - beta1) * g
                vv *= beta2
                vv += (1 - beta2) * g * g
                m_hat = mm / (1 - beta1**step)
                v_hat = vv / (1 - beta2**step)
                p -= learning_rate * m_hat / (np.sqrt(v_hat) + eps_adam)

    b2 = float(params[3][0])
    score = np.tanh(feats @ params[0] + params[1]) @ params[2] + b2
    predicted = np.where(score >= 0, 1, -1).astype(np.int8)
    return {
        "w1": params[0],
        "b1": params[1],
        "w2": params[2],
        "b2": b2,
        "final_loss": loss,
        "train_accuracy": float(np.mean(predicted == y.astype(np.int8))),
    }


def naive_cma_fitness(
    phi: np.ndarray,
    w: np.ndarray,
    rel_matrix: np.ndarray,
    rel_norms: np.ndarray,
    profiles: Sequence[np.ndarray],
    distinct_penalty: float,
) -> float:
    """One individual's reliability-correlation fitness, one call each.

    The pre-batching ``CMAReliabilityAttack`` fitness, verbatim: the
    centred, unit-norm |margin| profile of ``phi @ w`` (a zero norm
    divides by 1), its mean |correlation| against the centred
    reliability columns ``rel_matrix`` (each divided by its entry of
    ``rel_norms``), minus ``distinct_penalty`` times the largest
    |overlap| with the already-found ``profiles``.
    """
    h = np.abs(phi @ w)
    hc = h - h.mean()
    norm = float(np.sqrt(np.sum(hc**2))) or 1.0
    hc = hc / norm
    corr = float(np.mean(np.abs(hc @ rel_matrix) / rel_norms))
    if profiles and distinct_penalty > 0:
        overlap = max(abs(float(hc @ p)) for p in profiles)
        corr -= distinct_penalty * overlap
    return corr
