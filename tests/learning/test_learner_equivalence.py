"""Fused learner paths vs their frozen reference loops.

``MLPAttack.fit`` takes one fused Adam step over a flat parameter buffer
and must be bit-identical to the per-parameter loop frozen as
``naive_mlp_fit`` in :mod:`tests._reference`.  ``CMAReliabilityAttack``
scores a whole ES generation in one call; that must match the
one-call-per-individual ``naive_cma_fitness`` up to BLAS rounding and
rank the generation identically.  Its repeated measurements come from
one chain-margin pass and one normal draw, which must equal the
per-measurement ``eval_noisy`` loop bit for bit, generator state
included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.learning import reliability_attack
from repro.learning.mlp import MLPAttack
from repro.learning.reliability_attack import (
    CMAReliabilityAttack,
    _profiles,
    cma_fitness,
)
from repro.pufs.arbiter import parity_transform
from repro.pufs.cdc_xor import CDCXORArbiterPUF
from repro.pufs.xor_arbiter import XORArbiterPUF
from tests._reference import naive_cma_fitness, naive_mlp_fit


def _pm1(rng, m, n):
    return (1 - 2 * rng.integers(0, 2, size=(m, n))).astype(np.int8)


class TestMLPBitIdentity:
    @pytest.mark.parametrize(
        "m, batch_size, epochs, hidden",
        [
            (400, 64, 15, 12),  # the atlas smoke shape: 64 does not divide 400
            (256, 64, 6, 8),  # batch_size divides m
            (150, 64, 1, 12),  # a single epoch
            (101, 7, 3, 5),  # many small batches, ragged last one
            (30, 128, 4, 3),  # one batch larger than the data
            (1, 4, 2, 2),  # a single example
        ],
    )
    def test_matches_per_parameter_adam(self, m, batch_size, epochs, hidden):
        rng = np.random.default_rng(m * 7 + epochs)
        x = _pm1(rng, m, 16)
        y = np.where(rng.normal(size=m) >= 0, 1, -1).astype(np.int8)
        attack = MLPAttack(
            hidden=hidden,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=0.02,
            l2=1e-4,
            feature_map=parity_transform,
        )
        fused = attack.fit(x, y, np.random.default_rng(11))
        ref = naive_mlp_fit(
            parity_transform(x),
            y,
            np.random.default_rng(11),
            hidden=hidden,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=0.02,
            l2=1e-4,
        )
        for name in ("w1", "b1", "w2"):
            assert np.array_equal(getattr(fused, name), ref[name]), name
        assert fused.b2 == ref["b2"]
        assert fused.final_loss == ref["final_loss"]
        assert fused.train_accuracy == ref["train_accuracy"]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_property_matches_per_parameter_adam(self, data):
        """Bit-identity over m, batch size, epochs, hidden, l2 and features.

        The batch size is drawn above m, equal to m, below m without
        dividing it, or anywhere in [1, m]; ``data=None`` is the atlas
        smoke shape (400 examples, batches of 64, 15 epochs, 12 units).
        """
        if data is None:
            m, batch_size, epochs, hidden, l2, parity, seed = (
                400, 64, 15, 12, 1e-5, True, 0
            )
        else:
            m = data.draw(st.integers(1, 120), label="m")
            relation = data.draw(
                st.sampled_from(["above", "equal", "ragged", "any"]), label="rel"
            )
            if relation == "above":
                batch_size = data.draw(st.integers(m + 1, m + 40), label="batch")
            elif relation == "equal":
                batch_size = m
            elif relation == "ragged" and m > 2:
                batch_size = data.draw(
                    st.integers(2, m - 1).filter(lambda b: m % b), label="batch"
                )
            else:
                batch_size = data.draw(st.integers(1, m), label="batch")
            epochs = data.draw(st.integers(1, 4), label="epochs")
            hidden = data.draw(st.integers(1, 8), label="hidden")
            l2 = data.draw(st.sampled_from([0.0, 1e-4, 0.05]), label="l2")
            parity = data.draw(st.booleans(), label="parity")
            seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        x = _pm1(rng, m, 9)
        y = np.where(rng.normal(size=m) >= 0, 1, -1).astype(np.int8)
        feature_map = parity_transform if parity else None
        fused = MLPAttack(
            hidden=hidden,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=0.02,
            l2=l2,
            feature_map=feature_map,
        ).fit(x, y, np.random.default_rng(seed + 1))
        ref = naive_mlp_fit(
            parity_transform(x) if parity else x,
            y,
            np.random.default_rng(seed + 1),
            hidden=hidden,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=0.02,
            l2=l2,
        )
        for name in ("w1", "b1", "w2"):
            assert np.array_equal(getattr(fused, name), ref[name]), name
        assert fused.b2 == ref["b2"]
        assert fused.final_loss == ref["final_loss"]
        assert fused.train_accuracy == ref["train_accuracy"]

    def test_weights_are_views_into_one_buffer(self):
        rng = np.random.default_rng(0)
        x = _pm1(rng, 50, 6)
        fit = MLPAttack(hidden=4, epochs=2).fit(x, x[:, 0], rng)
        assert fit.w1.base is not None and fit.w1.base is fit.w2.base
        assert fit.b1.base is fit.w1.base


def _reliability_inputs(rng, m=300, d=17, batches=3):
    phi = parity_transform(_pm1(rng, m, d - 1)).astype(np.float64)
    rel = rng.random(size=(m, batches))
    rel_matrix = rel - rel.mean(axis=0)
    rel_norms = np.sqrt(np.sum(rel_matrix**2, axis=0))
    return phi, rel_matrix, rel_norms


class TestCMABatchedFitness:
    @pytest.mark.parametrize(
        "n_found, penalty", [(0, 0.0), (0, 1.0), (1, 1.0), (2, 0.5)]
    )
    def test_matches_per_individual_fitness(self, n_found, penalty):
        rng = np.random.default_rng(n_found * 10 + int(penalty * 4))
        phi, rel_matrix, rel_norms = _reliability_inputs(rng)
        d = phi.shape[1]
        found = _profiles(phi, rng.normal(size=(n_found, d)))
        x = rng.normal(size=(16, d))
        x[5] = 0.0  # a degenerate individual: zero profile, not NaN
        batched = cma_fitness(phi, x, rel_matrix, rel_norms, found, penalty)
        naive = np.array(
            [
                naive_cma_fitness(phi, xi, rel_matrix, rel_norms, list(found), penalty)
                for xi in x
            ]
        )
        assert np.all(np.isfinite(batched))
        assert batched[5] == naive[5] == 0.0
        np.testing.assert_allclose(batched, naive, rtol=0, atol=1e-12)
        assert np.array_equal(np.argsort(batched), np.argsort(naive))

    def test_k3_run_scores_every_generation_like_the_reference(self, monkeypatch):
        """In situ on k=3: the distinctness penalty against found chains is live."""
        calls = {"generations": 0, "penalised": 0}

        def checked(phi, x, rel_matrix, rel_norms, found, distinct_penalty):
            batched = cma_fitness(
                phi, x, rel_matrix, rel_norms, found, distinct_penalty
            )
            profiles = list(found)
            naive = np.array(
                [
                    naive_cma_fitness(
                        phi, xi, rel_matrix, rel_norms, profiles, distinct_penalty
                    )
                    for xi in x
                ]
            )
            np.testing.assert_allclose(batched, naive, rtol=0, atol=1e-12)
            assert np.array_equal(np.argsort(batched), np.argsort(naive))
            calls["generations"] += 1
            calls["penalised"] += bool(profiles)
            return batched

        monkeypatch.setattr(reliability_attack, "cma_fitness", checked)
        puf = XORArbiterPUF(12, 3, np.random.default_rng(3), noise_sigma=0.3)
        attack = CMAReliabilityAttack(
            crps=200, repetitions=6, batches=2, generations=4, lam=8, restarts=1
        )
        attack.run(puf, np.random.default_rng(4))
        # Two ES slots of (1 initial + 4 generations) calls; the second
        # slot is penalised against the first slot's profile.
        assert calls == {"generations": 10, "penalised": 5}


class TestOneDrawMeasurements:
    @pytest.mark.parametrize("family", [XORArbiterPUF, CDCXORArbiterPUF])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    def test_equals_the_eval_noisy_loop(self, family, k, sigma):
        puf = family(16, k, np.random.default_rng(k), noise_sigma=sigma)
        challenges = _pm1(np.random.default_rng(5), 300, 16)
        one_draw_rng = np.random.default_rng(9)
        loop_rng = np.random.default_rng(9)
        one_draw = puf.eval_noisy_repeated(challenges, 9, one_draw_rng)
        loop = np.stack([puf.eval_noisy(challenges, loop_rng) for _ in range(9)])
        assert one_draw.dtype == loop.dtype == np.int8
        assert np.array_equal(one_draw, loop)
        # The generator is left where the loop leaves it.
        assert one_draw_rng.bit_generator.state == loop_rng.bit_generator.state
        assert one_draw_rng.normal() == loop_rng.normal()
        if sigma > 0:
            # Noise near the threshold really does flip some answers.
            assert np.any(loop != loop[0])
