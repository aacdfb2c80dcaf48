"""Unit tests for the learning-curve utility and the CLI."""

import numpy as np
import pytest

from repro.__main__ import main
from repro.analysis.learning_curves import (
    LearningCurve,
    compare_learners,
    learning_curve,
    replicated_learning_curve,
)
from repro.learning.logistic import LogisticAttack
from repro.pufs.arbiter import ArbiterPUF, parity_transform


def logistic_fitter(x, y, rng):
    return LogisticAttack(feature_map=parity_transform).fit(x, y, rng).predict


def arbiter_factory(rng):
    return ArbiterPUF(16, rng)


class TestLearningCurve:
    def test_curve_shape(self):
        rng = np.random.default_rng(0)
        puf = ArbiterPUF(24, rng)
        curve = learning_curve(
            "logistic", logistic_fitter, puf, [100, 800], test_size=2000, rng=rng
        )
        assert curve.budgets == [100, 800]
        assert len(curve.accuracies) == 2
        assert curve.final_accuracy() > 0.9
        assert curve.accuracies[1] >= curve.accuracies[0] - 0.02

    def test_budget_to_reach(self):
        curve = LearningCurve("x", [10, 100, 1000], [0.6, 0.9, 0.99])
        assert curve.budget_to_reach(0.85) == 100
        assert curve.budget_to_reach(0.999) is None

    def test_is_monotone(self):
        assert LearningCurve("x", [1, 2], [0.6, 0.7]).is_monotone()
        assert not LearningCurve("x", [1, 2], [0.9, 0.6]).is_monotone()
        assert LearningCurve("x", [1, 2], [0.90, 0.88]).is_monotone(slack=0.05)

    def test_validates_budgets(self):
        puf = ArbiterPUF(8, np.random.default_rng(1))
        with pytest.raises(ValueError):
            learning_curve("x", logistic_fitter, puf, [])
        with pytest.raises(ValueError):
            learning_curve("x", logistic_fitter, puf, [0, 10])

    def test_compare_learners_names(self):
        rng = np.random.default_rng(2)
        puf = ArbiterPUF(16, rng)
        curves = compare_learners(
            {"a": logistic_fitter, "b": logistic_fitter},
            puf,
            [200],
            test_size=1000,
            rng=rng,
        )
        assert {c.learner for c in curves} == {"a", "b"}


class TestReplicatedLearningCurve:
    def test_mean_and_std_shapes(self):
        curve, report = replicated_learning_curve(
            "logistic",
            logistic_fitter,
            arbiter_factory,
            [50, 200],
            trials=3,
            test_size=300,
            master_seed=5,
        )
        assert curve.budgets == [50, 200]
        assert len(curve.mean_accuracies) == 2
        assert len(curve.std_accuracies) == 2
        assert curve.trials == 3
        assert len(report.results) == 3
        assert curve.as_curve().accuracies == curve.mean_accuracies

    def test_worker_count_does_not_change_numbers(self):
        kwargs = dict(
            budgets=[50, 200], trials=4, test_size=300, master_seed=17
        )
        serial, _ = replicated_learning_curve(
            "l", logistic_fitter, arbiter_factory, workers=1, **kwargs
        )
        pooled, _ = replicated_learning_curve(
            "l", logistic_fitter, arbiter_factory, workers=4, **kwargs
        )
        assert serial.mean_accuracies == pooled.mean_accuracies
        assert serial.std_accuracies == pooled.std_accuracies

    def test_validates_trials(self):
        with pytest.raises(ValueError):
            replicated_learning_curve(
                "l", logistic_fitter, arbiter_factory, [10], trials=0
            )


class TestCLI:
    def test_assess_runs(self, capsys):
        assert main(["assess", "--n", "32", "--k", "6"]) == 0
        out = capsys.readouterr().out
        assert "Corollary 1 (LMN)" in out
        assert "Verdicts disagree" in out

    def test_audit_runs(self, capsys):
        assert main(["audit", "--n", "64", "--k", "9"]) == 0
        out = capsys.readouterr().out
        assert "UNSOUND" in out
        assert "pitfall" in out

    def test_attack_demo_runs(self, capsys):
        assert main(["attack-demo", "--key-length", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "recovered key" in out

    def test_trials_runs_and_checks_identity(self, capsys):
        code = main(
            [
                "trials",
                "--trials", "3",
                "--workers", "2",
                "--spec", "n=16",
                "--spec", "budgets=[40,80]",
                "--spec", "test_size=200",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical results across worker counts: True" in out
        assert "speedup:" in out
        assert "per-trial timings" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
