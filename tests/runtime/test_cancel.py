"""Runner hooks the service depends on: ``on_result`` and ``cancel``.

``on_result`` is the progress-streaming tap — it must fire exactly once
per trial (replayed trials included, so a resumed job still reports
every trial), strictly after the ledger append, from the parent process.
``cancel`` is cooperative early stop: in-flight work finishes and is
recorded, the report is flagged ``cancelled``, and a later
``resume_from`` run completes exactly the missing trials bit-identically.
"""

import threading

import numpy as np
import pytest

from repro.runtime import TrialContext, TrialRunner
from repro.telemetry import RunLedger


def draw_trial(ctx: TrialContext, size: int = 4) -> np.ndarray:
    return ctx.rng.random(size)


def failing_trial(ctx: TrialContext) -> int:
    if ctx.index == 1:
        raise ValueError("deterministic failure")
    return ctx.index


class TestOnResult:
    def test_fires_once_per_trial_in_index_order_serially(self):
        seen = []
        TrialRunner(workers=1).run(
            draw_trial, 6, master_seed=3, on_result=lambda r: seen.append(r.index)
        )
        assert seen == list(range(6))

    def test_fires_for_every_trial_on_the_pool_path(self):
        seen = []
        TrialRunner(workers=3).run(
            draw_trial, 9, master_seed=3, on_result=lambda r: seen.append(r.index)
        )
        assert sorted(seen) == list(range(9))

    def test_fires_after_ledger_append(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        recorded_at_callback = []

        def tap(result):
            recorded = {rec["index"] for rec in ledger.read()}
            recorded_at_callback.append(result.index in recorded)

        TrialRunner(workers=1).run(
            draw_trial, 4, master_seed=1, ledger=ledger, on_result=tap
        )
        assert recorded_at_callback == [True] * 4

    def test_replayed_trials_fire_too(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        TrialRunner(workers=1).run(draw_trial, 3, master_seed=9, ledger=ledger)
        seen = []
        report = TrialRunner(workers=1).run(
            draw_trial,
            5,
            master_seed=9,
            ledger=ledger,
            resume_from=ledger,
            on_result=lambda r: seen.append((r.index, r.replayed)),
        )
        assert seen == [(0, True), (1, True), (2, True), (3, False), (4, False)]
        assert report.replayed_count == 3

    def test_error_results_fire(self):
        seen = []
        report = TrialRunner(workers=1).run(
            failing_trial, 3, master_seed=0, on_result=lambda r: seen.append(r.ok)
        )
        assert seen == [True, False, True]
        assert len(report.failures()) == 1


class TestCancel:
    def test_pre_set_cancel_runs_nothing(self):
        cancel = threading.Event()
        cancel.set()
        report = TrialRunner(workers=1).run(
            draw_trial, 10, master_seed=0, cancel=cancel
        )
        assert report.cancelled is True
        assert report.results == []

    def test_mid_run_cancel_keeps_completed_prefix(self):
        cancel = threading.Event()

        def stop_after_three(result):
            if result.index == 2:
                cancel.set()

        report = TrialRunner(workers=1).run(
            draw_trial, 50, master_seed=0, cancel=cancel, on_result=stop_after_three
        )
        assert report.cancelled is True
        assert 3 <= len(report.results) < 50
        assert "cancelled" in report.summary()

    def test_unset_cancel_changes_nothing(self):
        cancel = threading.Event()
        plain = TrialRunner(workers=1).run(draw_trial, 5, master_seed=7)
        gated = TrialRunner(workers=1).run(
            draw_trial, 5, master_seed=7, cancel=cancel
        )
        assert gated.cancelled is False
        for a, b in zip(plain.values(), gated.values()):
            np.testing.assert_array_equal(a, b)

    def test_pool_path_cancel_stops_early(self):
        cancel = threading.Event()

        def stop_soon(result):
            cancel.set()

        report = TrialRunner(workers=2).run(
            draw_trial, 40, master_seed=1, cancel=cancel, on_result=stop_soon
        )
        assert report.cancelled is True
        assert len(report.results) < 40

    def test_cancelled_run_resumes_bit_identically(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        cancel = threading.Event()

        def stop_after_two(result):
            if result.index == 1:
                cancel.set()

        partial = TrialRunner(workers=1).run(
            draw_trial,
            8,
            master_seed=13,
            ledger=ledger,
            cancel=cancel,
            on_result=stop_after_two,
        )
        assert partial.cancelled and len(partial.results) < 8
        resumed = TrialRunner(workers=1).run(
            draw_trial, 8, master_seed=13, ledger=ledger, resume_from=ledger
        )
        assert resumed.cancelled is False
        reference = TrialRunner(workers=1).run(draw_trial, 8, master_seed=13)
        for a, b in zip(resumed.values(), reference.values()):
            np.testing.assert_array_equal(a, b)
