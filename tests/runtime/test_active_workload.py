"""The ``active`` workload: store memoisation, accounting, and resume.

Three runtime contracts layer on top of the strategy-level tests:

* a warm :class:`~repro.runtime.store.ArtifactStore` replays a cached
  adaptive trajectory bit-identically to the cold run, and the replay is
  recorded under the strategy's own query kind (``"mq"``) so the ledger
  stays an honest account of the access model;
* trial telemetry carries the adaptive query counts home through worker
  processes;
* a killed pooled run resumes from its ledger with every adaptive
  trial replayed or re-executed bit-identically.
"""

import numpy as np
import pytest

from repro.runtime import TrialRunner
from repro.runtime.workloads import ActiveTrialSpec, active_trial
from repro.telemetry import RunLedger

SPEC = ActiveTrialSpec(
    n=20, budgets=(32, 64), batch=16, pool_size=256, test_size=500
)


def run_trials(tmp_path, trials=2, cache=True, workers=1, **kwargs):
    trial_kwargs = {"spec": kwargs.pop("spec", SPEC)}
    if cache:
        trial_kwargs["cache_dir"] = str(tmp_path / "cache")
    return TrialRunner(workers=workers).run(
        active_trial, trials, master_seed=0, trial_kwargs=trial_kwargs, **kwargs
    )


class TestSpecValidation:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            ActiveTrialSpec(strategy="clairvoyant")

    def test_rejects_pool_smaller_than_budget(self):
        with pytest.raises(ValueError, match="pool_size"):
            ActiveTrialSpec(budgets=(64,), pool_size=32)

    def test_rejects_majority_noise(self):
        with pytest.raises(ValueError, match="noise_rate"):
            ActiveTrialSpec(noise_rate=0.5)


class TestStoreMemoisation:
    def test_warm_rerun_is_bit_identical(self, tmp_path):
        cold = run_trials(tmp_path)
        warm = run_trials(tmp_path)
        for a, b in zip(cold.values(), warm.values()):
            np.testing.assert_array_equal(a, b)

    def test_cache_matches_uncached_run(self, tmp_path):
        # Memoisation must be invisible to the results: the selection
        # stream is independent of the fit/test streams, so cached and
        # from-scratch trials agree bit for bit.
        cached = run_trials(tmp_path)
        plain = run_trials(tmp_path, cache=False)
        for a, b in zip(cached.values(), plain.values()):
            np.testing.assert_array_equal(a, b)

    def test_warm_hit_recorded_under_mq(self, tmp_path):
        run_trials(tmp_path, trials=1)
        warm = run_trials(tmp_path, trials=1)
        telemetry = warm.results[0].telemetry
        counters = telemetry["queries"]["counters"]
        assert counters.get("artifact_store.hits", 0) >= 1
        # The replayed trajectory still books 64 membership queries and
        # zero passive examples — record_kind="mq" on the hit path.
        kinds = telemetry["queries"]["queries"]
        assert kinds["mq"]["queries"] == 64
        assert kinds["mq"]["examples"] == 0
        assert kinds["ex"]["queries"] == 0

    def test_passive_strategy_hits_record_under_ex(self, tmp_path):
        spec = ActiveTrialSpec(
            n=20,
            strategy="passive",
            budgets=(32, 64),
            pool_size=256,
            test_size=500,
        )
        run_trials(tmp_path, trials=1, spec=spec)
        warm = run_trials(tmp_path, trials=1, spec=spec)
        kinds = warm.results[0].telemetry["queries"]["queries"]
        assert kinds["ex"]["queries"] == 64
        assert kinds["ex"]["examples"] == 64
        assert kinds["mq"]["queries"] == 0


class TestPooledResume:
    def truncate(self, ledger, keep):
        lines = ledger.path.read_text().splitlines()
        ledger.path.write_text("\n".join(lines[:keep]) + "\n")

    def test_resumed_pooled_run_matches_serial_reference(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        full = run_trials(tmp_path, trials=4, ledger=ledger)
        self.truncate(ledger, keep=2)
        resumed = run_trials(
            tmp_path,
            trials=4,
            workers=2,
            ledger=ledger,
            resume_from=ledger,
        )
        assert resumed.replayed_count == 2
        for a, b in zip(full.values(), resumed.values()):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype

    def test_completed_adaptive_run_is_pure_replay(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        full = run_trials(tmp_path, trials=3, ledger=ledger)
        resumed = run_trials(tmp_path, trials=3, resume_from=ledger)
        assert resumed.executor == "replay"
        assert resumed.replayed_count == 3
        for a, b in zip(full.values(), resumed.values()):
            np.testing.assert_array_equal(a, b)


class TestParallelDeterminism:
    def test_worker_count_does_not_change_results(self, tmp_path):
        serial = run_trials(tmp_path, trials=4, cache=False)
        parallel = run_trials(tmp_path, trials=4, cache=False, workers=2)
        for a, b in zip(serial.values(), parallel.values()):
            np.testing.assert_array_equal(a, b)
