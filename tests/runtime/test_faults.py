"""Runtime fault injection: trial errors vs infrastructure failures.

Pins the failure taxonomy the runner promises: a raising trial becomes a
structured ``category="trial"`` :class:`TrialError` (never retried, never
misreported as a pool failure), a SIGKILL'd worker is retried under the
:class:`RetryPolicy` after a pool rebuild, and a hung worker is killed at
``trial_timeout`` — all without perturbing a single surviving trial's
bits.
"""

import contextlib
import os
import re
import threading
import time
import warnings as _warnings
from concurrent import futures as _futures

import numpy as np
import pytest

from repro.runtime import RetryPolicy, TrialError, TrialFailure, TrialRunner
from repro.runtime import sharding as sharding_module
from repro.runtime.workloads import FaultInjectionSpec, fault_injection_trial


@contextlib.contextmanager
def warnings_as_errors():
    """Fail the test if the code under test warns at all."""
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        yield


#: Pool-path fault tests run on one shard (the single pool) and on two:
#: a test class sets ``shards = 1`` and its ``...TwoShards`` subclass
#: reruns it with ``shards = 2``; a lone test takes this parametrisation.
SHARDS = pytest.mark.parametrize("shards", [1, 2])


def assert_pooled(report, shards):
    """The executor label of a healthy pooled run with ``workers=2``."""
    if shards == 1:
        assert report.executor == "process-pool"
    else:
        assert re.fullmatch(r"sharded\(2x2(, steals=\d+)?\)", report.executor)


def clean_values(num_trials, master_seed, size=2):
    """Reference values: the same trials with no faults armed."""
    report = TrialRunner(workers=1).run(
        fault_injection_trial,
        num_trials,
        master_seed=master_seed,
        trial_kwargs={"spec": FaultInjectionSpec(size=size)},
    )
    return report.values()


# ----------------------------------------------------------------------
# Trial errors: deterministic, structured, never retried.
# ----------------------------------------------------------------------
class TestTrialErrors:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_raising_trial_becomes_trial_error_others_survive(self, workers):
        spec = FaultInjectionSpec(size=2, fail_indices=(2,))
        report = TrialRunner(workers=workers).run(
            fault_injection_trial, 5, master_seed=7, trial_kwargs={"spec": spec}
        )
        assert [r.index for r in report.results] == list(range(5))
        failed = report.results[2]
        assert not failed.ok
        assert failed.value is None
        assert failed.error.exc_type == "ValueError"
        assert failed.error.category == "trial"
        assert "injected failure in trial 2" in failed.error.message
        reference = clean_values(5, 7)
        for i in (0, 1, 3, 4):
            assert report.results[i].ok
            np.testing.assert_array_equal(report.results[i].value, reference[i])

    def test_pool_does_not_misreport_trial_error_as_pool_failure(self):
        """The seed bug: a raising trial must not trigger the serial
        fallback (nor its 'process pool unavailable' warning)."""
        spec = FaultInjectionSpec(size=2, fail_indices=(0,))
        with warnings_as_errors():
            report = TrialRunner(workers=2).run(
                fault_injection_trial, 4, master_seed=0, trial_kwargs={"spec": spec}
            )
        assert report.executor == "process-pool"

    def test_trial_errors_are_never_retried(self):
        spec = FaultInjectionSpec(size=2, fail_indices=(1,))
        retry = RetryPolicy(max_attempts=5, base_delay=0.0)
        report = TrialRunner(workers=2).run(
            fault_injection_trial,
            3,
            master_seed=3,
            trial_kwargs={"spec": spec},
            retry=retry,
        )
        assert report.results[1].attempts == 1
        assert report.retried_count == 0

    def test_serial_and_pool_produce_identical_errors(self):
        spec = FaultInjectionSpec(size=2, fail_indices=(0, 2))
        runs = [
            TrialRunner(workers=w).run(
                fault_injection_trial, 4, master_seed=11, trial_kwargs={"spec": spec}
            )
            for w in (1, 2)
        ]
        for a, b in zip(runs[0].results, runs[1].results):
            assert a.ok == b.ok
            if a.ok:
                np.testing.assert_array_equal(a.value, b.value)
            else:
                assert a.error.exc_type == b.error.exc_type
                assert a.error.message == b.error.message

    def test_error_carries_traceback_and_seed_identity(self):
        spec = FaultInjectionSpec(size=2, fail_indices=(0,))
        report = TrialRunner(workers=1).run(
            fault_injection_trial, 1, master_seed=9, trial_kwargs={"spec": spec}
        )
        error = report.results[0].error
        assert "ValueError" in error.traceback
        assert "fault_injection_trial" in error.traceback
        # The recorded seed identity reproduces the failing trial exactly.
        seed = np.random.SeedSequence(
            int(error.entropy), spawn_key=tuple(error.spawn_key)
        )
        redraw = np.random.default_rng(seed).random(2)
        reference = clean_values(1, 9)[0]
        np.testing.assert_array_equal(redraw, reference)

    def test_raise_failures_collects_trial_errors(self):
        spec = FaultInjectionSpec(size=2, fail_indices=(1,))
        report = TrialRunner(workers=1).run(
            fault_injection_trial, 3, master_seed=0, trial_kwargs={"spec": spec}
        )
        with pytest.raises(TrialFailure, match="injected failure in trial 1"):
            report.raise_failures()


# ----------------------------------------------------------------------
# Infrastructure failures: retried, pool rebuilt, survivors untouched.
# ----------------------------------------------------------------------
class TestWorkerDeath:
    shards = 1

    def test_killed_worker_is_retried_and_survivors_keep_their_bits(
        self, tmp_path
    ):
        """os._exit in a worker (= SIGKILL/OOM) breaks the pool; the run
        must rebuild it, re-execute the victims, and end bit-identical to
        a fault-free run."""
        spec = FaultInjectionSpec(
            size=2, exit_indices=(1,), once_dir=str(tmp_path)
        )
        with pytest.warns(RuntimeWarning, match="worker process died"):
            report = TrialRunner(workers=2, chunk_size=1, shards=self.shards).run(
                fault_injection_trial,
                4,
                master_seed=17,
                trial_kwargs={"spec": spec},
                retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            )
        assert_pooled(report, self.shards)
        assert all(r.ok for r in report.results)
        assert report.results[1].attempts >= 2
        assert report.retried_count >= 1
        for value, reference in zip(report.values(), clean_values(4, 17)):
            np.testing.assert_array_equal(value, reference)

    def test_exhausted_retry_budget_records_infra_error(self, tmp_path):
        """A worker that dies on every attempt ends as a structured
        ``category="infra"`` error, not a crash of the whole run."""
        spec = FaultInjectionSpec(size=2, exit_indices=(0,))  # fires every time
        with pytest.warns(RuntimeWarning, match="worker process died"):
            report = TrialRunner(workers=2, chunk_size=1, shards=self.shards).run(
                fault_injection_trial,
                1,
                master_seed=0,
                trial_kwargs={"spec": spec},
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            )
        failed = report.results[0]
        assert not failed.ok
        assert failed.error.category == "infra"
        assert failed.error.exc_type == "BrokenProcessPool"
        assert failed.attempts == 2


class TestWorkerDeathTwoShards(TestWorkerDeath):
    """The same worker-death contract when the pool is one of two shards."""

    shards = 2


def fast_or_exit_trial(ctx, exit_index, size=2):
    """Picklable: the chosen trial kills its worker late, others are instant."""
    if ctx.index == exit_index:
        time.sleep(0.4)
        os._exit(42)
    return ctx.rng.random(size)


class TestBrokenPoolHarvest:
    shards = 1

    def test_completed_chunks_survive_a_broken_pool(self, monkeypatch):
        """A chunk whose future already completed when another chunk broke
        the pool keeps its result: it must never be discarded, re-executed,
        or mislabeled as an infra failure — even with no retry budget left
        and even when the broken future is processed first."""
        real_wait = _futures.wait

        def wait_broken_first(fs, timeout=None, return_when=None):
            done, not_done = real_wait(fs, return_when=_futures.ALL_COMPLETED)
            # Force the worst-case ordering: the runner sees the broken
            # future before the successful one still sitting in `pending`.
            ordered = sorted(done, key=lambda f: f.exception() is None)
            return ordered, not_done

        monkeypatch.setattr(sharding_module, "wait", wait_broken_first)
        # Four trials, so that with two shards the first shard's pool
        # still holds both trial 0 and the dying trial 1.
        report = TrialRunner(workers=2, chunk_size=1, shards=self.shards).run(
            fast_or_exit_trial,
            4,
            master_seed=29,
            trial_kwargs={"exit_index": 1},
            retry=RetryPolicy(max_attempts=1),
        )
        survivor, dead, *rest = report.results
        assert survivor.ok
        assert survivor.attempts == 1
        reference = TrialRunner(workers=1).run(
            fast_or_exit_trial, 4, master_seed=29, trial_kwargs={"exit_index": -1}
        )
        np.testing.assert_array_equal(survivor.value, reference.values()[0])
        assert not dead.ok
        assert dead.error.category == "infra"
        for result, value in zip(rest, reference.values()[2:]):
            assert result.ok
            np.testing.assert_array_equal(result.value, value)


class TestBrokenPoolHarvestTwoShards(TestBrokenPoolHarvest):
    """The harvest contract when the pool is one of two shards."""

    shards = 2


class TestHungWorkers:
    shards = 1

    def test_hung_worker_is_killed_and_retried(self, tmp_path):
        spec = FaultInjectionSpec(
            size=2, hang_indices=(0,), hang_seconds=60.0, once_dir=str(tmp_path)
        )
        with pytest.warns(RuntimeWarning, match="worker hung past"):
            report = TrialRunner(workers=2, chunk_size=1, shards=self.shards).run(
                fault_injection_trial,
                3,
                master_seed=23,
                trial_kwargs={"spec": spec},
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                trial_timeout=1.0,
            )
        assert all(r.ok for r in report.results)
        assert report.results[0].attempts >= 2
        for value, reference in zip(report.values(), clean_values(3, 23)):
            np.testing.assert_array_equal(value, reference)

    def test_persistent_hang_records_timeout_error(self):
        spec = FaultInjectionSpec(size=2, hang_indices=(0,), hang_seconds=60.0)
        report = TrialRunner(workers=2, chunk_size=1, shards=self.shards).run(
            fault_injection_trial,
            2,
            master_seed=0,
            trial_kwargs={"spec": spec},
            retry=RetryPolicy(max_attempts=1),
            trial_timeout=0.75,
        )
        failed = report.results[0]
        assert not failed.ok
        assert failed.error.category == "timeout"
        assert failed.error.exc_type == "TimeoutError"
        # The innocent in-flight trial was resubmitted, uncharged, and
        # finished with the right bits.
        survivor = report.results[1]
        assert survivor.ok
        np.testing.assert_array_equal(survivor.value, clean_values(2, 0)[1])

    def test_backlogged_chunks_do_not_accrue_timeout(self):
        """Deadlines arm when a chunk starts executing, not when the run
        is launched: with far more chunks than workers, the later waves
        must not time out merely because they waited for a worker slot
        (8 trials x 0.4s on 2 workers would blow a 1s deadline armed at
        submit-everything-upfront time)."""
        spec = FaultInjectionSpec(size=2, sleep_seconds=0.4)
        with warnings_as_errors():
            report = TrialRunner(workers=2, chunk_size=1, shards=self.shards).run(
                fault_injection_trial,
                8,
                master_seed=1,
                trial_kwargs={"spec": spec},
                retry=RetryPolicy(max_attempts=1),
                trial_timeout=1.0,
            )
        assert all(r.ok for r in report.results)
        assert all(r.attempts == 1 for r in report.results)
        for value, reference in zip(report.values(), clean_values(8, 1)):
            np.testing.assert_array_equal(value, reference)

    def test_invalid_trial_timeout_rejected(self):
        with pytest.raises(ValueError, match="trial_timeout"):
            TrialRunner(workers=2).run(
                fault_injection_trial,
                1,
                trial_kwargs={"spec": FaultInjectionSpec()},
                trial_timeout=0.0,
            )


class TestHungWorkersTwoShards(TestHungWorkers):
    """The timeout contract when the pool is one of two shards."""

    shards = 2


# ----------------------------------------------------------------------
# Pickling failures: deterministic, so the shard drains serially.
# ----------------------------------------------------------------------
def unpicklable(fn):
    """``fn`` as a closure, which the pool cannot pickle."""
    return lambda ctx, **kwargs: fn(ctx, **kwargs)


class TestPicklingFallback:
    @SHARDS
    def test_unpicklable_trial_falls_back_to_serial(self, shards):
        spec = FaultInjectionSpec(size=2)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            report = TrialRunner(workers=2, shards=shards).run(
                unpicklable(fault_injection_trial),
                6,
                master_seed=8,
                trial_kwargs={"spec": spec},
            )
        if shards == 1:
            assert report.executor == "serial"
        else:
            assert re.fullmatch(
                r"sharded\(2x2(, steals=\d+)?\)-mixed", report.executor
            )
        assert [r.index for r in report.results] == list(range(6))
        for value, reference in zip(report.values(), clean_values(6, 8)):
            np.testing.assert_array_equal(value, reference)

    @SHARDS
    def test_serial_drain_honours_cancel_before_every_trial(self, shards):
        """Cancel set on the first result stops every shard's serial
        drain, leftover chunks from the dead pool included: each shard
        may finish at most the one trial it had already started."""
        cancel = threading.Event()
        with pytest.warns(RuntimeWarning):
            report = TrialRunner(workers=2, shards=shards).run(
                unpicklable(fault_injection_trial),
                64,
                master_seed=3,
                trial_kwargs={"spec": FaultInjectionSpec(size=2)},
                on_result=lambda result: cancel.set(),
                cancel=cancel,
            )
        assert report.cancelled
        assert len(report.results) <= shards


# ----------------------------------------------------------------------
# RetryPolicy: validation and deterministic backoff.
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(base_delay=-1.0)

    def test_delay_is_deterministic_and_capped(self):
        policy = RetryPolicy(base_delay=0.5, max_delay=4.0, jitter=0.5)
        seed = np.random.SeedSequence(42, spawn_key=(3,))
        delays = [policy.delay(a, seed) for a in range(1, 8)]
        assert delays == [policy.delay(a, seed) for a in range(1, 8)]
        for attempt, delay in enumerate(delays, start=1):
            base = min(4.0, 0.5 * 2 ** (attempt - 1))
            assert base <= delay <= base * 1.5

    def test_jitter_differs_across_trials_but_not_reruns(self):
        policy = RetryPolicy(jitter=0.5)
        a = policy.delay(1, np.random.SeedSequence(0, spawn_key=(0,)))
        b = policy.delay(1, np.random.SeedSequence(0, spawn_key=(1,)))
        assert a != b

    def test_zero_jitter_gives_pure_exponential(self):
        policy = RetryPolicy(base_delay=0.25, max_delay=8.0, jitter=0.0)
        seed = np.random.SeedSequence(0)
        assert [policy.delay(a, seed) for a in (1, 2, 3)] == [0.25, 0.5, 1.0]


# ----------------------------------------------------------------------
# Fault workload plumbing.
# ----------------------------------------------------------------------
class TestFaultInjectionSpec:
    def test_once_dir_arms_exactly_once(self, tmp_path):
        from repro.runtime.workloads import _fault_armed

        spec = FaultInjectionSpec(once_dir=str(tmp_path))
        assert _fault_armed(spec, 3) is True
        assert _fault_armed(spec, 3) is False
        assert _fault_armed(spec, 4) is True  # indices arm independently

    def test_validation(self):
        with pytest.raises(ValueError, match="size"):
            FaultInjectionSpec(size=0)
        with pytest.raises(ValueError, match="non-negative"):
            FaultInjectionSpec(sleep_seconds=-1.0)

    def test_error_serialises_to_ledger_record(self):
        spec = FaultInjectionSpec(size=2, fail_indices=(0,))
        report = TrialRunner(workers=1).run(
            fault_injection_trial, 1, master_seed=5, trial_kwargs={"spec": spec}
        )
        from repro.runtime import result_from_record, trial_record

        record = trial_record(report.results[0])
        assert record["status"] == "error"
        replayed = result_from_record(record)
        assert isinstance(replayed.error, TrialError)
        assert replayed.error.exc_type == "ValueError"
        assert replayed.error.spawn_key == report.results[0].error.spawn_key
        assert replayed.replayed
