"""Sharded execution: bit-identity, stealing, shard ledgers, shard faults.

Pins the ``TrialRunner(shards=N)`` contract: results are bit-identical to
the serial path regardless of which shard executes which trial, idle
shards steal from the tail of busy ones on skewed mixes, each shard
appends to its own mergeable ``ledger-shardNN.jsonl`` (so a crashed shard
loses only its own unwritten trials and ``--resume`` re-executes exactly
those), and worker death / hangs inside one shard are retried under the
same policy as the single-pool path without touching other shards.
"""

import numpy as np
import pytest

from repro.runtime import RetryPolicy, TrialRunner
from repro.runtime.seeding import fan_out
from repro.runtime.sharding import (
    WorkStealingScheduler,
    default_shard_chunk,
    partition_items,
    run_sharded,
)
from repro.runtime.workloads import (
    FaultInjectionSpec,
    SkewedSleepSpec,
    fault_injection_trial,
    skewed_sleep_trial,
)
from repro.telemetry import RunLedger
from repro.telemetry.ledger import shard_ledger_name


def items_for(num, master_seed=0):
    return list(enumerate(fan_out(master_seed, num)))


def serial_values(trial_fn, num, master_seed, kwargs):
    report = TrialRunner(workers=1).run(
        trial_fn, num, master_seed=master_seed, trial_kwargs=kwargs
    )
    return report.values()


# ----------------------------------------------------------------------
# Partitioning and the scheduler.
# ----------------------------------------------------------------------
class TestPartitionItems:
    def test_contiguous_near_equal_slices(self):
        parts = partition_items(items_for(10), 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        flat = [index for part in parts for index, _ in part]
        assert flat == list(range(10))  # contiguous, order-preserving

    def test_more_shards_than_items_leaves_empty_tails(self):
        parts = partition_items(items_for(2), 5)
        assert [len(p) for p in parts] == [1, 1, 0, 0, 0]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            partition_items(items_for(2), 0)


class TestWorkStealingScheduler:
    def test_acquires_from_own_head(self):
        sched = WorkStealingScheduler(partition_items(items_for(6), 2))
        assert [i for i, _ in sched.acquire(0, 2)] == [0, 1]
        assert [i for i, _ in sched.acquire(1, 2)] == [3, 4]
        assert sched.executed == [2, 2]
        assert sched.steals == [0, 0]

    def test_dry_shard_steals_from_tail_of_longest(self):
        sched = WorkStealingScheduler([items_for(6), []])
        stolen = sched.acquire(1, 2)
        # Tail items, re-reversed into ascending-index order.
        assert [i for i, _ in stolen] == [4, 5]
        assert sched.steals == [0, 1]
        # The victim's head is untouched.
        assert [i for i, _ in sched.acquire(0, 4)] == [0, 1, 2, 3]

    def test_all_empty_returns_nothing(self):
        sched = WorkStealingScheduler([[], []])
        assert sched.acquire(0, 3) == []
        assert sched.remaining() == 0

    def test_invalid_chunk_rejected(self):
        sched = WorkStealingScheduler([items_for(2)])
        with pytest.raises(ValueError, match="chunk"):
            sched.acquire(0, 0)

    def test_default_chunk_turns_slots_over(self):
        assert default_shard_chunk(0, 4, 1) == 1
        assert default_shard_chunk(800, 4, 2) == 13  # ceil(800 / 64)
        # Small enough that every slot cycles several times.
        assert default_shard_chunk(800, 4, 2) * 4 * 2 * 8 >= 800


# ----------------------------------------------------------------------
# Bit-identity across shard counts.
# ----------------------------------------------------------------------
class TestShardedIdentity:
    def test_sharded_matches_serial_bit_for_bit(self):
        kwargs = {"spec": FaultInjectionSpec(size=3)}
        sharded = TrialRunner(workers=1, shards=3).run(
            fault_injection_trial, 8, master_seed=21, trial_kwargs=kwargs
        )
        assert sharded.executor.startswith("sharded(3x1")
        assert [r.index for r in sharded.results] == list(range(8))
        for a, b in zip(
            sharded.values(), serial_values(fault_injection_trial, 8, 21, kwargs)
        ):
            np.testing.assert_array_equal(a, b)

    def test_more_shards_than_trials(self):
        kwargs = {"spec": FaultInjectionSpec(size=2)}
        report = TrialRunner(workers=1, shards=5).run(
            fault_injection_trial, 3, master_seed=4, trial_kwargs=kwargs
        )
        assert all(r.ok for r in report.results)
        for a, b in zip(
            report.values(), serial_values(fault_injection_trial, 3, 4, kwargs)
        ):
            np.testing.assert_array_equal(a, b)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            TrialRunner(shards=0)

    def test_deterministic_trial_error_surfaces_once_per_shard_run(self):
        kwargs = {"spec": FaultInjectionSpec(size=2, fail_indices=(2,))}
        report = TrialRunner(workers=1, shards=2).run(
            fault_injection_trial, 4, master_seed=1, trial_kwargs=kwargs,
            retry=RetryPolicy(max_attempts=4, base_delay=0.0),
        )
        failed = report.results[2]
        assert not failed.ok
        assert failed.error.category == "trial"
        assert failed.attempts == 1  # deterministic errors are never retried
        assert all(r.ok for i, r in enumerate(report.results) if i != 2)


class TestStealing:
    def test_skewed_mix_is_stolen_from_the_loaded_shard(self):
        """Contiguous partitioning hands shard 0 every slow trial; the idle
        shard must steal from its tail rather than finish early and idle."""
        spec = SkewedSleepSpec(slow_count=4, slow_seconds=0.3, fast_seconds=0.0)
        items = items_for(8, master_seed=33)
        run = run_sharded(
            skewed_sleep_trial,
            items,
            {"spec": spec},
            shards=2,
            workers=1,
            chunk_size=1,
        )
        assert run.fallbacks == [None, None]
        assert sum(run.scheduler.steals) >= 1
        assert sum(run.scheduler.executed) == 8
        values = {r.index: r.value for r in run.results}
        reference = serial_values(
            skewed_sleep_trial, 8, 33, {"spec": spec}
        )
        for index in range(8):
            np.testing.assert_array_equal(values[index], reference[index])

    def test_executor_string_reports_steals(self):
        spec = SkewedSleepSpec(slow_count=3, slow_seconds=0.3, fast_seconds=0.0)
        report = TrialRunner(workers=1, shards=2, chunk_size=1).run(
            skewed_sleep_trial, 6, master_seed=2, trial_kwargs={"spec": spec}
        )
        assert "steals=" in report.executor


# ----------------------------------------------------------------------
# Shard ledgers: per-shard files, transparent merge, crash-safe resume.
# ----------------------------------------------------------------------
class TestShardLedgers:
    def run_sharded_with_ledger(self, tmp_path, num=6, seed=3, spec=None):
        spec = spec or FaultInjectionSpec(size=2)
        ledger = RunLedger(tmp_path / "run")
        report = TrialRunner(workers=1, shards=2).run(
            fault_injection_trial, num, master_seed=seed,
            trial_kwargs={"spec": spec}, ledger=ledger,
        )
        return ledger, report

    def test_each_shard_writes_its_own_file(self, tmp_path):
        ledger, _ = self.run_sharded_with_ledger(tmp_path)
        names = [p.name for p in ledger.shard_paths()]
        assert names == [shard_ledger_name(0), shard_ledger_name(1)]
        assert not ledger.path.exists()  # no contended single file

    def test_read_latest_merges_shards_completely(self, tmp_path):
        ledger, report = self.run_sharded_with_ledger(tmp_path)
        merged = ledger.read_latest()
        assert sorted(merged) == list(range(6))
        for index, record in merged.items():
            assert record["status"] == "ok"
            np.testing.assert_array_equal(
                np.asarray(record["value"]), report.results[index].value
            )

    def test_crashed_shard_resumes_and_stays_bit_identical(self, tmp_path):
        """Deleting one shard's ledger simulates a shard whose records never
        landed (killed before any flush): resume must replay the surviving
        shard's records and re-execute exactly the lost indices, ending
        byte-equal to an uninterrupted run."""
        ledger, report = self.run_sharded_with_ledger(tmp_path, num=8, seed=7)
        lost = ledger.shard_paths()[1]
        survived = set(ledger.read_latest()) - {
            r["index"]
            for r in RunLedger(ledger.run_dir, filename=lost.name).read()
        }
        lost.unlink()
        resumed = TrialRunner(workers=1).run(
            fault_injection_trial, 8, master_seed=7,
            trial_kwargs={"spec": FaultInjectionSpec(size=2)},
            resume_from=ledger,
        )
        assert resumed.replayed_count == len(survived)
        for a, b in zip(resumed.values(), report.values()):
            np.testing.assert_array_equal(a, b)

    def test_sharded_run_resumes_a_partial_serial_ledger(self, tmp_path):
        """The converse direction: a sharded rerun on top of a partial
        single-file ledger replays it and shards only the remainder."""
        kwargs = {"spec": FaultInjectionSpec(size=2)}
        ledger = RunLedger(tmp_path / "run")
        TrialRunner(workers=1).run(
            fault_injection_trial, 6, master_seed=9, trial_kwargs=kwargs,
            ledger=ledger,
        )
        lines = ledger.path.read_text().splitlines()
        ledger.path.write_text("\n".join(lines[:2]) + "\n")
        resumed = TrialRunner(workers=1, shards=2).run(
            fault_injection_trial, 6, master_seed=9, trial_kwargs=kwargs,
            ledger=ledger, resume_from=ledger,
        )
        assert resumed.replayed_count == 2
        for a, b in zip(
            resumed.values(), serial_values(fault_injection_trial, 6, 9, kwargs)
        ):
            np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# Faults inside a shard: retried locally, other shards untouched.
# ----------------------------------------------------------------------
class TestShardFaults:
    def test_killed_worker_in_one_shard_is_retried(self, tmp_path):
        spec = FaultInjectionSpec(
            size=2, exit_indices=(1,), once_dir=str(tmp_path)
        )
        with pytest.warns(RuntimeWarning, match="worker process died"):
            report = TrialRunner(workers=1, shards=2, chunk_size=1).run(
                fault_injection_trial, 4, master_seed=17,
                trial_kwargs={"spec": spec},
                retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            )
        assert all(r.ok for r in report.results)
        assert report.results[1].attempts >= 2
        clean = {"spec": FaultInjectionSpec(size=2)}
        for a, b in zip(
            report.values(), serial_values(fault_injection_trial, 4, 17, clean)
        ):
            np.testing.assert_array_equal(a, b)

    def test_hung_worker_in_one_shard_is_killed_and_retried(self, tmp_path):
        spec = FaultInjectionSpec(
            size=2, hang_indices=(0,), hang_seconds=60.0,
            once_dir=str(tmp_path),
        )
        with pytest.warns(RuntimeWarning, match="worker hung past"):
            report = TrialRunner(workers=1, shards=2, chunk_size=1).run(
                fault_injection_trial, 3, master_seed=23,
                trial_kwargs={"spec": spec},
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                trial_timeout=1.0,
            )
        assert all(r.ok for r in report.results)
        assert report.results[0].attempts >= 2
        clean = {"spec": FaultInjectionSpec(size=2)}
        for a, b in zip(
            report.values(), serial_values(fault_injection_trial, 3, 23, clean)
        ):
            np.testing.assert_array_equal(a, b)

    def test_persistent_hang_records_shard_timeout_error(self):
        spec = FaultInjectionSpec(size=2, hang_indices=(0,), hang_seconds=60.0)
        report = TrialRunner(workers=1, shards=2, chunk_size=1).run(
            fault_injection_trial, 2, master_seed=0,
            trial_kwargs={"spec": spec},
            retry=RetryPolicy(max_attempts=1),
            trial_timeout=0.75,
        )
        failed = report.results[0]
        assert not failed.ok
        assert failed.error.category == "timeout"
        assert "shard 0" in failed.error.message
        survivor = report.results[1]
        assert survivor.ok
        clean = {"spec": FaultInjectionSpec(size=2)}
        np.testing.assert_array_equal(
            survivor.value, serial_values(fault_injection_trial, 2, 0, clean)[1]
        )
