"""RunLedger: JSONL round-trips, metadata, and runner integration."""

import json
import warnings

import numpy as np
import pytest

from repro.runtime import TrialRunner
from repro.telemetry import RunLedger, new_run_id


def test_round_trip_records_and_meta(tmp_path):
    ledger = RunLedger(tmp_path / "run-1")
    ledger.write_meta({"workload": "curve", "spec": {"n": 8}})
    ledger.append({"index": 0, "value": [0.5]})
    ledger.append_many([{"index": 1}, {"index": 2}])
    reopened = RunLedger.open_existing(tmp_path / "run-1")
    assert reopened.read_meta()["workload"] == "curve"
    records = reopened.read()
    assert [r["index"] for r in records] == [0, 1, 2]


def test_numpy_values_serialised(tmp_path):
    ledger = RunLedger(tmp_path / "run-np")
    ledger.append(
        {"value": np.array([1.5, 2.5]), "count": np.int64(7), "f": np.float32(0.5)}
    )
    raw = ledger.path.read_text()
    record = json.loads(raw)
    assert record["value"] == [1.5, 2.5]
    assert record["count"] == 7


def test_open_existing_requires_ledger_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="not a run directory"):
        RunLedger.open_existing(tmp_path / "nope")


def test_new_run_id_prefix():
    run_id = new_run_id("lmn")
    assert run_id.startswith("lmn-")


def test_runner_writes_one_record_per_trial_in_index_order(tmp_path):
    from repro.runtime.workloads import LearningCurveSpec, learning_curve_trial

    spec = LearningCurveSpec(n=16, budgets=(30, 60), test_size=50)
    ledger = RunLedger(tmp_path / "run-curve")
    report = TrialRunner(workers=2).run(
        learning_curve_trial,
        4,
        master_seed=3,
        trial_kwargs={"spec": spec},
        ledger=ledger,
    )
    # Records append in completion order (crash safety), so sort by index.
    records = sorted(ledger.read(), key=lambda r: r["index"])
    assert [r["index"] for r in records] == [0, 1, 2, 3]
    for record, result in zip(records, report.results):
        assert record["status"] == "ok"
        assert record["attempts"] == 1
        assert record["value"] == pytest.approx(list(result.value))
        assert record["seconds"] == pytest.approx(result.seconds)
        assert record["cpu_seconds"] == pytest.approx(result.cpu_seconds)
        assert record["queue_wait"] >= 0.0
        # The attack spent exactly the largest budget in EX queries; the
        # held-out test draw is unmetered.
        assert record["telemetry"]["queries"]["queries"]["ex"]["queries"] == 60


def test_runner_without_ledger_writes_nothing(tmp_path):
    from repro.runtime.workloads import LearningCurveSpec, learning_curve_trial

    spec = LearningCurveSpec(n=16, budgets=(30,), test_size=50)
    TrialRunner(workers=1).run(
        learning_curve_trial, 1, master_seed=3, trial_kwargs={"spec": spec}
    )
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Per-shard files of older runs and the read_latest merge rule.
# ----------------------------------------------------------------------
def legacy_shard(ledger, shard_id):
    """The per-shard ledger path an older version wrote for ``shard_id``."""
    return ledger.run_dir / f"ledger-shard{shard_id:02d}.jsonl"


def write_legacy_shard(ledger, shard_id, record):
    """Append ``record`` to a per-shard file, as older versions did."""
    path = legacy_shard(ledger, shard_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


class TestShardLedgerMerge:
    def ok(self, index, value):
        return {"index": index, "status": "ok", "value": value}

    def infra(self, index):
        return {
            "index": index,
            "status": "error",
            "error": {"exc_type": "BrokenProcessPool", "category": "infra"},
        }

    def test_read_latest_folds_in_shard_files(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        write_legacy_shard(ledger, 0, self.ok(0, [1.0]))
        write_legacy_shard(ledger, 1, self.ok(1, [2.0]))
        ledger.append(self.ok(2, [3.0]))
        merged = ledger.read_latest()
        assert sorted(merged) == [0, 1, 2]
        assert merged[1]["value"] == [2.0]

    def test_replayable_record_beats_infra_failure_across_shards(self, tmp_path):
        """An infra hiccup in one file must never shadow the same trial
        completed in another, in either read order."""
        ledger = RunLedger(tmp_path / "run")
        write_legacy_shard(ledger, 0, self.ok(4, [0.5]))
        write_legacy_shard(ledger, 1, self.infra(4))
        assert ledger.read_latest()[4]["status"] == "ok"
        other = RunLedger(tmp_path / "run2")
        write_legacy_shard(other, 0, self.infra(4))
        write_legacy_shard(other, 1, self.ok(4, [0.5]))
        assert other.read_latest()[4]["status"] == "ok"

    def test_equal_rank_takes_the_later_record(self, tmp_path):
        # Replayable records for one index are bit-identical by
        # construction, so "later wins" is only observable for
        # non-replayable ranks — e.g. two infra failures keep the newer
        # attempt count.
        ledger = RunLedger(tmp_path / "run")
        first = self.infra(0)
        first["attempts"] = 1
        second = self.infra(0)
        second["attempts"] = 2
        ledger.append(first)
        write_legacy_shard(ledger, 0, second)
        assert ledger.read_latest()[0]["attempts"] == 2

    def test_open_existing_accepts_shard_only_directories(self, tmp_path):
        run_dir = tmp_path / "run"
        write_legacy_shard(RunLedger(run_dir), 1, self.ok(0, [1.0]))
        reopened = RunLedger.open_existing(run_dir)
        assert sorted(reopened.read_latest()) == [0]
        with pytest.raises(FileNotFoundError, match="not a run directory"):
            RunLedger.open_existing(tmp_path / "empty")


class TestShardMergeRobustness:
    """Torn tails and conflicting provenances across shard files.

    A SIGKILLed run of an older version could tear the final line of
    *any* of its shard files; each file must drop only its own torn line.
    And when two files hold replayable records for one index whose replay
    payloads differ — which the determinism contract forbids — the merge
    must warn loudly, not silently let read order pick a winner."""

    def ok(self, index, value, meta=None):
        record = {"index": index, "status": "ok", "value": value}
        if meta is not None:
            record["value_meta"] = meta
        return record

    def test_two_shards_with_torn_tails_keep_their_good_records(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        write_legacy_shard(ledger, 0, self.ok(0, [1.0]))
        write_legacy_shard(ledger, 1, self.ok(1, [2.0]))
        # Tear both shard tails mid-record (killed mid-append).
        for shard_id, torn in ((0, '{"index": 2, "status": "o'),
                               (1, '{"index": 3, "val')):
            with legacy_shard(ledger, shard_id).open("a") as fh:
                fh.write(torn)
        with pytest.warns(RuntimeWarning, match="torn write") as caught:
            merged = ledger.read_latest()
        assert sorted(merged) == [0, 1]
        assert merged[0]["value"] == [1.0]
        assert merged[1]["value"] == [2.0]
        # one warning per torn file, each naming its own file
        torn_warnings = [w for w in caught if "torn write" in str(w.message)]
        assert len(torn_warnings) == 2
        named = {str(w.message).split(":")[0] for w in torn_warnings}
        assert {p.split("/")[-1] for p in named} == {
            "ledger-shard00.jsonl",
            "ledger-shard01.jsonl",
        }

    def test_conflicting_replayable_records_warn_and_keep_the_later(
        self, tmp_path
    ):
        ledger = RunLedger(tmp_path / "run")
        write_legacy_shard(ledger, 0, self.ok(5, [1.0]))
        write_legacy_shard(ledger, 1, self.ok(5, [2.0]))  # forbidden: same index
        with pytest.warns(RuntimeWarning, match="conflicting") as caught:
            merged = ledger.read_latest()
        assert merged[5]["value"] == [2.0]  # later (higher shard) wins
        assert any("trial 5" in str(w.message) for w in caught)

    def test_identical_replayable_records_do_not_warn(self, tmp_path):
        # The normal resume case: the same trial recorded twice,
        # bit-identically — replayable beats nothing, no conflict.
        ledger = RunLedger(tmp_path / "run")
        ledger.append(self.ok(5, [1.0], meta={"dtype": "float64", "shape": [1]}))
        write_legacy_shard(
            ledger, 0, self.ok(5, [1.0], meta={"dtype": "float64", "shape": [1]})
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ledger.read_latest()[5]["value"] == [1.0]

    def test_replayable_replacing_infra_does_not_warn(self, tmp_path):
        # Different rank replacement is legitimate resume behaviour.
        ledger = RunLedger(tmp_path / "run")
        ledger.append(
            {
                "index": 3,
                "status": "error",
                "error": {"exc_type": "TimeoutError", "category": "infra"},
            }
        )
        ledger.append(self.ok(3, [9.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ledger.read_latest()[3]["status"] == "ok"

    def test_differing_timings_are_not_a_conflict(self, tmp_path):
        # Only the replay payload matters; wall time and attempt counts
        # legitimately differ between a record and its resume twin.
        ledger = RunLedger(tmp_path / "run")
        a = self.ok(7, [4.0])
        a.update(seconds=0.5, attempts=1)
        b = self.ok(7, [4.0])
        b.update(seconds=9.9, attempts=3)
        ledger.append(a)
        write_legacy_shard(ledger, 0, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ledger.read_latest()[7]["attempts"] == 3
