"""Crash-safe resume: ledger replay must be bit-identical and minimal.

A killed run leaves a partial ``ledger.jsonl``; ``TrialRunner.run(...,
resume_from=...)`` must replay every completed trial exactly as recorded
(bit-for-bit, dtype and shape included), re-execute *only* the missing
indices, and refuse to resume under a different master seed.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import RetryPolicy, TrialRunner
from repro.runtime.workloads import FaultInjectionSpec, fault_injection_trial
from repro.telemetry import RunLedger


def counting_trial(ctx, marker_dir, size=3):
    """Draws from the trial stream and logs one line per execution."""
    with open(Path(marker_dir) / f"ran-{ctx.index}", "a") as fh:
        fh.write("x\n")
    return ctx.rng.random(size)


def executions(marker_dir, index):
    """How many times trial ``index`` actually ran."""
    path = Path(marker_dir) / f"ran-{index}"
    return len(path.read_text().splitlines()) if path.exists() else 0


def truncate_ledger(ledger, keep):
    """Simulate a kill: keep only the first ``keep`` ledger lines."""
    lines = ledger.path.read_text().splitlines()
    ledger.path.write_text("\n".join(lines[:keep]) + "\n")


class TestResume:
    def test_replays_completed_and_executes_only_missing(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        kwargs = {"marker_dir": str(markers)}
        ledger = RunLedger(tmp_path / "run")
        full = TrialRunner(workers=1).run(
            counting_trial, 6, master_seed=13, trial_kwargs=kwargs, ledger=ledger
        )
        truncate_ledger(ledger, keep=3)

        resumed = TrialRunner(workers=1).run(
            counting_trial,
            6,
            master_seed=13,
            trial_kwargs=kwargs,
            ledger=ledger,
            resume_from=ledger,
        )
        assert resumed.replayed_count == 3
        for a, b in zip(full.values(), resumed.values()):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype and a.shape == b.shape
        for index in range(3):
            assert executions(markers, index) == 1  # replayed, not re-run
        for index in range(3, 6):
            assert executions(markers, index) == 2
        # The ledger now holds a fresh record for each re-executed trial.
        assert sorted(ledger.read_latest()) == list(range(6))

    def test_fully_complete_run_is_pure_replay(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        kwargs = {"marker_dir": str(markers)}
        ledger = RunLedger(tmp_path / "run")
        TrialRunner(workers=1).run(
            counting_trial, 4, master_seed=2, trial_kwargs=kwargs, ledger=ledger
        )
        resumed = TrialRunner(workers=2).run(
            counting_trial,
            4,
            master_seed=2,
            trial_kwargs=kwargs,
            resume_from=ledger,
        )
        assert resumed.executor == "replay"
        assert resumed.replayed_count == 4
        assert all(r.replayed for r in resumed.results)
        assert all(executions(markers, i) == 1 for i in range(4))

    def test_pooled_resume_matches_serial_reference(self, tmp_path):
        spec = FaultInjectionSpec(size=2)
        kwargs = {"spec": spec}
        ledger = RunLedger(tmp_path / "run")
        TrialRunner(workers=1).run(
            fault_injection_trial, 8, master_seed=5, trial_kwargs=kwargs,
            ledger=ledger,
        )
        truncate_ledger(ledger, keep=5)
        resumed = TrialRunner(workers=3).run(
            fault_injection_trial, 8, master_seed=5, trial_kwargs=kwargs,
            resume_from=ledger,
        )
        reference = TrialRunner(workers=1).run(
            fault_injection_trial, 8, master_seed=5, trial_kwargs=kwargs
        )
        for a, b in zip(resumed.values(), reference.values()):
            np.testing.assert_array_equal(a, b)

    def test_deterministic_trial_errors_replay_without_rerun(self, tmp_path):
        spec = FaultInjectionSpec(size=2, fail_indices=(1,))
        kwargs = {"spec": spec}
        ledger = RunLedger(tmp_path / "run")
        TrialRunner(workers=1).run(
            fault_injection_trial, 3, master_seed=0, trial_kwargs=kwargs,
            ledger=ledger,
        )
        records_before = len(ledger.read())
        resumed = TrialRunner(workers=1).run(
            fault_injection_trial, 3, master_seed=0, trial_kwargs=kwargs,
            ledger=ledger, resume_from=ledger,
        )
        assert resumed.executor == "replay"
        failed = resumed.results[1]
        assert failed.replayed and not failed.ok
        assert failed.error.category == "trial"
        assert failed.error.exc_type == "ValueError"
        assert len(ledger.read()) == records_before  # nothing re-ran

    def test_infra_failures_reexecute_on_resume(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        kwargs = {"marker_dir": str(markers)}
        ledger = RunLedger(tmp_path / "run")
        TrialRunner(workers=1).run(
            counting_trial, 3, master_seed=4, trial_kwargs=kwargs, ledger=ledger
        )
        # Rewrite trial 1's record as an exhausted infra failure.
        records = ledger.read()
        for record in records:
            if record["index"] == 1:
                record["status"] = "error"
                record["value"] = None
                record.pop("value_meta", None)
                record["error"] = {
                    "exc_type": "BrokenProcessPool",
                    "message": "worker process died",
                    "category": "infra",
                }
        ledger.path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        resumed = TrialRunner(workers=1).run(
            counting_trial, 3, master_seed=4, trial_kwargs=kwargs,
            ledger=ledger, resume_from=ledger,
        )
        assert all(r.ok for r in resumed.results)
        assert executions(markers, 1) == 2  # re-executed
        assert executions(markers, 0) == 1 and executions(markers, 2) == 1

    def test_torn_final_line_is_skipped_and_reexecuted(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        kwargs = {"marker_dir": str(markers)}
        ledger = RunLedger(tmp_path / "run")
        TrialRunner(workers=1).run(
            counting_trial, 3, master_seed=6, trial_kwargs=kwargs, ledger=ledger
        )
        lines = ledger.path.read_text().splitlines()
        ledger.path.write_text(
            "\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2]
        )
        with pytest.warns(RuntimeWarning, match="torn write"):
            resumed = TrialRunner(workers=1).run(
                counting_trial, 3, master_seed=6, trial_kwargs=kwargs,
                ledger=ledger, resume_from=ledger,
            )
        assert resumed.replayed_count == 2
        assert all(r.ok for r in resumed.results)
        assert executions(markers, 2) == 2

    def test_record_after_a_torn_last_line_starts_a_new_line(self, tmp_path):
        # A killed run leaves its last line without a newline; the re-run
        # trial's record must not be glued onto that fragment and lost.
        spec = FaultInjectionSpec()
        ledger = RunLedger(tmp_path / "run")
        TrialRunner(workers=1).run(
            fault_injection_trial, 4, 3, {"spec": spec}, ledger=ledger
        )
        data = ledger.path.read_bytes()
        last = data.splitlines()[-1]
        ledger.path.write_bytes(data[: len(data) - 1 - len(last) // 2])
        resumed_ledger = RunLedger(tmp_path / "run")  # as a restarted process
        with pytest.warns(RuntimeWarning, match="torn write"):
            TrialRunner(workers=1).run(
                fault_injection_trial, 4, 3, {"spec": spec},
                ledger=resumed_ledger, resume_from=resumed_ledger,
            )
        with pytest.warns(RuntimeWarning, match=":4: skipping unparseable"):
            assert sorted(RunLedger(tmp_path / "run").read_latest()) == [0, 1, 2, 3]
        assert len(ledger.path.read_bytes().splitlines()) == 5  # fragment + 4

    def test_master_seed_mismatch_refused(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        ledger.write_meta({"master_seed": 1})
        ledger.append({"index": 0, "status": "ok", "value": 0.5})
        with pytest.raises(ValueError, match="master_seed"):
            TrialRunner(workers=1).run(
                counting_trial,
                2,
                master_seed=2,
                trial_kwargs={"marker_dir": str(tmp_path)},
                resume_from=ledger,
            )

    def test_seed_sequence_master_seed_validates_canonically(self, tmp_path):
        """Non-int seeds validate too: an equivalent SeedSequence resumes,
        a different one is refused (the old check only caught ints)."""
        markers = tmp_path / "markers"
        markers.mkdir()
        kwargs = {"marker_dir": str(markers)}
        ledger = RunLedger(tmp_path / "run")
        ledger.write_meta({"master_seed": 1})
        TrialRunner(workers=1).run(
            counting_trial, 2, master_seed=1, trial_kwargs=kwargs, ledger=ledger
        )
        resumed = TrialRunner(workers=1).run(
            counting_trial,
            2,
            master_seed=np.random.SeedSequence(1),
            trial_kwargs=kwargs,
            resume_from=ledger,
        )
        assert resumed.executor == "replay"
        with pytest.raises(ValueError, match="master_seed"):
            TrialRunner(workers=1).run(
                counting_trial,
                2,
                master_seed=np.random.SeedSequence(2),
                trial_kwargs=kwargs,
                resume_from=ledger,
            )

    def test_trial_count_mismatch_warns(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        kwargs = {"marker_dir": str(markers)}
        ledger = RunLedger(tmp_path / "run")
        ledger.write_meta({"master_seed": 0, "trials": 4})
        TrialRunner(workers=1).run(
            counting_trial, 4, master_seed=0, trial_kwargs=kwargs, ledger=ledger
        )
        with pytest.warns(RuntimeWarning, match="trials=4"):
            resumed = TrialRunner(workers=1).run(
                counting_trial, 2, master_seed=0, trial_kwargs=kwargs,
                resume_from=ledger,
            )
        assert resumed.replayed_count == 2

    def test_resume_accepts_dir_and_ledger_path(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        kwargs = {"marker_dir": str(markers)}
        ledger = RunLedger(tmp_path / "run")
        TrialRunner(workers=1).run(
            counting_trial, 2, master_seed=0, trial_kwargs=kwargs, ledger=ledger
        )
        for handle in (str(ledger.run_dir), ledger.path):
            resumed = TrialRunner(workers=1).run(
                counting_trial, 2, master_seed=0, trial_kwargs=kwargs,
                resume_from=handle,
            )
            assert resumed.executor == "replay"

    def test_resume_from_empty_directory_runs_everything(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        report = TrialRunner(workers=1).run(
            counting_trial,
            2,
            master_seed=0,
            trial_kwargs={"marker_dir": str(markers)},
            resume_from=tmp_path / "fresh-run",
        )
        assert report.replayed_count == 0
        assert all(r.ok for r in report.results)

    def test_out_of_range_indices_ignored(self, tmp_path):
        ledger = RunLedger(tmp_path / "run")
        markers = tmp_path / "markers"
        markers.mkdir()
        kwargs = {"marker_dir": str(markers)}
        TrialRunner(workers=1).run(
            counting_trial, 4, master_seed=0, trial_kwargs=kwargs, ledger=ledger
        )
        # Resuming a *shorter* run replays only the in-range prefix.
        resumed = TrialRunner(workers=1).run(
            counting_trial, 2, master_seed=0, trial_kwargs=kwargs,
            resume_from=ledger,
        )
        assert [r.index for r in resumed.results] == [0, 1]
        assert resumed.replayed_count == 2


class TestRunsOfOlderVersions:
    def test_shard_files_of_an_older_run_resume_and_report(self, tmp_path, capsys):
        """An older version wrote a pooled run's records into per-shard
        files.  Hand-split a ledger into two of them, lose two records,
        and drop the main file: ``trials --resume`` replays the shard
        records, runs only the lost trials, and ``report`` counts every
        trial once."""
        from repro.__main__ import main

        args = [
            "trials", "--workload", "fault", "--trials", "6", "--workers", "1",
            "--spec", "sleep_seconds=0", "--ledger", "--run-id", "old",
            "--runs-dir", str(tmp_path),
        ]
        assert main(args + ["--skip-serial"]) == 0
        run_dir = tmp_path / "old"
        lines = (run_dir / "ledger.jsonl").read_text().splitlines()
        (run_dir / "ledger-shard00.jsonl").write_text("\n".join(lines[:2]) + "\n")
        (run_dir / "ledger-shard01.jsonl").write_text("\n".join(lines[3:5]) + "\n")
        (run_dir / "ledger.jsonl").unlink()
        meta = json.loads((run_dir / "meta.json").read_text())
        (run_dir / "meta.json").write_text(json.dumps({**meta, "shards": 2}))
        capsys.readouterr()

        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "4 replayed" in out
        assert "bit-identical results across worker counts: True" in out
        assert main(["report", str(run_dir), "--no-write"]) == 0
        assert "6 of 6 trials completed clean" in capsys.readouterr().out

    def test_fleet_run_with_a_dtype_tier_is_refused(self, tmp_path, capsys):
        """An older fleet run recorded its dtype ``tier`` in ``meta.json``.
        Fleets have one precision now, so ``trials --resume`` refuses the
        run, naming the spec, and appends nothing to its ledger."""
        from repro.__main__ import main

        args = [
            "trials", "--workload", "fleet", "--smoke", "--trials", "2",
            "--workers", "1", "--skip-serial", "--ledger", "--run-id", "old",
            "--runs-dir", str(tmp_path),
        ]
        assert main(args) == 0
        run_dir = tmp_path / "old"
        meta = json.loads((run_dir / "meta.json").read_text())
        meta["spec"]["tier"] = "float64"
        (run_dir / "meta.json").write_text(json.dumps(meta))
        ledger = (run_dir / "ledger.jsonl").read_text()
        capsys.readouterr()

        assert main(args + ["--resume"]) == 2
        out = capsys.readouterr().out
        assert "cannot --resume" in out and "'tier': 'float64'" in out
        assert (run_dir / "ledger.jsonl").read_text() == ledger
