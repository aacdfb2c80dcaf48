"""End-to-end crash recovery: SIGKILL a pooled CLI run, resume it.

Drives ``python -m repro trials`` as a real subprocess, kills it -9 in
the middle of a pooled fault-injection workload, and asserts the
``--resume`` rerun completes with bit-identical values (the CLI's own
serial-vs-parallel identity check) and a clean ``repro report``.  The
killed CLI runs in its own session, so the test can also assert that its
orphaned pool workers exit instead of living on.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
TRIALS = 10


def group_members(pgid):
    """Live (non-zombie) processes in process group ``pgid``."""
    proc = Path("/proc")
    if not proc.is_dir():  # pragma: no cover - non-Linux fallback
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return []
        return [pgid]
    members = []
    for stat in proc.glob("[0-9]*/stat"):
        try:
            # Fields after the parenthesised command: state, ppid, pgrp.
            state, _ppid, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, IndexError, ValueError):
            continue  # the process exited while we looked
        if int(pgrp) == pgid and state != "Z":
            members.append(int(stat.parent.name))
    return members


def assert_group_exits(pgid, within=10.0):
    """The killed CLI's process group empties within ``within`` seconds."""
    deadline = time.monotonic() + within
    while group_members(pgid):
        if time.monotonic() > deadline:
            pytest.fail(f"processes {group_members(pgid)} outlived the killed run")
        time.sleep(0.1)


def start_cli_session(args):
    """``python -m repro <args>`` as the leader of a new session."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def kill_group(pgid):
    """Best-effort cleanup: SIGKILL whatever is left of the group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=180,
        **kwargs,
    )


def trials_args(runs_dir, extra=()):
    return [
        "trials",
        "--workload", "fault",
        "--trials", str(TRIALS),
        "--workers", "2",
        "--spec", "sleep_seconds=0.3",
        "--ledger",
        "--run-id", "killrun",
        "--runs-dir", str(runs_dir),
        *extra,
    ]


def test_sigkill_mid_run_then_resume_completes_bit_identical(tmp_path):
    runs_dir = tmp_path / "runs"
    ledger_path = runs_dir / "killrun" / "ledger.jsonl"

    proc = start_cli_session(trials_args(runs_dir, extra=("--skip-serial",)))
    try:
        # Wait until some trials have landed in the ledger, then kill -9
        # the parent only, mid-run: its pool workers must notice and exit.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if ledger_path.exists() and ledger_path.stat().st_size > 0:
                break
            if proc.poll() is not None:
                pytest.fail("run finished before it could be killed")
            time.sleep(0.05)
        else:
            pytest.fail("no ledger records appeared within 60s")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        assert_group_exits(proc.pid)
    finally:
        kill_group(proc.pid)
        proc.wait(timeout=30)

    completed = [
        json.loads(line)
        for line in ledger_path.read_text().splitlines()
        if line.strip()
    ]
    assert 0 < len(completed) < TRIALS, "kill landed too early or too late"
    assert [p.name for p in ledger_path.parent.glob("ledger*")] == [ledger_path.name]

    # Resume: replays the completed records, executes only the rest, and
    # runs the CLI's serial-vs-parallel bit-identity check over all of it.
    resumed = run_cli(*trials_args(runs_dir, extra=("--resume",)))
    assert resumed.returncode == 0, resumed.stdout
    assert "bit-identical results across worker counts: True" in resumed.stdout
    assert f"{len(completed)} replayed" in resumed.stdout

    report = run_cli("report", str(runs_dir / "killrun"), "--no-write")
    assert report.returncode == 0, report.stdout
    assert f"{TRIALS} of {TRIALS} trials completed clean" in report.stdout


def test_cache_stats_count_the_serial_pass(tmp_path):
    """With the serial pass on, the first run on an empty store misses in
    that pass and hits in the parallel one; --cache-stats prints and
    records both, so a cold run never reads ``misses=0``."""
    result = run_cli(
        "trials", "--workload", "fleet", "--smoke", "--trials", "3",
        "--workers", "1", "--cache-dir", str(tmp_path / "store"),
        "--cache-stats", "--ledger", "--runs-dir", str(tmp_path / "runs"),
        "--run-id", "cold",
    )
    assert result.returncode == 0, result.stdout
    assert "cache stats: hits=3 misses=3 " in result.stdout
    meta = json.loads((tmp_path / "runs" / "cold" / "meta.json").read_text())
    assert meta["cache_stats"]["misses"] == 3
    assert meta["cache_stats"]["hits"] == 3


def test_resume_refuses_mismatched_invocation(tmp_path):
    """--resume with a different workload/spec/trial count than the run's
    meta.json must refuse instead of splicing foreign records in."""
    runs_dir = tmp_path / "runs"
    base = [
        "trials", "--workload", "fault", "--workers", "1",
        "--spec", "sleep_seconds=0", "--skip-serial",
        "--ledger", "--run-id", "metarun", "--runs-dir", str(runs_dir),
    ]
    first = run_cli(*base, "--trials", "2")
    assert first.returncode == 0, first.stdout

    clash = run_cli(*base, "--trials", "4", "--resume")
    assert clash.returncode == 2
    assert "meta.json" in clash.stdout
    assert "trials" in clash.stdout

    matching = run_cli(*base, "--trials", "2", "--resume")
    assert matching.returncode == 0, matching.stdout
    assert "2 replayed" in matching.stdout


def test_retries_flag_maps_to_extra_attempts():
    """--retries N means N retries on top of the first attempt, so 0
    disables retrying (RetryPolicy counts total executions)."""
    from repro.__main__ import _retry_policy

    assert _retry_policy(0).max_attempts == 1
    assert _retry_policy(2).max_attempts == 3
    with pytest.raises(ValueError, match="retries"):
        _retry_policy(-1)


def test_resume_without_run_id_is_rejected(tmp_path):
    result = run_cli(
        "trials", "--workload", "fault", "--trials", "2", "--resume",
        "--runs-dir", str(tmp_path),
    )
    assert result.returncode == 2
    assert "--resume needs --run-id" in result.stdout


def test_cache_stats_flag_prints_and_records_store_counters(tmp_path):
    """--cache-stats on a cached fleet run prints the aggregated store
    counters and persists them into the run's meta.json; a warm rerun of
    the same store serves hits."""
    cache_dir = tmp_path / "store"
    base = [
        "trials", "--workload", "fleet", "--smoke",
        "--trials", "3", "--workers", "1", "--skip-serial",
        "--cache-dir", str(cache_dir), "--cache-stats",
        "--ledger", "--runs-dir", str(tmp_path / "runs"),
    ]
    cold = run_cli(*base, "--run-id", "cold")
    assert cold.returncode == 0, cold.stdout
    assert "cache stats:" in cold.stdout
    cold_meta = json.loads(
        (tmp_path / "runs" / "cold" / "meta.json").read_text()
    )
    assert cold_meta["cache_stats"]["misses"] == 3
    assert cold_meta["cache_stats"]["hits"] == 0

    warm = run_cli(*base, "--run-id", "warm")
    assert warm.returncode == 0, warm.stdout
    warm_meta = json.loads(
        (tmp_path / "runs" / "warm" / "meta.json").read_text()
    )
    assert warm_meta["cache_stats"]["hits"] == 3
    assert warm_meta["cache_stats"]["bytes_served"] > 0
