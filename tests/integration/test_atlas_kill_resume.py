"""Golden-snapshot crash recovery for the atlas CLI (ISSUE 10).

Drives ``python -m repro atlas`` as a real subprocess on a tiny
2 x 2 x 2 grid (k x sigma x m, n = 16), SIGKILLs it mid-sweep once
ledger records exist, and asserts the ``--resume`` rerun replays the
completed trials and reduces to a boundary-map digest **bit-identical**
to an uninterrupted run's — the atlas's whole resume contract in one
string compare.  The grid's cell digests are additionally pinned as a
golden snapshot: they are a pure function of the cell coordinates, so
any drift in axis canonicalisation or digest material fails loudly here
before it silently invalidates archived boundary maps.
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

#: The tiny grid: xor / mlp / parity, n=16, 2 ks x 2 sigmas x 2 budgets.
#: MLP trials are slow enough (~0.1s) to leave a kill window.
GRID = (
    "--spec", 'families=["xor"]',
    "--spec", 'learners=["mlp"]',
    "--spec", 'representations=["parity"]',
    "--spec", "ns=[16]",
    "--spec", "ks=[1,2]",
    "--spec", "noise_sigmas=[0,0.3]",
    "--spec", "budgets=[1000,3000]",
)
CELLS = 8

#: Golden snapshot of the grid's cell digests (coordinate-only material,
#: platform independent) in canonical enumeration order.
GOLDEN_CELL_DIGESTS = [
    "3dc8c7f0faa4e6ef",
    "893a15d0370477d6",
    "eb8daa218cec352a",
    "4313ca5e028fff2b",
    "f3829801e7646c6f",
    "35e06fb4548655a7",
    "8973229e035e8f0b",
    "539c899666895493",
]


def atlas_args(runs_dir, run_id, extra=()):
    return [
        "atlas",
        *GRID,
        "--workers", "1",
        "--ledger",
        "--run-id", run_id,
        "--runs-dir", str(runs_dir),
        *extra,
    ]


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
        timeout=300,
        **kwargs,
    )


def test_grid_cell_digests_match_golden_snapshot():
    from repro.analysis.atlas import AtlasTrialSpec, expand_grid

    spec = AtlasTrialSpec(
        families=("xor",),
        learners=("mlp",),
        representations=("parity",),
        ns=(16,),
        ks=(1, 2),
        noise_sigmas=(0.0, 0.3),
        budgets=(1000, 3000),
    )
    assert [c.digest() for c in expand_grid(spec)] == GOLDEN_CELL_DIGESTS


def test_sigkill_mid_atlas_then_resume_is_bit_identical(tmp_path):
    runs_dir = tmp_path / "runs"

    # The uninterrupted reference sweep.
    clean = run_cli(*atlas_args(runs_dir, "clean"))
    assert clean.returncode == 0, clean.stdout
    clean_digest = _digest_of(clean.stdout)
    clean_map = (runs_dir / "clean" / "boundary_map.json").read_bytes()

    # Start the same sweep, SIGKILL it once ledger records appear.
    ledger_path = runs_dir / "killed" / "ledger.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + atlas_args(runs_dir, "killed"),
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if ledger_path.exists() and ledger_path.stat().st_size > 0:
                break
            if proc.poll() is not None:
                pytest.fail("atlas run finished before it could be killed")
            time.sleep(0.005)
        else:
            pytest.fail("no ledger records appeared within 120s")
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=30)

    completed = [
        json.loads(line)
        for line in ledger_path.read_text().splitlines()
        if line.strip()
    ]
    assert completed, "kill landed before any trial completed"
    # The boundary map must not exist yet — the killed run never reduced.
    assert not (runs_dir / "killed" / "boundary_map.json").exists()

    # Resume: replay the completed records, run the rest, reduce.
    resumed = run_cli(*atlas_args(runs_dir, "killed", extra=("--resume",)))
    assert resumed.returncode == 0, resumed.stdout
    assert f"{len(completed)} replayed" in resumed.stdout
    assert _digest_of(resumed.stdout) == clean_digest
    resumed_map = (runs_dir / "killed" / "boundary_map.json").read_bytes()
    assert resumed_map == clean_map


def _digest_of(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.startswith("boundary-map digest:"):
            return line.split(":", 1)[1].strip()
    pytest.fail(f"no boundary-map digest in output:\n{stdout}")


def test_atlas_resume_refuses_mismatched_grid(tmp_path):
    """--resume under a different grid than the run's meta.json refuses."""
    runs_dir = tmp_path / "runs"
    base = [
        "atlas",
        "--spec", 'families=["xor"]',
        "--spec", 'learners=["lr"]',
        "--spec", "ns=[16]",
        "--spec", "ks=[1]",
        "--spec", "noise_sigmas=[0]",
        "--workers", "1",
        "--ledger", "--run-id", "metarun", "--runs-dir", str(runs_dir),
    ]
    first = run_cli(*base, "--spec", "budgets=[40,100]")
    assert first.returncode == 0, first.stdout

    clash = run_cli(*base, "--spec", "budgets=[40,100,200]", "--resume")
    assert clash.returncode == 2
    assert "meta.json" in clash.stdout

    matching = run_cli(*base, "--spec", "budgets=[40,100]", "--resume")
    assert matching.returncode == 0, matching.stdout
    assert "2 replayed" in matching.stdout


def test_atlas_resume_without_run_id_is_rejected(tmp_path):
    result = run_cli(
        "atlas", "--resume", "--runs-dir", str(tmp_path),
    )
    assert result.returncode == 2
    assert "--resume needs --run-id" in result.stdout
