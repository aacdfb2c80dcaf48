"""Golden pin for the ``atlas --smoke`` boundary-map digest.

The digest is the sha256 of the reduced smoke sweep at master seed 0:
every cell's held-out accuracy and metered spend.  It moves whenever a
learner, a device family, a seed fan-out or the reduction changes what
it computes, so a change to it must be deliberate: re-pin it here and
record the old and new values, and the reason, in CHANGES.md.  The
sweep runs serially in fresh interpreters with one and with two BLAS
threads; both must reproduce the pin bit for bit.  The two-thread case
relies on OpenBLAS's default GEMM threading threshold (see
``repro.learning.solvers.SERIAL_GEMM_SIZE``) and skips under another BLAS.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SMOKE_DIGEST = "sha256:11cf6bbc340cab1b5fe645d520d0b7212ad1c12d66de2deedbee828a570e8ee1"

_BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]

_SWEEP = (
    "from repro.analysis.atlas import run_atlas, smoke_spec\n"
    "payload, report = run_atlas(smoke_spec(), master_seed=0)\n"
    "assert payload['missing_trials'] == 0, payload['missing_trials']\n"
    "print('DIGEST:' + payload['digest'])\n"
)


@pytest.mark.parametrize(
    "threads",
    [
        1,
        pytest.param(
            2,
            marks=pytest.mark.skipif(
                "openblas" not in _BLAS.lower(),
                reason=f"cross-thread bit-identity assumes OpenBLAS, not {_BLAS}",
            ),
        ),
    ],
)
def test_smoke_digest_is_pinned(threads):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    line = [ln for ln in proc.stdout.splitlines() if ln.startswith("DIGEST:")][-1]
    assert line[len("DIGEST:"):] == SMOKE_DIGEST
