"""atomic_write_text: a failed rewrite never tears the previous file.

Each writer that persists state a later process reads back —
``RunLedger.write_meta`` (``meta.json``, read by ``trials --resume`` and
job adoption), ``JobStore.save`` (``job.json``) and
``QuotaLedger._persist`` (``quotas.json``) — is driven into a failing
write by a soft ``RLIMIT_FSIZE`` of 64 bytes in a subprocess: the write
stops at byte 64 and the next one raises ``EFBIG``.  The previous file
must stay readable and no temp file may stay behind.
"""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.jobs import Job, JobSpec, JobStore
from repro.service.quotas import QuotaLedger
from repro.telemetry import RunLedger

resource = pytest.importorskip("resource")

SRC = Path(__file__).resolve().parents[2] / "src"

_REWRITE = r"""
import resource, signal, sys
from pathlib import Path
from repro.service.jobs import Job, JobSpec, JobStore
from repro.service.quotas import QuotaLedger
from repro.telemetry import RunLedger

kind, data_dir = sys.argv[1], Path(sys.argv[2])
pad = "x" * 256
rewrite = {
    "meta": lambda: RunLedger(data_dir).write_meta({"workload": "fleet", "pad": pad}),
    "job": lambda: JobStore(data_dir).save(
        Job(job_id="job-x", spec=JobSpec(workload="fleet"), error=pad)
    ),
    "quotas": lambda: QuotaLedger(data_dir).settle("job-2", pad, 5),
}[kind]
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(
    resource.RLIMIT_FSIZE, (64, resource.getrlimit(resource.RLIMIT_FSIZE)[1])
)
try:
    rewrite()
except OSError as exc:
    print("errno", exc.errno)
else:
    print("no error")
"""


PREVIOUS_META = {"workload": "fleet", "trials": 8, "note": "y" * 80}


def _write_previous(kind, data_dir):
    """Write the record the failing rewrite must leave intact; return its path."""
    if kind == "meta":
        ledger = RunLedger(data_dir)
        ledger.write_meta(PREVIOUS_META)
        return ledger.meta_path
    if kind == "job":
        store = JobStore(data_dir)
        store.save(Job(job_id="job-x", spec=JobSpec(workload="fleet")))
        return store.job_dir("job-x") / "job.json"
    quotas = QuotaLedger(data_dir)
    quotas.settle("job-1", "alice-" + "y" * 80, 12)
    return quotas.path


@pytest.mark.parametrize("kind", ["meta", "job", "quotas"])
def test_failed_rewrite_keeps_previous_file(tmp_path, kind):
    path = _write_previous(kind, tmp_path)
    before = path.read_bytes()
    assert len(before) > 64  # the limit lands inside the old content's span
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _REWRITE, kind, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["errno", str(errno.EFBIG)]
    assert path.read_bytes() == before
    json.loads(path.read_text())  # read_meta / load / QuotaLedger all parse it
    assert sorted(p.name for p in path.parent.iterdir() if p.suffix == ".tmp") == []


def test_permissions_match_the_previous_writers(tmp_path):
    umask = os.umask(0o022)
    try:
        meta = _write_previous("meta", tmp_path / "run")
        job = _write_previous("job", tmp_path / "svc")
        quotas = _write_previous("quotas", tmp_path / "svc")
    finally:
        os.umask(umask)
    assert meta.stat().st_mode & 0o777 == 0o644  # as Path.write_text gave
    assert job.stat().st_mode & 0o777 == 0o600  # as mkstemp gave
    assert quotas.stat().st_mode & 0o777 == 0o600


def test_explicit_mode_and_replace(tmp_path):
    from repro.telemetry.ledger import atomic_write_text

    path = tmp_path / "state.json"
    atomic_write_text(path, "old\n", mode=0o640)
    atomic_write_text(path, "new\n", mode=0o640)
    assert path.read_text() == "new\n"
    assert path.stat().st_mode & 0o777 == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def test_exception_mid_write_unlinks_temp(tmp_path):
    from repro.telemetry.ledger import atomic_write_text

    path = tmp_path / "state.json"
    atomic_write_text(path, "old\n")
    with pytest.raises(TypeError):
        atomic_write_text(path, 12345)  # type: ignore[arg-type]
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
