"""repro.persist: a failed write never tears what a later process reads.

Each writer that persists state a later process reads back is driven
into a failing write by a soft ``RLIMIT_FSIZE`` in a subprocess: the
write stops at the limit and the next one raises ``EFBIG``.

* ``RunLedger.write_meta`` (``meta.json``, read by ``trials --resume``
  and job adoption), ``JobStore.save`` (``job.json``),
  ``ArtifactStore.store`` (a store entry) and the atlas CLI
  (``boundary_map.json``) replace a whole file: the previous file must
  stay byte for byte.
* ``RunLedger.append`` appends: the limit lands inside the new line, so
  the earlier lines must survive and ``read()`` must skip the torn last
  line with its warning.

No case may leave a staging file behind, by :func:`repro.persist.is_staging`.
"""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.persist import append_lines, is_staging, write_atomic
from repro.pufs.crp import CRPSet
from repro.runtime.store import ArtifactStore
from repro.service.jobs import Job, JobSpec, JobStore
from repro.telemetry import RunLedger

resource = pytest.importorskip("resource")

SRC = Path(__file__).resolve().parents[2] / "src"

#: An atlas grid small enough to run in a second: one LR cell.
ATLAS_ARGS = [
    "atlas", "--spec", 'families=["xor"]', "--spec", 'learners=["lr"]',
    "--spec", "ns=[16]", "--spec", "ks=[1]", "--spec", "budgets=[60]",
    "--spec", "test_size=200",
]

_REWRITE = r"""
import resource, signal, sys
from pathlib import Path
import numpy as np
from repro.__main__ import main
from repro.pufs.crp import CRPSet
from repro.runtime.store import ArtifactStore
from repro.service.jobs import Job, JobSpec, JobStore
from repro.telemetry import RunLedger

kind, data_dir, limit = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
pad = "x" * 256
rewrite = {
    "meta": lambda: RunLedger(data_dir).write_meta({"workload": "fleet", "pad": pad}),
    "job": lambda: JobStore(data_dir).save(
        Job(job_id="job-x", spec=JobSpec(workload="fleet"), error=pad)
    ),
    "store": lambda: ArtifactStore(data_dir).store(
        "k", CRPSet(-np.ones((512, 64), np.int8), np.ones(512, np.int8))
    ),
    "atlas": lambda: main([*sys.argv[4:], "--out", str(data_dir)]),
    "ledger": lambda: RunLedger(data_dir).append({"index": 2, "pad": pad}),
}[kind]
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(
    resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1])
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
    if kind == "store":
        rng = np.random.default_rng(0)
        crps = CRPSet(
            rng.choice(np.array([-1, 1], np.int8), (512, 64)),
            rng.choice(np.array([-1, 1], np.int8), 512),
        )
        return ArtifactStore(data_dir).store("k", crps)
    if kind == "atlas":
        path = data_dir / "boundary_map.json"
        write_atomic(path, json.dumps({"digest": "previous", "maps": ["y" * 80]}))
        return path
    ledger = RunLedger(data_dir)
    ledger.append_many([{"index": 0, "pad": "y" * 80}, {"index": 1}])
    return ledger.path


def _rewrite(kind, data_dir, limit):
    """Run the failing rewrite of ``kind``; return its output words."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _REWRITE, kind, str(data_dir), str(limit),
         *ATLAS_ARGS],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-2:]


def _staging(root):
    return [p.name for p in Path(root).rglob("*") if is_staging(p)]


@pytest.mark.parametrize("kind", ["meta", "job", "store", "atlas"])
def test_failed_rewrite_keeps_previous_file(tmp_path, kind):
    path = _write_previous(kind, tmp_path)
    before = path.read_bytes()
    assert len(before) > 64  # the limit lands inside the old content's span
    assert _rewrite(kind, tmp_path, 64) == ["errno", str(errno.EFBIG)]
    assert path.read_bytes() == before
    if kind == "store":
        assert ArtifactStore(tmp_path).load("k") is not None
    else:
        json.loads(path.read_text())  # read_meta and load both parse it
    assert _staging(tmp_path) == []


def test_failed_append_tears_only_the_last_line(tmp_path):
    path = _write_previous("ledger", tmp_path)
    before = path.read_bytes()
    assert _rewrite("ledger", tmp_path, len(before) + 16) == [
        "errno", str(errno.EFBIG)
    ]
    after = path.read_bytes()
    assert after.startswith(before) and len(after) == len(before) + 16
    with pytest.warns(RuntimeWarning, match=r":3: skipping unparseable ledger line"):
        records = RunLedger(tmp_path).read()
    assert records == [{"index": 0, "pad": "y" * 80}, {"index": 1}]
    assert _staging(tmp_path) == []


def test_permissions_match_the_previous_writers(tmp_path):
    umask = os.umask(0o022)
    try:
        meta = _write_previous("meta", tmp_path / "run")
        job = _write_previous("job", tmp_path / "svc")
    finally:
        os.umask(umask)
    assert meta.stat().st_mode & 0o777 == 0o644  # as Path.write_text gave
    assert job.stat().st_mode & 0o777 == 0o600  # as mkstemp gave


def test_explicit_mode_and_replace(tmp_path):
    path = tmp_path / "state.json"
    write_atomic(path, "old\n", mode=0o640)
    write_atomic(path, b"new\n", mode=0o640)
    assert path.read_text() == "new\n"
    assert path.stat().st_mode & 0o777 == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def test_exception_mid_write_unlinks_temp(tmp_path):
    path = tmp_path / "state.json"
    write_atomic(path, "old\n")
    with pytest.raises(TypeError):
        write_atomic(path, 12345)  # type: ignore[arg-type]
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def test_leftover_staging_name_is_skipped_and_recognised(tmp_path, monkeypatch):
    from repro import persist

    monkeypatch.setattr(persist, "_SEQUENCE", iter(range(2)))
    path = tmp_path / "state.json"
    leftover = Path(f"{path}.{os.getpid()}-0.tmp")
    leftover.write_bytes(b"left by a killed writer")
    write_atomic(path, "new\n")
    assert path.read_text() == "new\n"
    assert is_staging(leftover) and leftover.exists()
    assert not is_staging(path) and not is_staging(tmp_path / "x.tmp")


def test_parent_directories_are_made_on_first_use(tmp_path):
    write_atomic(tmp_path / "a" / "b" / "state.json", "{}\n")
    append_lines(tmp_path / "c" / "ledger.jsonl", ["{}", "{}"])
    assert (tmp_path / "a" / "b" / "state.json").read_text() == "{}\n"
    assert (tmp_path / "c" / "ledger.jsonl").read_text() == "{}\n{}\n"
