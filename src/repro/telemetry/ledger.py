"""The JSONL run ledger: one line per trial, one directory per run.

A *run* is one invocation of an experiment (``python -m repro trials``,
or any :class:`~repro.runtime.runner.TrialRunner` call given a ledger).
Its directory, ``runs/<run_id>/`` by convention, holds:

* ``meta.json`` — the run's provenance: workload name, spec parameters,
  trial count, worker count, master seed, and the PAC parameters its
  bounds should be evaluated at;
* ``ledger.jsonl`` — one JSON record per trial, appended from the parent
  process *as each trial completes* (so a killed run keeps every finished
  trial): timings (wall/CPU/queue-wait), attempt count, the trial's
  return value or structured error, and the full query-meter +
  span-summary telemetry snapshot.  ``TrialRunner.run(...,
  resume_from=...)`` replays these records to restart a run
  bit-identically (see :func:`~repro.runtime.runner.result_from_record`).

``python -m repro report runs/<run_id>`` aggregates a ledger against the
:mod:`repro.pac.bounds` predictions (see :mod:`repro.telemetry.report`).
Records are plain dicts of JSON scalars; numpy values are converted on
write so readers need nothing but the standard library.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.persist import append_lines, write_atomic

#: File names inside a run directory.
LEDGER_NAME = "ledger.jsonl"
META_NAME = "meta.json"

#: Per-shard ledger files that runs written by older versions may hold;
#: :meth:`RunLedger.read_latest` still folds them in.
LEGACY_SHARD_GLOB = "ledger-shard*.jsonl"


def _replayable(record: Dict[str, object]) -> bool:
    """Whether a ledger record can be replayed bit-identically on resume.

    Successful trials and deterministic *trial* errors are pure functions
    of ``(master_seed, index)``; infrastructure failures and timeouts are
    not.  :meth:`RunLedger.read_latest` prefers replayable records so an
    infra hiccup can never shadow another record of the same trial that
    actually finished.
    """
    if record.get("status") == "ok":
        return True
    error = record.get("error")
    return isinstance(error, dict) and error.get("category") == "trial"


def _replay_digest(record: Dict[str, object]) -> str:
    """A canonical digest of a record's *replayable* payload.

    Covers exactly the fields a resumed run replays — status, value,
    value_meta, and the deterministic error identity — and excludes the
    legitimately-varying ones (timings, queue wait, telemetry, attempt
    counts).  Two replayable records for one trial index must digest
    equally: they are pure functions of ``(master_seed, index)``.  A
    mismatch means two ledger files disagree about what a trial computed
    — corruption or a mixed-provenance run directory — which
    :meth:`RunLedger.read_latest` warns about instead of silently
    letting the merge order pick a winner.
    """
    payload: Dict[str, object] = {
        "status": record.get("status"),
        "value": record.get("value"),
        "value_meta": record.get("value_meta"),
    }
    error = record.get("error")
    if isinstance(error, dict):
        payload["error"] = {
            "exc_type": error.get("exc_type"),
            "category": error.get("category"),
            "message": error.get("message"),
        }
    return json.dumps(payload, sort_keys=True, default=_json_default)


def _json_default(obj: object) -> object:
    """Convert numpy scalars/arrays so ledger writes never fail."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serialisable: {type(obj).__name__}")


def _torn_tail(path: Path) -> bool:
    """Whether ``path`` exists and its last byte is not a newline."""
    try:
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) != b"\n"
    except OSError:  # missing, or empty (the seek fails)
        return False


def new_run_id(prefix: str = "run") -> str:
    """A sortable run id: ``<prefix>-YYYYmmdd-HHMMSS``.

    Collisions within one second are possible; pass an explicit
    ``--run-id`` when launching runs programmatically in a loop.
    """
    return f"{prefix}-{time.strftime('%Y%m%d-%H%M%S')}"


class RunLedger:
    """Append-only JSONL ledger plus ``meta.json`` for one run directory.

    Parameters
    ----------
    run_dir:
        The run's directory (e.g. ``runs/curve-20260806-120000``).
        Made by the first write into it.
    """

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self._tail_checked = False

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        """The ``ledger.jsonl`` this handle appends to."""
        return self.run_dir / LEDGER_NAME

    @property
    def meta_path(self) -> Path:
        """The ``meta.json`` path."""
        return self.run_dir / META_NAME

    @property
    def run_id(self) -> str:
        """The run id (the directory name)."""
        return self.run_dir.name

    def _legacy_paths(self) -> List[Path]:
        """Per-shard ledger files an older version left, sorted by name."""
        return sorted(self.run_dir.glob(LEGACY_SHARD_GLOB))

    # ------------------------------------------------------------------
    def append(self, record: Dict[str, object]) -> None:
        """Append one trial record as a single JSON line."""
        self.append_many([record])

    def append_many(self, records: Iterable[Dict[str, object]]) -> None:
        """Append several records in one file open and one write.

        The handle's first append to a file whose last line a killed
        writer tore starts on a new line, so the fragment stays the one
        unparseable line and the record after it stays whole.
        """
        lines = [
            json.dumps(r, default=_json_default, sort_keys=True) for r in records
        ]
        if lines and not self._tail_checked:
            self._tail_checked = True
            if _torn_tail(self.path):
                lines[0] = "\n" + lines[0]
        append_lines(self.path, lines)

    def write_meta(self, meta: Dict[str, object]) -> None:
        """Write (replace) the run's ``meta.json`` atomically."""
        write_atomic(
            self.meta_path,
            json.dumps(meta, default=_json_default, sort_keys=True, indent=2) + "\n",
        )

    # ------------------------------------------------------------------
    def read(self) -> List[Dict[str, object]]:
        """All parseable trial records, in file order.

        Blank lines are skipped silently; an unparseable line — typically
        the truncated final record of a run killed mid-append — is skipped
        with a warning, so a crashed ledger stays readable and the trial
        behind the torn record simply re-executes on resume.
        """
        return self._read_file(self.path)

    def _read_file(self, path: Path) -> List[Dict[str, object]]:
        """Parse one JSONL file with the torn-line tolerance of :meth:`read`."""
        if not path.exists():
            return []
        records = []
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                warnings.warn(
                    f"{path}:{lineno}: skipping unparseable ledger line "
                    "(torn write from a killed run?)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return records

    def read_latest(self) -> Dict[int, Dict[str, object]]:
        """The winning record per trial index.

        A resumed run appends fresh records for re-executed trials after
        the originals (e.g. an infrastructure failure followed by a clean
        rerun), so readers — resume itself and ``repro report`` — must
        take one record per index, never double-count.  Runs written by
        older versions may also hold per-shard files
        (``ledger-shardNN.jsonl``); those are folded in after the main
        file, in name order.

        Merge rule, per index: a *replayable* record (status ``ok`` or a
        deterministic trial error) beats a non-replayable one (infra
        failure, timeout); at equal rank the later record wins.
        Replayable records for one index are bit-identical by
        construction — they are pure functions of ``(master_seed,
        index)`` — so which one wins is unobservable; preferring them
        merely stops an infra hiccup from shadowing a completed trial.
        Torn-line tolerance applies to *every* file read: each file drops
        only its own unparseable lines.  When two records hold replayable
        payloads for one index that *differ* — which the determinism
        contract forbids — the merge warns (naming the index) instead of
        silently dropping one, and the later record still wins.  Records
        without an integer ``index`` are ignored.
        """
        records = list(self.read())
        for path in self._legacy_paths():
            records.extend(self._read_file(path))
        latest: Dict[int, Dict[str, object]] = {}
        rank: Dict[int, int] = {}
        for record in records:
            index = record.get("index")
            if not isinstance(index, int):
                continue
            r = 1 if _replayable(record) else 0
            if index not in latest or r >= rank[index]:
                if (
                    index in latest
                    and r == 1
                    and rank[index] == 1
                    and _replay_digest(record) != _replay_digest(latest[index])
                ):
                    warnings.warn(
                        f"{self.run_dir}: ledger files hold conflicting "
                        f"replayable records for trial {index} (replay "
                        "payload digests differ); keeping the later record "
                        "— this run directory mixes provenances or is "
                        "corrupt",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                latest[index] = record
                rank[index] = r
        return latest

    def read_meta(self) -> Optional[Dict[str, object]]:
        """The run's metadata, or None when ``meta.json`` is absent."""
        if not self.meta_path.exists():
            return None
        return json.loads(self.meta_path.read_text())

    @classmethod
    def open_existing(cls, run_dir: Union[str, Path]) -> "RunLedger":
        """Open a run directory that must already contain ledger data.

        Accepts a directory holding ``ledger.jsonl`` *or* only the
        per-shard files of a run written by an older version.
        """
        ledger = cls(run_dir)
        if not ledger.path.exists() and not ledger._legacy_paths():
            raise FileNotFoundError(
                f"no {LEDGER_NAME} under {ledger.run_dir} — not a run directory"
            )
        return ledger

    def __repr__(self) -> str:
        return f"RunLedger({str(self.run_dir)!r})"
