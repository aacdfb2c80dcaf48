"""Assessment jobs: the unit of work the service queues, runs, persists.

A *job* is one ``TrialRunner`` invocation described as data: a workload
name from :data:`~repro.runtime.workloads.WORKLOADS`, a spec-override
dict, a trial count, a master seed, and the client identity/budget the
quota layer accounts under.  Each job owns a directory
``<data_dir>/jobs/<job_id>/`` holding

* ``job.json`` — the job record (spec, state, progress, result), written
  atomically at submission, at adoption and when the job finishes, so a
  killed server can re-adopt it (a job caught mid-run reads ``queued``,
  which adoption re-queues as it would a ``running`` record).  Its
  result's ``total_queries`` is the job's one record of spend, which the
  quota folds over;
* ``ledger.jsonl`` + ``meta.json`` — the
  standard crash-safe :class:`~repro.telemetry.ledger.RunLedger` run
  directory the trials append to, which is exactly what makes restart
  recovery free: re-adoption is just ``TrialRunner.run(...,
  resume_from=<that ledger>)``.

The job directory *is* the run directory — there is no second source of
truth to reconcile after a crash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import secrets
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.persist import write_atomic

# The one workload registry, shared with ``python -m repro trials``: a
# job's ``spec`` object is exactly that command's ``--spec`` pairs.
from repro.runtime.workloads import (  # noqa: F401  (re-exported)
    WORKLOADS,
    UnknownWorkload,
    build_workload,
)

#: Jobs at or under this many trials default to the interactive priority
#: tier (they preempt queued atlas-scale backlogs).
SMALL_JOB_TRIALS = 16

#: Priority values (lower runs first).
PRIORITY_INTERACTIVE = 0
PRIORITY_BATCH = 10

#: The job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Terminal job states (never re-adopted, never re-queued).
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Default client identity when no ``X-API-Key`` header is sent.
ANONYMOUS_KEY = "anonymous"


def new_job_id() -> str:
    """A short unique job id (``job-<12 hex>``)."""
    return f"job-{secrets.token_hex(6)}"


def values_digest(values) -> str:
    """A canonical sha256 over a job's per-trial values.

    The restart-survival contract is *bit-identical final results*; this
    digest is how two runs of one job — or a killed-and-resumed run and
    a clean one — prove identity with a single string compare.
    """
    material = json.dumps(values, sort_keys=True)
    return "sha256:" + hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class JobSpec:
    """What a client submits: the assessment to run and who pays for it."""

    workload: str
    spec: Dict[str, Any] = dataclasses.field(default_factory=dict)
    trials: int = 4
    seed: int = 0
    workers: int = 1
    priority: Optional[int] = None
    budget: Optional[int] = None
    api_key: str = ANONYMOUS_KEY

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be non-negative, got {self.budget}")
        if not isinstance(self.spec, dict):
            raise ValueError("spec must be a JSON object")
        build_workload(self.workload, self.spec)  # validates eagerly

    @property
    def effective_priority(self) -> int:
        """Explicit priority, or the small-job/backlog default split.

        Small jobs (``trials <= SMALL_JOB_TRIALS``) default to the
        interactive tier so a quick what-if assessment never waits
        behind a thousand-trial atlas sweep already in the queue.
        """
        if self.priority is not None:
            return int(self.priority)
        return (
            PRIORITY_INTERACTIVE
            if self.trials <= SMALL_JOB_TRIALS
            else PRIORITY_BATCH
        )

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (JSON-ready), with a shallow copy of ``spec``."""
        payload = {name: getattr(self, name) for name in self.__dataclass_fields__}
        payload["spec"] = dict(self.spec)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Build and validate a spec from a parsed JSON body."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown job field(s) {unknown}; expected a subset of "
                f"{sorted(known)}"
            )
        return cls(**payload)


@dataclasses.dataclass
class Job:
    """One job's full record: spec, lifecycle state, progress, result."""

    job_id: str
    spec: JobSpec
    state: str = "queued"
    created_at: float = dataclasses.field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    completed_trials: int = 0
    adopted: bool = False
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """The JSON view served by the API and persisted to ``job.json``.

        Equal to ``dataclasses.asdict`` plus ``priority``, built without
        its deep copy: ``spec`` and ``result`` are shallow copies, and the
        values inside them are the record's own, which it never mutates.
        """
        payload = {name: getattr(self, name) for name in self.__dataclass_fields__}
        payload["spec"] = self.spec.as_dict()
        if self.result is not None:
            payload["result"] = dict(self.result)
        payload["priority"] = self.spec.effective_priority
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Job":
        """Reconstruct a job from a persisted ``job.json`` payload.

        A record written by an older version may carry a ``shards`` spec
        field, which is dropped: those jobs now run on one pool.  Its
        ``chow`` or ``lmn`` workload spec may carry a ``block_size``,
        which is dropped too: neither trial has one any more, and it never
        changed a value.  Its ``fleet`` workload spec may carry a dtype
        ``tier``, which is dropped as well: ``float64`` and ``int8`` gave
        the float64 values every fleet now computes.  ``float32`` gave
        other values, so an unfinished ``float32`` job is failed rather
        than finished on float64 values; a finished one is kept as it is.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        data = {k: v for k, v in payload.items() if k in fields}
        spec = dict(data["spec"])
        spec.pop("shards", None)
        legacy = {"chow": "block_size", "lmn": "block_size", "fleet": "tier"}
        field = legacy.get(spec.get("workload"))
        if field is not None and isinstance(spec.get("spec"), dict):
            spec["spec"] = dict(spec["spec"])
            value = spec["spec"].pop(field, None)
            if value == "float32" and data.get("state") not in TERMINAL_STATES:
                data["state"] = "failed"
                data["error"] = (
                    "the float32 fleet tier was removed; this job's remaining "
                    "trials would run on float64, so it was not resumed"
                )
        data["spec"] = JobSpec.from_dict(spec)
        return cls(**data)


class JobStore:
    """Directory-backed persistence for jobs (one subdir per job).

    ``save`` writes ``job.json`` through :func:`repro.persist.write_atomic`
    so a SIGKILL between transitions leaves either the old record or the
    new one, never a torn file; ``load_all`` is the restart-adoption
    scan.
    """

    def __init__(self, data_dir: Path) -> None:
        self.data_dir = Path(data_dir)
        self.jobs_dir = self.data_dir / "jobs"

    def job_dir(self, job_id: str) -> Path:
        """The directory owning ``job_id`` (also its run/ledger directory)."""
        return self.jobs_dir / job_id

    def save(self, job: Job) -> None:
        """Persist ``job.json`` atomically inside the job's directory."""
        payload = json.dumps(job.as_dict(), sort_keys=True, indent=2) + "\n"
        write_atomic(self.job_dir(job.job_id) / "job.json", payload, mode=0o600)

    def load(self, job_id: str) -> Optional[Job]:
        """The persisted job record, or None when absent/unreadable."""
        path = self.job_dir(job_id) / "job.json"
        if not path.exists():
            return None
        try:
            return Job.from_dict(json.loads(path.read_text()))
        except (ValueError, KeyError, TypeError):
            return None

    def load_all(self) -> Dict[str, Job]:
        """Every readable persisted job, keyed by id (the adoption scan)."""
        jobs: Dict[str, Job] = {}
        for job_json in sorted(self.jobs_dir.glob("*/job.json")):
            job = self.load(job_json.parent.name)
            if job is not None:
                jobs[job.job_id] = job
        return jobs
