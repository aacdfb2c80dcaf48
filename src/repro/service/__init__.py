"""Assessment-as-a-service: an asyncio job server over ``TrialRunner``.

Start one with ``python -m repro serve --data-dir runs/service``; see
``docs/SERVICE.md`` for the API.  Public surface:

* :class:`~repro.service.app.ReproService` — the server.
* :class:`~repro.service.client.ServiceClient` — blocking stdlib client.
* :class:`~repro.service.jobs.JobSpec` / :class:`~repro.service.jobs.Job`
  — the job model, plus the :data:`~repro.service.jobs.WORKLOADS`
  registry mapping workload names to trial functions.
* :mod:`~repro.service.quotas` — per-API-key cumulative oracle-query
  budgets (HTTP 429 on overdraw), folded over the job records.
"""

from .app import ReproService, run_serve
from .client import ServiceClient, ServiceError, client_from_data_dir
from .jobs import WORKLOADS, Job, JobSpec, JobStore, build_workload
from .quotas import QuotaExceeded
from .queue import PriorityJobQueue

__all__ = [
    "ReproService",
    "run_serve",
    "ServiceClient",
    "ServiceError",
    "client_from_data_dir",
    "WORKLOADS",
    "Job",
    "JobSpec",
    "JobStore",
    "build_workload",
    "QuotaExceeded",
    "PriorityJobQueue",
]
