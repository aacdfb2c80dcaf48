"""Per-client oracle-query quota accounting for the assessment service.

The paper's central resource is *oracle queries* — every workload meters
them through :class:`~repro.telemetry.meter.QueryMeter`, and every trial
ships its meter snapshot home in the ledger.  This module turns those
totals into an enforceable budget: each API key has a cumulative query
limit, a job must *declare* a budget at submission, and the service

1. rejects the submission (HTTP 429 upstream) when the key's settled
   usage plus its outstanding reservations plus the declared budget
   would exceed the limit — admission control, so a backlog of accepted
   jobs can never overdraw a key;
2. holds the declared budget as a *reservation* while the job is queued
   or running;
3. on completion charges the actual metered spend (the job result's
   ``total_queries``, summed from its per-trial snapshots) — clients are
   charged what they used, not what they declared.

There is no quota state of its own: both figures are folds over the
service's job records, computed when asked.  A job's spend is stored
once, in its ``job.json``, so a restarted server charges each job
exactly once however many times it was adopted.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from .jobs import TERMINAL_STATES, Job


class QuotaExceeded(Exception):
    """Admission would overdraw the key's cumulative query budget."""

    def __init__(
        self, api_key: str, limit: int, used: int, reserved: int, requested: int
    ) -> None:
        self.api_key = api_key
        self.limit = limit
        self.used = used
        self.reserved = reserved
        self.requested = requested
        super().__init__(
            f"quota exceeded for API key {api_key!r}: limit {limit}, "
            f"settled usage {used}, reserved {reserved}, requested {requested}"
        )

    def as_dict(self) -> Dict[str, int]:
        """JSON payload for the 429 response body."""
        return {
            "limit": self.limit,
            "used": self.used,
            "reserved": self.reserved,
            "requested": self.requested,
        }


def usage(jobs: Iterable[Job], api_key: str) -> Tuple[int, int]:
    """``(settled, reserved)`` queries of ``api_key`` over ``jobs``.

    A terminal job settles its result's ``total_queries`` (0 without a
    result); a queued or running one reserves its declared budget.
    """
    used = reserved = 0
    for job in jobs:
        if job.spec.api_key != api_key:
            continue
        if job.state not in TERMINAL_STATES:
            reserved += job.spec.budget or 0
        elif job.result is not None:
            used += int(job.result.get("total_queries") or 0)
    return used, reserved


def admit(
    jobs: Iterable[Job], api_key: str, budget: int, limit: Optional[int]
) -> None:
    """Admit a job declaring ``budget`` queries against ``jobs``' usage.

    Raises :class:`QuotaExceeded` when settled usage + outstanding
    reservations + ``budget`` would exceed ``limit`` (None: no limit).
    """
    if budget < 0:
        raise ValueError("declared budget must be non-negative")
    if limit is None:
        return
    used, reserved = usage(jobs, api_key)
    if used + reserved + budget > limit:
        raise QuotaExceeded(api_key, limit, used, reserved, budget)


def status(
    jobs: Iterable[Job], api_key: str, limit: Optional[int]
) -> Dict[str, object]:
    """The quota view served by ``GET /v1/quota``."""
    used, reserved = usage(jobs, api_key)
    return {
        "api_key": api_key,
        "limit": limit,
        "used": used,
        "reserved": reserved,
        "remaining": None if limit is None else max(0, limit - used - reserved),
    }
