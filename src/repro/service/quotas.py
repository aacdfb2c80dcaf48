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
3. on completion *settles* the reservation against the actual metered
   spend (summed from the job's per-trial snapshots) — clients are
   charged what they used, not what they declared.

Settled usage persists to ``<data_dir>/quotas.json`` (atomic write), so
a restarted server keeps charging the same keys; reservations are
in-memory only and are reconstructed by job adoption.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Dict, Optional

from repro.persist import write_atomic

QUOTAS_NAME = "quotas.json"


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


class QuotaLedger:
    """Cumulative per-API-key query accounting with reservations.

    Parameters
    ----------
    data_dir:
        Where ``quotas.json`` lives; existing usage is loaded eagerly.
    default_limit:
        Per-key cumulative query limit; None disables enforcement (usage
        is still tracked and settled, so enabling limits later works).
    """

    def __init__(self, data_dir: Path, default_limit: Optional[int] = None) -> None:
        self.data_dir = Path(data_dir)
        self.default_limit = default_limit
        self.path = self.data_dir / QUOTAS_NAME
        self._usage: Dict[str, int] = {}
        self._reservations: Dict[str, Dict[str, int]] = {}  # job_id -> {key, amount}
        if self.path.exists():
            try:
                payload = json.loads(self.path.read_text())
                self._usage = {
                    str(k): int(v) for k, v in (payload.get("usage") or {}).items()
                }
            except (ValueError, TypeError, AttributeError) as exc:
                # A torn quotas.json must not brick the server, so every
                # key's settled usage restarts at zero.  Nothing rebuilds
                # it from the job records yet; the warning makes the
                # reset visible.
                warnings.warn(
                    f"unreadable {self.path} ({exc}); settled quota usage "
                    "restarts at zero for every key",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._usage = {}

    # ------------------------------------------------------------------
    def usage(self, api_key: str) -> int:
        """Settled (actually metered) queries charged to ``api_key``."""
        return self._usage.get(api_key, 0)

    def reserved(self, api_key: str) -> int:
        """Outstanding declared budgets held for ``api_key``'s live jobs."""
        return sum(
            r["amount"] for r in self._reservations.values() if r["key"] == api_key
        )

    def limit(self, api_key: str) -> Optional[int]:
        """The key's limit (currently the service-wide default)."""
        return self.default_limit

    def status(self, api_key: str) -> Dict[str, object]:
        """The quota view served by ``GET /v1/quota``."""
        limit = self.limit(api_key)
        used, reserved = self.usage(api_key), self.reserved(api_key)
        return {
            "api_key": api_key,
            "limit": limit,
            "used": used,
            "reserved": reserved,
            "remaining": None if limit is None else max(0, limit - used - reserved),
        }

    # ------------------------------------------------------------------
    def reserve(self, job_id: str, api_key: str, declared_budget: int) -> None:
        """Admit a job, holding ``declared_budget`` against the key's limit.

        Raises :class:`QuotaExceeded` when settled usage + outstanding
        reservations + the declared budget would exceed the limit.
        Idempotent per job id (re-adoption re-reserves safely).
        """
        if declared_budget < 0:
            raise ValueError("declared budget must be non-negative")
        existing = self._reservations.get(job_id)
        if existing is not None and existing["key"] == api_key:
            existing["amount"] = declared_budget
            return
        limit = self.limit(api_key)
        if limit is not None:
            used, reserved = self.usage(api_key), self.reserved(api_key)
            if used + reserved + declared_budget > limit:
                raise QuotaExceeded(api_key, limit, used, reserved, declared_budget)
        self._reservations[job_id] = {"key": api_key, "amount": declared_budget}

    def settle(self, job_id: str, api_key: str, actual_spent: int) -> None:
        """Release the job's reservation and charge the metered spend."""
        self._reservations.pop(job_id, None)
        if actual_spent > 0:
            self._usage[api_key] = self._usage.get(api_key, 0) + int(actual_spent)
        self._persist()

    def release(self, job_id: str) -> None:
        """Drop a reservation without charging (job rejected pre-run)."""
        self._reservations.pop(job_id, None)

    # ------------------------------------------------------------------
    def _persist(self) -> None:
        """Atomically rewrite ``quotas.json`` with current settled usage."""
        payload = json.dumps({"usage": self._usage}, sort_keys=True, indent=2)
        write_atomic(self.path, payload + "\n", mode=0o600)
