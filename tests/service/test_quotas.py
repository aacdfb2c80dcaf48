"""Quota admission control: usage folded over job records, 429 semantics."""

import pytest

from repro.service.jobs import Job, JobSpec, JobStore
from repro.service.quotas import QuotaExceeded, admit, status, usage


def job(key, budget=None, state="queued", spent=None):
    """A job record of ``key``; ``spent`` sets its result's total_queries."""
    record = Job(
        job_id=f"job-{key}-{budget}-{state}-{spent}",
        spec=JobSpec(workload="fleet", budget=budget, api_key=key),
        state=state,
    )
    if spent is not None:
        record.result = {"total_queries": spent}
    return record


class TestReserve:
    def test_admits_within_limit(self):
        jobs = [job("alice", 400)]
        admit(jobs, "alice", 500, limit=1000)
        jobs.append(job("alice", 500))
        assert usage(jobs, "alice") == (0, 900)

    def test_rejects_when_reservations_would_overdraw(self):
        with pytest.raises(QuotaExceeded) as exc:
            admit([job("alice", 800)], "alice", 300, limit=1000)
        payload = exc.value.as_dict()
        assert payload == {
            "limit": 1000,
            "used": 0,
            "reserved": 800,
            "requested": 300,
        }

    def test_settled_usage_counts_against_later_admissions(self):
        spent_more = job("alice", 100, state="done", spent=950)  # declared 100
        with pytest.raises(QuotaExceeded):
            admit([spent_more], "alice", 100, limit=1000)

    def test_keys_are_independent(self):
        admit([job("alice", 100)], "bob", 100, limit=100)  # bob's limit is his own

    def test_no_limit_means_no_rejection_but_usage_tracked(self):
        jobs = [job("alice", 10**9, state="done", spent=12345)]
        admit(jobs, "alice", 10**9, limit=None)
        assert usage(jobs, "alice") == (12345, 0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            admit([], "alice", -1, limit=None)


class TestSettleAndRelease:
    def test_settle_releases_reservation_and_charges_actuals(self):
        record = job("alice", 900)
        assert usage([record], "alice") == (0, 900)
        record.state, record.result = "done", {"total_queries": 250}
        assert usage([record], "alice") == (250, 0)
        admit([record], "alice", 700, limit=1000)  # frees 900, charges 250

    def test_release_drops_without_charging(self):
        record = job("alice", 100)
        record.state = "cancelled"  # cancelled while queued: no result
        assert usage([record], "alice") == (0, 0)

    def test_running_job_still_reserves(self):
        assert usage([job("alice", 60, state="running")], "alice") == (0, 60)

    @pytest.mark.parametrize("state", ["done", "failed", "cancelled"])
    def test_every_terminal_state_charges_its_result(self, state):
        assert usage([job("alice", 60, state=state, spent=40)], "alice") == (40, 0)

    def test_status_view(self):
        jobs = [job("alice", 300, state="done", spent=200), job("alice", 100)]
        assert status(jobs, "alice", limit=1000) == {
            "api_key": "alice",
            "limit": 1000,
            "used": 200,
            "reserved": 100,
            "remaining": 700,
        }


class TestPersistence:
    def test_settled_usage_survives_restart(self, tmp_path):
        JobStore(tmp_path).save(job("alice", 100, state="done", spent=450))
        jobs = JobStore(tmp_path).load_all().values()  # what a restart loads
        assert usage(jobs, "alice") == (450, 0)
        with pytest.raises(QuotaExceeded):
            admit(jobs, "alice", 100, limit=500)
