"""Quota admission control: reserve, settle, persist, 429 semantics."""

import json

import pytest

from repro.service.quotas import QuotaExceeded, QuotaLedger


class TestReserve:
    def test_admits_within_limit(self, tmp_path):
        q = QuotaLedger(tmp_path, default_limit=1000)
        q.reserve("job-1", "alice", 400)
        q.reserve("job-2", "alice", 500)
        assert q.reserved("alice") == 900

    def test_rejects_when_reservations_would_overdraw(self, tmp_path):
        q = QuotaLedger(tmp_path, default_limit=1000)
        q.reserve("job-1", "alice", 800)
        with pytest.raises(QuotaExceeded) as exc:
            q.reserve("job-2", "alice", 300)
        payload = exc.value.as_dict()
        assert payload == {
            "limit": 1000,
            "used": 0,
            "reserved": 800,
            "requested": 300,
        }

    def test_settled_usage_counts_against_later_admissions(self, tmp_path):
        q = QuotaLedger(tmp_path, default_limit=1000)
        q.reserve("job-1", "alice", 100)
        q.settle("job-1", "alice", 950)  # spent more than declared
        with pytest.raises(QuotaExceeded):
            q.reserve("job-2", "alice", 100)

    def test_keys_are_independent(self, tmp_path):
        q = QuotaLedger(tmp_path, default_limit=100)
        q.reserve("job-1", "alice", 100)
        q.reserve("job-2", "bob", 100)  # bob's limit is his own

    def test_no_limit_means_no_rejection_but_usage_tracked(self, tmp_path):
        q = QuotaLedger(tmp_path, default_limit=None)
        q.reserve("job-1", "alice", 10**9)
        q.settle("job-1", "alice", 12345)
        assert q.usage("alice") == 12345

    def test_reserve_is_idempotent_per_job(self, tmp_path):
        q = QuotaLedger(tmp_path, default_limit=100)
        q.reserve("job-1", "alice", 60)
        q.reserve("job-1", "alice", 60)  # re-adoption path
        assert q.reserved("alice") == 60

    def test_negative_budget_rejected(self, tmp_path):
        q = QuotaLedger(tmp_path, default_limit=None)
        with pytest.raises(ValueError):
            q.reserve("job-1", "alice", -1)


class TestSettleAndRelease:
    def test_settle_releases_reservation_and_charges_actuals(self, tmp_path):
        q = QuotaLedger(tmp_path, default_limit=1000)
        q.reserve("job-1", "alice", 900)
        q.settle("job-1", "alice", 250)
        assert q.reserved("alice") == 0
        assert q.usage("alice") == 250
        q.reserve("job-2", "alice", 700)  # frees 900, charges 250

    def test_release_drops_without_charging(self, tmp_path):
        q = QuotaLedger(tmp_path, default_limit=100)
        q.reserve("job-1", "alice", 100)
        q.release("job-1")
        assert q.reserved("alice") == 0
        assert q.usage("alice") == 0

    def test_status_view(self, tmp_path):
        q = QuotaLedger(tmp_path, default_limit=1000)
        q.reserve("job-1", "alice", 300)
        q.settle("job-1", "alice", 200)
        q.reserve("job-2", "alice", 100)
        assert q.status("alice") == {
            "api_key": "alice",
            "limit": 1000,
            "used": 200,
            "reserved": 100,
            "remaining": 700,
        }


class TestPersistence:
    def test_settled_usage_survives_restart(self, tmp_path):
        q = QuotaLedger(tmp_path, default_limit=500)
        q.reserve("job-1", "alice", 100)
        q.settle("job-1", "alice", 450)
        q2 = QuotaLedger(tmp_path, default_limit=500)
        assert q2.usage("alice") == 450
        with pytest.raises(QuotaExceeded):
            q2.reserve("job-2", "alice", 100)

    def test_reservations_do_not_persist(self, tmp_path):
        q = QuotaLedger(tmp_path, default_limit=500)
        q.reserve("job-1", "alice", 400)
        q2 = QuotaLedger(tmp_path, default_limit=500)
        assert q2.reserved("alice") == 0  # rebuilt by job adoption instead

    def test_torn_quotas_json_does_not_brick_the_ledger(self, tmp_path):
        (tmp_path / "quotas.json").write_text('{"usage": {"alice": 12')
        with pytest.warns(RuntimeWarning, match="quotas.json"):
            q = QuotaLedger(tmp_path, default_limit=500)
        assert q.usage("alice") == 0
        q.reserve("job-1", "alice", 10)
        q.settle("job-1", "alice", 10)
        assert json.loads((tmp_path / "quotas.json").read_text()) == {
            "usage": {"alice": 10}
        }

    @pytest.mark.parametrize("keep", [0, 1, 9, 20])
    def test_truncated_quotas_json_warns_and_resets_to_zero(self, tmp_path, keep):
        q = QuotaLedger(tmp_path, default_limit=None)
        q.settle("job-1", "alice", 12)
        path = tmp_path / "quotas.json"
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.warns(RuntimeWarning) as caught:
            q2 = QuotaLedger(tmp_path, default_limit=None)
        assert len(caught) == 1
        message = str(caught[0].message)
        assert str(path) in message and "restarts at zero" in message
        assert q2.usage("alice") == 0

    def test_quotas_file_written_atomically(self, tmp_path):
        q = QuotaLedger(tmp_path, default_limit=None)
        q.settle("job-1", "alice", 5)
        q.settle("job-2", "alice", 5)
        residue = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert residue == []
        assert q.usage("alice") == 10
