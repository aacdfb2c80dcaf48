"""End-to-end service tests: submit, stream, cancel, adopt, enforce quota.

Each test talks to a real :class:`~repro.service.app.ReproService`
listening on a loopback port (the ``live_service`` fixture), through the
same blocking client the CI smoke job uses — nothing is mocked between
the HTTP bytes and the ``TrialRunner`` underneath.
"""

import http.client
import json
import socket
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import persist
from repro.runtime.runner import TrialRunner
from repro.service import routes
from repro.service.client import ServiceError
from repro.service.jobs import Job, JobSpec, JobStore, build_workload, values_digest
from repro.telemetry.ledger import RunLedger

FLEET_SPEC = {"size": 4, "m": 64, "n": 16}
#: Requests answered 200 without a body, for the pipelining property.
PIPELINE_REQUESTS = [
    b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n",
    b"GET /v1/quota HTTP/1.1\r\nX-API-Key: alice\r\n\r\n",
]
#: A deliberately slow job used to occupy the single concurrency slot.
SLOW_SPEC = {"slow_count": 50, "slow_seconds": 0.15, "fast_seconds": 0.0}


class TestSubmitAndComplete:
    def test_job_runs_to_done_with_digest_and_metering(self, live_service):
        live = live_service()
        client = live.client()
        job = client.submit(workload="fleet", trials=3, seed=7, spec=FLEET_SPEC)
        final = client.wait(job["job_id"], timeout=60)
        assert final["state"] == "done"
        assert final["completed_trials"] == 3
        result = final["result"]
        assert result["digest"].startswith("sha256:")
        assert result["total_queries"] > 0
        assert len(result["values"]) == 3
        # actual metered spend was settled against the (anonymous) key
        assert client.quota()["used"] == result["total_queries"]

    def test_events_stream_one_event_per_trial_then_done(self, live_service):
        live = live_service()
        client = live.client()
        job = client.submit(workload="fleet", trials=4, seed=1, spec=FLEET_SPEC)
        events = list(client.stream_events(job["job_id"], timeout=60))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "hello"
        assert kinds[-1] == "done"
        trials = [e for e in events if e["event"] == "trial"]
        assert sorted(e["index"] for e in trials) == [0, 1, 2, 3]
        assert [e["completed"] for e in trials] == [1, 2, 3, 4]
        assert all(e["total"] == 4 and e["ok"] for e in trials)

    def test_stream_of_finished_job_replays_buffer_and_closes(self, live_service):
        live = live_service()
        client = live.client()
        job = client.submit(workload="fleet", trials=2, seed=3, spec=FLEET_SPEC)
        client.wait(job["job_id"], timeout=60)
        events = list(client.stream_events(job["job_id"], timeout=30))
        assert [e["event"] for e in events if e["event"] == "trial"] == [
            "trial",
            "trial",
        ]
        assert events[-1]["event"] == "done"

    def test_job_json_persisted_with_result(self, live_service, tmp_path):
        live = live_service()
        client = live.client()
        job = client.submit(workload="fleet", trials=2, seed=5, spec=FLEET_SPEC)
        final = client.wait(job["job_id"], timeout=60)
        on_disk = json.loads(
            (live.service.data_dir / "jobs" / job["job_id"] / "job.json").read_text()
        )
        assert on_disk["state"] == "done"
        assert on_disk["result"]["digest"] == final["result"]["digest"]

    def test_data_dir_holds_one_record_of_spend(self, live_service, monkeypatch):
        live = live_service(default_quota=10**9)
        data_dir = live.service.data_dir
        writes = []
        original = persist.write_atomic

        def counted(path, data, mode=None):
            writes.append(Path(path).relative_to(data_dir).as_posix())
            original(path, data, mode)

        for module_name, module in list(sys.modules.items()):
            bound = vars(module).get("write_atomic")
            if module_name.startswith("repro") and bound is original:
                monkeypatch.setattr(module, "write_atomic", counted)
        client = live.client(api_key="alice")
        job = client.submit(
            workload="fleet", trials=2, seed=5, spec=FLEET_SPEC, budget=10**6
        )
        final = client.wait(job["job_id"], timeout=60)
        job_dir = f"jobs/{job['job_id']}"
        # meta.json once, job.json at submit and at finish; no quotas.json
        names = ("job.json", "meta.json", "job.json")
        assert writes == [f"{job_dir}/{name}" for name in names]
        assert sorted(p.name for p in data_dir.iterdir()) == ["jobs", "service.json"]
        meta = json.loads((data_dir / job_dir / "meta.json").read_text())
        assert "quota" not in meta
        assert meta["api_key"] == "alice" and meta["declared_budget"] == 10**6
        assert client.quota()["used"] == final["result"]["total_queries"]


class TestHttpErrors:
    def test_unknown_workload_is_400(self, live_service):
        client = live_service().client()
        with pytest.raises(ServiceError) as exc:
            client.submit(workload="nonsense", trials=1)
        assert exc.value.status == 400

    def test_bad_spec_field_is_400(self, live_service):
        client = live_service().client()
        with pytest.raises(ServiceError) as exc:
            client.submit(workload="fleet", trials=1, spec={"bogus": 1})
        assert exc.value.status == 400
        assert "bogus" in str(exc.value)

    def test_unknown_job_is_404(self, live_service):
        client = live_service().client()
        with pytest.raises(ServiceError) as exc:
            client.job("job-doesnotexist")
        assert exc.value.status == 404

    def test_wrong_method_is_405(self, live_service):
        client = live_service().client()
        with pytest.raises(ServiceError) as exc:
            client.request("DELETE", "/v1/jobs")
        assert exc.value.status == 405

    def test_unknown_path_is_404(self, live_service):
        client = live_service().client()
        with pytest.raises(ServiceError) as exc:
            client.request("GET", "/v2/anything")
        assert exc.value.status == 404

    def test_malformed_json_body_is_400(self, live_service):
        live = live_service()
        conn = http.client.HTTPConnection(
            live.service.host, live.service.port, timeout=10
        )
        try:
            conn.request(
                "POST",
                "/v1/jobs",
                body="{not json",
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400(self, live_service, length):
        live = live_service()
        status, payload = raw_exchange(
            live,
            f"POST /v1/jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode(),
        )
        assert status == 400
        assert "Content-Length" in payload["error"]["message"]

    def test_oversized_head_is_413(self, live_service):
        live = live_service()
        filler = b"x" * (routes.MAX_HEAD_BYTES + 1)
        status, payload = raw_exchange(
            live, b"GET /v1/healthz HTTP/1.1\r\nX-Filler: " + filler + b"\r\n\r\n"
        )
        assert status == 413
        assert payload["error"]["message"] == "request head too large"

    def test_head_over_the_stream_limit_is_413(self, live_service):
        # A 3 MB header line outgrows the reader's buffer limit (twice
        # MAX_BODY_BYTES), so the head read itself fails; the client
        # still gets an answer, not a reset.
        live = live_service()
        filler = b"x" * (3 * routes.MAX_BODY_BYTES)
        status, payload = raw_exchange(
            live, b"GET /v1/healthz HTTP/1.1\r\nX-Filler: " + filler + b"\r\n\r\n"
        )
        assert status == 413
        assert payload["error"]["message"] == "request head too large"

    def test_oversized_body_is_413(self, live_service):
        live = live_service()
        status, payload = raw_exchange(
            live,
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % (routes.MAX_BODY_BYTES + 1),
        )
        assert status == 413
        assert payload["error"]["message"] == "request body too large"

    def test_oversized_body_sent_in_full_is_413_not_a_reset(self, live_service):
        # The client has already sent its whole 3 MiB body when it reads;
        # the server must read it off before closing, or the close resets
        # the connection and the 413 is lost.
        live = live_service()
        body = b"x" * (3 * routes.MAX_BODY_BYTES)
        status, payload = raw_exchange(
            live,
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
            + body,
        )
        assert status == 413
        assert payload["error"]["message"] == "request body too large"

    def test_pipelined_tail_after_a_request_is_not_a_reset(self, live_service):
        # One request plus arbitrary trailing bytes (a pipelined second
        # request, garbage, or more than the transport reads at once) in
        # one sendall: the server answers the first request and closes.
        # The unread tail must not reset the connection and destroy the
        # answer, and the service must keep serving.
        live = live_service()
        tails = st.one_of(
            st.binary(max_size=512),
            st.builds(
                bytes.__mul__,
                st.binary(min_size=1, max_size=16) | st.just(b"GET / HTTP/1.1\r\n\r\n"),
                st.integers(1, 1 << 16),
            ),
        )

        @settings(max_examples=40, deadline=None)
        @given(request=st.sampled_from(PIPELINE_REQUESTS), tail=tails)
        def exchange(request, tail):
            status, payload = raw_exchange(live, request + tail)
            assert status == 200 and payload
            assert raw_exchange(live, PIPELINE_REQUESTS[0])[0] == 200

        exchange()


def raw_exchange(live, head: bytes):
    """Send ``head`` over a raw socket; return (status, JSON body) of the reply."""
    with socket.create_connection(
        (live.service.host, live.service.port), timeout=10
    ) as sock:
        sock.sendall(head)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    status_line, _, rest = reply.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


class TestEventStream:
    def test_events_are_ndjson_over_plain_http(self, live_service):
        live = live_service()
        client = live.client()
        job = client.submit(workload="fleet", trials=2, spec=FLEET_SPEC)
        conn = http.client.HTTPConnection(
            live.service.host, live.service.port, timeout=60
        )
        try:
            conn.request("GET", f"/v1/jobs/{job['job_id']}/events")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            assert response.getheader("Content-Length") is None
            lines = response.read().decode("utf-8").splitlines()
        finally:
            conn.close()
        events = [json.loads(line) for line in lines]
        assert events[0]["event"] == "hello"
        assert events[-1]["event"] == "done"
        assert events[-1]["job"]["state"] == "done"

    def test_events_of_unknown_job_is_404(self, live_service):
        client = live_service().client()
        with pytest.raises(ServiceError) as exc:
            list(client.stream_events("job-doesnotexist", timeout=10))
        assert exc.value.status == 404

    @pytest.mark.parametrize("which", ["running", "queued"])
    def test_client_hangup_drops_its_subscriber(self, live_service, which):
        # The queued job publishes nothing while it waits behind the
        # running one, so only the server's EOF watch can notice the
        # hangup; on the running job a failed write would notice it too.
        live = live_service()
        client = live.client()
        running = client.submit(workload="skew", trials=50, spec=SLOW_SPEC)
        queued = client.submit(workload="fleet", trials=2, spec=FLEET_SPEC)
        job_id = (running if which == "running" else queued)["job_id"]

        def subscribers() -> int:
            return len(live.service._subscribers.get(job_id, ()))

        with socket.create_connection(
            (live.service.host, live.service.port), timeout=10
        ) as sock:
            sock.sendall(f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n\r\n".encode())
            stream = sock.makefile("rb")
            while stream.readline() != b"\r\n":  # the response head
                pass
            assert json.loads(stream.readline())["event"] == "hello"
            assert live.call(subscribers) == 1
            stream.close()
        deadline = time.monotonic() + 5
        while live.call(subscribers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert live.call(subscribers) == 0
        assert client.job(job_id)["state"] == which


class TestQuotaEnforcement:
    def test_over_budget_submission_is_429(self, live_service):
        live = live_service(default_quota=100)
        client = live.client(api_key="alice")
        with pytest.raises(ServiceError) as exc:
            client.submit(workload="fleet", trials=1, spec=FLEET_SPEC, budget=200)
        assert exc.value.status == 429
        error = exc.value.payload["error"]
        assert error["limit"] == 100 and error["requested"] == 200

    def test_settled_spend_blocks_later_submissions(self, live_service):
        # fleet meters ~hundreds of queries per trial, far over limit=50
        live = live_service(default_quota=50)
        client = live.client(api_key="bob")
        job = client.submit(workload="fleet", trials=1, spec=FLEET_SPEC, budget=50)
        final = client.wait(job["job_id"], timeout=60)
        assert final["result"]["total_queries"] > 50
        with pytest.raises(ServiceError) as exc:
            client.submit(workload="fleet", trials=1, spec=FLEET_SPEC, budget=0)
        assert exc.value.status == 429

    def test_keys_account_independently(self, live_service):
        live = live_service(default_quota=100)
        alice = live.client(api_key="alice")
        bob = live.client(api_key="bob")
        with pytest.raises(ServiceError):
            alice.submit(workload="fleet", trials=1, spec=FLEET_SPEC, budget=200)
        job = bob.submit(workload="fleet", trials=1, spec=FLEET_SPEC, budget=90)
        assert job["state"] in ("queued", "running")

    def test_quota_endpoint_reports_reservations(self, live_service):
        live = live_service(default_quota=1000, max_concurrent=1)
        client = live.client(api_key="carol")
        client.submit(workload="skew", trials=20, spec=SLOW_SPEC, budget=300)
        status = client.quota()
        assert status["reserved"] == 300
        assert status["remaining"] == 700


class TestQuotaAcrossRestarts:
    """Usage is a fold over the job records, so each job is charged once."""

    def _finish_one_job(self, live_service):
        live = live_service(default_quota=10**9)
        client = live.client(api_key="alice")
        job = client.submit(
            workload="fleet", trials=3, seed=7, spec=FLEET_SPEC, budget=10**6
        )
        final = client.wait(job["job_id"], timeout=60)
        assert final["state"] == "done"
        assert client.quota()["used"] == final["result"]["total_queries"]
        live.stop()
        return live.service.data_dir, final

    def test_job_adopted_after_a_kill_before_its_final_save_is_charged_once(
        self, live_service
    ):
        data_dir, final = self._finish_one_job(live_service)
        # A kill after the job's spend was counted but before its final
        # save leaves a complete ledger under a submit-time job.json.
        store = JobStore(data_dir)
        done = store.load(final["job_id"])
        store.save(
            Job(job_id=done.job_id, spec=done.spec, created_at=done.created_at)
        )
        client = live_service(default_quota=10**9).client(api_key="alice")
        adopted = client.wait(final["job_id"], timeout=60)
        assert adopted["state"] == "done" and adopted["adopted"] is True
        spent = final["result"]["total_queries"]
        assert adopted["result"]["total_queries"] == spent
        assert client.quota()["used"] == spent

    def test_finished_jobs_count_after_a_restart_without_resume(self, live_service):
        _, final = self._finish_one_job(live_service)
        client = live_service(default_quota=10**9, resume=False).client(
            api_key="alice"
        )
        assert client.job(final["job_id"])["state"] == "done"
        assert client.quota()["used"] == final["result"]["total_queries"]


class TestRecordsFromOlderVersions:
    def test_job_record_with_shards_is_adopted_and_charged_once(
        self, live_service, tmp_path
    ):
        """``job.json`` of an older version carries ``shards`` in its spec;
        the record still loads, is adopted, runs on one pool and is
        charged once."""
        job_dir = tmp_path / "svc" / "jobs" / "job-oldshards01"
        job_dir.mkdir(parents=True)
        spec = {
            "workload": "fleet", "spec": FLEET_SPEC, "trials": 3, "seed": 7,
            "workers": 1, "shards": 2, "priority": None, "budget": 10**6,
            "api_key": "alice",
        }
        record = {
            "job_id": "job-oldshards01", "spec": spec, "state": "queued",
            "created_at": time.time(), "started_at": None, "finished_at": None,
            "completed_trials": 0, "adopted": False, "error": None,
            "result": None, "priority": 0,
        }
        (job_dir / "job.json").write_text(json.dumps(record))
        client = live_service(default_quota=10**9).client(api_key="alice")
        adopted = client.wait("job-oldshards01", timeout=60)
        assert adopted["state"] == "done" and adopted["adopted"] is True
        assert "shards" not in adopted["spec"]
        assert client.quota()["used"] == adopted["result"]["total_queries"] > 0

    def test_new_submission_with_shards_is_400(self, live_service):
        client = live_service().client()
        with pytest.raises(ServiceError) as exc:
            client.submit(workload="fleet", trials=1, spec=FLEET_SPEC, shards=2)
        assert exc.value.status == 400
        assert "shards" in str(exc.value)

    @pytest.mark.parametrize(
        "workload, workload_spec",
        [
            ("chow", {"n": 16, "m": 500, "block_size": 8192}),
            ("lmn", {"n": 8, "m": 400, "test_size": 200, "block_size": 4096}),
        ],
    )
    def test_job_record_with_block_size_is_adopted_and_charged_once(
        self, live_service, tmp_path, workload, workload_spec
    ):
        """An older ``chow`` or ``lmn`` record carries ``block_size`` in
        its workload spec; the record still loads without it, is adopted
        and is charged once."""
        job_id = f"job-old{workload}block"
        job_dir = tmp_path / "svc" / "jobs" / job_id
        job_dir.mkdir(parents=True)
        spec = {
            "workload": workload, "spec": workload_spec, "trials": 2,
            "seed": 7, "workers": 1, "priority": None, "budget": 10**6,
            "api_key": "alice",
        }
        record = {
            "job_id": job_id, "spec": spec, "state": "queued",
            "created_at": time.time(), "started_at": None, "finished_at": None,
            "completed_trials": 0, "adopted": False, "error": None,
            "result": None, "priority": 0,
        }
        (job_dir / "job.json").write_text(json.dumps(record))
        client = live_service(default_quota=10**9).client(api_key="alice")
        adopted = client.wait(job_id, timeout=60)
        assert adopted["state"] == "done" and adopted["adopted"] is True
        assert "block_size" not in adopted["spec"]["spec"]
        assert client.quota()["used"] == adopted["result"]["total_queries"] > 0

    def test_new_submission_with_block_size_is_400(self, live_service):
        client = live_service().client()
        with pytest.raises(ServiceError) as exc:
            client.submit(
                workload="chow", trials=1, spec={"n": 16, "m": 500, "block_size": 64}
            )
        assert exc.value.status == 400
        assert "block_size" in str(exc.value)

    @staticmethod
    def write_fleet_record(data_dir, job_id, tier):
        """An older version's queued ``job.json`` of a fleet job whose spec
        names a dtype ``tier``."""
        job_dir = data_dir / "jobs" / job_id
        job_dir.mkdir(parents=True)
        spec = {
            "workload": "fleet", "spec": {**FLEET_SPEC, "tier": tier},
            "trials": 3, "seed": 7, "workers": 1, "priority": None,
            "budget": 10**6, "api_key": "alice",
        }
        record = {
            "job_id": job_id, "spec": spec, "state": "queued",
            "created_at": time.time(), "started_at": None, "finished_at": None,
            "completed_trials": 0, "adopted": False, "error": None,
            "result": None, "priority": 0,
        }
        (job_dir / "job.json").write_text(json.dumps(record))

    @pytest.mark.parametrize("tier", ["float64", "int8"])
    def test_job_record_with_a_dtype_tier_is_adopted_and_charged_once(
        self, live_service, tmp_path, tier
    ):
        """An older fleet record names the ``float64`` or ``int8`` tier,
        whose values every fleet computes now: the record loads without
        it, is adopted, finishes and is charged once."""
        self.write_fleet_record(tmp_path / "svc", "job-oldtier01", tier)
        client = live_service(default_quota=10**9).client(api_key="alice")
        adopted = client.wait("job-oldtier01", timeout=60)
        assert adopted["state"] == "done" and adopted["adopted"] is True
        assert "tier" not in adopted["spec"]["spec"]
        assert client.quota()["used"] == adopted["result"]["total_queries"] > 0

    def test_finished_float32_job_is_served_and_charged(self, live_service, tmp_path):
        """A float32 job that finished before the tier was removed keeps
        its record, its values and its charge."""
        live = live_service(default_quota=10**9)
        client = live.client(api_key="alice")
        job = client.submit(
            workload="fleet", trials=3, seed=7, spec=FLEET_SPEC, budget=10**6
        )
        final = client.wait(job["job_id"], timeout=60)
        live.stop()
        path = tmp_path / "svc" / "jobs" / job["job_id"] / "job.json"
        record = json.loads(path.read_text())
        record["spec"]["spec"]["tier"] = "float32"
        path.write_text(json.dumps(record))
        client = live_service(default_quota=10**9).client(api_key="alice")
        served = client.job(job["job_id"])
        assert served["state"] == "done" and served["result"] == final["result"]
        assert "tier" not in served["spec"]["spec"]
        assert client.quota()["used"] == final["result"]["total_queries"] > 0

    def test_unfinished_float32_job_is_failed_not_finished(
        self, live_service, tmp_path
    ):
        """An unfinished float32 job cannot be finished on float64 values:
        it is adopted as failed, with an error naming the removed tier,
        and runs no trial."""
        self.write_fleet_record(tmp_path / "svc", "job-oldf32", "float32")
        client = live_service(default_quota=10**9).client(api_key="alice")
        failed = client.wait("job-oldf32", timeout=60)
        assert failed["state"] == "failed"
        assert "float32" in failed["error"]
        assert failed["completed_trials"] == 0 and failed["result"] is None
        quota = client.quota()
        assert quota["used"] == 0 and quota["reserved"] == 0
        assert not (tmp_path / "svc" / "jobs" / "job-oldf32" / "ledger.jsonl").exists()

    def test_new_submission_with_tier_is_400(self, live_service):
        client = live_service().client()
        with pytest.raises(ServiceError) as exc:
            client.submit(
                workload="fleet", trials=1, spec={**FLEET_SPEC, "tier": "int8"}
            )
        assert exc.value.status == 400
        assert "tier" in str(exc.value)


class TestCancellation:
    def test_cancel_queued_job(self, live_service):
        live = live_service(max_concurrent=1)
        client = live.client()
        blocker = client.submit(workload="skew", trials=20, spec=SLOW_SPEC)
        queued = client.submit(workload="fleet", trials=2, spec=FLEET_SPEC)
        cancelled = client.cancel(queued["job_id"])
        assert cancelled["state"] == "cancelled"
        assert client.job(queued["job_id"])["state"] == "cancelled"
        client.cancel(blocker["job_id"])

    def test_cancel_running_job_stops_early(self, live_service):
        live = live_service(max_concurrent=1)
        client = live.client()
        job = client.submit(workload="skew", trials=30, spec=SLOW_SPEC)
        # wait until it is actually running, then cancel
        deadline = time.monotonic() + 20
        while client.job(job["job_id"])["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(0.3)
        client.cancel(job["job_id"])
        final = client.wait(job["job_id"], timeout=30)
        assert final["state"] == "cancelled"
        assert final["result"]["cancelled"] is True
        assert final["result"]["completed"] < 30

    def test_cancel_terminal_job_is_409(self, live_service):
        client = live_service().client()
        job = client.submit(workload="fleet", trials=1, spec=FLEET_SPEC)
        client.wait(job["job_id"], timeout=60)
        with pytest.raises(ServiceError) as exc:
            client.cancel(job["job_id"])
        assert exc.value.status == 409


class TestPriorityScheduling:
    def test_small_job_jumps_queued_backlog(self, live_service):
        live = live_service(max_concurrent=1)
        client = live.client()
        blocker = client.submit(workload="skew", trials=20, spec=SLOW_SPEC)
        backlog = client.submit(workload="fleet", trials=17, spec=FLEET_SPEC)
        small = client.submit(workload="fleet", trials=2, spec=FLEET_SPEC)
        assert backlog["priority"] == 10 and small["priority"] == 0
        pending = live.call(live.service._queue.pending)
        assert pending == [small["job_id"], backlog["job_id"]]
        client.cancel(blocker["job_id"])
        # with the slot free, the interactive job finishes first
        final_small = client.wait(small["job_id"], timeout=60)
        assert final_small["state"] == "done"

    def test_list_endpoint_filters_by_state(self, live_service):
        live = live_service()
        client = live.client()
        job = client.submit(workload="fleet", trials=1, spec=FLEET_SPEC)
        client.wait(job["job_id"], timeout=60)
        done = client.jobs(state="done")
        assert [j["job_id"] for j in done] == [job["job_id"]]
        assert client.jobs(state="failed") == []


class TestAdoption:
    """Restart recovery: a killed server's incomplete jobs finish later.

    The persisted state of a crashed server is hand-built here — a
    ``job.json`` frozen in state ``running`` plus a partial trial ledger
    — then a fresh service is pointed at the data dir and must adopt,
    resume, and finish the job bit-identically.  (The subprocess
    SIGKILL version of this lives in the CI smoke job.)
    """

    def _plant_crashed_job(self, data_dir, trials_done: int) -> str:
        store = JobStore(data_dir)
        spec = JobSpec(workload="fleet", trials=5, seed=42, spec=FLEET_SPEC)
        job = Job(job_id="job-crashed0001", spec=spec, state="running")
        job.started_at = time.time()
        store.save(job)
        trial_fn, workload_spec = build_workload(spec.workload, spec.spec)
        ledger = RunLedger(store.job_dir(job.job_id))
        TrialRunner(workers=1).run(
            trial_fn, trials_done, spec.seed, {"spec": workload_spec}, ledger=ledger
        )
        return job.job_id

    def test_incomplete_job_is_adopted_resumed_and_bit_identical(
        self, live_service, tmp_path
    ):
        data_dir = tmp_path / "svc"
        job_id = self._plant_crashed_job(data_dir, trials_done=2)
        live = live_service()  # same tmp_path/svc data dir
        client = live.client()
        events = list(client.stream_events(job_id, timeout=60))
        trials = [e for e in events if e["event"] == "trial"]
        assert len(trials) == 5  # replayed trials still emit events
        assert sum(1 for e in trials if e["replayed"]) == 2
        final = client.wait(job_id, timeout=60)
        assert final["state"] == "done"
        assert final["adopted"] is True
        # the resumed digest equals a clean single-process run's digest
        fresh = client.submit(workload="fleet", trials=5, seed=42, spec=FLEET_SPEC)
        reference = client.wait(fresh["job_id"], timeout=60)
        assert final["result"]["digest"] == reference["result"]["digest"]

    def test_no_resume_flag_skips_adoption(self, live_service, tmp_path):
        data_dir = tmp_path / "svc"
        job_id = self._plant_crashed_job(data_dir, trials_done=1)
        live = live_service(resume=False)
        client = live.client()
        with pytest.raises(ServiceError) as exc:
            client.job(job_id)
        assert exc.value.status == 404

    def test_terminal_jobs_are_registered_but_not_requeued(
        self, live_service, tmp_path
    ):
        data_dir = tmp_path / "svc"
        store = JobStore(data_dir)
        job = Job(
            job_id="job-olddone0000",
            spec=JobSpec(workload="fleet", trials=1, spec=FLEET_SPEC),
            state="done",
        )
        store.save(job)
        live = live_service()
        client = live.client()
        assert client.job("job-olddone0000")["state"] == "done"
        assert live.call(len, live.service._queue) == 0


class TestJobRecordWrites:
    def test_served_job_writes_job_json_at_submit_and_finish(
        self, live_service, monkeypatch
    ):
        saves = []
        original = JobStore.save

        def counted(store, job):
            saves.append(job.state)
            original(store, job)

        monkeypatch.setattr(JobStore, "save", counted)
        live = live_service()
        client = live.client()
        job = client.submit(workload="fleet", trials=3, seed=7, spec=FLEET_SPEC)
        assert client.wait(job["job_id"], timeout=60)["state"] == "done"
        assert saves == ["queued", "done"]


class TestStop:
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_stop_closes_a_connection_mid_head(self, tmp_path):
        import gc

        from repro.service.app import ReproService
        from tests.service.conftest import LiveService

        live = LiveService(ReproService(tmp_path / "svc", port=0)).start()
        with socket.create_connection(
            (live.service.host, live.service.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nX-Half: ")
            deadline = time.monotonic() + 10
            while not live.call(lambda: len(live.service._connections)):
                assert time.monotonic() < deadline, "connection never accepted"
                time.sleep(0.01)
            live.stop()
            assert sock.recv(1024) == b""  # closed by the server, not reset
        gc.collect()  # a handler left pending would be torn down here


class TestServiceInfo:
    def test_service_json_written_with_bound_port(self, live_service):
        live = live_service()
        info = json.loads((live.service.data_dir / "service.json").read_text())
        assert info["port"] == live.service.port
        assert info["host"] == live.service.host
        import os

        assert info["pid"] == os.getpid()

    def test_healthz_counts_jobs(self, live_service):
        live = live_service()
        client = live.client()
        job = client.submit(workload="fleet", trials=1, spec=FLEET_SPEC)
        client.wait(job["job_id"], timeout=60)
        health = client.health()
        assert health["ok"] is True
        assert health["jobs"].get("done") == 1


def test_values_digest_matches_direct_runner_output(tmp_path):
    """The service digest is computable offline from a plain runner report."""
    from repro.runtime.runner import trial_record

    trial_fn, spec = build_workload("fleet", FLEET_SPEC)
    report = TrialRunner(workers=1).run(trial_fn, 3, 7, {"spec": spec})
    offline = values_digest([trial_record(r)["value"] for r in report.results])
    assert offline.startswith("sha256:")
