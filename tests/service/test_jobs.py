"""The job model: workload registry, spec validation, persistence, queue."""

import copy
import dataclasses
import json

import pytest

from repro.runtime import workloads
from repro.service.jobs import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    SMALL_JOB_TRIALS,
    Job,
    JobSpec,
    JobStore,
    UnknownWorkload,
    build_workload,
    new_job_id,
    values_digest,
)
from repro.service.queue import PriorityJobQueue


class TestBuildWorkload:
    def test_every_registered_workload_constructs_with_defaults(self):
        from repro.service.jobs import WORKLOADS

        for name in WORKLOADS:
            trial_fn, spec = build_workload(name, {})
            assert callable(trial_fn)

    def test_spec_overrides_apply(self):
        _, spec = build_workload("fleet", {"size": 9, "m": 32})
        assert isinstance(spec, workloads.FleetEvalSpec)
        assert (spec.size, spec.m) == (9, 32)

    def test_lists_coerce_to_tuples_for_tuple_fields(self):
        _, spec = build_workload("active", {"budgets": [32, 64]})
        assert spec.budgets == (32, 64)

    def test_union_fields_take_the_first_member_that_fits(self):
        _, spec = build_workload("fleet", {"family": "xor", "size": 2, "k": [1, 3]})
        assert spec.k == (1, 3)
        assert build_workload("fleet", {"k": 2})[1].k == 2

    def test_unknown_workload(self):
        with pytest.raises(UnknownWorkload, match="unknown workload"):
            build_workload("nonsense", {})

    def test_unknown_spec_field_is_named_in_the_error(self):
        with pytest.raises(ValueError, match="num_instances"):
            build_workload("fleet", {"num_instances": 4})

    def test_invalid_spec_value_propagates_dataclass_validation(self):
        with pytest.raises(ValueError):
            build_workload("skew", {"size": -1})

    @pytest.mark.parametrize(
        "name, spec",
        [
            ("fleet", {"n": "64"}),
            ("curve", {"budgets": 5}),
            ("curve", {"budgets": [40, "80"]}),
            ("chow", {"n": 64.5}),
            ("fleet", {"repetitions": True}),
            ("skew", {"slow_seconds": "slow"}),
            ("fault", {"once_dir": 3}),
            ("fleet", {"k": "4"}),
        ],
    )
    def test_wrong_value_type_is_a_value_error(self, name, spec):
        (field,) = spec
        with pytest.raises(ValueError, match=field):
            build_workload(name, spec)

    def test_ints_coerce_to_floats_for_float_fields(self):
        _, spec = build_workload("skew", {"slow_seconds": 1})
        assert type(spec.slow_seconds) is float and spec.slow_seconds == 1.0


class TestJobSpec:
    def test_defaults_validate(self):
        spec = JobSpec(workload="fleet")
        assert spec.trials == 4 and spec.api_key == "anonymous"

    def test_invalid_trials_and_budget_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(workload="fleet", trials=0)
        with pytest.raises(ValueError):
            JobSpec(workload="fleet", budget=-1)

    def test_bad_workload_rejected_at_spec_construction(self):
        with pytest.raises(ValueError):
            JobSpec(workload="nope")

    def test_priority_defaults_split_small_vs_batch(self):
        small = JobSpec(workload="fleet", trials=SMALL_JOB_TRIALS)
        big = JobSpec(workload="fleet", trials=SMALL_JOB_TRIALS + 1)
        assert small.effective_priority == PRIORITY_INTERACTIVE
        assert big.effective_priority == PRIORITY_BATCH

    def test_explicit_priority_wins(self):
        spec = JobSpec(workload="fleet", trials=1000, priority=-5)
        assert spec.effective_priority == -5

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="bogus"):
            JobSpec.from_dict({"workload": "fleet", "bogus": 1})

    def test_round_trip(self):
        spec = JobSpec(workload="skew", trials=3, seed=7, budget=100)
        assert JobSpec.from_dict(spec.as_dict()) == spec


class TestJobPersistence:
    def test_save_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job(job_id=new_job_id(), spec=JobSpec(workload="fleet", trials=2))
        job.state = "running"
        job.completed_trials = 1
        store.save(job)
        loaded = store.load(job.job_id)
        assert loaded == job

    def test_job_dir_is_the_run_dir(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.job_dir("job-abc") == tmp_path / "jobs" / "job-abc"

    def test_save_is_atomic_no_tmp_residue(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job(job_id="job-x", spec=JobSpec(workload="fleet"))
        for _ in range(3):
            store.save(job)
        names = {p.name for p in store.job_dir("job-x").iterdir()}
        assert names == {"job.json"}

    def test_load_all_skips_torn_job_json(self, tmp_path):
        store = JobStore(tmp_path)
        good = Job(job_id="job-good", spec=JobSpec(workload="fleet"))
        store.save(good)
        torn = store.job_dir("job-torn")
        torn.mkdir(parents=True)
        (torn / "job.json").write_text('{"job_id": "job-torn", "spe')
        jobs = store.load_all()
        assert set(jobs) == {"job-good"}

    def test_as_dict_reports_effective_priority(self):
        job = Job(job_id="job-p", spec=JobSpec(workload="fleet", trials=500))
        assert job.as_dict()["priority"] == PRIORITY_BATCH


def finished_job() -> Job:
    """A job record with every field set, nested values included."""
    spec = JobSpec(
        workload="fleet",
        spec={"size": 4, "k": [2, 1, 3, 1], "family": "xor"},
        trials=2,
        seed=9,
        budget=10_000,
        api_key="k-1",
    )
    return Job(
        job_id="job-full",
        spec=spec,
        state="done",
        created_at=1.5,
        started_at=2.5,
        finished_at=3.5,
        completed_trials=2,
        adopted=True,
        result={"digest": "sha256:00", "values": [[0.5, 0.25, 1.0], [0.4, 0.5, 0.9]]},
    )


class TestJobRecordView:
    """``as_dict`` builds the record directly instead of deep-copying it."""

    def test_equals_the_dataclasses_asdict_view(self):
        for job in (finished_job(), Job(job_id="job-q", spec=JobSpec("skew"))):
            old = dataclasses.asdict(job)
            old["spec"] = dataclasses.asdict(job.spec)
            old["priority"] = job.spec.effective_priority
            assert job.as_dict() == old
            assert json.dumps(job.as_dict(), sort_keys=True) == json.dumps(
                old, sort_keys=True
            )
            assert job.spec.as_dict() == dataclasses.asdict(job.spec)

    def test_survives_a_from_dict_round_trip(self):
        job = finished_job()
        assert Job.from_dict(job.as_dict()) == job
        assert Job.from_dict(json.loads(json.dumps(job.as_dict()))) == job

    def test_shares_no_dict_with_the_job(self):
        job = finished_job()
        before = copy.deepcopy(job)
        payload = job.as_dict()
        assert payload["spec"]["spec"] is not job.spec.spec
        assert payload["result"] is not job.result
        payload["state"] = "failed"
        payload["spec"]["trials"] = 99
        payload["spec"]["spec"]["size"] = 99
        payload["spec"]["spec"]["extra"] = 1
        payload["result"]["digest"] = "sha256:ff"
        payload["result"].pop("values")
        assert job == before


class TestValuesDigest:
    def test_digest_is_order_and_value_sensitive(self):
        a = values_digest([[1.0, 2.0], [3.0]])
        assert a == values_digest([[1.0, 2.0], [3.0]])
        assert a != values_digest([[3.0], [1.0, 2.0]])
        assert a != values_digest([[1.0, 2.0], [3.5]])

    def test_digest_shape(self):
        assert values_digest([]).startswith("sha256:")


class TestPriorityJobQueue:
    def test_lower_priority_value_pops_first(self):
        q = PriorityJobQueue()
        q.push("batch", 10)
        q.push("interactive", 0)
        assert q.pop() == "interactive"
        assert q.pop() == "batch"
        assert q.pop() is None

    def test_fifo_within_a_tier(self):
        q = PriorityJobQueue()
        for name in ("a", "b", "c"):
            q.push(name, 5)
        assert [q.pop(), q.pop(), q.pop()] == ["a", "b", "c"]

    def test_interactive_job_jumps_a_deep_backlog(self):
        q = PriorityJobQueue()
        for i in range(50):
            q.push(f"atlas-{i}", 10)
        q.push("what-if", 0)
        assert q.pop() == "what-if"

    def test_remove_is_lazy_but_effective(self):
        q = PriorityJobQueue()
        q.push("a", 0)
        q.push("b", 0)
        assert q.remove("a") is True
        assert q.remove("a") is False  # already gone
        assert "a" not in q
        assert len(q) == 1
        assert q.pop() == "b"
        assert q.pop() is None

    def test_pending_preview_matches_pop_order(self):
        q = PriorityJobQueue()
        q.push("late-batch", 10)
        q.push("first", 0)
        q.push("second", 0)
        q.remove("second")
        assert q.pending() == ["first", "late-batch"]

    def test_duplicate_push_rejected(self):
        q = PriorityJobQueue()
        q.push("a", 0)
        with pytest.raises(ValueError):
            q.push("a", 0)

    def test_push_after_remove_works(self):
        q = PriorityJobQueue()
        q.push("a", 0)
        q.remove("a")
        q.push("a", 3)
        assert q.pop() == "a"
