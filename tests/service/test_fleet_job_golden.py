"""Golden pins for fleet jobs: values digest and every per-trial meter snapshot.

The served fleet job is the docs/SERVICE.md client example (``fleet``,
8 trials, ``size=64, m=256, n=32``).  Its digest and its ledger meter
snapshots must not move when the fleet build, the noisy measurement
kernels or the query meter are reworked: a changed digest means a
changed noise stream or seed fan-out, a changed snapshot means changed
query accounting.  The three single-trial pins cover the other noisy
fleet families (mixed-k XOR, BR, LTF) at a noise level that flips many
responses, so the reliability values are sensitive to every draw.

The digests pin the band-limited noise stream (noise drawn only for
chains within ``NOISE_BAND`` sigmas of the threshold).  The BR pin
predates it: its trial counts 16 vote/measurement disagreements in 1000
cells under both the band-limited and the dense stream, so its
reliability, and its digest, did not move.

Uniqueness is the exact mean pairwise distance, rounded once (counted
from per-row sums).  The mixed-XOR and LTF pins (m = 200) were re-pinned
when it replaced the Gram-matrix mean, whose per-pair float quotients
put their uniqueness 1 and 2 ulp off the exact value (0.5000000000000001
→ 0.5, 0.49142857142857155 → 0.49142857142857144); the reliability and
uniformity values did not move.  The served job (m = 256, a power of
two) and the BR pin were exact before and kept their digests.
"""

import threading

import pytest

from repro.runtime.runner import TrialRunner, trial_record
from repro.runtime.workloads import FleetEvalSpec, fleet_eval_trial
from repro.service.app import run_job_sync
from repro.service.jobs import Job, JobSpec, JobStore, values_digest
from repro.telemetry.ledger import RunLedger

SERVICE_EXAMPLE = {"size": 64, "m": 256, "n": 32}


def _snapshot(rows, crp_bytes, queries, batches=3):
    """A fleet trial's meter snapshot: every record re-observes one
    ``rows``-row challenge matrix, so all but the first pass repeat."""
    distinct = rows // batches
    ex = {
        "batches": batches,
        "crp_bytes": crp_bytes,
        "examples": queries,
        "queries": queries,
    }
    zero = {"batches": 0, "crp_bytes": 0, "examples": 0, "queries": 0}
    return {
        "challenge_rows": rows,
        "counters": {},
        "crp_bytes": crp_bytes,
        "distinct_challenges": distinct,
        "distinct_saturated": False,
        "queries": {"eq": zero, "ex": ex, "mq": zero, "sq": zero},
        "repeated_challenges": rows - distinct,
        "total_queries": queries,
    }


# 256 challenges x 64 instances x (1 ideal + 5 votes + 1 measurement).
SERVICE_SNAPSHOT = _snapshot(rows=768, crp_bytes=139264, queries=114688)

SERVICE_DIGESTS = {
    7: "sha256:e8c32093d777cbedf59ac06de2260c096bc2040194baa464e364ebefef4bac03",
    41: "sha256:7996b3fe36ae19974298dc589852dfa1be898a417d15859c9e88dc40f8d112b0",
}


@pytest.mark.parametrize("seed", sorted(SERVICE_DIGESTS))
def test_service_example_job_digest_and_ledger_snapshots(tmp_path, seed):
    store = JobStore(tmp_path)
    job = Job(
        job_id=f"job-golden{seed:05d}",
        spec=JobSpec(workload="fleet", trials=8, seed=seed, spec=SERVICE_EXAMPLE),
    )
    store.save(job)
    job_dir = store.job_dir(job.job_id)
    result = run_job_sync(job, job_dir, lambda _result: None, threading.Event())

    assert result["completed"] == 8 and result["failed"] == 0
    assert result["digest"] == SERVICE_DIGESTS[seed]
    assert result["total_queries"] == 8 * SERVICE_SNAPSHOT["total_queries"]
    assert "quota" not in RunLedger(job_dir).read_meta()  # job.json holds spend
    records = sorted(RunLedger(job_dir).read(), key=lambda r: r["index"])
    assert [r["index"] for r in records] == list(range(8))
    for record in records:
        assert record["telemetry"]["queries"] == SERVICE_SNAPSHOT


NOISY_FAMILY_TRIALS = {
    "mixed-xor": (
        FleetEvalSpec(
            family="xor",
            n=24,
            size=6,
            k=(1, 2, 3, 2, 4, 1),
            noise_sigma=0.3,
            m=200,
            repetitions=7,
        ),
        "sha256:9db1658f75488b05f5e726ed0288eb9d9be6c41c2ccfa32f9d37d644e975243a",
        _snapshot(rows=600, crp_bytes=25200, queries=10800),
    ),
    "br": (
        FleetEvalSpec(
            family="br", n=16, size=5, noise_sigma=0.3, m=200, repetitions=5
        ),
        "sha256:2e4561b1edba4e84f816ecf215d457f7fcffaa8ce0d1e7b2896908cef154f1df",
        _snapshot(rows=600, crp_bytes=16600, queries=7000),
    ),
    "ltf": (
        FleetEvalSpec(
            family="ltf", n=20, size=7, noise_sigma=0.3, m=200, repetitions=6
        ),
        "sha256:e67b95af6f3509f9f8b281edac3dfef420caa2e1b99261c6f4a4bcefd1c79bf5",
        _snapshot(rows=600, crp_bytes=23200, queries=11200),
    ),
}


@pytest.mark.parametrize("name", sorted(NOISY_FAMILY_TRIALS))
def test_noisy_family_trial_digest_and_snapshot(name):
    spec, digest, snapshot = NOISY_FAMILY_TRIALS[name]
    report = TrialRunner().run(fleet_eval_trial, 1, 3, {"spec": spec})
    (result,) = report.results
    assert values_digest([trial_record(result)["value"]]) == digest
    assert result.telemetry["queries"] == snapshot
