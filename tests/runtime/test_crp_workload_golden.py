"""Golden pins for the CRP-generation workloads: values and meter snapshots.

The ``curve`` trial draws its pool and held-out set through
``generate_crps``, and the ``chow`` trial draws its noiseless BR pool
the same way before one Chow estimate through the character kernel.
These pins hold the values digest and every per-trial meter snapshot
at one master seed, so a change to how CRPs are drawn, blocked or
evaluated, or to how the draw is metered, shows here.  The default
``chow`` spec (m = 20 000) and the n = 21, m = 17 000 case each span
three evaluation blocks of ``DEFAULT_BLOCK_SIZE`` rows, the last one
partial.
"""

import pytest

from repro.runtime.runner import TrialRunner, trial_record
from repro.runtime.workloads import (
    ChowTrialSpec,
    LearningCurveSpec,
    chow_brpuf_trial,
    learning_curve_trial,
)
from repro.service.jobs import values_digest

MASTER_SEED = 5
TRIALS = 2


def _snapshot(rows, n, distinct=None):
    """One EX record of ``rows`` challenges of length ``n`` and their
    int8 responses: ``n + 1`` bytes per CRP."""
    distinct = rows if distinct is None else distinct
    crp_bytes = rows * (n + 1)
    zero = {"batches": 0, "crp_bytes": 0, "examples": 0, "queries": 0}
    ex = {"batches": 1, "crp_bytes": crp_bytes, "examples": rows, "queries": rows}
    return {
        "challenge_rows": rows,
        "counters": {},
        "crp_bytes": crp_bytes,
        "distinct_challenges": distinct,
        "distinct_saturated": False,
        "queries": {"eq": zero, "ex": ex, "mq": zero, "sq": zero},
        "repeated_challenges": rows - distinct,
        "total_queries": rows,
    }


CASES = {
    # The held-out draw is unmetered: only the 1600-CRP pool is counted.
    "curve": (
        learning_curve_trial,
        LearningCurveSpec(),
        "sha256:7129633f4f7be2abaab219d45c4232b49dbd01b2e3ffb47465b82dc8ecc5a2f2",
        [_snapshot(1600, 48), _snapshot(1600, 48)],
    ),
    "chow-default": (
        chow_brpuf_trial,
        ChowTrialSpec(),
        "sha256:96de0eaab458092d2cf51ca4b64e0a339daacd1f4ca8a15598e46773b957b302",
        [_snapshot(20_000, 64), _snapshot(20_000, 64)],
    ),
    # 2**21 challenges are few enough that a 17 000 draw repeats some.
    "chow-n21": (
        chow_brpuf_trial,
        ChowTrialSpec(n=21, m=17_000),
        "sha256:14cc9a681b70a53519883c24499de6818cdcb6f38a89ca3a4654914c00087c05",
        [_snapshot(17_000, 21, 16_936), _snapshot(17_000, 21, 16_934)],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_crp_workload_digest_and_snapshots(name):
    trial, spec, digest, snapshots = CASES[name]
    report = TrialRunner().run(trial, TRIALS, MASTER_SEED, {"spec": spec})
    assert values_digest([trial_record(r)["value"] for r in report.results]) == digest
    assert [r.telemetry["queries"] for r in report.results] == snapshots
