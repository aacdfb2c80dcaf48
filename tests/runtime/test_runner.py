"""TrialRunner: execution semantics and the worker-count determinism
contract (the regression test the tentpole must honour)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import RetryPolicy, TrialContext, TrialRunner
from repro.runtime.pool import default_chunk
from repro.runtime.workloads import (
    FaultInjectionSpec,
    LearningCurveSpec,
    fault_injection_trial,
    learning_curve_trial,
)


def draw_trial(ctx: TrialContext, size: int = 8) -> np.ndarray:
    """A cheap picklable trial: a vector from the trial's own stream."""
    return ctx.rng.random(size)


def indexed_trial(ctx: TrialContext) -> int:
    return ctx.index


def test_workers_1_vs_4_bit_identical():
    """The contract: worker count must not change any trial's result."""
    serial = TrialRunner(workers=1).run(draw_trial, 12, master_seed=2718)
    pooled = TrialRunner(workers=4).run(draw_trial, 12, master_seed=2718)
    assert len(serial.results) == len(pooled.results) == 12
    for a, b in zip(serial.values(), pooled.values()):
        np.testing.assert_array_equal(a, b)


def test_workers_1_vs_4_bit_identical_learning_workload():
    """Same contract on a real learning-curve trial (PUF + CRPs + fit)."""
    spec = LearningCurveSpec(n=16, budgets=(40, 80), test_size=200)
    kwargs = {"spec": spec}
    serial = TrialRunner(workers=1).run(
        learning_curve_trial, 4, master_seed=31, trial_kwargs=kwargs
    )
    pooled = TrialRunner(workers=4).run(
        learning_curve_trial, 4, master_seed=31, trial_kwargs=kwargs
    )
    for a, b in zip(serial.values(), pooled.values()):
        np.testing.assert_array_equal(a, b)


def test_results_ordered_by_index():
    report = TrialRunner(workers=2).run(indexed_trial, 9, master_seed=0)
    assert [r.index for r in report.results] == list(range(9))
    assert report.values() == list(range(9))


def test_master_seed_changes_results():
    a = TrialRunner(workers=1).run(draw_trial, 3, master_seed=1)
    b = TrialRunner(workers=1).run(draw_trial, 3, master_seed=2)
    assert not any(
        np.array_equal(x, y) for x, y in zip(a.values(), b.values())
    )


def test_trials_are_mutually_independent():
    report = TrialRunner(workers=1).run(draw_trial, 6, master_seed=5)
    values = report.values()
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert not np.array_equal(values[i], values[j])


def test_unpicklable_fn_falls_back_to_serial_with_warning():
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        report = TrialRunner(workers=2).run(
            lambda ctx: float(ctx.rng.random()), 3, master_seed=4
        )
    assert report.executor == "serial"
    # And the fallback still honours the seed fan-out.
    reference = TrialRunner(workers=1).run(
        lambda ctx: float(ctx.rng.random()), 3, master_seed=4
    )
    assert report.values() == reference.values()


#: Block the process-pool module the way a host without it would, then run
#: the same trials serially and with two workers.
_NO_POOL_MODULE = """
import sys, warnings
sys.modules["concurrent.futures.process"] = None
from repro.runtime.runner import TrialRunner
from repro.runtime.workloads import FaultInjectionSpec, fault_injection_trial
kwargs = {"spec": FaultInjectionSpec(size=2)}
serial = TrialRunner(workers=1).run(fault_injection_trial, 3, 7, kwargs)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    pooled = TrialRunner(workers=2).run(fault_injection_trial, 3, 7, kwargs)
assert (serial.executor, pooled.executor) == ("serial", "serial")
assert [v.tolist() for v in serial.values()] == [v.tolist() for v in pooled.values()]
warned = [str(w.message) for w in caught if w.category is RuntimeWarning]
assert any("falling back to serial" in m for m in warned), warned
print("NO-POOL OK")
"""


def test_serial_run_needs_no_process_pool_module():
    """``workers=1`` never imports ``concurrent.futures.process``; with
    two workers the missing module takes the serial fallback and its
    warning, with the serial values."""
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_POOL_MODULE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "NO-POOL OK" in proc.stdout


def test_trial_kwargs_are_passed(tmp_path):
    report = TrialRunner(workers=1).run(
        draw_trial, 2, master_seed=0, trial_kwargs={"size": 3}
    )
    assert all(v.shape == (3,) for v in report.values())


def test_report_timings_and_summary():
    report = TrialRunner(workers=1).run(draw_trial, 5, master_seed=0)
    assert report.trial_seconds().shape == (5,)
    assert (report.trial_seconds() >= 0).all()
    assert report.wall_seconds > 0
    assert report.total_trial_seconds == pytest.approx(
        float(np.sum(report.trial_seconds()))
    )
    assert "5 trials" in report.summary()


def test_context_rng_is_cached_and_spawnable():
    ctx = TrialContext(0, np.random.SeedSequence(8))
    assert ctx.rng is ctx.rng
    streams = ctx.spawn_rngs(3)
    draws = [g.random() for g in streams]
    assert len(set(draws)) == 3


def test_invalid_construction():
    with pytest.raises(ValueError):
        TrialRunner(workers=0)
    with pytest.raises(ValueError):
        TrialRunner(workers=2, chunk_size=0)
    with pytest.raises(ValueError):
        TrialRunner().run(draw_trial, 0)


def test_pool_matches_serial_bit_for_bit():
    kwargs = {"spec": FaultInjectionSpec(size=3)}
    pooled = TrialRunner(workers=3).run(
        fault_injection_trial, 8, master_seed=21, trial_kwargs=kwargs
    )
    serial = TrialRunner(workers=1).run(
        fault_injection_trial, 8, master_seed=21, trial_kwargs=kwargs
    )
    assert (pooled.executor, serial.executor) == ("process-pool", "serial")
    assert [r.index for r in pooled.results] == list(range(8))
    for a, b in zip(pooled.values(), serial.values()):
        np.testing.assert_array_equal(a, b)


def test_more_workers_than_trials():
    kwargs = {"spec": FaultInjectionSpec(size=2)}
    report = TrialRunner(workers=5).run(
        fault_injection_trial, 3, master_seed=4, trial_kwargs=kwargs
    )
    reference = TrialRunner(workers=1).run(
        fault_injection_trial, 3, master_seed=4, trial_kwargs=kwargs
    )
    assert all(r.ok for r in report.results)
    for a, b in zip(report.values(), reference.values()):
        np.testing.assert_array_equal(a, b)


def test_deterministic_trial_error_surfaces_once_on_a_pool():
    kwargs = {"spec": FaultInjectionSpec(size=2, fail_indices=(2,))}
    report = TrialRunner(workers=2).run(
        fault_injection_trial, 4, master_seed=1, trial_kwargs=kwargs,
        retry=RetryPolicy(max_attempts=4, base_delay=0.0),
    )
    failed = report.results[2]
    assert not failed.ok
    assert failed.error.category == "trial"
    assert failed.attempts == 1  # deterministic errors are never retried
    assert all(r.ok for i, r in enumerate(report.results) if i != 2)


def test_default_chunk_turns_every_worker_over():
    assert default_chunk(0, 4) == 1
    assert default_chunk(800, 8) == 13  # ceil(800 / 64)
    # Small enough that every worker takes several chunks.
    assert default_chunk(800, 8) * 8 * 8 >= 800
