"""The kernel-backend seam: fakes prove the fleet layer never bypasses it.

The seam only earns its keep if *every* stacked GEMM actually goes
through :func:`repro.kernels.backend.get_backend` — a single hard-coded
``np.matmul`` in the fleet layer would silently defeat backend
swapping.  Two fakes enforce that:

* a **recording** backend (delegates to numpy, logs every call) shows
  the Fleet API, the batched metrics, and the ``fleet_eval`` workload
  each issue their multiplies through the seam;
* a **sentinel** backend (returns a constant plane) shows the responses
  callers see are *computed from* the backend's output, not from some
  parallel non-seam path.
"""

import numpy as np
import pytest

from repro.kernels.backend import (
    KernelBackend,
    NumpyBackend,
    get_backend,
    set_backend,
    use_backend,
)
from repro.pufs.fleet import Fleet, FleetSpec
from repro.pufs.metrics import fleet_reliability, fleet_uniqueness
from repro.runtime.runner import TrialContext
from repro.runtime.workloads import FleetEvalSpec, fleet_eval_trial


class RecordingBackend(KernelBackend):
    """Delegates to numpy but logs every gemm's operand shapes/dtypes."""

    name = "recording"

    def __init__(self):
        self.calls = []
        self._inner = NumpyBackend()

    def gemm(self, features, weights):
        self.calls.append(
            (features.shape, str(features.dtype), weights.shape, str(weights.dtype))
        )
        return self._inner.gemm(features, weights)


class SentinelBackend(KernelBackend):
    """Ignores its inputs and returns a constant margin plane."""

    name = "sentinel"

    def __init__(self, fill):
        self.fill = fill

    def gemm(self, features, weights):
        return np.full(
            (features.shape[0], weights.shape[1]), self.fill, dtype=np.float64
        )


def challenges(m, n, seed=0):
    rng = np.random.default_rng(seed)
    return (1 - 2 * rng.integers(0, 2, size=(m, n))).astype(np.int8)


# ----------------------------------------------------------------------
# Seam routing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", ["arbiter", "xor", "br", "ltf"])
def test_fleet_eval_routes_through_seam(family):
    fleet = Fleet.build(FleetSpec(family, 12, 4, k=3 if family == "xor" else 1), 5)
    c = challenges(40, 12)
    expected = fleet.eval(c)
    recorder = RecordingBackend()
    with use_backend(recorder):
        plane = fleet.eval(c)
    assert len(recorder.calls) == 1
    shape, f_dtype, w_shape, w_dtype = recorder.calls[0]
    assert shape[0] == 40 and w_shape[0] == shape[1]
    assert f_dtype == w_dtype == "float64"
    assert np.array_equal(plane, expected)


def test_fleet_metrics_route_through_seam():
    fleet = Fleet.build(FleetSpec("arbiter", 12, 5, noise_sigma=0.2), 9)
    recorder = RecordingBackend()
    with use_backend(recorder):
        fleet_uniqueness(fleet, m=64, rng=np.random.default_rng(0))
        calls_after_uniqueness = len(recorder.calls)
        fleet_reliability(fleet, m=32, repetitions=3, rng=np.random.default_rng(1))
    # uniqueness = one margin GEMM (the statistic itself is counted from
    # row sums); reliability adds one margin GEMM per measurement pass
    assert calls_after_uniqueness == 1
    assert len(recorder.calls) > calls_after_uniqueness


def test_fleet_workload_routes_through_seam(tmp_path):
    spec = FleetEvalSpec(family="xor", n=10, size=4, k=2, m=50, repetitions=3)
    ctx = TrialContext(index=0, seed=np.random.SeedSequence(7))
    recorder = RecordingBackend()
    with use_backend(recorder):
        result = fleet_eval_trial(ctx, spec)
    assert recorder.calls, "workload evaluated a fleet without touching the seam"
    assert result.shape == (3,)

    # the cached path must route its generation GEMM through the seam too
    recorder = RecordingBackend()
    with use_backend(recorder):
        cached = fleet_eval_trial(
            TrialContext(index=0, seed=np.random.SeedSequence(7)),
            spec,
            cache_dir=str(tmp_path),
        )
    assert recorder.calls
    assert np.allclose(result, cached, equal_nan=True)


def test_noiseless_fleet_trial_gemms_miss_one_hit_none(tmp_path):
    """A noiseless store miss evaluates the fleet once; a hit reuses the
    stored plane and computes every statistic without a GEMM."""
    spec = FleetEvalSpec(family="xor", n=10, size=6, k=2, m=40, noise_sigma=0.0)
    values = []
    for expected_calls in (1, 0):
        recorder = RecordingBackend()
        with use_backend(recorder):
            values.append(
                fleet_eval_trial(
                    TrialContext(index=0, seed=np.random.SeedSequence(3)),
                    spec,
                    cache_dir=str(tmp_path),
                )
            )
        assert len(recorder.calls) == expected_calls
    assert np.array_equal(values[0], values[1])


def test_sentinel_backend_controls_responses():
    fleet = Fleet.build(FleetSpec("arbiter", 8, 3), 2)
    c = challenges(10, 8)
    with use_backend(SentinelBackend(-1.0)):
        assert np.all(fleet.eval(c) == -1)
    with use_backend(SentinelBackend(0.0)):  # tie rule: 0 maps to +1
        assert np.all(fleet.eval(c) == 1)


# ----------------------------------------------------------------------
# Installation semantics
# ----------------------------------------------------------------------
def test_set_backend_rejects_non_backends():
    with pytest.raises(TypeError):
        set_backend(object())
    with pytest.raises(TypeError):
        with use_backend("numpy"):
            pass


def test_use_backend_restores_on_exit_and_error():
    default = get_backend()
    fake = SentinelBackend(1.0)
    with use_backend(fake):
        assert get_backend() is fake
    assert get_backend() is default
    with pytest.raises(RuntimeError):
        with use_backend(fake):
            raise RuntimeError("boom")
    assert get_backend() is default


def test_set_backend_none_restores_default():
    fake = SentinelBackend(1.0)
    set_backend(fake)
    try:
        assert get_backend() is fake
    finally:
        set_backend(None)
    assert isinstance(get_backend(), NumpyBackend)


def test_gemm_validates_shapes():
    backend = NumpyBackend()
    with pytest.raises(ValueError):
        backend.gemm(np.ones(4), np.ones((4, 2)))
    with pytest.raises(ValueError):
        backend.gemm(np.ones((3, 4)), np.ones((5, 2)))
