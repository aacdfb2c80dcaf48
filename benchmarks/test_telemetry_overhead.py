"""Telemetry must be (nearly) free: < 5% overhead on the E4 kernel path,
and distinct tracking must stay cheap on a small fleet trial.

The instrumentation design promises that metering and tracing cost one
context-variable read when off, and one span + a handful of counter
bumps per *call* (never per block) when on.  This benchmark pins that
promise on the acceptance workload — the E4 LMN configuration (12-bit
XOR Arbiter PUF features, degree 3, 25 000 CRPs) driven through the
character kernel — by timing the identical fit + eval sweep with
telemetry fully off and fully on (meter + span recorder + ledger-style
snapshot) and asserting the slowdown stays under 5%.

Best-of-N timing on an interleaved schedule (off, on, off, on, ...)
keeps the comparison robust to thermal/scheduler drift.

The E4 path amortises metering over 25 000 rows; a small fleet trial
(the service example: 256 challenges of 32 bits, observed three times)
does not.  The small-trial case pins distinct tracking there: the
sorted-array ``QueryMeter._observe`` must cost at most half of the
frozen set loop (``naive_observe``, reached through the
``frozen_reference`` fixture).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import CharacterBasis
from repro.pufs.arbiter import parity_transform
from repro.pufs.crp import uniform_challenges
from repro.pufs.xor_arbiter import XORArbiterPUF
from repro.telemetry import QueryMeter, SpanRecorder, metered, recording

RESULTS_DIR = Path(__file__).parent / "results"

N, K, DEGREE, M = 12, 2, 3, 25_000
REPEATS = 5
MAX_OVERHEAD = 0.05


def e4_sweep(x, y, basis):
    """The instrumented hot path: coefficient fit + expansion eval."""
    coeffs = basis.estimate_coefficients(x, y)
    return basis.evaluate_expansion(x, coeffs)


def best_of(fn, repeats, setup_cm):
    best = float("inf")
    for _ in range(repeats):
        with setup_cm() as _:
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    return best


def test_telemetry_overhead_under_5_percent(report):
    rng = np.random.default_rng(7)
    puf = XORArbiterPUF(N, K, rng)
    challenges = uniform_challenges(M, N, rng)
    x = parity_transform(challenges)[:, :-1].astype(np.int8)
    y = puf.eval(challenges)
    basis = CharacterBasis.low_degree(N, DEGREE)
    e4_sweep(x, y, basis)  # warm caches/allocators before timing

    import contextlib

    @contextlib.contextmanager
    def telemetry_off():
        yield None

    @contextlib.contextmanager
    def telemetry_on():
        meter = QueryMeter()
        spans = SpanRecorder()
        with metered(meter), recording(spans):
            yield meter
        meter.snapshot()  # the per-trial ledger serialisation cost

    # Interleave off/on samples so slow drift hits both arms equally.
    off = float("inf")
    on = float("inf")
    for _ in range(REPEATS):
        off = min(off, best_of(lambda: e4_sweep(x, y, basis), 1, telemetry_off))
        on = min(on, best_of(lambda: e4_sweep(x, y, basis), 1, telemetry_on))

    overhead = on / off - 1.0
    text = "\n".join(
        [
            "telemetry overhead on the E4 kernel sweep "
            f"(n={N}, k={K}, degree={DEGREE}, m={M}, best of {REPEATS}):",
            f"  off: {off * 1e3:.2f} ms",
            f"  on:  {on * 1e3:.2f} ms  (meter + span recorder + snapshot)",
            f"  overhead: {overhead * 100:+.2f}%  (budget {MAX_OVERHEAD * 100:.0f}%)",
        ]
    )
    report("telemetry_overhead", text)
    assert overhead < MAX_OVERHEAD, (
        f"telemetry overhead {overhead * 100:.2f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% on the E4 kernel sweep"
    )


#: The serve example trial's metered shape: 256 challenges of 32 bits,
#: observed once by ``Fleet.eval`` and twice by ``Fleet.vote_and_measure``.
SMALL_M, SMALL_N, SMALL_OBSERVES = 256, 32, 3
SMALL_REPEATS = 200
MAX_SMALL_RATIO = 0.5


def test_small_trial_observe_under_half_the_frozen_loop(report, frozen_reference):
    """Distinct tracking at small trial sizes: the sorted-array ``_observe``
    must cost at most half of the frozen set loop it replaced."""
    naive_observe = frozen_reference.naive_observe
    x = uniform_challenges(SMALL_M, SMALL_N, np.random.default_rng(3))

    def sorted_array():
        meter = QueryMeter()
        for _ in range(SMALL_OBSERVES):
            meter._observe(x)
        return meter.distinct_challenges

    def frozen_loop():
        seen = set()
        for _ in range(SMALL_OBSERVES):
            naive_observe(seen, x, QueryMeter().distinct_cap)
        return len(seen)

    assert sorted_array() == frozen_loop() == SMALL_M
    new = old = float("inf")
    for _ in range(SMALL_REPEATS):  # interleaved best-of-N
        t0 = time.perf_counter()
        sorted_array()
        t1 = time.perf_counter()
        frozen_loop()
        t2 = time.perf_counter()
        new, old = min(new, t1 - t0), min(old, t2 - t1)
    ratio = new / old
    text = "\n".join(
        [
            f"distinct tracking on the small fleet trial shape ({SMALL_M}x{SMALL_N} "
            f"challenges observed {SMALL_OBSERVES} times, best of {SMALL_REPEATS}):",
            f"  frozen set loop:      {old * 1e6:.1f} us",
            f"  sorted uint64 array:  {new * 1e6:.1f} us",
            f"  ratio: {ratio:.2f}  (budget {MAX_SMALL_RATIO:.2f})",
        ]
    )
    report("telemetry_overhead_small_trial", text)
    assert ratio <= MAX_SMALL_RATIO, (
        f"sorted-array _observe costs {ratio:.2f}x the frozen loop "
        f"(budget {MAX_SMALL_RATIO:.2f}x)"
    )


def test_record_is_cheap_when_uninstalled():
    """The cold path: an uninstalled record() is ~a context-var read."""
    from repro.telemetry import record

    x = np.ones((64, 12), dtype=np.int8)
    iterations = 20_000
    t0 = time.perf_counter()
    for _ in range(iterations):
        record("ex", queries=64, examples=64, challenges=x)
    per_call = (time.perf_counter() - t0) / iterations
    assert per_call < 20e-6  # generous: sub-20us even on loaded CI boxes
