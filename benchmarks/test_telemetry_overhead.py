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

The gate is a one-sided paired sign test.  It times ``PAIRS`` interleaved
off/on pairs, alternating which arm runs first so slow drift hits both
arms equally, and counts the pairs whose on/off ratio exceeds
``1 + MAX_OVERHEAD``.  If the true overhead is at most 5%, each pair
exceeds with probability at most 1/2, so a count whose binomial tail is
at most ``ALPHA`` fails the gate with probability at most ``ALPHA`` (for
independent pairs).  Host noise of 7-14% per pair puts about a quarter
of the pairs over the bar at no real overhead; an overhead of about 10%
put three in four or more over it in every measured run, which fails
the gate (docs/TESTING.md, "Timing gates").  The sweep records no
queries, so the timed cost of "on" here is its two spans.

The E4 path amortises metering over 25 000 rows; a small fleet trial
(the service example: 256 challenges of 32 bits, observed three times)
does not.  The small-trial case pins distinct tracking there: the
sorted-array ``QueryMeter._observe`` must cost at most half of the
frozen set loop (``naive_observe``, reached through the
``frozen_reference`` fixture).
"""

import math
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
MAX_OVERHEAD = 0.05
#: Interleaved off/on pairs timed by the gate (about 12 s at 30 ms a sweep).
PAIRS = 200
#: Untimed sweeps before the pairs, while the host settles.
WARM_UP = 3
#: The gate's false-alarm rate at a true overhead of exactly MAX_OVERHEAD.
ALPHA = 1e-3


def e4_sweep(x, y, basis):
    """The instrumented hot path: coefficient fit + expansion eval."""
    coeffs = basis.estimate_coefficients(x, y)
    return basis.evaluate_expansion(x, coeffs)


def timed(fn, setup_cm):
    """Seconds ``fn`` takes inside ``setup_cm`` (its set-up and exit untimed)."""
    with setup_cm():
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0


def sign_test_pvalue(exceeding: int, pairs: int) -> float:
    """``P(Binomial(pairs, 1/2) >= exceeding)``: the chance of at least
    this many exceeding pairs when each exceeds with probability 1/2."""
    tail = sum(math.comb(pairs, j) for j in range(exceeding, pairs + 1))
    return tail / 2**pairs


def test_sign_test_pvalue_is_the_binomial_tail():
    assert sign_test_pvalue(0, PAIRS) == 1.0
    assert sign_test_pvalue(PAIRS, PAIRS) == 0.5**PAIRS
    assert sign_test_pvalue(3, 4) == 5 / 16
    # The exceeding count that fails the gate, and the one just under it.
    fail_at = min(k for k in range(PAIRS + 1) if sign_test_pvalue(k, PAIRS) <= ALPHA)
    assert sign_test_pvalue(fail_at - 1, PAIRS) > ALPHA
    assert fail_at == 123


def test_telemetry_overhead_under_5_percent(report):
    rng = np.random.default_rng(7)
    puf = XORArbiterPUF(N, K, rng)
    challenges = uniform_challenges(M, N, rng)
    x = parity_transform(challenges)[:, :-1].astype(np.int8)
    y = puf.eval(challenges)
    basis = CharacterBasis.low_degree(N, DEGREE)
    for _ in range(WARM_UP):  # warm caches/allocators before timing
        e4_sweep(x, y, basis)

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

    def sweep():
        e4_sweep(x, y, basis)

    ratios = []
    for i in range(PAIRS):
        if i % 2:
            on = timed(sweep, telemetry_on)
            off = timed(sweep, telemetry_off)
        else:
            off = timed(sweep, telemetry_off)
            on = timed(sweep, telemetry_on)
        ratios.append(on / off)
    exceeding = sum(ratio > 1.0 + MAX_OVERHEAD for ratio in ratios)
    pvalue = sign_test_pvalue(exceeding, PAIRS)
    median = float(np.median(ratios)) - 1.0
    text = "\n".join(
        [
            "telemetry overhead on the E4 kernel sweep "
            f"(n={N}, k={K}, degree={DEGREE}, m={M}, {PAIRS} interleaved pairs):",
            f"  median overhead: {median * 100:+.2f}%  "
            f"(budget {MAX_OVERHEAD * 100:.0f}%)",
            f"  pairs over budget: {exceeding} of {PAIRS}",
            f"  one-sided sign test p = {pvalue:.3g}  (fails at p <= {ALPHA:g})",
        ]
    )
    report("telemetry_overhead", text)
    assert pvalue > ALPHA, (
        f"telemetry overhead exceeds {MAX_OVERHEAD * 100:.0f}% on the E4 kernel "
        f"sweep: {exceeding} of {PAIRS} pairs over budget (median "
        f"{median * 100:+.2f}%, sign test p = {pvalue:.3g} <= {ALPHA:g})"
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
