"""The sorted-array distinct tracking equals the frozen set-based loop.

``QueryMeter._observe`` keeps rows of width <= 64 as uint64 keys in one
sorted array; ``naive_observe`` (``tests/_reference.py``) is the loop it
replaced.  Random batch sequences — in-batch and cross-batch repeats,
caps of 0, 1 and small values, empty batches, interleaved narrow and wide
rows, the +/-1 and 0/1 alphabets, tracking off — must leave equal
snapshots.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry.meter import QueryMeter, _row_keys
from tests._reference import naive_observe, naive_row_keys

SETTINGS = settings(max_examples=150, deadline=None)


def reference_split(batches, cap, track):
    seen, rows, repeated, saturated = set(), 0, 0, False
    for x in batches:
        rows += x.shape[0]
        if track and x.shape[0]:
            more, sat = naive_observe(seen, x, cap)
            repeated += more
            saturated = saturated or sat
    distinct = len(seen) if track else 0
    return {
        "challenge_rows": rows,
        "distinct_challenges": distinct,
        "repeated_challenges": repeated,
        "distinct_saturated": saturated,
    }


@st.composite
def batch_sequences(draw):
    """Batches over a small row pool so repeats are common."""
    alphabet = draw(st.sampled_from(["pm1", "01"]))
    width = st.sampled_from([1, 3, 8, 9, 33, 64, 65, 80])
    widths = draw(st.lists(width, min_size=1, max_size=3))
    pools = {}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for n in set(widths):
        bits = rng.integers(0, 2, size=(draw(st.integers(1, 12)), n))
        pools[n] = (1 - 2 * bits if alphabet == "pm1" else bits).astype(np.int8)
    batches = []
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.sampled_from(widths))
        picks = draw(st.lists(st.integers(0, len(pools[n]) - 1), max_size=20))
        batches.append(pools[n][picks].reshape(len(picks), n))
    return batches


@SETTINGS
@given(
    batches=batch_sequences(),
    cap=st.one_of(st.sampled_from([0, 1, 2, 3, 5]), st.integers(0, 40)),
    track=st.booleans(),
)
def test_observe_matches_frozen_loop(batches, cap, track):
    meter = QueryMeter(track_distinct=track, distinct_cap=cap)
    for x in batches:
        meter.record("ex", queries=len(x), challenges=x)
    snap = meter.snapshot()
    assert {k: snap[k] for k in reference_split(batches, cap, track)} == (
        reference_split(batches, cap, track)
    )


@SETTINGS
@given(
    n=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
    zero_one=st.booleans(),
)
def test_packed_row_keys_equal_matmul_keys(n, seed, zero_one):
    bits = np.random.default_rng(seed).integers(0, 2, size=(17, n))
    x = (bits if zero_one else 1 - 2 * bits).astype(np.int8)
    assert np.array_equal(_row_keys(x), naive_row_keys(x))


@pytest.mark.parametrize("cap", [0, 100, 300, 1 << 21])
def test_reobserved_matrix_matches_frozen_loop(cap):
    """One challenge matrix observed again and again (as a fleet trial
    does) reuses its row keys; the split must still equal the frozen
    loop's, with the cap saturated or not, and rows changed in place
    between observations must be keyed afresh."""
    x = (1 - 2 * np.random.default_rng(3).integers(0, 2, size=(256, 32))).astype(
        np.int8
    )
    meter = QueryMeter(distinct_cap=cap)
    batches = []
    for step in range(5):
        if step == 3:
            x[:40] *= -1  # same object, new rows
        batch = x if step != 2 else x.copy()
        meter.record("ex", queries=len(batch), challenges=batch)
        batches.append(batch.copy())
    snap = meter.snapshot()
    expected = reference_split(batches, cap, True)
    assert {k: snap[k] for k in expected} == expected
    assert snap["distinct_saturated"] == (cap < 256 + 40)

