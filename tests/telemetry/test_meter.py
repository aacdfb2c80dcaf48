"""QueryMeter semantics: counting, distinct/repeated split, chaining."""

import numpy as np
import pytest

from repro.telemetry import (
    QUERY_KINDS,
    QueryMeter,
    current_meter,
    metered,
    record,
    unmetered,
)
from repro.telemetry.meter import _row_keys


def rows(*bit_rows):
    """+/-1 int8 rows from 0/1 literals (1 -> -1, 0 -> +1)."""
    return np.array(
        [[-1 if b else 1 for b in row] for row in bit_rows], dtype=np.int8
    )


def test_record_accumulates_per_kind():
    meter = QueryMeter()
    meter.record("ex", queries=10, examples=10)
    meter.record("ex", queries=5, examples=5)
    meter.record("mq", queries=3)
    snap = meter.snapshot()
    assert snap["queries"]["ex"]["queries"] == 15
    assert snap["queries"]["ex"]["batches"] == 2
    assert snap["queries"]["mq"]["queries"] == 3
    assert snap["total_queries"] == 18
    assert set(snap["queries"]) == set(QUERY_KINDS)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown query kind"):
        QueryMeter().record("oracle")


def test_crp_bytes_counts_challenges_and_responses():
    meter = QueryMeter()
    x = rows((0, 1, 0), (1, 1, 0))
    meter.record("mq", queries=2, challenges=x, response_bytes=2)
    assert meter.crp_bytes == x.nbytes + 2
    assert meter.snapshot()["queries"]["mq"]["crp_bytes"] == x.nbytes + 2


def test_distinct_vs_repeated_split_exact():
    meter = QueryMeter()
    meter.record("mq", queries=3, challenges=rows((0, 0), (0, 1), (0, 0)))
    # In-batch duplicate counts as repeated.
    assert meter.distinct_challenges == 2
    assert meter.repeated_challenges == 1
    # Cross-batch duplicate also counts as repeated.
    meter.record("mq", queries=2, challenges=rows((0, 1), (1, 1)))
    assert meter.distinct_challenges == 3
    assert meter.repeated_challenges == 2
    assert meter.challenge_rows == 5
    assert not meter.distinct_saturated


def test_distinct_split_batch_order_independent():
    batches = [rows((0, 0), (1, 0)), rows((1, 0), (1, 1)), rows((0, 0))]
    a, b = QueryMeter(), QueryMeter()
    for x in batches:
        a.record("ex", queries=len(x), challenges=x)
    for x in reversed(batches):
        b.record("ex", queries=len(x), challenges=x)
    assert a.distinct_challenges == b.distinct_challenges == 3
    assert a.repeated_challenges == b.repeated_challenges == 2


def test_distinct_cap_saturates():
    meter = QueryMeter(distinct_cap=2)
    meter.record("ex", queries=4, challenges=rows((0, 0), (0, 1), (1, 0), (1, 1)))
    assert meter.distinct_challenges == 2
    assert meter.distinct_saturated


def test_track_distinct_off_keeps_row_count():
    meter = QueryMeter(track_distinct=False)
    meter.record("ex", queries=2, challenges=rows((0, 0), (0, 0)))
    assert meter.challenge_rows == 2
    assert meter.distinct_challenges == 0
    assert meter.repeated_challenges == 0


def test_row_keys_wide_rows_fall_back_to_bytes():
    x = np.ones((3, 80), dtype=np.int8)
    x[1, 7] = -1
    keys = _row_keys(x)
    assert isinstance(keys, list)
    assert keys[0] == keys[2] != keys[1]
    meter = QueryMeter()
    meter.record("mq", queries=3, challenges=x)
    assert meter.distinct_challenges == 2
    assert meter.repeated_challenges == 1


def test_row_keys_packing_injective_small_n():
    n = 10
    grid = np.array(
        [[1 - 2 * ((i >> j) & 1) for j in range(n)] for i in range(2**n)],
        dtype=np.int8,
    )
    keys = _row_keys(grid)
    assert len(np.unique(keys)) == 2**n


def test_parent_chaining_forwards_everything():
    trial = QueryMeter()
    local = QueryMeter(parent=trial)
    x = rows((0, 1), (1, 1))
    local.record("mq", queries=2, challenges=x, response_bytes=2)
    local.incr("crp_cache.hits")
    for meter in (local, trial):
        assert meter.kinds["mq"].queries == 2
        assert meter.distinct_challenges == 2
        assert meter.counters == {"crp_cache.hits": 1}


def test_ambient_record_and_unmetered():
    assert current_meter() is None
    record("ex", queries=99)  # no-op, nothing installed
    with metered() as meter:
        assert current_meter() is meter
        record("ex", queries=3)
        with unmetered():
            assert current_meter() is None
            record("ex", queries=1000)
        record("ex", queries=2)
    assert current_meter() is None
    assert meter.kinds["ex"].queries == 5


def test_merge_snapshot_sums_counts():
    a = QueryMeter()
    a.record("ex", queries=4, examples=4, challenges=rows((0, 0), (0, 1)))
    b = QueryMeter()
    b.merge_snapshot(a.snapshot())
    b.merge_snapshot(a.snapshot())
    assert b.kinds["ex"].queries == 8
    assert b.challenge_rows == 4


def test_merge_snapshot_sums_distinct_counts():
    """Merged distinct counts add up (they used to be dropped)."""
    a = QueryMeter()
    x = rows((0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 0))
    a.record("ex", queries=4, challenges=x)
    assert a.distinct_challenges == 3
    merged = QueryMeter()
    merged.merge_snapshot(a.snapshot())
    merged.merge_snapshot(a.snapshot())
    assert merged.distinct_challenges == 6
    assert merged.repeated_challenges == 2
    assert merged.snapshot()["distinct_challenges"] == 6
    # Live rows observed afterwards count on top of the merged ones.
    merged.record("ex", queries=1, challenges=rows((1, 1, 1)))
    assert merged.distinct_challenges == 7
