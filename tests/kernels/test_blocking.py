"""The ``(start, stop)`` block walk shared by CRP generation and the
character kernel."""

import pytest

from repro.kernels.blocking import iter_blocks


def test_iter_blocks_covers_range_exactly():
    spans = list(iter_blocks(1000, 256))
    assert spans[0] == (0, 256)
    assert spans[-1] == (768, 1000)
    assert sum(stop - start for start, stop in spans) == 1000


def test_iter_blocks_edge_cases():
    assert list(iter_blocks(0, 8)) == []
    assert list(iter_blocks(5, 8)) == [(0, 5)]
    with pytest.raises(ValueError):
        list(iter_blocks(10, 0))
    with pytest.raises(ValueError):
        list(iter_blocks(-1, 8))
