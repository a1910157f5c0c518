"""Checks of the benchmark's own arithmetic.

    python3 -m pytest -q bench/test_stats.py
"""

import pytest

from stats import median, percentile, rate, self_times


def test_percentile_nearest_rank():
    xs = list(range(1, 101))            # 1..100
    assert percentile(xs, 50) == 50
    assert percentile(xs, 90) == 90
    assert percentile(xs, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2     # input order does not matter
    with pytest.raises(ValueError):
        percentile([], 50)


def test_median_odd_and_even():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_rate():
    assert rate(30, 1.5) == 20.0
    with pytest.raises(ValueError):
        rate(1, 0.0)


def test_self_time_subtracts_direct_children_only():
    # layer 0 spans [0, 10]; layer 1 child [1, 5]; layer 2 grandchild
    # [2, 3] inside the child; layer 1 child [6, 7]
    spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 5.0), (2, 1, 2.0, 3.0),
             (1, 0, 6.0, 7.0)]
    own = self_times(spans, 3)
    assert own == pytest.approx([10 - 4 - 1, (4 - 1) + 1, 1])
    assert sum(own) == pytest.approx(10.0)     # self times add up to the root
