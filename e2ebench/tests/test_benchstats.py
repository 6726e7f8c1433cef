"""The benchmark's arithmetic: percentiles, failure share, span times.

Run with ``python3 -m pytest e2ebench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchstats import (failed_frac, min_samples_for, percentile,  # noqa: E402
                        self_times, supports, union_length,
                        unattributed_share)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.9) == 7.0
    assert percentile([3, 1, 2], 0.5) == 2


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_sample_count_rule_needs_ten_beyond():
    assert min_samples_for(0.9) == 100
    assert min_samples_for(0.5) == 20
    assert min_samples_for(0.99) == 1000
    assert not supports(99, 0.9)
    assert supports(100, 0.9)
    assert supports(20, 0.5) and not supports(19, 0.5)


def test_failed_frac():
    assert failed_frac(10, 0) == 0.0
    assert failed_frac(10, 3) == pytest.approx(0.3)
    assert failed_frac(0, 0) == 0.0
    with pytest.raises(ValueError):
        failed_frac(2, 3)
    with pytest.raises(ValueError):
        failed_frac(2, -1)


def test_union_length_merges_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 10)], clip=(2, 4)) == pytest.approx(2.0)
    assert union_length([(5, 6)], clip=(0, 1)) == 0.0
    assert union_length([]) == 0.0


def test_self_time_subtracts_children_once():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 3.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 5.0},   # overlaps 2
        {"id": 4, "parent": 3, "start": 2.5, "end": 3.5},
        {"id": 5, "parent": 1, "start": 9.0, "end": 12.0},  # runs past 1
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10 - (5 - 1) - (10 - 9))
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(3.0 - 1.0)
    assert st[4] == pytest.approx(1.0)
    assert st[5] == pytest.approx(3.0)


def test_unattributed_share():
    client = [(0.0, 10.0), (20.0, 30.0)]
    covered = [[(1.0, 9.0)], [(20.0, 25.0), (24.0, 30.0)]]
    assert unattributed_share(client, covered) == pytest.approx(2.0 / 20.0)
    assert unattributed_share([], []) == 0.0
