"""Unit tests for the plaintext adaptive (cracking) index."""

import random

import numpy as np
import pytest

from repro.cracking.index import STATS_KEPT, AdaptiveIndex
from repro.errors import QueryError

from conftest import reference_positions


@pytest.fixture()
def index(small_values):
    return AdaptiveIndex(small_values)


class TestQueryCorrectness:
    def test_single_query(self, index, small_values):
        result = np.sort(index.query(100, 200))
        assert np.array_equal(result, reference_positions(small_values, 100, 200))

    def test_inclusive_exclusive_combinations(self, index, small_values):
        for low_inclusive in (True, False):
            for high_inclusive in (True, False):
                result = np.sort(
                    index.query(100, 200, low_inclusive, high_inclusive)
                )
                expected = reference_positions(
                    small_values, 100, 200, low_inclusive, high_inclusive
                )
                assert np.array_equal(result, expected)

    def test_random_sequence(self, index, small_values):
        rng = random.Random(0)
        for _ in range(300):
            low = rng.randrange(0, 480)
            high = low + rng.randrange(0, 60)
            result = np.sort(index.query(low, high))
            assert np.array_equal(
                result, reference_positions(small_values, low, high)
            )
        index.check_invariants()

    def test_point_query(self, index, small_values):
        target = int(small_values[17])
        result = index.query_point(target)
        assert result.tolist() == [np.flatnonzero(small_values == target)[0]]

    def test_point_query_missing_value(self, index):
        assert len(index.query_point(10 ** 9)) == 0

    def test_whole_domain(self, index, small_values):
        result = index.query(-(10 ** 9), 10 ** 9)
        assert len(result) == len(small_values)

    def test_empty_range(self, index):
        assert len(index.query(5, 5, False, True)) == 0
        assert len(index.query(5, 5, True, False)) == 0

    def test_inverted_range_rejected(self, index):
        with pytest.raises(QueryError):
            index.query(10, 5)

    def test_repeated_query_same_result(self, index, small_values):
        first = np.sort(index.query(50, 150))
        second = np.sort(index.query(50, 150))
        assert np.array_equal(first, second)

    def test_duplicates_in_data(self):
        values = np.array([5, 5, 5, 1, 9, 5, 9, 1])
        index = AdaptiveIndex(values)
        assert len(index.query_point(5)) == 4
        assert len(index.query(5, 9, False, False)) == 0
        assert len(index.query(1, 5)) == 6
        index.check_invariants()

    def test_empty_column(self):
        index = AdaptiveIndex([])
        assert len(index.query(0, 10)) == 0

    def test_single_row_column(self):
        index = AdaptiveIndex([7])
        assert index.query(0, 10).tolist() == [0]
        assert len(index.query(8, 10)) == 0
        index.check_invariants()


class TestAdaptiveBehaviour:
    def test_tree_grows_with_queries(self, index):
        assert len(index.cracks) == 0
        index.query(100, 200)
        assert len(index.cracks) >= 1
        index.query(300, 350)
        assert len(index.cracks) >= 3

    def test_exact_repeat_does_not_crack(self, index):
        index.query(100, 200)
        cracks_before = sum(s.cracks for s in index.stats_log)
        index.query(100, 200)
        assert sum(s.cracks for s in index.stats_log) == cracks_before

    def test_at_most_two_cracks_per_query(self, index):
        rng = random.Random(1)
        for _ in range(100):
            low = rng.randrange(0, 480)
            index.query(low, low + 10)
        assert all(s.cracks <= 2 for s in index.stats_log)

    def test_crack_cost_decreases(self, index):
        rng = random.Random(2)
        for _ in range(200):
            low = rng.randrange(0, 480)
            index.query(low, low + 5)
        touched = [s.cracked_rows for s in index.stats_log]
        # The first query touches the whole column; late queries touch
        # far less.
        assert touched[0] >= len(index)
        assert np.mean(touched[-50:]) < np.mean(touched[:10]) / 5

    def test_piece_boundaries_sorted(self, index):
        rng = random.Random(3)
        for _ in range(50):
            low = rng.randrange(0, 480)
            index.query(low, low + 20)
        boundaries = index.piece_boundaries()
        assert boundaries == sorted(boundaries)
        assert boundaries[0] == 0 and boundaries[-1] == len(index)


class TestThreshold:
    def test_threshold_limits_tree_growth(self, small_values):
        unlimited = AdaptiveIndex(small_values, min_piece_size=1)
        limited = AdaptiveIndex(small_values, min_piece_size=100)
        rng = random.Random(4)
        queries = [
            (rng.randrange(0, 480), rng.randrange(0, 480)) for _ in range(150)
        ]
        for low, high in queries:
            low, high = min(low, high), max(low, high)
            a = np.sort(unlimited.query(low, high))
            b = np.sort(limited.query(low, high))
            assert np.array_equal(a, b)
        assert len(limited.cracks) < len(unlimited.cracks)
        limited.check_invariants()

    def test_threshold_equal_column_size_never_cracks(self, small_values):
        index = AdaptiveIndex(small_values, min_piece_size=len(small_values))
        index.query(10, 400)
        assert len(index.cracks) == 0
        assert all(s.cracks == 0 for s in index.stats_log)


class TestThreeWay:
    def test_three_way_correct(self, small_values):
        index = AdaptiveIndex(small_values, use_three_way=True)
        rng = random.Random(5)
        for _ in range(150):
            low = rng.randrange(0, 480)
            high = low + rng.randrange(0, 50)
            result = np.sort(index.query(low, high))
            assert np.array_equal(
                result, reference_positions(small_values, low, high)
            )
        index.check_invariants()

    def test_first_query_single_crack(self, small_values):
        index = AdaptiveIndex(small_values, use_three_way=True)
        index.query(100, 200)
        assert index.stats_log[0].cracks == 1
        assert len(index.cracks) == 2


class TestStats:
    def test_stats_recorded(self, index):
        index.query(10, 20)
        assert len(index.stats_log) == 1
        stats = index.stats_log[0]
        assert stats.crack_seconds >= 0
        assert stats.total_seconds >= stats.crack_seconds
        assert stats.result_count == len(index.query(10, 20))

    def test_stats_log_keeps_the_newest_entries_only(self, index):
        """Memory does not rise with queries served: the log is cut
        back to its newest ``STATS_KEPT`` whenever it doubles, and the
        last entry is always the last query."""
        for query in range(2 * STATS_KEPT + 40):
            width = query % 7
            index.query(100, 100 + width)
            assert len(index.stats_log) <= 2 * STATS_KEPT
            assert index.stats_log[-1].result_count == width + 1
        assert STATS_KEPT <= len(index.stats_log) < 2 * STATS_KEPT
