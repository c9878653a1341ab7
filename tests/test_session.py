"""End-to-end tests for the outsourced database session."""

import random

import numpy as np
import pytest

from repro.core.session import CLIENT_STATS_KEPT, OutsourcedDatabase
from repro.errors import QueryError, UpdateError

from conftest import reference_positions

VALUES = list(np.random.default_rng(5).permutation(400))


@pytest.fixture(scope="module")
def db():
    return OutsourcedDatabase(VALUES, seed=9)


@pytest.fixture(scope="module")
def ambiguous_db():
    return OutsourcedDatabase(VALUES, ambiguity=True, seed=9)


class TestQueries:
    def test_matches_reference(self, db):
        rng = random.Random(0)
        for _ in range(40):
            low = rng.randrange(0, 380)
            high = low + rng.randrange(0, 40)
            result = db.query(low, high)
            expected = reference_positions(VALUES, low, high)
            assert sorted(result.logical_ids.tolist()) == expected.tolist()

    def test_one_round_trip_per_query(self):
        db = OutsourcedDatabase([1, 2, 3], seed=1)
        db.query(0, 2)
        db.query(1, 3)
        assert db.round_trips == 2

    def test_query_values_sorted(self, db):
        values = db.query_values(100, 120)
        assert values.tolist() == sorted(v for v in VALUES if 100 <= v <= 120)

    def test_point_query(self, db):
        result = db.query_point(VALUES[3])
        assert result.values.tolist() == [VALUES[3]]

    def test_no_false_positives_without_ambiguity(self, db):
        result = db.query(0, 100)
        assert result.false_positives == 0

    def test_ambiguity_false_positive_rate(self, ambiguous_db):
        rates = []
        rng = random.Random(1)
        for _ in range(25):
            low = rng.randrange(0, 300)
            result = ambiguous_db.query(low, low + 80)
            if result.returned_rows:
                rates.append(result.false_positive_rate)
        assert 0.3 < np.mean(rates) < 0.7

    def test_ambiguity_results_still_exact(self, ambiguous_db):
        rng = random.Random(2)
        for _ in range(25):
            low = rng.randrange(0, 380)
            high = low + rng.randrange(0, 40)
            result = ambiguous_db.query(low, high)
            expected = reference_positions(VALUES, low, high)
            assert sorted(result.logical_ids.tolist()) == expected.tolist()

    def test_scan_engine(self):
        db = OutsourcedDatabase(VALUES[:100], engine="scan", seed=2)
        result = db.query(10, 60)
        expected = reference_positions(VALUES[:100], 10, 60)
        assert sorted(result.logical_ids.tolist()) == expected.tolist()

    def test_jitter_requires_adaptive(self):
        with pytest.raises(QueryError):
            OutsourcedDatabase([1, 2], engine="scan", jitter_pivots=1, seed=0)

    def test_jitter_pivots_still_correct(self):
        db = OutsourcedDatabase(VALUES[:150], jitter_pivots=2, seed=3)
        rng = random.Random(3)
        for _ in range(15):
            low = rng.randrange(0, 140)
            result = db.query(low, low + 10)
            expected = reference_positions(VALUES[:150], low, low + 10)
            assert sorted(result.logical_ids.tolist()) == expected.tolist()
        db.server.engine.check_invariants()


class TestUpdates:
    @pytest.fixture()
    def small_db(self):
        return OutsourcedDatabase(list(range(0, 100, 2)), seed=4)

    def test_insert_and_query(self, small_db):
        logical = small_db.insert(33)
        result = small_db.query(30, 36)
        assert sorted(result.values.tolist()) == [30, 32, 33, 34, 36]
        assert logical in result.logical_ids

    def test_delete_inserted(self, small_db):
        logical = small_db.insert(33)
        small_db.delete(logical)
        assert 33 not in small_db.query(30, 36).values

    def test_delete_base(self, small_db):
        small_db.delete(0)  # value 0
        assert 0 not in small_db.query(0, 10).values

    def test_merge_preserves_results(self, small_db):
        small_db.query(10, 40)
        small_db.insert(33)
        small_db.delete(1)  # value 2
        small_db.merge()
        result = small_db.query(0, 100)
        expected = sorted(
            [v for v in range(0, 100, 2) if v != 2] + [33]
        )
        assert sorted(result.values.tolist()) == expected
        small_db.server.engine.check_invariants()

    def test_update_with_ambiguity(self):
        db = OutsourcedDatabase(list(range(0, 40, 2)), ambiguity=True, seed=5)
        db.query(4, 20)
        logical = db.insert(7)
        assert 7 in db.query(6, 8).values
        db.merge()
        db.server.engine.check_invariants()
        assert 7 in db.query(6, 8).values
        db.delete(logical)
        assert 7 not in db.query(6, 8).values

    def test_unknown_logical_delete_rejected(self, small_db):
        with pytest.raises(UpdateError):
            small_db.delete(10 ** 6)


class TestKeyReuse:
    def test_shared_key_across_sessions(self):
        first = OutsourcedDatabase([1, 2, 3], seed=6)
        second = OutsourcedDatabase([4, 5, 6], key=first.client.key, seed=6)
        assert second.query_values(4, 6).tolist() == [4, 5, 6]

    def test_client_stats_accumulate(self):
        db = OutsourcedDatabase([1, 2, 3], seed=7)
        db.query(0, 2)
        db.query(0, 3)
        assert len(db.client_stats) == 2

    def test_client_stats_keep_only_the_newest_results(self):
        db = OutsourcedDatabase([1, 2, 3], seed=7)
        for _ in range(5000):
            result = db.query(2, 2)
        assert len(db.client_stats) == CLIENT_STATS_KEPT == 4096
        assert db.client_stats[-1] is result
