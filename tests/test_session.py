"""End-to-end tests for the outsourced database session."""

import random

import numpy as np
import pytest

from repro.core.client import TrustedClient
from repro.core.server import SecureServer
from repro.core.session import CLIENT_STATS_KEPT, OutsourcedDatabase
from repro.errors import QueryError, UpdateError
from repro.net import ColumnCatalog, RemoteColumn
from repro.net.transport import LoopbackTransport

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


class TestMixedWorkload:
    @pytest.mark.parametrize("ambiguity", [False, True])
    def test_matches_a_plaintext_model(self, ambiguity):
        """A seeded mix of queries, inserts, deletes and merges answers
        as a plaintext map of the live values does."""
        values = [v * 3 % 251 for v in range(60)]
        db = OutsourcedDatabase(values, ambiguity=ambiguity, seed=23)
        live = dict(enumerate(values))
        rng = random.Random(23)
        for _ in range(60):
            op = rng.choice(["query", "query", "insert", "delete", "merge"])
            if op == "query":
                low = rng.randrange(-5, 250)
                high = low + rng.randrange(0, 80)
                result = db.query(low, high)
                expected = sorted(
                    i for i, v in live.items() if low <= v <= high
                )
                assert sorted(result.logical_ids.tolist()) == expected
                assert sorted(result.values.tolist()) == sorted(
                    live[i] for i in expected
                )
            elif op == "insert":
                value = rng.randrange(0, 251)
                live[db.insert(value)] = value
            elif op == "delete":
                victim = rng.choice(sorted(live))
                db.delete(victim)
                del live[victim]
            else:
                db.merge()
        db.server.engine.check_invariants()


class TestBatches:
    """``query_many`` ships every spec in one frame and the endpoint
    serves the slots in order, so a batch answers as the same queries
    sent one by one."""

    SPECS = [
        (10, 60),
        (200, None),
        (None, 40),
        (120, 120),
        (300, 390, False, True),
    ]

    @pytest.mark.parametrize("ambiguity", [False, True])
    def test_matches_the_same_queries_one_by_one(self, ambiguity):
        batched = OutsourcedDatabase(
            VALUES[:200], ambiguity=ambiguity, seed=29
        )
        sequential = OutsourcedDatabase(
            VALUES[:200], ambiguity=ambiguity, seed=29
        )
        before = batched.round_trips
        results = batched.query_many(self.SPECS)
        assert batched.round_trips == before + 1
        assert len(results) == len(self.SPECS)
        for spec, result in zip(self.SPECS, results):
            expected = sequential.query(*spec)
            assert sorted(result.logical_ids.tolist()) == sorted(
                expected.logical_ids.tolist()
            )
            assert sorted(result.values.tolist()) == sorted(
                expected.values.tolist()
            )
        batched.server.engine.check_invariants()

    def test_an_empty_batch_ships_nothing(self):
        db = OutsourcedDatabase([1, 2, 3], seed=1)
        assert db.query_many([]) == []
        assert db.round_trips == 0
        assert db.bytes_sent == 0

    @pytest.mark.parametrize(
        "spec", [(1,), (1, 2, True, True, True)], ids=["short", "long"]
    )
    def test_a_malformed_spec_is_refused_before_shipping(self, spec):
        db = OutsourcedDatabase([1, 2, 3], seed=1)
        with pytest.raises(QueryError, match="query spec"):
            db.query_many([(0, 2), spec])
        assert db.round_trips == 0
        assert db.obs.metrics.counter_value("server.queries_served") == 0


class TestColumnShapes:
    def test_an_empty_column_answers_and_takes_inserts(self):
        db = OutsourcedDatabase([], seed=3)
        assert db.query(None, None).values.tolist() == []
        logical = db.insert(5)
        result = db.query(0, 10)
        assert result.values.tolist() == [5]
        assert result.logical_ids.tolist() == [logical]

    def test_gapped_upload_ids_come_back_as_given(self):
        """A column uploaded under gapped row ids answers with exactly
        those ids, and the next insert is numbered past the largest."""
        client = TrustedClient(seed=3)
        rows, _ = client.encrypt_dataset([5, 6, 7])
        remote = RemoteColumn(LoopbackTransport(ColumnCatalog()), "values")
        remote.create(rows, [0, 3, 6])
        response = remote.query(client.make_query(None, None))
        by_id = {
            int(row_id): client.encryptor.decrypt_value(row)
            for row_id, row in zip(response.row_ids, response.rows)
        }
        assert by_id == {0: 5, 3: 6, 6: 7}
        assert remote.insert(client.encrypt_value(9)) == [7]


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


class TestAnswersById:
    """A query names each row it answers by the id its value was stored
    under, however far the column has been cracked, merged or
    tombstoned."""

    @pytest.mark.parametrize("ambiguity", [False, True])
    def test_each_row_comes_back_under_its_id(self, ambiguity):
        db = OutsourcedDatabase(VALUES[:120], ambiguity=ambiguity, seed=13)
        for low, high in ((10, 60), (200, 300), (0, 399)):
            db.query(low, high)
        for i in random.Random(3).sample(range(120), 30):
            result = db.query(VALUES[i], VALUES[i])
            assert result.logical_ids.tolist() == [i]
            assert result.values.tolist() == [VALUES[i]]

    @pytest.mark.parametrize("ambiguity", [False, True])
    def test_the_ids_hold_after_inserts_deletes_and_a_merge(
        self, ambiguity
    ):
        db = OutsourcedDatabase(VALUES[:60], ambiguity=ambiguity, seed=14)
        db.query(100, 300)
        inserted = [db.insert(v) for v in (1000, 1001)]
        db.delete(5)
        db.merge()
        for i, value in ((inserted[1], 1001), (0, VALUES[0]),
                         (59, VALUES[59]), (inserted[0], 1000),
                         (30, VALUES[30])):
            result = db.query(value, value)
            assert result.logical_ids.tolist() == [i]
            assert result.values.tolist() == [value]
        assert db.query(VALUES[5], VALUES[5]).values.tolist() == []
        db.server.engine.check_invariants()

    def test_a_repeated_selection_names_the_same_rows(self, db):
        selection = db.query(100, 180)
        again = db.query(100, 180)
        assert sorted(zip(again.logical_ids.tolist(), again.values.tolist())) \
            == sorted(zip(selection.logical_ids.tolist(),
                          selection.values.tolist()))
        db.server.engine.check_invariants()


class TestWireIsTransparent:
    """A session's column answers with exactly the physical ids and
    ciphertext rows an in-process engine over the same upload returns:
    the catalog and the frames add and translate nothing."""

    SHAPES = [
        (15, 45, True, True),
        (20, 20, True, True),
        (None, 30, True, False),
        (35, None, False, True),
        (None, None, True, True),
    ]

    @pytest.mark.parametrize("ambiguity", [False, True])
    def test_a_session_ships_what_the_engine_answers(self, ambiguity):
        values = list(range(0, 100, 5))
        db = OutsourcedDatabase(values, ambiguity=ambiguity, seed=11)
        twin = SecureServer(*TrustedClient(
            seed=11, ambiguity=ambiguity
        ).encrypt_dataset(values))
        for low, high, low_inclusive, high_inclusive in self.SHAPES:
            query = db.client.make_query(
                low, high, low_inclusive, high_inclusive
            )
            shipped = db.remote.query(query)
            answered = twin.execute(query)
            assert np.array_equal(shipped.row_ids, answered.row_ids)
            assert shipped.rows == answered.rows
