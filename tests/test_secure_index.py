"""Unit tests for the secure adaptive indexing engine."""

import random

import numpy as np
import pytest

from repro.core.client import TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.secure_index import SecureAdaptiveIndex
from repro.crypto.ciphertext import RowBlock

from conftest import reference_positions

VALUES = list(np.random.default_rng(42).permutation(300))


@pytest.fixture(scope="module")
def client():
    return TrustedClient(seed=13)


@pytest.fixture()
def engine(client):
    rows, row_ids = client.encrypt_dataset(VALUES)
    # Cracked to single rows: what these tests exercise is the cracking.
    return SecureAdaptiveIndex(EncryptedColumn(rows, row_ids), min_piece_size=1)


def run_query(engine, client, low, high, **kwargs):
    query = client.make_query(low, high, **kwargs)
    row_ids, rows = engine.query(query)
    values = [client.encryptor.decrypt_value(row) for row in rows]
    return sorted(int(i) for i in row_ids), sorted(values)


class TestCorrectness:
    def test_single_query(self, engine, client):
        ids, values = run_query(engine, client, 50, 100)
        expected = reference_positions(VALUES, 50, 100)
        assert ids == sorted(expected.tolist())
        assert values == sorted(v for v in VALUES if 50 <= v <= 100)

    def test_random_sequence_with_invariants(self, engine, client):
        rng = random.Random(3)
        for i in range(60):
            low = rng.randrange(0, 280)
            high = low + rng.randrange(0, 40)
            low_inclusive = rng.random() < 0.5
            high_inclusive = rng.random() < 0.5
            ids, __ = run_query(
                engine, client, low, high,
                low_inclusive=low_inclusive, high_inclusive=high_inclusive,
            )
            expected = reference_positions(
                VALUES, low, high, low_inclusive, high_inclusive
            )
            assert ids == sorted(expected.tolist())
        engine.check_invariants()

    def test_empty_column(self, client):
        engine = SecureAdaptiveIndex(EncryptedColumn([]))
        row_ids, rows = engine.query(client.make_query(0, 10))
        assert len(row_ids) == 0 and rows == []

    def test_point_query(self, engine, client):
        target = VALUES[7]
        ids, values = run_query(engine, client, target, target)
        assert values == [target]

    def test_repeat_query_uses_index(self, engine, client):
        query = client.make_query(50, 100)
        engine.query(query)
        cracks_before = sum(s.cracks for s in engine.stats_log)
        engine.query(client.make_query(50, 100))
        assert sum(s.cracks for s in engine.stats_log) == cracks_before

    def test_three_way_variant(self, client):
        rows, row_ids = client.encrypt_dataset(VALUES)
        engine = SecureAdaptiveIndex(
            EncryptedColumn(rows, row_ids), min_piece_size=1, use_three_way=True
        )
        ids, __ = run_query(engine, client, 50, 100)
        assert ids == sorted(reference_positions(VALUES, 50, 100).tolist())
        assert engine.stats_log[0].cracks == 1
        engine.check_invariants()


    def test_threshold_variant(self, client):
        rows, row_ids = client.encrypt_dataset(VALUES)
        engine = SecureAdaptiveIndex(
            EncryptedColumn(rows, row_ids), min_piece_size=64
        )
        rng = random.Random(6)
        for _ in range(40):
            low = rng.randrange(0, 280)
            ids, __ = run_query(engine, client, low, low + 25)
            assert ids == sorted(
                reference_positions(VALUES, low, low + 25).tolist()
            )
        engine.check_invariants()
        # Sub-threshold pieces are scanned, not cracked, so the tree
        # stays smaller than without a threshold.
        rows3, row_ids3 = client.encrypt_dataset(VALUES)
        unlimited = SecureAdaptiveIndex(
            EncryptedColumn(rows3, row_ids3), min_piece_size=1
        )
        rng = random.Random(6)
        for _ in range(40):
            low = rng.randrange(0, 280)
            run_query(unlimited, client, low, low + 25)
        assert len(engine.cracks) < len(unlimited.cracks)
        # And every crack the thresholded engine did perform touched a
        # piece larger than the threshold.
        for stats in engine.stats_log:
            if stats.cracks:
                assert stats.cracked_rows > 64


class TestAdaptivity:
    def test_crack_work_decays(self, engine, client):
        rng = random.Random(7)
        for _ in range(80):
            low = rng.randrange(0, 280)
            engine.query(client.make_query(low, low + 5))
        touched = [s.cracked_rows for s in engine.stats_log]
        assert touched[0] >= len(engine)
        assert np.mean(touched[-20:]) < np.mean(touched[:5]) / 4

    def test_tree_grows(self, engine, client):
        engine.query(client.make_query(10, 60))
        assert len(engine.cracks) >= 1


class TestClientPivots:
    def test_pivots_crack_extra_pieces(self, engine, client):
        query = client.make_query(50, 60, pivots=(150, 250))
        engine.query(query)
        # Two bound cracks + two pivot cracks land in the tree.
        assert len(engine.cracks) >= 4
        engine.check_invariants()

    def test_pivots_do_not_change_results(self, client):
        rows, row_ids = client.encrypt_dataset(VALUES)
        plain_engine = SecureAdaptiveIndex(EncryptedColumn(rows, row_ids))
        ids_without, __ = run_query(plain_engine, client, 50, 100)
        rows2, row_ids2 = client.encrypt_dataset(VALUES)
        pivot_engine = SecureAdaptiveIndex(EncryptedColumn(rows2, row_ids2))
        query = client.make_query(50, 100, pivots=(20, 200))
        row_ids_result, __ = pivot_engine.query(query)
        assert sorted(int(i) for i in row_ids_result) == ids_without


class TestUpdateRouting:
    def test_insert_row_lands_in_right_piece(self, engine, client):
        rng = random.Random(8)
        for _ in range(30):
            low = rng.randrange(0, 280)
            engine.query(client.make_query(low, low + 10))
        new_row = client.encryptor.encrypt_value(137)
        engine.merge(RowBlock.from_rows([new_row]), [5000], ())
        engine.check_invariants()
        ids, values = run_query(engine, client, 130, 140)
        assert 137 in values
        assert 5000 in ids

    def test_delete_row(self, engine, client):
        engine.query(client.make_query(50, 100))
        victim = int(reference_positions(VALUES, 50, 100)[0])
        engine.merge(engine.column.rows_at(()), (), [victim])
        engine.check_invariants()
        ids, __ = run_query(engine, client, 50, 100)
        assert victim not in ids


class TestRippleMergeFuzz:
    """Seeded insert/delete/query/merge mix against a sorted-multiset
    model.  Sparse free-floating ranges plus ripple deletes leave empty
    pieces — several cracks on one position — which is where a ripple
    insert must shift cracks by key order, not by position."""

    @pytest.mark.parametrize("ambiguity", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_updates_match_model(self, seed, ambiguity):
        from repro.core.session import OutsourcedDatabase

        rng = random.Random(seed)
        model = dict(enumerate(rng.sample(range(100000), 300)))
        db = OutsourcedDatabase(
            list(model.values()), seed=11, ambiguity=ambiguity
        )
        for step in range(1, 601):
            draw = rng.random()
            if draw < 0.4:
                value = rng.randrange(100000)
                model[db.insert(value)] = value
            elif draw < 0.5 and model:
                victim = rng.choice(sorted(model))
                db.delete(victim)
                del model[victim]
            else:
                low = rng.randrange(100000)
                high = low + rng.randrange(1, 300)
                result = db.query(low, high)
                expected = sorted(
                    (i, v) for i, v in model.items() if low <= v <= high
                )
                assert sorted(
                    zip(result.logical_ids.tolist(), result.values.tolist())
                ) == expected
            if step % 40 == 0:
                db.merge()
                db.server.engine.check_invariants()
        result = db.query()
        assert sorted(result.values.tolist()) == sorted(model.values())
