"""Key rotation under real session state.

``rotate_key`` is the recovery path after a suspected key exposure; it
must survive everything a live session can hold — engine configuration,
ambiguity, pending inserts, tombstones, arbitrary-precision values —
without losing data or polluting the workload's protocol accounting.
"""

import numpy as np
import pytest

from repro.core.encrypted_column import EncryptedColumn
from repro.core.session import OutsourcedDatabase
from repro.crypto.ciphertext import RowBlock, ValueCiphertext
from repro.errors import IndexStateError

VALUES = [int(v) for v in np.random.default_rng(3).permutation(120)]


class TestConfigSurvivesRotation:
    def test_server_config_fully_restored(self):
        db = OutsourcedDatabase(
            VALUES,
            seed=1,
            auto_merge_threshold=5,
            min_piece_size=8,
            use_three_way=True,
        )
        db.rotate_key(new_seed=2)
        assert db.server.config == {
            "engine": "adaptive",
            "auto_merge_threshold": 5,
            "min_piece_size": 8,
            "use_three_way": True,
        }
        # The restored config still behaves: auto-merge fires past the
        # threshold instead of letting the pending buffer grow forever.
        for value in range(1000, 1007):
            db.insert(value)
        assert db.server.pending_count <= 5

    def test_scan_engine_survives(self):
        db = OutsourcedDatabase(VALUES, seed=1, engine="scan")
        db.rotate_key(new_seed=2)
        assert db.server.config["engine"] == "scan"
        assert sorted(db.query(0, 200).values.tolist()) == sorted(VALUES)

    def test_record_stats_kept_on(self):
        db = OutsourcedDatabase(VALUES, seed=1)
        db.rotate_key(new_seed=2)
        db.query(10, 50)
        assert len(db.server.stats_log) == 1


class TestRotationAccounting:
    def test_rotation_does_not_pollute_protocol_stats(self):
        db = OutsourcedDatabase(VALUES, seed=1, jitter_pivots=2)
        db.query(5, 40)
        trips_before = db.round_trips
        stats_before = len(db.client_stats)
        bytes_before = db.bytes_sent
        db.rotate_key(new_seed=7)
        assert db.round_trips == trips_before
        assert len(db.client_stats) == stats_before
        assert db.bytes_sent == bytes_before

    def test_queries_after_rotation_still_counted(self):
        db = OutsourcedDatabase(VALUES, seed=1)
        db.rotate_key(new_seed=7)
        db.query(0, 50)
        assert db.round_trips == 1


class TestExtremeValuesSurvive:
    def test_value_of_magnitude_2_pow_80_round_trips(self):
        values = [5, -(2 ** 80), 17, 2 ** 80, 42]
        db = OutsourcedDatabase(values, seed=4)
        mapping = db.rotate_key(new_seed=5)
        assert len(mapping) == len(values)
        result = db.query()  # unbounded: everything
        assert sorted(int(v) for v in result.values) == sorted(values)
        big = db.query(2 ** 79, 2 ** 81)
        assert [int(v) for v in big.values] == [2 ** 80]

    def test_unbounded_internal_fetch_beats_old_sentinel_range(self):
        # The old implementation fetched (-2**62, 2**62) and silently
        # dropped anything outside it.
        values = [0, 2 ** 70]
        db = OutsourcedDatabase(values, seed=4)
        db.rotate_key(new_seed=5)
        assert sorted(int(v) for v in db.query().values) == sorted(values)


class TestRotationUnderUpdatesAndAmbiguity:
    def test_pending_inserts_and_tombstones_survive(self):
        db = OutsourcedDatabase(VALUES, seed=6)
        inserted = [db.insert(v) for v in (5000, 6000, 7000)]
        db.delete(inserted[1])  # tombstone a pending insert
        db.delete(0)  # tombstone a base row
        mapping = db.rotate_key(new_seed=8)
        survivors = sorted(VALUES[1:] + [5000, 7000])
        assert sorted(int(v) for v in db.query().values) == survivors
        assert len(mapping) == len(survivors)

    def test_logical_id_remap_is_compact_and_value_preserving(self):
        db = OutsourcedDatabase(VALUES, seed=6)
        before = {}
        for logical_id in range(len(VALUES)):
            before[logical_id] = VALUES[logical_id]
        db.delete(3)
        mapping = db.rotate_key(new_seed=9)
        assert 3 not in mapping
        assert sorted(mapping.values()) == list(range(len(VALUES) - 1))
        # Every surviving old id must map to a new id holding the same
        # plaintext value.
        result = db.query()
        new_values = {
            int(i): int(v) for i, v in zip(result.logical_ids, result.values)
        }
        for old_id, new_id in mapping.items():
            assert new_values[new_id] == before[old_id]

    def test_ambiguity_with_pending_and_tombstones(self):
        db = OutsourcedDatabase(VALUES, ambiguity=True, seed=10)
        new_id = db.insert(9000)
        db.delete(new_id)
        db.delete(1)
        mapping = db.rotate_key(new_seed=11)
        survivors = sorted(v for i, v in enumerate(VALUES) if i != 1)
        assert sorted(int(v) for v in db.query().values) == survivors
        assert len(mapping) == len(survivors)
        # Rotation re-drew a key: ambiguity still filters fakes.
        result = db.query(0, 200)
        assert sorted(int(v) for v in result.values) == survivors

    def test_repeated_rotation(self):
        db = OutsourcedDatabase(VALUES, seed=12, use_three_way=True)
        db.query(10, 60)
        db.rotate_key(new_seed=13)
        db.query(20, 70)
        db.rotate_key(new_seed=14)
        assert db.server.config["use_three_way"] is True
        assert sorted(db.query().values.tolist()) == sorted(VALUES)


def one_row(components):
    """The block of one row of these ciphertext components."""
    return RowBlock.from_rows([ValueCiphertext(components)])


class TestInsertAtLengthValidation:
    def test_emptied_column_still_validates_row_length(self):
        column = EncryptedColumn([ValueCiphertext((1, 2, 3))])
        column.delete_positions([0])
        assert len(column) == 0
        with pytest.raises(IndexStateError):
            column.insert_block([0], one_row((1, 2, 3, 4)), [7])
        # A correct-length row is still welcome.
        column.insert_block([0], one_row((4, 5, 6)), [7])
        assert len(column) == 1
        assert column.ciphertext_length == 3

    def test_never_populated_column_adopts_length(self):
        column = EncryptedColumn([])
        column.insert_block([0], one_row((1, 2)), [0])
        assert column.ciphertext_length == 2
        with pytest.raises(IndexStateError):
            column.insert_block([0], one_row((1, 2, 3)), [1])
