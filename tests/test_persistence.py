"""Unit tests for server-state snapshots, checkpoint files and key
rotation."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core.persistence import restore_server, snapshot_server
from repro.core.session import OutsourcedDatabase
from repro.errors import PersistenceError, SerializationError
from repro.net.protocol import MergeRequest, MergeResponse, decode, encode

VALUES = list(np.random.default_rng(14).permutation(300))


def warmed_db(**kwargs):
    db = OutsourcedDatabase(VALUES, seed=15, **kwargs)
    db.query(50, 120)
    db.query(200, 260)
    return db


def refused(snapshot, match):
    """``snapshot``, on a frame and as it is, is refused by the decoder
    or the engine with a SerializationError matching ``match``."""
    with pytest.raises(SerializationError, match=match):
        restore_server(decode(encode(snapshot)))


class TestSnapshot:
    def test_round_trip_preserves_results(self):
        db = warmed_db()
        restored = restore_server(decode(encode(snapshot_server(db.server))))

        def named(ids):
            return sorted(np.maximum(ids, ~ids).tolist())

        for low, high in [(0, 100), (50, 120), (130, 290)]:
            query = db.client.make_query(low, high)
            original = db.server.execute(db.client.make_query(low, high))
            assert named(original.row_ids) == named(
                restored.execute(query).row_ids)
        # The restored server knows the upload: a repeated reply names
        # every row by id alone.
        assert (restored.execute(query).row_ids < 0).all()

    def test_restored_index_state(self):
        db = warmed_db()
        restored = restore_server(snapshot_server(db.server))
        assert len(restored.engine.cracks) == len(db.server.engine.cracks)
        assert restored.engine.column.row_ids.tolist() == (
            db.server.engine.column.row_ids.tolist()
        )
        assert restored.uploaded == db.server.uploaded == len(VALUES)
        restored.engine.check_invariants()

    def test_restored_index_answers_without_recracking(self):
        db = warmed_db()
        restored = restore_server(snapshot_server(db.server))
        restored.execute(db.client.make_query(50, 120))
        stats = restored.stats_log[-1]
        assert stats.cracks == 0  # bounds already indexed pre-snapshot

    @pytest.mark.parametrize("ambiguity", (False, True))
    def test_a_restored_index_searches_like_the_original(self, ambiguity):
        """The restored index is loaded, not rebuilt by adds: its next
        merge routes with as many products, and its next queries answer
        with the original's rows, ids and comparison counts."""
        db = warmed_db(ambiguity=ambiguity, min_piece_size=1)
        restored = restore_server(decode(encode(snapshot_server(db.server))))
        rows = [row for value in (7, 130, 299, 1000)
                for row in db.client.encrypt_value(value)]
        routed = []
        for server in (db.server, restored):
            server.insert(rows)
            before = server.engine.cracks.comparison_count
            server.merge_pending()
            routed.append(server.engine.cracks.comparison_count - before)
        assert routed[0] == routed[1] > 0

        def counts(stats):
            return (stats.comparisons, stats.cracks, stats.cracked_rows,
                    stats.result_count, stats.kernel_exact_products)

        for low, high in [(50, 120), (10, 40), (130, 290), (121, 199)]:
            query = replace(db.client.make_query(low, high), token=0)
            original, again = db.server.execute(query), restored.execute(query)
            assert again.row_ids.tolist() == original.row_ids.tolist()
            assert again.rows == original.rows
            assert counts(restored.stats_log[-1]) == counts(
                db.server.stats_log[-1])
        restored.engine.check_invariants()

    def test_pending_state_survives(self):
        db = warmed_db()
        db.insert(5555)
        db.delete(3)
        restored = restore_server(decode(encode(snapshot_server(db.server))))
        assert restored.pending_count == db.server.pending_count
        assert restored.updates.tombstones == {3}
        response = restored.execute(db.client.make_query(5550, 5560))
        values = [
            db.client.encryptor.decrypt_value(row) for row in response.rows
        ]
        assert 5555 in values

    def test_accounting_survives(self):
        """Counts live in the registry, not in the snapshot: a server
        restored into the same bundle keeps counting where the
        original left off."""
        db = warmed_db()
        counted = db.obs.metrics.counter_value
        served = counted("server.queries_served")
        shipped = counted("server.rows_shipped")
        restored = restore_server(snapshot_server(db.server), obs=db.obs)
        response = restored.execute(db.client.make_query(50, 120))
        assert counted("server.queries_served") == served + 1 == 3
        assert counted("server.rows_shipped") == shipped + len(response.rows)

    def test_scan_engine_snapshot(self):
        db = OutsourcedDatabase(VALUES[:50], engine="scan", seed=16)
        db.query(0, 100)
        restored = restore_server(decode(encode(snapshot_server(db.server))))
        query = replace(db.client.make_query(0, 100), token=0)
        assert len(restored.execute(query).rows) == len(
            db.server.execute(query).rows
        )
        snapshot = snapshot_server(warmed_db(min_piece_size=1).server)
        refused(replace(snapshot, config=dict(snapshot.config, engine="scan")),
                "malformed snapshot")

    def test_wrong_kind_rejected(self):
        for wrong in ({"kind": "something"}, MergeResponse(delta=1)):
            with pytest.raises(SerializationError, match="column snapshot"):
                restore_server(wrong)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 99])
    def test_any_other_version_rejected(self, version):
        """There is no second reader: the frame's version byte is the
        protocol's."""
        frame = encode(snapshot_server(warmed_db().server))
        with pytest.raises(SerializationError, match="version"):
            decode(frame[:1] + bytes((version,)) + frame[2:])

    @pytest.mark.parametrize("key, value, match", [
        ("engine_kind", "vdaptive", "unknown column config keys"),
        ("auto_merge_threshold", 0, "not a value the engine takes"),
    ])
    def test_engine_refusing_its_config_is_a_typed_rejection(
            self, key, value, match):
        snapshot = snapshot_server(warmed_db().server)
        bad = replace(snapshot, config=dict(snapshot.config, **{key: value}))
        refused(bad, match)
        # ``engine_kind`` is not a key the engine takes at all.
        with pytest.raises(SerializationError, match="malformed snapshot"):
            restore_server(bad)

    def test_truncated_snapshot_rejected(self):
        frame = encode(snapshot_server(warmed_db().server))
        for cut in range(0, len(frame), 97):
            with pytest.raises(SerializationError):
                decode(frame[:cut])

    def test_a_crack_outside_the_column_is_rejected(self):
        db = warmed_db(min_piece_size=1)
        snapshot = snapshot_server(db.server)
        slots = list(snapshot.crack_slots)
        assert len(slots) >= 3
        slots[-1] = 2 * (len(VALUES) + 1)
        refused(replace(snapshot, crack_slots=tuple(slots)),
                "malformed snapshot")
        refused(replace(snapshot, crack_slots=tuple(slots[:-1])),
                "crack slots")

    def test_cracks_with_swapped_positions_are_rejected(self):
        db = warmed_db(min_piece_size=1)
        snapshot = snapshot_server(db.server)
        first, second, *rest = snapshot.crack_slots
        assert first >> 1 < second >> 1
        swapped = (second & ~1 | first & 1, first & ~1 | second & 1, *rest)
        refused(replace(snapshot, crack_slots=swapped), "malformed snapshot")


class TestKeyRotation:
    def test_results_preserved(self):
        db = warmed_db()
        before = sorted(db.query(0, 300).values.tolist())
        db.rotate_key(new_seed=99)
        after = sorted(db.query(0, 300).values.tolist())
        assert before == after

    def test_key_actually_changes(self):
        db = warmed_db()
        old_key = db.client.key
        db.rotate_key(new_seed=99)
        assert db.client.key != old_key

    def test_old_ciphertexts_unreadable_under_new_key(self):
        db = warmed_db()
        old_row = db.server.engine.column.row(0)
        db.rotate_key(new_seed=99)
        decrypted = db.client.encryptor.decrypt_row(old_row)
        assert not decrypted.is_real or decrypted.value not in VALUES

    def test_index_restarts_empty(self):
        db = warmed_db()
        db.rotate_key(new_seed=99)
        assert len(db.server.engine.cracks) == 0

    def test_rotation_folds_in_updates(self):
        db = warmed_db()
        inserted = db.insert(7777)
        db.delete(0)
        mapping = db.rotate_key(new_seed=99)
        values = db.query(-(10 ** 9), 10 ** 9).values.tolist()
        assert 7777 in values
        assert VALUES[0] not in values or VALUES.count(VALUES[0]) > 1
        assert inserted in mapping

    def test_rotation_with_ambiguity(self):
        db = OutsourcedDatabase(VALUES[:80], ambiguity=True, seed=17)
        db.query(0, 150)
        db.rotate_key(new_seed=100)
        result = db.query(0, 150)
        expected = sorted(v for v in VALUES[:80] if 0 <= v <= 150)
        assert sorted(result.values.tolist()) == expected
        assert db.client.ambiguity


class TestSnapshotVersioning:
    def test_current_version_is_7(self):
        """Version 7 is one protocol-7 ``column_snapshot`` envelope:
        state only, the engine configuration under ``config`` (keyed
        like ``CONFIG_DEFAULTS``, JSON text on the frame), the upload's
        row count, and no counts — those live in the metrics registry."""
        from dataclasses import fields

        from repro.core.persistence import SNAPSHOT_VERSION
        from repro.net.protocol import CONFIG_DEFAULTS, ColumnSnapshot

        snapshot = snapshot_server(warmed_db().server)
        assert SNAPSHOT_VERSION == 7
        assert type(decode(encode(snapshot))) is ColumnSnapshot
        assert [f.name for f in fields(ColumnSnapshot)] == [
            "column", "epoch", "config", "rows", "row_ids", "cracks",
            "crack_slots", "pending_rows", "pending_ids", "tombstones",
            "next_row_id", "uploaded",
        ]
        assert set(snapshot.config) == set(CONFIG_DEFAULTS)

    def test_rows_and_pending_rows_are_wire_blocks(self):
        """One row-set encoding: a snapshot stores the column and the
        pending buffer as the same flat block a frame carries."""
        db = warmed_db()
        db.insert(77)
        snapshot = decode(encode(snapshot_server(db.server)))
        column = db.server.engine.column
        assert snapshot.rows == [column.row(i) for i in range(len(column))]
        assert len(snapshot.pending_rows) == len(snapshot.pending_ids) == 1
        refused(replace(snapshot, pending_ids=()), "pending")

    @pytest.mark.parametrize("pending_ids", [(5,), (-3,), (999,)],
                             ids=["an-indexed-id", "negative", "unassigned"])
    def test_a_pending_id_that_is_not_a_fresh_one_is_refused(
            self, pending_ids):
        db = warmed_db()
        db.insert(77)
        snapshot = snapshot_server(db.server)
        assert list(snapshot.pending_ids) == [len(VALUES)]
        refused(replace(snapshot, pending_ids=pending_ids), "row ids must be")

    def test_an_indexed_id_past_the_next_id_is_refused(self):
        snapshot = snapshot_server(warmed_db().server)
        refused(replace(snapshot, next_row_id=len(VALUES) - 1,
                        uploaded=len(VALUES) - 1), "row ids must be")

    def test_an_upload_count_past_the_next_id_is_refused(self):
        snapshot = snapshot_server(warmed_db().server)
        refused(replace(snapshot, uploaded=snapshot.next_row_id + 1),
                "malformed snapshot")
        refused(replace(snapshot, uploaded=-1), "malformed snapshot")

    def test_crack_keys_of_another_ciphertext_length_are_refused(self):
        """The index's search is written for the column's length: keys
        of another are refused on restore, not met by the next query."""
        from repro.core.client import TrustedClient

        snapshot = snapshot_server(warmed_db(min_piece_size=1).server)
        assert snapshot.crack_slots
        other = TrustedClient(seed=15, key_length=5)
        pivots = tuple(other.encrypt_query_bound(bound)
                       for bound in range(len(snapshot.crack_slots)))
        refused(replace(snapshot, cracks=replace(snapshot.cracks,
                                                 pivots=pivots)),
                "ciphertext length")


class TestCatalogSnapshot:
    def make_catalog(self):
        from repro.core.client import TrustedClient
        from repro.net.catalog import ColumnCatalog

        client = TrustedClient(seed=19)
        catalog = ColumnCatalog()
        for name, values in (("a", [5, 1, 9, 3]), ("b", [20, 40, 60])):
            rows, row_ids = client.encrypt_dataset(values)
            catalog.create_column(name, rows, row_ids,
                                  {"min_piece_size": 2} if name == "a" else None)
        return client, catalog

    def test_round_trip_preserves_columns_and_configs(self):
        from repro.core.persistence import restore_catalog, snapshot_catalog

        client, catalog = self.make_catalog()
        catalog.server("a").execute(client.make_query(2, 8))
        restored = restore_catalog(
            [decode(encode(s)) for s in snapshot_catalog(catalog)])
        assert restored.column_names == ["a", "b"]
        assert restored.config("a")["min_piece_size"] == 2
        query = replace(client.make_query(2, 8), token=0)
        assert sorted(map(int, restored.server("a").execute(query).row_ids)) \
            == sorted(map(int, catalog.server("a").execute(query).row_ids))

    def test_restored_catalog_serves_dispatch(self):
        from repro.core.persistence import restore_catalog, snapshot_catalog
        from repro.net.protocol import QueryRequest

        client, catalog = self.make_catalog()
        restored = restore_catalog(snapshot_catalog(catalog))
        reply = restored.dispatch(
            QueryRequest(column="b", query=client.make_query(30, 50)))
        values = [client.encryptor.decrypt_value(row)
                  for row in reply.response.rows]
        assert values == [40]

    def test_wrong_kind_rejected(self):
        from repro.core.persistence import restore_catalog

        with pytest.raises(SerializationError):
            restore_catalog([{"kind": "secure_server", "version": 1}])

    def test_a_column_twice_is_rejected(self):
        from repro.core.persistence import restore_catalog, snapshot_catalog
        from repro.errors import UpdateError

        __, catalog = self.make_catalog()
        (first, __) = snapshot_catalog(catalog)
        with pytest.raises(UpdateError, match="already exists"):
            restore_catalog([first, first])


class TestSessionServerRestore:
    """The documented restore idiom: ``db.server = restore_server(...)``."""

    def test_assigning_restored_server_keeps_index_and_results(self):
        from repro.core.persistence import restore_server, snapshot_server
        from repro.core.session import OutsourcedDatabase

        db = OutsourcedDatabase([13, 16, 4, 9, 2, 12, 7, 1], seed=42)
        db.query(4, 12)
        blob = encode(snapshot_server(db.server))
        db.server = restore_server(decode(blob))
        result = db.query(4, 12)
        assert sorted(result.values) == [4, 7, 9, 12]

    def test_assignment_refused_over_remote_transport(self):
        from repro.core.server import SecureServer
        from repro.core.session import OutsourcedDatabase
        from repro.errors import ProtocolError
        from repro.net.catalog import ColumnCatalog
        from repro.net.transport import LoopbackTransport

        shared = ColumnCatalog()
        db = OutsourcedDatabase(
            [3, 1, 2], seed=7, transport=LoopbackTransport(shared)
        )
        with pytest.raises(ProtocolError):
            db.server = SecureServer.__new__(SecureServer)


def write_records(path, *records):
    """A checkpoint file of ``(seq, epoch, column, frame)`` records."""
    from repro.core.wal import _encode_record

    with open(path, "wb") as handle:
        for record in records:
            handle.write(_encode_record(*record))


class TestCheckpointFile:
    """A catalog checkpoint is one WAL record per column holding its
    ``column_snapshot`` frame, the watermark in every record's seq and
    the file's record count in every record's epoch field; only the
    current version is read, and every damage is a typed
    PersistenceError."""

    def make_warm_catalog(self):
        from repro.net.catalog import ColumnCatalog
        from repro.net.transport import LoopbackTransport

        catalog = ColumnCatalog()
        db = OutsourcedDatabase(
            [5, 1, 9, 3], seed=21, transport=LoopbackTransport(catalog),
            column="t",
        )
        db.insert(42)
        db.merge()
        rows, ids = db.client.encrypt_dataset([7, 8])
        catalog.create_column("u", rows, ids)
        return catalog, db

    def saved(self, tmp_path, wal_seq=0):
        from repro.core.persistence import (
            SNAPSHOT_FILENAME,
            save_snapshot,
            snapshot_catalog,
        )

        catalog, db = self.make_warm_catalog()
        path = os.path.join(str(tmp_path), SNAPSHOT_FILENAME)
        save_snapshot(path, snapshot_catalog(catalog), wal_seq)
        return catalog, path

    def test_current_catalog_version_is_8(self, tmp_path):
        """Version 8: one record per column, in name order, its column
        the column's, its epoch field the file's record count and its
        frame the column's protocol-7 snapshot (at the column's
        epoch)."""
        from repro.core.persistence import (
            CATALOG_SNAPSHOT_VERSION,
            SNAPSHOT_FILENAME,
        )
        from repro.core.wal import _scan_segment

        assert CATALOG_SNAPSHOT_VERSION == 8
        assert SNAPSHOT_FILENAME == "snapshot-v8.wal"
        catalog, path = self.saved(tmp_path, wal_seq=9)
        records, __ = _scan_segment(path, last=False)
        assert [(r.seq, r.epoch, r.column) for r in records] == [
            (10, 2, "t"), (10, 2, "u")]
        assert [(decode(r.frame).column, decode(r.frame).epoch)
                for r in records] == [("t", 2), ("u", 0)]

    def test_epochs_and_wal_seq_round_trip(self, tmp_path):
        from repro.core.persistence import load_snapshot, restore_catalog

        catalog, path = self.saved(tmp_path, wal_seq=17)
        snapshots, wal_seq = load_snapshot(path)
        assert wal_seq == 17
        assert catalog.epoch("t") == 2  # insert + merge
        assert restore_catalog(snapshots).epochs() == catalog.epochs()

    @pytest.mark.parametrize("name", [
        "snapshot.json", "snapshot-v5.wal", "snapshot-v6.wal",
        "snapshot-v7.wal", "snapshot-v9.wal",
    ])
    def test_a_snapshot_of_any_other_version_is_refused(self, tmp_path,
                                                        name):
        from repro.core.persistence import recover_catalog

        catalog, path = self.saved(tmp_path)
        os.rename(path, os.path.join(str(tmp_path), name))
        with pytest.raises(PersistenceError, match=name):
            recover_catalog(str(tmp_path))

    def test_a_version_5_json_catalog_snapshot_is_refused(self, tmp_path):
        """A data directory of the JSON format — ``snapshot.json`` over a
        compacted log — is refused, naming the file, and never
        recovered from the log alone: the segments under its watermark
        are gone."""
        from repro.core.persistence import recover_catalog
        from repro.core.wal import WalWriter

        catalog, db = self.make_warm_catalog()
        # The log after the snapshot's watermark: a merge at epoch 3.
        with WalWriter(str(tmp_path), fsync="never") as writer:
            writer.append("t", 3, encode(MergeRequest(column="t")))
        legacy = {"kind": "column_catalog", "version": 5, "wal_seq": 1,
                  "epochs": {"t": 2}, "columns": {"t": {
                      "kind": "secure_server", "version": 4}}}
        with open(os.path.join(str(tmp_path), "snapshot.json"), "w") as f:
            json.dump(legacy, f)
        with pytest.raises(PersistenceError, match="snapshot.json"):
            recover_catalog(str(tmp_path))
        # A checkpoint's temporary left by a crash is not a snapshot:
        # without one, the log alone is replayed (and here refused).
        os.remove(os.path.join(str(tmp_path), "snapshot.json"))
        open(os.path.join(str(tmp_path), "snapshot-v7.wal.tmp"), "wb").close()
        with pytest.raises(PersistenceError, match="unknown column 't'"):
            recover_catalog(str(tmp_path))

    def test_a_truncated_file_is_refused(self, tmp_path):
        from repro.core.persistence import load_snapshot

        catalog, path = self.saved(tmp_path)
        with open(path, "rb") as handle:
            blob = handle.read()
        for cut in (1, 7, len(blob) // 3, len(blob) - 1):
            with open(path, "wb") as handle:
                handle.write(blob[:cut])
            with pytest.raises(PersistenceError, match="truncated"):
                load_snapshot(path)

    def test_a_file_cut_at_a_record_boundary_is_refused(self, tmp_path):
        """Every record is whole, but the file lost its last column: the
        records' count says so."""
        from repro.core.persistence import load_snapshot, recover_catalog
        from repro.core.wal import RECORD_HEADER

        catalog, path = self.saved(tmp_path)
        with open(path, "rb") as handle:
            blob = handle.read()
        first = RECORD_HEADER.size + RECORD_HEADER.unpack(blob[:8])[0]
        with open(path, "wb") as handle:
            handle.write(blob[:first])
        with pytest.raises(PersistenceError, match="cut short"):
            load_snapshot(path)
        with pytest.raises(PersistenceError, match="cut short"):
            recover_catalog(str(tmp_path))

    def test_one_flipped_byte_is_refused(self, tmp_path):
        from repro.core.persistence import load_snapshot

        catalog, path = self.saved(tmp_path)
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[len(blob) // 2] ^= 0x10
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(PersistenceError, match="CRC"):
            load_snapshot(path)

    def test_a_frame_of_another_kind_is_refused(self, tmp_path):
        from repro.core.persistence import load_snapshot

        path = str(tmp_path / "snapshot-v7.wal")
        write_records(path, (1, 1, "t", encode(MergeRequest(column="t"))))
        with pytest.raises(PersistenceError, match="holds no snapshot"):
            load_snapshot(path)
        write_records(path, (1, 1, "t", b"not a frame"))
        with pytest.raises(PersistenceError, match="malformed snapshot"):
            load_snapshot(path)

    def test_a_version_5_snapshot_is_refused(self, tmp_path):
        """A column snapshot of protocol version 5 (its config in the
        tagged value grammar that version had) has no reader: its frame
        is a typed refusal, and so is a checkpoint record holding one."""
        from repro.core.persistence import load_snapshot, snapshot_catalog

        catalog, __ = self.make_warm_catalog()
        frame = encode(snapshot_catalog(catalog)[0])  # "t"
        older = frame[:1] + bytes((5,)) + frame[2:]
        with pytest.raises(SerializationError, match="version: 5"):
            decode(older)
        path = str(tmp_path / "snapshot-v7.wal")
        write_records(path, (1, 1, "t", older))
        with pytest.raises(PersistenceError, match="version: 5"):
            load_snapshot(path)

    def test_a_record_of_another_column_is_refused(self, tmp_path):
        from repro.core.persistence import load_snapshot, snapshot_catalog

        catalog, __ = self.make_warm_catalog()
        frame = encode(snapshot_catalog(catalog)[0])  # "t"
        path = str(tmp_path / "snapshot-v7.wal")
        write_records(path, (1, 1, "ghost", frame))
        with pytest.raises(PersistenceError, match="holds no snapshot"):
            load_snapshot(path)
        write_records(path, (1, 1, "t", frame))
        assert load_snapshot(path)[0][0].column == "t"

    @pytest.mark.parametrize("seqs", [(1, 2), (5, 4), (0, 0)])
    def test_a_bad_wal_seq_is_refused(self, tmp_path, seqs):
        from repro.core.persistence import load_snapshot, snapshot_catalog

        catalog, __ = self.make_warm_catalog()
        path = str(tmp_path / "snapshot-v7.wal")
        write_records(path, *(
            (seq, 2, snapshot.column, encode(snapshot))
            for seq, snapshot in zip(seqs, snapshot_catalog(catalog))))
        with pytest.raises(PersistenceError, match="watermark|seq 0"):
            load_snapshot(path)

    @pytest.mark.parametrize("change, match", [
        (lambda s: {"crack_slots": s.crack_slots[:-1] + (
            2 * (len(s.row_ids) + 1),)}, "crack positions"),
        (lambda s: {"crack_slots": (s.crack_slots[1], s.crack_slots[0])
                    + s.crack_slots[2:]}, "crack positions"),
        (lambda s: {"config": dict(s.config, auto_merge_threshold=0)},
         "not a value the engine takes"),
        (lambda s: {"pending_ids": (*s.pending_ids, 99)}, "pending"),
    ], ids=["crack-past-the-column", "swapped-cracks", "config",
            "pending-lengths"])
    def test_a_snapshot_the_engine_refuses_is_a_typed_error(
            self, tmp_path, change, match):
        from repro.core.persistence import (
            SNAPSHOT_FILENAME,
            recover_catalog,
            save_snapshot,
            snapshot_server,
        )

        db = warmed_db(min_piece_size=1)
        db.insert(77)
        snapshot = snapshot_server(db.server, "t", 3)
        assert len(snapshot.crack_slots) >= 3
        save_snapshot(os.path.join(str(tmp_path), SNAPSHOT_FILENAME),
                      [replace(snapshot, **change(snapshot))])
        with pytest.raises(PersistenceError, match=match):
            recover_catalog(str(tmp_path))


class TestDurableRecovery:
    """snapshot + WAL -> recover_catalog: the restart path."""

    def make_durable(self, tmp_path):
        from repro.core.wal import WalWriter
        from repro.net.catalog import ColumnCatalog
        from repro.net.transport import LoopbackTransport
        from repro.core.session import OutsourcedDatabase

        catalog = ColumnCatalog()
        catalog.bind_wal(WalWriter(str(tmp_path), fsync="never"))
        db = OutsourcedDatabase(
            [5, 1, 9, 3], seed=23, transport=LoopbackTransport(catalog),
            column="t",
        )
        return catalog, db

    def test_recover_from_wal_only(self, tmp_path):
        from repro.core.persistence import recover_catalog

        catalog, db = self.make_durable(tmp_path)
        db.insert(42)
        db.merge()
        recovered, info = recover_catalog(str(tmp_path))
        assert info["snapshot"] is False
        assert info["replayed"] == 3  # create + insert + merge
        assert recovered.epochs() == catalog.epochs()

    def test_recover_from_snapshot_plus_tail(self, tmp_path):
        from repro.core.persistence import (
            checkpoint_catalog,
            recover_catalog,
        )

        catalog, db = self.make_durable(tmp_path)
        db.insert(42)
        db.merge()
        checkpoint_catalog(catalog, str(tmp_path), catalog.wal)
        db.insert(7)
        db.merge()
        recovered, info = recover_catalog(str(tmp_path))
        assert info["snapshot"] is True
        assert info["replayed"] == 2  # only the post-checkpoint tail
        assert recovered.epochs() == catalog.epochs()
        query = db.client.make_query(0, 100)
        assert sorted(
            map(int, recovered.server("t").execute(query).row_ids)
        ) == sorted(map(int, catalog.server("t").execute(query).row_ids))

    def test_recover_empty_directory(self, tmp_path):
        from repro.core.persistence import recover_catalog

        recovered, info = recover_catalog(str(tmp_path))
        assert len(recovered) == 0
        assert info == {"snapshot": False, "wal_seq": 0, "replayed": 0,
                        "skipped": 0, "last_seq": 0}

    def test_snapshot_file_corruption_is_typed(self, tmp_path):
        import os
        import random

        from repro.core.persistence import (
            SNAPSHOT_FILENAME,
            checkpoint_catalog,
            recover_catalog,
        )
        from repro.errors import PersistenceError

        catalog, db = self.make_durable(tmp_path)
        db.merge()
        checkpoint_catalog(catalog, str(tmp_path), catalog.wal)
        path = os.path.join(str(tmp_path), SNAPSHOT_FILENAME)
        with open(path, "rb") as handle:
            original = handle.read()
        rng = random.Random("snapshot-fuzz")
        for _ in range(60):
            blob = bytearray(original)
            if rng.random() < 0.5 and len(blob) > 1:
                blob = blob[:rng.randrange(1, len(blob))]
            else:
                blob[rng.randrange(len(blob))] ^= rng.randint(1, 255)
            with open(path, "wb") as handle:
                handle.write(bytes(blob))
            try:
                recover_catalog(str(tmp_path))
            except PersistenceError:
                pass  # the typed contract: never KeyError/ValueError
        with open(path, "wb") as handle:
            handle.write(original)
        recovered, _ = recover_catalog(str(tmp_path))
        assert recovered.epochs() == catalog.epochs()

    def test_atomic_snapshot_crash_leaves_previous_generation(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.core.persistence import (
            checkpoint_catalog,
            recover_catalog,
        )
        from repro.errors import PersistenceError

        catalog, db = self.make_durable(tmp_path)
        db.merge()
        checkpoint_catalog(catalog, str(tmp_path), catalog.wal)
        first = recover_catalog(str(tmp_path))[0].epochs()
        db.insert(42)
        db.merge()

        def exploding_replace(src, dst):
            raise OSError("power loss before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(PersistenceError):
            checkpoint_catalog(catalog, str(tmp_path), catalog.wal)
        monkeypatch.undo()
        # The old snapshot generation is intact, and the WAL still
        # carries the mutations the failed checkpoint tried to fold in.
        recovered, info = recover_catalog(str(tmp_path))
        assert recovered.epochs() == catalog.epochs()
        assert recovered.epochs() != first
        assert info["replayed"] >= 2


class TestReplayFence:
    """The per-column epoch fence recovery replays each WAL record
    through (:meth:`ColumnCatalog.apply_record`)."""

    def make_durable(self, tmp_path):
        return TestDurableRecovery().make_durable(tmp_path)

    @staticmethod
    def merge_record(seq, epoch):
        from repro.core.wal import WalRecord
        from repro.net.protocol import MergeRequest

        return WalRecord(seq, epoch, "t", encode(MergeRequest(column="t")))

    def test_an_epoch_gap_is_a_typed_error(self, tmp_path):
        from repro.core.persistence import recover_catalog

        catalog, db = self.make_durable(tmp_path)
        db.merge()
        catalog.wal.append(
            "t", catalog.epoch("t") + 5,
            self.merge_record(0, 0).frame,
        )
        with pytest.raises(PersistenceError, match="missing entries"):
            recover_catalog(str(tmp_path))

    def test_a_record_at_or_below_the_epoch_is_skipped(self, tmp_path):
        from repro.core.persistence import recover_catalog

        catalog, db = self.make_durable(tmp_path)
        db.insert(42)
        db.merge()
        recovered, __ = recover_catalog(str(tmp_path))
        before = recovered.epochs()
        for epoch in range(before["t"] + 1):
            assert recovered.apply_record(
                self.merge_record(99, epoch)
            ) is False
        assert recovered.epochs() == before
        # The successor epoch applies.
        assert recovered.apply_record(
            self.merge_record(99, before["t"] + 1)
        ) is True
        assert recovered.epoch("t") == before["t"] + 1

    def test_a_create_record_for_an_existing_column_is_skipped(
        self, tmp_path
    ):
        import os

        from repro.core.persistence import (
            SNAPSHOT_FILENAME,
            recover_catalog,
            save_snapshot,
            snapshot_catalog,
        )
        from repro.core.wal import WalReader

        catalog, db = self.make_durable(tmp_path)
        db.insert(42)
        (create,) = [record for record in WalReader(str(tmp_path)).entries()
                     if record.epoch == 0]
        recovered, __ = recover_catalog(str(tmp_path))
        assert recovered.apply_record(create) is False
        assert recovered.epochs() == catalog.epochs()
        # A snapshot saved without a watermark replays the whole log:
        # the create and the insert are skipped, one by one.
        save_snapshot(os.path.join(str(tmp_path), SNAPSHOT_FILENAME),
                      snapshot_catalog(catalog))
        recovered, info = recover_catalog(str(tmp_path))
        assert (info["replayed"], info["skipped"]) == (0, 2)
        assert recovered.epochs() == catalog.epochs()

    def test_a_malformed_frame_is_a_typed_error(self, tmp_path):
        from repro.core.persistence import recover_catalog
        from repro.core.wal import WalRecord

        catalog, db = self.make_durable(tmp_path)
        recovered, __ = recover_catalog(str(tmp_path))
        record = WalRecord(2, 1, "t", b"not a frame")
        with pytest.raises(PersistenceError, match="malformed frame"):
            recovered.apply_record(record)
        assert recovered.epochs() == catalog.epochs()

    @pytest.mark.parametrize("kind", [
        "create_column", "insert_request", "delete_request",
        "merge_request", "rotate_apply",
    ])
    def test_replay_into_a_journaled_catalog_is_refused(self, tmp_path,
                                                         kind):
        from repro.core.wal import WalRecord
        from repro.net import protocol

        catalog, db = self.make_durable(tmp_path)
        rows, ids = db.client.encrypt_dataset([2, 4])
        request = {
            "create_column": protocol.CreateColumnRequest(
                column="u", rows=rows, row_ids=ids, config={}),
            "insert_request": protocol.InsertRequest(column="t", rows=rows),
            "delete_request": protocol.DeleteRequest(column="t",
                                                     row_ids=(0,)),
            "merge_request": protocol.MergeRequest(column="t"),
            "rotate_apply": protocol.RotateApplyRequest(
                column="t", rows=rows, row_ids=ids, fence=0),
        }[kind]
        head = catalog.wal.last_seq
        epochs = catalog.epochs()
        epoch = 0 if kind == "create_column" else epochs["t"] + 1
        record = WalRecord(head + 1, epoch, request.column, encode(request))
        with pytest.raises(PersistenceError, match="logged twice"):
            catalog.apply_record(record)
        assert catalog.wal.last_seq == head
        assert catalog.epochs() == epochs
        assert len(catalog.server("t")) == 4

    def test_the_wal_telemetry_section(self, tmp_path):
        catalog, db = self.make_durable(tmp_path)
        db.insert(42)
        sections = catalog.telemetry()
        assert "replication" not in sections
        wal = sections["wal"]
        assert set(wal) == {"seq", "segments", "bytes", "fsync", "epochs"}
        assert wal["seq"] == catalog.wal.last_seq == 2
        assert wal["fsync"] == "never"
        assert wal["epochs"] == catalog.epochs() == {"t": 1}


class TestRecoveryEqualsLive:
    """A seeded mixed workload on a journaled endpoint — inserts,
    deletes, merges, cracking queries and a key rotation — recovers to
    the live catalog: the same epochs, and every range answered with
    the plaintext model's values.  ``checkpoint`` snapshots halfway, so
    replay starts from the snapshot's watermark instead of the log's
    first record."""

    STEPS = 40

    @pytest.mark.parametrize("checkpoint", [False, True],
                             ids=["log", "checkpoint"])
    @pytest.mark.parametrize("seed", range(8))
    def test_recovered_catalog_answers_like_the_live_one(
        self, tmp_path, seed, checkpoint
    ):
        import random

        from repro.core.persistence import (
            checkpoint_catalog,
            recover_catalog,
        )

        rng = random.Random(seed)
        values = rng.sample(range(1_000), 48)
        catalog, db = TestDurableRecovery().make_durable(tmp_path)
        model = dict(enumerate([5, 1, 9, 3]))
        for step in range(self.STEPS):
            action = rng.random()
            if step == self.STEPS // 2:
                if checkpoint:
                    checkpoint_catalog(catalog, str(tmp_path), catalog.wal)
                mapping = db.rotate_key(new_seed=seed + 100)
                model = {mapping[old]: value for old, value in model.items()}
            elif action < 0.45:
                value = values.pop()
                model[db.insert(value)] = value
            elif action < 0.65 and model:
                victim = rng.choice(sorted(model))
                db.delete(victim)
                del model[victim]
            elif action < 0.8:
                db.merge()
            else:
                low = rng.randrange(1_000)
                db.query(low, low + rng.randrange(200))
        recovered, info = recover_catalog(str(tmp_path))
        assert info["snapshot"] is checkpoint
        assert recovered.epochs() == catalog.epochs()
        for low, high in [(0, 1_000), (0, 99), (250, 600), (900, 999)]:
            query = db.client.make_query(low, high)
            expected = sorted(v for v in model.values() if low <= v <= high)
            for served in (catalog, recovered):
                response = served.server("t").execute(query)
                result = db.client.decrypt_results(response.row_ids,
                                                   response.rows)
                assert sorted(map(int, result.values)) == expected
        recovered.server("t").engine.check_invariants()


class TestCheckpointTrigger:
    """The end-of-dispatch checkpoint test reads the writer's own
    segment count: serving lists no directory."""

    CHECKPOINT_SEGMENTS = 3

    def test_serving_lists_no_directory_and_the_checkpoint_still_fires(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.core.persistence import checkpoint_catalog
        from repro.core.wal import WalWriter
        from repro.net.catalog import ColumnCatalog
        from repro.net.transport import LoopbackTransport

        directory = str(tmp_path)
        listdir = os.listdir
        listings = []

        def counted_listdir(*args):
            listings.append(args)
            return listdir(*args)

        def on_disk():
            return len([name for name in listdir(directory)
                        if name.endswith(".seg")])

        fired = []

        def checkpoint():
            fired.append({"listings": len(listings), "on_disk": on_disk(),
                          "counted": writer.segment_count()})
            return checkpoint_catalog(catalog, directory, writer)

        # Every record is bigger than a segment: one file per append.
        writer = WalWriter(directory, segment_bytes=1, fsync="never")
        catalog = ColumnCatalog()
        catalog.bind_wal(writer, checkpoint=checkpoint,
                         checkpoint_segments=self.CHECKPOINT_SEGMENTS)
        monkeypatch.setattr(os, "listdir", counted_listdir)
        db = OutsourcedDatabase(
            [5, 1, 9, 3], seed=23, transport=LoopbackTransport(catalog),
            column="t",
        )
        for value in (42, 43):
            db.insert(value)
            for _ in range(5):
                assert db.query(0, 100).values.size
        # create + 2 inserts = 3 segments: at the threshold, not over.
        assert writer.segment_count() == on_disk() == 3
        assert not fired and not listings
        db.insert(44)
        assert fired == [{"listings": 0, "on_disk": 4, "counted": 4}]
        assert catalog.obs.metrics.counter_value("wal.checkpoints") == 1
        # The checkpoint itself (compaction) lists; the count follows.
        assert writer.segment_count() == on_disk() == 1
        assert writer.stats()["segments"] == 1
        before = len(listings)
        for _ in range(5):
            db.query(0, 100)
        assert len(listings) == before

    def test_the_count_survives_reopening(self, tmp_path):
        import os

        from repro.core.wal import WalWriter
        from repro.net.protocol import MergeRequest, encode

        directory = str(tmp_path)
        request = encode(MergeRequest(column="t"))
        with WalWriter(directory, segment_bytes=1, fsync="never") as writer:
            assert writer.segment_count() == 0
            for epoch in range(1, 4):
                writer.append("t", epoch, request)
            assert writer.segment_count() == 3
        with WalWriter(directory, fsync="never") as writer:
            assert writer.segment_count() == writer.stats()["segments"] == 3
            # The recovered tail is reopened, not created.
            writer.append("t", 4, request)
            assert writer.segment_count() == writer.stats()["segments"] == 3
            assert writer.compact(2) == 2
            assert writer.segment_count() == writer.stats()["segments"] == 1
        # An empty last segment is removed by recovery.
        open(os.path.join(directory, "wal-%020d.seg" % 5), "wb").close()
        with WalWriter(directory, segment_bytes=1, fsync="never") as writer:
            assert writer.segment_count() == writer.stats()["segments"] == 1
            writer.append("t", 5, request)
            assert writer.segment_count() == writer.stats()["segments"] == 2


def test_a_checkpoint_is_its_columns_frames(tmp_path):
    """A byte count, so it cannot flake: on a seeded, cracked 20k-row
    column the checkpoint file is at most 1.05x the column's
    ``create_column`` frame plus its cracks' ``QUERY`` bytes (1.002x in
    fact: 786 846 B against 760 108 + 25 161 B, 387 cracks).  The JSON
    snapshot it replaced was 2.29x (1 798 517 B)."""
    import random

    from repro.core.persistence import SNAPSHOT_FILENAME, checkpoint_catalog
    from repro.core.query import EncryptedQuery
    from repro.core.wal import WalWriter
    from repro.net.catalog import ColumnCatalog
    from repro.net.protocol import QUERY, CreateColumnRequest
    from repro.net.transport import LoopbackTransport

    rng = random.Random(20)
    values = rng.sample(range(1_000_000), 20_000)
    catalog = ColumnCatalog()
    writer = WalWriter(str(tmp_path), fsync="never")
    catalog.bind_wal(writer)
    db = OutsourcedDatabase(values, seed=11, column="t", min_piece_size=1,
                            transport=LoopbackTransport(catalog))
    for _ in range(200):
        low = rng.randrange(1_000_000)
        db.query(low, low + 200)
    server = catalog.server("t")
    column, keys = server.engine.column, server.engine.cracks.keys
    assert len(keys) > 300
    create = encode(CreateColumnRequest(
        column="t", rows=column.rows_at(np.arange(len(column))),
        row_ids=column.row_ids, config=server.config))
    cracks = b"".join(QUERY.parts(EncryptedQuery(
        low=None, high=None, pivots=tuple(key.bound for key in keys))))
    checkpoint_catalog(catalog, str(tmp_path), writer)
    size = os.path.getsize(os.path.join(str(tmp_path), SNAPSHOT_FILENAME))
    assert size <= 1.05 * (len(create) + len(cracks)), (
        size, len(create), len(cracks))
