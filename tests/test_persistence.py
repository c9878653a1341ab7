"""Unit tests for server-state snapshots and key rotation."""

import json

import numpy as np
import pytest

from repro.core.persistence import restore_server, snapshot_server
from repro.core.session import OutsourcedDatabase
from repro.errors import PersistenceError, SerializationError
from repro.net.protocol import encode

VALUES = list(np.random.default_rng(14).permutation(300))


def warmed_db(**kwargs):
    db = OutsourcedDatabase(VALUES, seed=15, **kwargs)
    db.query(50, 120)
    db.query(200, 260)
    return db


class TestSnapshot:
    def test_round_trip_preserves_results(self):
        db = warmed_db()
        restored = restore_server(snapshot_server(db.server))
        for low, high in [(0, 100), (50, 120), (130, 290)]:
            query = db.client.make_query(low, high)
            original = db.server.execute(db.client.make_query(low, high))
            recovered = restored.execute(query)
            assert sorted(map(int, original.row_ids)) == sorted(
                map(int, recovered.row_ids)
            )

    def test_restored_index_state(self):
        db = warmed_db()
        restored = restore_server(snapshot_server(db.server))
        assert len(restored.engine.tree) == len(db.server.engine.tree)
        assert restored.engine.column.row_ids.tolist() == (
            db.server.engine.column.row_ids.tolist()
        )
        restored.engine.check_invariants()

    def test_restored_index_answers_without_recracking(self):
        db = warmed_db()
        restored = restore_server(snapshot_server(db.server))
        restored.execute(db.client.make_query(50, 120))
        stats = restored.stats_log[-1]
        assert stats.cracks == 0  # bounds already indexed pre-snapshot

    def test_pending_state_survives(self):
        db = warmed_db()
        db.insert(5555)
        db.delete(3)
        restored = restore_server(snapshot_server(db.server))
        assert restored.pending_count == db.server.pending_count
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

    def test_json_compatible(self):
        db = warmed_db()
        text = json.dumps(snapshot_server(db.server))
        restored = restore_server(json.loads(text))
        restored.engine.check_invariants()

    def test_scan_engine_snapshot(self):
        db = OutsourcedDatabase(VALUES[:50], engine="scan", seed=16)
        db.query(0, 100)
        restored = restore_server(snapshot_server(db.server))
        query = db.client.make_query(0, 100)
        assert len(restored.execute(query).rows) == len(
            db.server.execute(db.client.make_query(0, 100)).rows
        )

    def test_wrong_kind_rejected(self):
        with pytest.raises(SerializationError):
            restore_server({"kind": "something"})

    @pytest.mark.parametrize("version", [1, 2, 3, 99, None])
    def test_any_other_version_rejected(self, version):
        """There is no second reader."""
        db = warmed_db()
        snapshot = snapshot_server(db.server)
        snapshot["version"] = version
        with pytest.raises(PersistenceError, match="version"):
            restore_server(snapshot)

    @pytest.mark.parametrize("key, value", [
        ("engine_kind", "vdaptive"), ("auto_merge_threshold", 0),
    ])
    def test_engine_refusing_its_config_is_a_typed_rejection(self, key, value):
        snapshot = snapshot_server(warmed_db().server)
        # ``engine_kind`` is not a key the engine takes at all.
        snapshot["config"][key] = value
        with pytest.raises(SerializationError, match="malformed snapshot"):
            restore_server(snapshot)

    def test_truncated_snapshot_rejected(self):
        db = warmed_db()
        snapshot = snapshot_server(db.server)
        del snapshot["rows"]
        with pytest.raises(SerializationError):
            restore_server(snapshot)


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
        assert len(db.server.engine.tree) == 0

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
    def test_current_version_is_4(self):
        """Version 4 holds state only: the engine configuration under
        ``config`` (keyed like ``CONFIG_DEFAULTS``) and no counts —
        those live in the metrics registry."""
        from repro.core.persistence import SNAPSHOT_VERSION
        from repro.net.protocol import CONFIG_DEFAULTS

        snapshot = snapshot_server(warmed_db().server)
        assert SNAPSHOT_VERSION == snapshot["version"] == 4
        assert set(snapshot) == {
            "kind", "version", "config", "rows", "row_ids", "tree",
            "pending", "tombstones", "next_row_id",
        }
        assert set(snapshot["config"]) == set(CONFIG_DEFAULTS)

    def test_rows_and_pending_rows_are_wire_blocks(self):
        """One row-set encoding: a snapshot stores the column and the
        pending buffer as the same flat block a frame carries."""
        from repro.crypto.serialization import rows_from_dict, rows_to_dict

        db = warmed_db()
        db.insert(77)
        snapshot = json.loads(json.dumps(snapshot_server(db.server)))
        column = db.server.engine.column
        assert snapshot["rows"] == rows_to_dict(
            [column.row(i) for i in range(len(column))]
        )
        assert set(snapshot["pending"]) == {"row_ids", "rows"}
        assert len(rows_from_dict(snapshot["pending"]["rows"])) == 1
        snapshot["pending"]["row_ids"] = []
        with pytest.raises(SerializationError, match="pending"):
            restore_server(snapshot)


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
        restored = restore_catalog(json.loads(json.dumps(
            snapshot_catalog(catalog))))
        assert restored.column_names == ["a", "b"]
        assert restored.config("a")["min_piece_size"] == 2
        query = client.make_query(2, 8)
        assert sorted(map(int, restored.server("a").execute(query).row_ids)) \
            == sorted(map(int,
                          catalog.server("a").execute(
                              client.make_query(2, 8)).row_ids))

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
            restore_catalog({"kind": "secure_server", "version": 1})

    def test_malformed_columns_rejected(self):
        from repro.core.persistence import restore_catalog

        with pytest.raises(SerializationError):
            restore_catalog({
                "kind": "column_catalog", "version": 5,
                "columns": {"a": {}}, "epochs": {"a": 0},
            })


class TestSessionServerRestore:
    """The documented restore idiom: ``db.server = restore_server(...)``."""

    def test_assigning_restored_server_keeps_index_and_results(self):
        from repro.core.persistence import restore_server, snapshot_server
        from repro.core.session import OutsourcedDatabase

        db = OutsourcedDatabase([13, 16, 4, 9, 2, 12, 7, 1], seed=42)
        db.query(4, 12)
        blob = json.dumps(snapshot_server(db.server))
        db.server = restore_server(json.loads(blob))
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


class TestCatalogSnapshotV3:
    """Catalog snapshots carry per-column mutation epochs (the WAL
    replay fence); only the current version is read."""

    def make_warm_catalog(self):
        from repro.net.catalog import ColumnCatalog
        from repro.net.transport import LoopbackTransport
        from repro.core.session import OutsourcedDatabase

        catalog = ColumnCatalog()
        db = OutsourcedDatabase(
            [5, 1, 9, 3], seed=21, transport=LoopbackTransport(catalog),
            column="t",
        )
        db.insert(42)
        db.merge()
        return catalog, db

    def test_current_catalog_version_is_5(self):
        """Version 5 maps a column name straight to its server
        snapshot (which carries the configuration), with no shard
        registry beside it."""
        from repro.core.persistence import (
            CATALOG_SNAPSHOT_VERSION,
            snapshot_catalog,
        )

        catalog, _ = self.make_warm_catalog()
        snapshot = snapshot_catalog(catalog)
        assert CATALOG_SNAPSHOT_VERSION == snapshot["version"] == 5
        assert sorted(snapshot) == ["columns", "epochs", "kind", "version"]
        assert snapshot["columns"]["t"]["kind"] == "secure_server"

    def test_epochs_round_trip(self):
        from repro.core.persistence import restore_catalog, snapshot_catalog

        catalog, _ = self.make_warm_catalog()
        assert catalog.epoch("t") == 2  # insert + merge
        restored = restore_catalog(
            json.loads(json.dumps(snapshot_catalog(catalog)))
        )
        assert restored.epochs() == catalog.epochs()

    def test_wal_seq_round_trips(self):
        from repro.core.persistence import snapshot_catalog

        catalog, _ = self.make_warm_catalog()
        snapshot = snapshot_catalog(catalog, wal_seq=17)
        assert snapshot["wal_seq"] == 17

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 99])
    def test_any_other_version_rejected(self, version):
        from repro.core.persistence import restore_catalog, snapshot_catalog
        from repro.errors import SerializationError

        catalog, _ = self.make_warm_catalog()
        snapshot = snapshot_catalog(catalog)
        snapshot["version"] = version
        with pytest.raises(SerializationError, match="version"):
            restore_catalog(snapshot)

    def test_a_version_4_snapshot_with_its_shard_registry_is_refused(self):
        """Version 4 carried a shard registry; version 5 does not, and
        no fallback reader takes the old form."""
        from repro.core.persistence import restore_catalog, snapshot_catalog
        from repro.errors import SerializationError

        catalog, _ = self.make_warm_catalog()
        snapshot = dict(snapshot_catalog(catalog), version=4, shards={})
        with pytest.raises(SerializationError, match="version"):
            restore_catalog(snapshot)

    @pytest.mark.parametrize("missing", ["epochs", "columns"])
    def test_missing_sections_rejected(self, missing):
        from repro.core.persistence import restore_catalog, snapshot_catalog
        from repro.errors import SerializationError

        catalog, _ = self.make_warm_catalog()
        snapshot = snapshot_catalog(catalog)
        del snapshot[missing]
        with pytest.raises(SerializationError):
            restore_catalog(snapshot)

    def test_epochs_for_unknown_columns_rejected(self):
        from repro.core.persistence import restore_catalog, snapshot_catalog
        from repro.errors import SerializationError

        catalog, _ = self.make_warm_catalog()
        snapshot = snapshot_catalog(catalog)
        snapshot["epochs"]["ghost"] = 4
        with pytest.raises(SerializationError):
            restore_catalog(snapshot)


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
                column="u", rows=rows, row_ids=ids),
            "insert_request": protocol.InsertRequest(column="t", rows=rows),
            "delete_request": protocol.DeleteRequest(column="t",
                                                     row_ids=(0,)),
            "merge_request": protocol.MergeRequest(column="t"),
            "rotate_apply": protocol.RotateApplyRequest(
                column="t", rows=rows, row_ids=ids),
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
