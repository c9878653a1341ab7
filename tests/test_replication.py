"""Replication tests: WAL streaming, read-only replicas, ReplicaSet.

Everything runs over loopback transports — the same envelopes and
frames as TCP without the sockets.  The kill -9 / restart path is
covered separately in ``test_crash_recovery.py``.
"""

import threading

import pytest

from repro.core.session import OutsourcedDatabase
from repro.core.wal import WalWriter
from repro.errors import (
    PersistenceError,
    ProtocolError,
    ReadOnlyError,
    TransportError,
)
from repro.net.catalog import ColumnCatalog
from repro.net.client import RemoteColumn
from repro.net.protocol import (
    MergeRequest,
    QueryRequest,
    QueryResponse,
    decode,
    encode,
)
from repro.net.replication import ReplicaSet, ReplicationClient
from repro.net.transport import LoopbackTransport, Transport


def make_primary(tmp_path, values=(5, 1, 9, 3), column="t", seed=7):
    catalog = ColumnCatalog()
    catalog.bind_wal(WalWriter(str(tmp_path), fsync="never"))
    db = OutsourcedDatabase(
        list(values), transport=LoopbackTransport(catalog),
        column=column, seed=seed,
    )
    return catalog, db


def make_replica(primary, replica_id="r1"):
    replica = ColumnCatalog()
    replica.set_read_only("primary.example:9045")
    client = ReplicationClient(
        replica, LoopbackTransport(primary), replica_id, poll_interval=0.01
    )
    return replica, client


class TestReadOnlyReplica:
    def test_mutations_refused_with_typed_error(self, tmp_path):
        primary, db = make_primary(tmp_path)
        replica, client = make_replica(primary)
        client.sync_once()
        handle = RemoteColumn(LoopbackTransport(replica), "t")
        for call in (
            lambda: handle.insert([]),
            lambda: handle.delete([0]),
            lambda: handle.merge(),
            lambda: handle.rotate_begin(),
            lambda: handle.create([], []),
        ):
            with pytest.raises(ReadOnlyError) as err:
                call()
            assert "primary.example:9045" in str(err.value)
            assert "read replica" in str(err.value)

    def test_reads_still_served(self, tmp_path):
        primary, db = make_primary(tmp_path)
        replica, client = make_replica(primary)
        client.sync_once()
        query = db.client.make_query(0, 100)
        via_primary = RemoteColumn(LoopbackTransport(primary), "t")
        via_replica = RemoteColumn(LoopbackTransport(replica), "t")
        assert sorted(map(int, via_replica.query(query).row_ids)) == sorted(
            map(int, via_primary.query(query).row_ids)
        )

    def test_batch_mutation_slot_refused(self, tmp_path):
        primary, db = make_primary(tmp_path)
        replica, client = make_replica(primary)
        client.sync_once()
        handle = RemoteColumn(LoopbackTransport(replica), "t")
        responses = handle.call_many([
            QueryRequest(column="t", query=db.client.make_query(0, 100)),
            MergeRequest(column="t"),
        ])
        assert type(responses[0]).__name__ == "QueryResponse"
        assert type(responses[1]).__name__ == "ErrorResponse"
        assert responses[1].code == "read_only"

    def test_refusal_counter_increments(self, tmp_path):
        primary, db = make_primary(tmp_path)
        replica, client = make_replica(primary)
        client.sync_once()
        handle = RemoteColumn(LoopbackTransport(replica), "t")
        with pytest.raises(ReadOnlyError):
            handle.merge()
        assert replica.obs.metrics.counter_value(
            "replication.mutations_refused"
        ) == 1


class TestReplicationClient:
    def test_subscribe_restores_snapshot(self, tmp_path):
        primary, db = make_primary(tmp_path)
        replica, client = make_replica(primary)
        applied = client.sync_once()
        assert applied == 0  # everything arrived via the snapshot
        assert replica.epochs() == primary.epochs()
        assert replica.column_names == primary.column_names

    def test_incremental_entries_apply(self, tmp_path):
        primary, db = make_primary(tmp_path)
        replica, client = make_replica(primary)
        client.sync_once()
        db.insert(42)
        db.merge()
        applied = client.sync_once()
        assert applied == 2  # insert + merge envelopes
        assert replica.epochs() == primary.epochs()

    def test_ack_publishes_lag_gauge_on_primary(self, tmp_path):
        primary, db = make_primary(tmp_path)
        replica, client = make_replica(primary)
        client.sync_once()
        gauges = primary.obs.metrics.snapshot()["gauges"]
        assert gauges.get("replication.lag_epochs.r1") == 0
        section = primary._replication_telemetry()
        assert section["role"] == "primary"
        assert "r1" in section["replicas"]

    def test_replica_telemetry_section(self, tmp_path):
        primary, db = make_primary(tmp_path)
        replica, client = make_replica(primary)
        client.sync_once()
        handle = RemoteColumn(LoopbackTransport(replica), "t")
        section = handle.telemetry(["replication"])["replication"]
        assert section["role"] == "replica"
        assert section["replica_id"] == "r1"
        assert section["lag_entries"] == 0
        assert section["epochs"] == primary.epochs()

    def test_compacted_position_triggers_resubscribe(self, tmp_path):
        primary = ColumnCatalog()
        writer = WalWriter(str(tmp_path), segment_bytes=256, fsync="never")
        primary.bind_wal(writer)
        db = OutsourcedDatabase(
            [1, 2, 3], transport=LoopbackTransport(primary),
            column="t", seed=7,
        )
        replica, client = make_replica(primary)
        client.sync_once()
        stale_seq = client.applied_seq
        for value in range(10, 40):
            db.insert(value)
        db.merge()
        from repro.core.persistence import checkpoint_catalog

        checkpoint_catalog(primary, str(tmp_path), writer)
        from repro.core.wal import wal_start_seq

        assert wal_start_seq(str(tmp_path)) > stale_seq + 1
        client.sync_once()  # reset reply -> fresh snapshot
        assert client.applied_seq >= stale_seq
        assert replica.epochs() == primary.epochs()
        assert replica.obs.metrics.counter_value("replication.resets") == 1

    def test_background_thread_catches_up(self, tmp_path):
        primary, db = make_primary(tmp_path)
        replica, client = make_replica(primary)
        client.start()
        try:
            db.insert(42)
            db.merge()
            done = threading.Event()
            for _ in range(200):
                if replica.epochs() == primary.epochs() and len(replica):
                    done.set()
                    break
                threading.Event().wait(0.01)
            assert done.is_set()
        finally:
            client.stop()

    def test_subscribe_requires_wal_on_primary(self, tmp_path):
        primary = ColumnCatalog()  # no WAL bound
        replica, client = make_replica(primary)
        with pytest.raises(ProtocolError):
            client.subscribe()

    def test_apply_epoch_gap_is_a_typed_error(self, tmp_path):
        from repro.net.protocol import request_to_dict

        primary, db = make_primary(tmp_path)
        replica, client = make_replica(primary)
        client.sync_once()
        entry = {
            "seq": client.applied_seq + 1,
            "column": "t",
            "epoch": replica.epoch("t") + 5,
            "request": request_to_dict(MergeRequest(column="t")),
        }
        with pytest.raises(PersistenceError) as err:
            replica.apply_wal_entry(entry)
        assert "missing entries" in str(err.value)

    def test_malformed_request_envelope_is_a_typed_error(self, tmp_path):
        primary, db = make_primary(tmp_path)
        replica, client = make_replica(primary)
        client.sync_once()
        entry = {
            "seq": client.applied_seq + 1,
            "column": "t",
            "epoch": replica.epoch("t") + 1,
            "request": {"kind": "merge_request", "column": "t"},  # no version
        }
        with pytest.raises(PersistenceError):
            replica.apply_wal_entry(entry)

    def test_stale_entry_is_skipped_idempotently(self, tmp_path):
        from repro.net.protocol import request_to_dict

        primary, db = make_primary(tmp_path)
        replica, client = make_replica(primary)
        client.sync_once()
        entry = {
            "seq": 1,
            "column": "t",
            "epoch": 0,
            "request": request_to_dict(MergeRequest(column="t")),
        }
        epochs_before = replica.epochs()
        assert replica.apply_wal_entry(entry) is False
        assert replica.epochs() == epochs_before


class FailingTransport(Transport):
    """Raises TransportError on every exchange."""

    def exchange(self, frame, retryable=False):
        raise TransportError("wire down")

    def close(self):
        pass


class TestReplicaSet:
    def _topology(self, tmp_path):
        primary = ColumnCatalog()
        primary.bind_wal(WalWriter(str(tmp_path), fsync="never"))
        replica, client = make_replica(primary)
        replica_set = ReplicaSet(
            LoopbackTransport(primary),
            [LoopbackTransport(replica)],
            watermark_interval=0.0,
        )
        db = OutsourcedDatabase(
            [10, 20, 30], transport=replica_set, column="t", seed=9
        )
        return primary, replica, client, replica_set, db

    def test_create_fence_prevents_missing_column_reads(self, tmp_path):
        primary, replica, client, replica_set, db = self._topology(tmp_path)
        assert replica_set.fences() == {"t": 0}
        # Replica has not subscribed yet: the read must divert to the
        # primary, not fail against a replica missing the column.
        assert sorted(db.query(0, 100).values) == [10, 20, 30]
        counters = replica_set._obs.metrics.snapshot()["counters"]
        assert counters.get("replicaset.reads_primary", 0) >= 1

    def test_reads_route_to_caught_up_replica(self, tmp_path):
        primary, replica, client, replica_set, db = self._topology(tmp_path)
        client.sync_once()
        assert sorted(db.query(0, 100).values) == [10, 20, 30]
        counters = replica_set._obs.metrics.snapshot()["counters"]
        assert counters.get("replicaset.reads_replica", 0) >= 1

    def test_read_your_writes_pins_to_primary_until_catchup(self, tmp_path):
        primary, replica, client, replica_set, db = self._topology(tmp_path)
        client.sync_once()
        db.insert(15)
        db.merge()
        assert replica_set.fences()["t"] == primary.epoch("t")
        before = replica_set._obs.metrics.snapshot()["counters"].get(
            "replicaset.reads_replica", 0
        )
        assert sorted(db.query(0, 100).values) == [10, 15, 20, 30]
        counters = replica_set._obs.metrics.snapshot()["counters"]
        assert counters.get("replicaset.reads_replica", 0) == before
        client.sync_once()
        assert sorted(db.query(0, 100).values) == [10, 15, 20, 30]
        counters = replica_set._obs.metrics.snapshot()["counters"]
        assert counters.get("replicaset.reads_replica", 0) == before + 1

    def test_max_staleness_relaxes_the_fence(self, tmp_path):
        primary = ColumnCatalog()
        primary.bind_wal(WalWriter(str(tmp_path), fsync="never"))
        replica, client = make_replica(primary)
        replica_set = ReplicaSet(
            LoopbackTransport(primary),
            [LoopbackTransport(replica)],
            max_staleness_epochs=100,
            watermark_interval=0.0,
        )
        db = OutsourcedDatabase(
            [10, 20, 30], transport=replica_set, column="t", seed=9
        )
        client.sync_once()
        db.insert(15)
        db.merge()
        # The replica trails by 2 epochs but the bound allows it; its
        # (stale) answer omits the unreplicated insert.
        assert sorted(db.query(0, 100).values) == [10, 20, 30]
        counters = replica_set._obs.metrics.snapshot()["counters"]
        assert counters.get("replicaset.reads_replica", 0) >= 1

    def test_transport_failure_fails_over_to_primary(self, tmp_path):
        primary = ColumnCatalog()
        primary.bind_wal(WalWriter(str(tmp_path), fsync="never"))
        db = OutsourcedDatabase(
            [10, 20, 30], transport=LoopbackTransport(primary),
            column="t", seed=9,
        )
        # A fresh ReplicaSet holds no fences for "t", so the read is
        # routed to the (dead) replica first and must fall back.
        replica_set = ReplicaSet(
            LoopbackTransport(primary), [FailingTransport()],
            watermark_interval=0.0,
        )
        reply = decode(replica_set.exchange(_query_frame(db)))
        assert isinstance(reply, QueryResponse)
        counters = replica_set._obs.metrics.snapshot()["counters"]
        assert counters.get("replicaset.failovers", 0) == 1

    def test_error_envelope_fails_over_to_primary(self, tmp_path):
        primary = ColumnCatalog()
        primary.bind_wal(WalWriter(str(tmp_path), fsync="never"))
        empty_replica = ColumnCatalog()  # never subscribed: no columns
        empty_replica.set_read_only("primary.example:9045")
        replica_set = ReplicaSet(
            LoopbackTransport(primary),
            [LoopbackTransport(empty_replica)],
            watermark_interval=0.0,
        )
        db = OutsourcedDatabase(
            [10, 20, 30], transport=replica_set, column="t", seed=9
        )
        # A second handle with no fences (fresh ReplicaSet) picks the
        # replica; the unknown-column error there must fall back.
        fresh = ReplicaSet(
            LoopbackTransport(primary),
            [LoopbackTransport(empty_replica)],
            watermark_interval=0.0,
        )
        reply = decode(fresh.exchange(_query_frame(db)))
        assert isinstance(reply, QueryResponse)
        counters = fresh._obs.metrics.snapshot()["counters"]
        assert counters.get("replicaset.failovers", 0) == 1

    def test_mutations_always_go_to_primary(self, tmp_path):
        primary, replica, client, replica_set, db = self._topology(tmp_path)
        client.sync_once()
        db.insert(40)
        db.merge()
        assert primary.epoch("t") == 2
        counters = replica_set._obs.metrics.snapshot()["counters"]
        # No mutation ever counts as a replica read.
        assert counters.get("replicaset.reads_replica", 0) == 0

    def test_close_closes_all_transports(self, tmp_path):
        primary, replica, client, replica_set, db = self._topology(tmp_path)
        replica_set.close()  # must not raise


def _query_frame(db):
    return encode(
        QueryRequest(column="t", query=db.client.make_query(0, 100))
    )
