"""Tests for the sharded logical-column layer.

Covers the stateless global <-> local id routing, the
:class:`~repro.net.shard.ShardedRemoteColumn` scatter-gather handle,
the shard-count-1 byte-identity guarantee, per-shard fenced rotation
with conflict isolation, catalog shard-metadata validation, snapshot
persistence of the shard registry, and a seeded differential workload
against an unsharded session.
"""

import numpy as np
import pytest

from repro.core.client import TrustedClient
from repro.core.persistence import (
    CATALOG_SNAPSHOT_VERSION,
    restore_catalog,
    snapshot_catalog,
)
from repro.core.session import OutsourcedDatabase
from repro.errors import (
    ProtocolError,
    RotationConflictError,
    SerializationError,
    UpdateError,
)
from repro.core.wal import WalWriter
from repro.net.catalog import ColumnCatalog
from repro.net.replication import ReplicationClient
from repro.net.shard import _MIX, ShardedRemoteColumn, shard_column_names
from repro.net.transport import LoopbackTransport
from repro.obs import Observability


def hint_for_shard(target: int, shards: int) -> int:
    """A plaintext key hint whose multiplicative hash routes to ``target``."""
    for key in range(64 * shards):
        if ((key * _MIX) & 0xFFFFFFFF) % shards == target:
            return key
    raise AssertionError("no hint found")  # pragma: no cover


def make_sharded(values, shards, ambiguity=False, seed=7, obs=None):
    """A catalog + client + sharded handle with ``values`` uploaded."""
    obs = obs if obs is not None else Observability()
    catalog = ColumnCatalog(obs=obs)
    client = TrustedClient(seed=seed, ambiguity=ambiguity)
    rows, row_ids = client.encrypt_dataset(values)
    handle = ShardedRemoteColumn(
        LoopbackTransport(catalog),
        "values",
        shards=shards,
        physical_per_value=2 if ambiguity else 1,
        obs=obs,
    )
    handle.create(rows, row_ids)
    return catalog, client, handle


class TestRouting:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("per_value", [1, 2])
    def test_round_trip_identity(self, shards, per_value):
        handle = ShardedRemoteColumn.__new__(ShardedRemoteColumn)
        handle.shard_count = shards
        handle.physical_per_value = per_value
        for global_id in range(240):
            shard, local = handle.to_local(global_id)
            assert 0 <= shard < shards
            assert handle.to_global(shard, local) == global_id

    @pytest.mark.parametrize("per_value", [1, 2])
    def test_locals_dense_per_shard(self, per_value):
        """Contiguous globals produce contiguous locals on every shard,
        so base uploads and server-assigned insert ids line up."""
        shards = 3
        handle = ShardedRemoteColumn.__new__(ShardedRemoteColumn)
        handle.shard_count = shards
        handle.physical_per_value = per_value
        locals_by_shard = {s: [] for s in range(shards)}
        for global_id in range(shards * per_value * 10):
            shard, local = handle.to_local(global_id)
            locals_by_shard[shard].append(local)
        for shard, locals_ in locals_by_shard.items():
            assert locals_ == list(range(per_value * 10))

    def test_shard_count_one_is_identity(self):
        handle = ShardedRemoteColumn.__new__(ShardedRemoteColumn)
        handle.shard_count = 1
        handle.physical_per_value = 2
        for global_id in range(50):
            assert handle.to_local(global_id) == (0, global_id)
            assert handle.to_global(0, global_id) == global_id

    def test_ambiguity_pair_stays_on_one_shard(self):
        """Both physical rows of a value route to the same shard, with
        their in-pair offsets preserved (rotation re-encrypts pairs)."""
        handle = ShardedRemoteColumn.__new__(ShardedRemoteColumn)
        handle.shard_count = 4
        handle.physical_per_value = 2
        for pair in range(40):
            shard_a, local_a = handle.to_local(2 * pair)
            shard_b, local_b = handle.to_local(2 * pair + 1)
            assert shard_a == shard_b
            assert local_b == local_a + 1
            assert local_a % 2 == 0

    def test_vectorized_matches_scalar(self):
        handle = ShardedRemoteColumn.__new__(ShardedRemoteColumn)
        handle.shard_count = 3
        handle.physical_per_value = 2
        for shard in range(3):
            locals_ = np.arange(20)
            expected = [handle.to_global(shard, l) for l in locals_]
            assert handle._to_global_array(shard, locals_).tolist() == expected

    def test_shard_column_names(self):
        assert shard_column_names("prices", 3) == [
            "prices#0",
            "prices#1",
            "prices#2",
        ]

    def test_bad_construction_rejected(self):
        transport = LoopbackTransport(ColumnCatalog())
        with pytest.raises(UpdateError, match="shard count"):
            ShardedRemoteColumn(transport, "c", shards=0)
        with pytest.raises(UpdateError, match="physical_per_value"):
            ShardedRemoteColumn(transport, "c", shards=2, physical_per_value=3)


class TestScatterGather:
    def test_create_registers_every_shard(self):
        catalog, _, handle = make_sharded([10, 20, 30, 40, 50], shards=3)
        assert catalog.column_names == ["values#0", "values#1", "values#2"]
        registry = catalog.shards()
        assert registry == {
            "values": {
                "count": 3,
                "physical_per_value": 1,
                "columns": ["values#0", "values#1", "values#2"],
            }
        }
        total = sum(len(catalog.server(n)) for n in catalog.column_names)
        assert total == 5

    def test_empty_shard_created_and_queryable(self):
        """Fewer rows than shards: the tail shards hold zero rows but
        still exist, answer queries, and keep the geometry consistent."""
        catalog, client, handle = make_sharded([10, 20], shards=4)
        sizes = [len(catalog.server(n)) for n in catalog.column_names]
        assert sorted(sizes, reverse=True) == [1, 1, 0, 0]
        response = handle.query(client.make_query(None, None))
        assert sorted(int(i) for i in response.row_ids) == [0, 1]
        assert len(response.rows) == 2

    def test_all_rows_on_one_shard(self):
        """Sparse global ids may legally land every row on one shard;
        the other shards stay empty and queries still merge correctly."""
        obs = Observability()
        catalog = ColumnCatalog(obs=obs)
        client = TrustedClient(seed=3)
        rows, _ = client.encrypt_dataset([5, 6, 7])
        handle = ShardedRemoteColumn(
            LoopbackTransport(catalog), "values", shards=3, obs=obs
        )
        # Globals 0, 3, 6 all route to shard 0 under round-robin.
        handle.create(rows, [0, 3, 6])
        assert len(catalog.server("values#0")) == 3
        assert len(catalog.server("values#1")) == 0
        response = handle.query(client.make_query(None, None))
        assert sorted(int(i) for i in response.row_ids) == [0, 3, 6]

    def test_query_merges_all_shards(self):
        values = list(range(0, 200, 10))
        catalog, client, handle = make_sharded(values, shards=4)
        response = handle.query(client.make_query(None, None))
        assert sorted(int(i) for i in response.row_ids) == list(
            range(len(values))
        )
        result = client.decrypt_results(response.row_ids, response.rows)
        assert sorted(int(v) for v in result.values) == values

    def test_fetch_preserves_input_order(self):
        values = list(range(0, 120, 10))
        catalog, client, handle = make_sharded(values, shards=3)
        wanted = [7, 0, 5, 2, 11]
        rows = handle.fetch(wanted)
        result = client.decrypt_results(wanted, rows)
        by_logical = dict(
            zip((int(i) for i in result.logical_ids), result.values)
        )
        assert [by_logical[i] for i in wanted] == [values[i] for i in wanted]

    def test_insert_rejects_partial_value(self):
        _, client, handle = make_sharded([1, 2], shards=2, ambiguity=True)
        row = client.encrypt_value(3)[0]
        with pytest.raises(UpdateError, match="whole number of values"):
            handle.insert([row])

    def test_insert_key_hint_routes_deterministically(self):
        catalog, client, handle = make_sharded([1, 2, 3], shards=3)
        target = 2
        hint = hint_for_shard(target, 3)
        before = len(catalog.server("values#%d" % target))
        ids = []
        for _ in range(3):
            ids.extend(handle.insert(client.encrypt_value(hint), key_hint=hint))
        after = len(catalog.server("values#%d" % target))
        assert after == before + 3
        assert all(handle.shard_of(i) == target for i in ids)
        assert len(set(ids)) == 3

    def test_insert_round_robin_without_hint(self):
        catalog, client, handle = make_sharded([1, 2, 3], shards=3)
        shards_used = [
            handle.shard_of(handle.insert(client.encrypt_value(9))[0])
            for _ in range(6)
        ]
        assert shards_used == [0, 1, 2, 0, 1, 2]

    def test_insert_then_query_and_delete_across_shards(self):
        values = [10, 20, 30, 40]
        catalog, client, handle = make_sharded(values, shards=2)
        new_ids = handle.insert(client.encrypt_value(25), key_hint=25)
        response = handle.query(client.make_query(None, None))
        assert len(response.rows) == 5
        assert handle.delete(new_ids + [0]) == 2
        response = handle.query(client.make_query(None, None))
        assert len(response.rows) == 3

    def test_query_many_merges_per_query(self):
        values = list(range(0, 100, 5))
        catalog, client, handle = make_sharded(values, shards=4)
        queries = [
            client.make_query(0, 30),
            client.make_query(50, None),
            client.make_query(None, 10),
        ]
        merged = handle.query_many(queries)
        assert len(merged) == 3
        for query, response in zip(queries, merged):
            single = handle.query(query)
            assert sorted(int(i) for i in response.row_ids) == sorted(
                int(i) for i in single.row_ids
            )

    def test_fanout_histogram_observed(self):
        obs = Observability()
        catalog, client, handle = make_sharded(
            [1, 2, 3, 4], shards=4, obs=obs
        )
        handle.query(client.make_query(None, None))
        fanout = obs.metrics.histogram("net.shard_fanout")
        assert fanout.count == 2  # create + query
        assert fanout.max == 4
        assert obs.metrics.gauge("catalog.shards").value == 4


class TestShardOneByteIdentical:
    """``shards=1`` must be the sharded machinery with identity routing:
    every response carries exactly the ids and ciphertext rows an
    unsharded column returns."""

    SHAPES = [
        (15, 45, True, True),
        (20, 20, True, True),
        (None, 30, True, False),
        (35, None, False, True),
        (None, None, True, True),
    ]

    @pytest.mark.parametrize("ambiguity", [False, True])
    def test_identical_ids_and_rows(self, ambiguity):
        values = list(range(0, 100, 5))
        plain = OutsourcedDatabase(values, ambiguity=ambiguity, seed=11)
        sharded = OutsourcedDatabase(
            values, ambiguity=ambiguity, seed=11, shards=1
        )
        for low, high, li, hi in self.SHAPES:
            a = plain.remote.query(plain.client.make_query(low, high, li, hi))
            b = sharded.remote.query(
                sharded.client.make_query(low, high, li, hi)
            )
            assert np.array_equal(
                np.asarray(a.row_ids), np.asarray(b.row_ids)
            )
            # Ciphertexts are frozen dataclasses over int tuples, so
            # equality here is exact byte-for-byte payload equality.
            assert list(a.rows) == list(b.rows)

    def test_identical_after_insert_delete_merge(self):
        values = [10, 20, 30, 40, 50]
        plain = OutsourcedDatabase(values, seed=13)
        sharded = OutsourcedDatabase(values, seed=13, shards=1)
        for db in (plain, sharded):
            db.insert(35)
            db.delete(1)
            db.merge()
        a = plain.remote.query(plain.client.make_query(None, None))
        b = sharded.remote.query(sharded.client.make_query(None, None))
        assert sorted(int(i) for i in a.row_ids) == sorted(
            int(i) for i in b.row_ids
        )
        assert sorted(int(v) for v in plain.query(0, 100).values) == sorted(
            int(v) for v in sharded.query(0, 100).values
        )


class TestRotationConflictIsolation:
    def test_conflict_retries_only_the_written_shard(self):
        """An insert landing between one shard's begin and apply fences
        off that shard alone: it is re-begun while the other shards'
        rotations stand (exactly one extra reencrypt call)."""
        shards = 3
        target = 1
        catalog, client, handle = make_sharded(
            list(range(0, 90, 10)), shards=shards
        )
        hint = hint_for_shard(target, shards)
        calls = {s: 0 for s in range(shards)}
        state = {"injected": False}

        def reencrypt(global_ids, rows):
            shard = handle.shard_of(global_ids[0])
            calls[shard] += 1
            if shard == target and not state["injected"]:
                state["injected"] = True
                handle.insert(client.encrypt_value(hint), key_hint=hint)
            return rows, global_ids

        total = handle.rotate_shards(reencrypt)
        assert calls == {0: 1, 1: 2, 2: 1}
        # The retried begin re-shipped the shard including the
        # concurrent insert, so nothing was erased.
        assert total == 10
        response = handle.query(client.make_query(None, None))
        assert len(response.rows) == 10

    def test_exhausted_retries_raise(self):
        shards = 2
        target = 0
        catalog, client, handle = make_sharded([1, 2, 3, 4], shards=shards)
        hint = hint_for_shard(target, shards)

        def always_conflict(global_ids, rows):
            if global_ids and handle.shard_of(global_ids[0]) == target:
                handle.insert(client.encrypt_value(hint), key_hint=hint)
            return rows, global_ids

        with pytest.raises(RotationConflictError):
            handle.rotate_shards(always_conflict, retries=0)

    def test_reencrypt_must_keep_rows_on_their_shard(self):
        catalog, client, handle = make_sharded([1, 2, 3, 4], shards=2)

        def migrate(global_ids, rows):
            # Shift every id by one shard: routes to the wrong owner.
            return rows, [i + 1 for i in global_ids]

        with pytest.raises(UpdateError, match="routes to shard"):
            handle.rotate_shards(migrate)

    def test_session_rotation_preserves_ids_and_values(self):
        values = list(range(0, 120, 10))
        db = OutsourcedDatabase(values, seed=17, shards=3, ambiguity=True)
        inserted = db.insert(55)
        db.delete(2)
        mapping = db.rotate_key(new_seed=99)
        assert all(old == new for old, new in mapping.items())
        assert inserted in mapping
        assert 2 not in mapping
        expected = sorted(v for i, v in enumerate(values) if i != 2) + [55]
        assert sorted(int(v) for v in db.query(0, 200).values) == sorted(
            expected
        )
        # Another rotation on top of the first still round-trips.
        db.rotate_key(new_seed=100)
        assert sorted(int(v) for v in db.query(0, 200).values) == sorted(
            expected
        )


class TestSessionSharded:
    @pytest.mark.parametrize("ambiguity", [False, True])
    def test_differential_against_unsharded(self, ambiguity):
        """A seeded mixed workload returns identical logical results
        whether the column is sharded or not."""
        values = [v * 3 % 251 for v in range(60)]
        plain = OutsourcedDatabase(values, ambiguity=ambiguity, seed=23)
        sharded = OutsourcedDatabase(
            values, ambiguity=ambiguity, seed=23, shards=3
        )
        workload = [
            ("query", (10, 90)),
            ("insert", 42),
            ("query", (None, 60)),
            ("delete", 5),
            ("query", (30, None)),
            ("merge", None),
            ("insert", 7),
            ("query", (0, 250)),
            ("point", 42),
        ]
        for op, arg in workload:
            if op == "query":
                a = plain.query(arg[0], arg[1])
                b = sharded.query(arg[0], arg[1])
                assert sorted(map(int, a.values)) == sorted(map(int, b.values))
                assert sorted(map(int, a.logical_ids)) == sorted(
                    map(int, b.logical_ids)
                )
            elif op == "point":
                a = plain.query_point(arg)
                b = sharded.query_point(arg)
                assert sorted(map(int, a.values)) == sorted(map(int, b.values))
            elif op == "insert":
                assert plain.insert(arg) == sharded.insert(arg)
            elif op == "delete":
                plain.delete(arg)
                sharded.delete(arg)
            elif op == "merge":
                plain.merge()
                sharded.merge()

    def test_shard_servers_and_single_server_guard(self):
        db = OutsourcedDatabase([1, 2, 3, 4, 5], seed=5, shards=3)
        assert db.shard_count == 3
        engines = db.shard_servers()
        assert len(engines) == 3
        assert sum(len(e) for e in engines) == 5
        with pytest.raises(ProtocolError, match="no single server"):
            db.server
        unsharded = OutsourcedDatabase([1, 2], seed=5)
        assert unsharded.shard_count == 0
        assert len(unsharded.shard_servers()) == 1

    def test_negative_shards_rejected(self):
        with pytest.raises(UpdateError, match="shard count"):
            OutsourcedDatabase([1, 2], shards=-1)

    def test_query_many_matches_sequential(self):
        values = list(range(0, 150, 5))
        db = OutsourcedDatabase(values, seed=29, shards=4)
        specs = [(10, 60), (100, None), (None, 40)]
        batched = db.query_many(specs)
        fresh = OutsourcedDatabase(values, seed=29, shards=4)
        for spec, result in zip(specs, batched):
            expected = fresh.query(spec[0], spec[1])
            assert sorted(map(int, result.values)) == sorted(
                map(int, expected.values)
            )


class TestCatalogShardMetadata:
    def _rows(self, client, values):
        return client.encrypt_dataset(values)

    def test_bad_descriptors_rejected(self):
        client = TrustedClient(seed=1)
        rows, row_ids = client.encrypt_dataset([1, 2])
        catalog = ColumnCatalog()
        bad = [
            ("not-a-dict", "shard metadata"),
            ({"of": "", "index": 0, "count": 1}, "non-empty string"),
            ({"of": "v", "index": 0, "count": 0}, "positive int"),
            ({"of": "v", "index": 0, "count": True}, "positive int"),
            ({"of": "v", "index": 2, "count": 2}, "index"),
            ({"of": "v", "index": -1, "count": 2}, "index"),
            (
                {"of": "v", "index": 0, "count": 2, "physical_per_value": 3},
                "physical_per_value",
            ),
        ]
        for shard, match in bad:
            with pytest.raises(UpdateError, match=match):
                catalog.create_column("c", rows, row_ids, shard=shard)
        # Nothing was registered by the failed attempts.
        assert catalog.column_names == []
        assert catalog.shards() == {}

    def test_sibling_geometry_enforced(self):
        client = TrustedClient(seed=1)
        catalog = ColumnCatalog()
        rows, row_ids = client.encrypt_dataset([1])
        catalog.create_column(
            "v#0", rows, row_ids, shard={"of": "v", "index": 0, "count": 2}
        )
        rows2, row_ids2 = client.encrypt_dataset([2])
        with pytest.raises(UpdateError, match="count mismatch"):
            catalog.create_column(
                "v#1", rows2, row_ids2,
                shard={"of": "v", "index": 0, "count": 3},
            )
        with pytest.raises(UpdateError, match="physical_per_value mismatch"):
            catalog.create_column(
                "v#1", rows2, row_ids2,
                shard={
                    "of": "v", "index": 1, "count": 2,
                    "physical_per_value": 2,
                },
            )
        with pytest.raises(UpdateError, match="already registered"):
            catalog.create_column(
                "v#1", rows2, row_ids2,
                shard={"of": "v", "index": 0, "count": 2},
            )
        catalog.create_column(
            "v#1", rows2, row_ids2, shard={"of": "v", "index": 1, "count": 2}
        )
        assert catalog.shards()["v"]["columns"] == ["v#0", "v#1"]

    def test_shards_gauge_counts_registered_columns(self):
        obs = Observability()
        catalog, _, _ = make_sharded([1, 2, 3], shards=3, obs=obs)
        assert obs.metrics.gauge("catalog.shards").value == 3


class TestPersistenceShards:
    def test_snapshot_round_trips_registry(self):
        values = list(range(0, 70, 10))
        db = OutsourcedDatabase(values, seed=31, shards=2, ambiguity=True)
        snapshot = snapshot_catalog(db._catalog)
        assert snapshot["version"] == CATALOG_SNAPSHOT_VERSION
        restored = restore_catalog(snapshot)
        assert restored.shards() == db._catalog.shards()
        assert restored.column_names == db._catalog.column_names
        for name in restored.column_names:
            assert len(restored.server(name)) == len(db._catalog.server(name))
        # A session pointed at the restored catalog reads the same data.
        handle = ShardedRemoteColumn(
            LoopbackTransport(restored), "values", shards=2,
            physical_per_value=2,
        )
        response = handle.query(db.client.make_query(None, None))
        result = db.client.decrypt_results(
            response.row_ids, response.rows, id_mapper=db._map_physical_ids
        )
        assert sorted(int(v) for v in result.values) == sorted(values)

    def test_missing_referenced_column_rejected(self):
        db = OutsourcedDatabase([1, 2, 3, 4], seed=41, shards=2)
        snapshot = snapshot_catalog(db._catalog)
        del snapshot["columns"]["values#1"]
        with pytest.raises(SerializationError, match="missing column"):
            restore_catalog(snapshot)

    def test_geometry_mismatch_rejected(self):
        db = OutsourcedDatabase([1, 2, 3, 4], seed=43, shards=2)
        snapshot = snapshot_catalog(db._catalog)
        snapshot["shards"]["values"]["count"] = 3
        with pytest.raises(SerializationError, match="lists 2 columns"):
            restore_catalog(snapshot)

    def test_invalid_registry_entry_rejected(self):
        db = OutsourcedDatabase([1, 2, 3, 4], seed=47, shards=2)
        snapshot = snapshot_catalog(db._catalog)
        snapshot["shards"]["values"]["physical_per_value"] = 3
        with pytest.raises(SerializationError, match="inconsistent shard"):
            restore_catalog(snapshot)

    def test_non_dict_registry_rejected(self):
        db = OutsourcedDatabase([1, 2], seed=53)
        snapshot = snapshot_catalog(db._catalog)
        snapshot["shards"] = ["nope"]
        with pytest.raises(SerializationError, match="must be an object"):
            restore_catalog(snapshot)


class TestReplicatedShards:
    def test_subscribe_and_resubscribe_carry_the_registry(self, tmp_path):
        """A replica joins — and re-joins over live state — through one
        path: both leave it with the primary's shard registry and a
        ``catalog.shards`` gauge that matches it."""
        primary = ColumnCatalog()
        primary.bind_wal(WalWriter(str(tmp_path), fsync="never"))
        obs = Observability()
        replica = ColumnCatalog(obs=obs)
        replica.set_read_only("primary.example:9045")
        client = ReplicationClient(replica, LoopbackTransport(primary), "r1")
        for column, shards, registered in (("a", 2, 2), ("b", 3, 5)):
            OutsourcedDatabase(
                list(range(0, 70, 10)), seed=31, column=column,
                shards=shards, transport=LoopbackTransport(primary),
            )
            client.subscribe()
            assert replica.shards() == primary.shards()
            assert replica.column_names == primary.column_names
            assert obs.metrics.gauge("catalog.shards").value == registered

