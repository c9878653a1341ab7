"""Unit tests for the secure server (query + update paths)."""

import numpy as np
import pytest

from repro.core.client import TrustedClient
from repro.core.server import SecureServer
from repro.errors import ProtocolError, UpdateError

VALUES = [50, 10, 80, 30, 60, 20, 90, 40]


@pytest.fixture(scope="module")
def client():
    return TrustedClient(seed=21)


def make_server(client, engine="adaptive", **kwargs):
    rows, row_ids = client.encrypt_dataset(VALUES)
    return SecureServer(rows, row_ids, engine=engine, **kwargs)


def query_values(server, client, low, high):
    response = server.execute(client.make_query(low, high))
    return sorted(client.encryptor.decrypt_value(r) for r in response.rows)


class TestQueryPath:
    @pytest.mark.parametrize("engine", ["adaptive", "scan"])
    def test_basic(self, client, engine):
        server = make_server(client, engine)
        assert query_values(server, client, 25, 65) == [30, 40, 50, 60]

    def test_unknown_engine_rejected(self, client):
        with pytest.raises(ProtocolError):
            make_server(client, engine="btree")

    def test_accounting(self, client):
        server = make_server(client)
        server.execute(client.make_query(25, 65))
        server.execute(client.make_query(0, 100))
        counted = server.obs.metrics.counter_value
        assert counted("server.queries_served") == 2
        assert counted("server.rows_shipped") == 4 + 8

    def test_response_is_single_message(self, client):
        server = make_server(client)
        response = server.execute(client.make_query(25, 65))
        assert len(response.rows) == len(response.row_ids)


class TestUpdates:
    def test_insert_visible_before_merge(self, client):
        server = make_server(client)
        server.insert(client.encrypt_value(55))
        assert server.pending_count == 1
        assert query_values(server, client, 50, 60) == [50, 55, 60]

    def test_insert_ids_continue(self, client):
        server = make_server(client)
        ids = server.insert(client.encrypt_value(55))
        assert ids == [len(VALUES)]

    def test_empty_insert_rejected(self, client):
        server = make_server(client)
        with pytest.raises(UpdateError):
            server.insert([])

    def test_delete_hides_base_row(self, client):
        server = make_server(client)
        victim = VALUES.index(30)
        server.delete([victim])
        assert 30 not in query_values(server, client, 0, 100)

    def test_delete_hides_pending_row(self, client):
        server = make_server(client)
        ids = server.insert(client.encrypt_value(55))
        server.delete(ids)
        assert 55 not in query_values(server, client, 0, 100)

    def test_no_tombstone_builds_no_mask(self, client, monkeypatch):
        """A column with no tombstone answers, pending rows included,
        without asking which of its rows are deleted; one with a
        tombstone still drops it from the indexed and the pending part."""
        from repro.store.updates import PendingUpdates

        server = make_server(client)
        pending_id = server.insert(client.encrypt_value(55))
        asked = []
        deleted_mask = PendingUpdates.deleted_mask

        def refused(self, row_ids):
            raise AssertionError("a mask with no tombstone")

        monkeypatch.setattr(PendingUpdates, "deleted_mask", refused)
        assert query_values(server, client, 0, 100) == sorted(VALUES + [55])
        monkeypatch.setattr(
            PendingUpdates, "deleted_mask",
            lambda self, row_ids: asked.append(len(row_ids))
            or deleted_mask(self, row_ids))
        server.delete([VALUES.index(30)] + pending_id)
        assert query_values(server, client, 0, 100) == sorted(
            v for v in VALUES if v != 30)
        assert asked == [len(VALUES), 1]  # the indexed rows, the pending one

    @pytest.mark.parametrize("engine", ["adaptive", "scan"])
    def test_merge_then_query(self, client, engine):
        server = make_server(client, engine)
        if engine == "adaptive":
            server.execute(client.make_query(25, 65))  # build some index
        server.insert(client.encrypt_value(55))
        server.delete([VALUES.index(30)])
        # Inserted and deleted before any merge: the tombstone names an
        # id the column never held, so it counts for neither side of
        # the row delta (+1 for 55, -1 for 30).
        server.delete(server.insert(client.encrypt_value(77)))
        assert server.merge_pending() == 0
        assert server.pending_count == 0
        assert query_values(server, client, 0, 100) == sorted(
            [v for v in VALUES if v != 30] + [55]
        )
        if engine == "adaptive":
            server.engine.check_invariants()

    def test_merge_inserted_row_queryable_by_range(self, client):
        server = make_server(client)
        for low in (15, 45, 75):
            server.execute(client.make_query(low, low + 10))
        server.insert(client.encrypt_value(33))
        server.merge_pending()
        server.engine.check_invariants()
        assert 33 in query_values(server, client, 30, 40)

    def test_len_includes_pending(self, client):
        server = make_server(client)
        assert len(server) == len(VALUES)
        server.insert(client.encrypt_value(1))
        assert len(server) == len(VALUES) + 1


class TestAutoMerge:
    def test_threshold_triggers_merge(self, client):
        server = make_server(client, auto_merge_threshold=2)
        server.insert(client.encrypt_value(11))
        server.insert(client.encrypt_value(12))
        assert server.pending_count == 2
        server.insert(client.encrypt_value(13))  # crosses the threshold
        assert server.pending_count == 0
        assert query_values(server, client, 11, 13) == [11, 12, 13]
        server.engine.check_invariants()

    def test_invalid_threshold_rejected(self, client):
        import pytest as _pytest

        from repro.errors import UpdateError

        with _pytest.raises(UpdateError):
            make_server(client, auto_merge_threshold=0)

    def test_session_forwarding(self):
        from repro.core.session import OutsourcedDatabase

        db = OutsourcedDatabase(
            list(range(0, 20, 2)), seed=9, auto_merge_threshold=1
        )
        db.insert(5)
        db.insert(7)
        assert db.server.pending_count == 0
        assert sorted(db.query(4, 8).values.tolist()) == [4, 5, 6, 7, 8]
