"""Unit tests for the server-side column catalog and dispatcher."""

import pytest

from repro.core.client import TrustedClient
from repro.errors import QueryError, SerializationError, UpdateError
from repro.net.catalog import ColumnCatalog
from repro.net.protocol import (
    PROTOCOL_VERSION,
    BatchRequest,
    BatchResponse,
    DeleteRequest,
    ErrorResponse,
    InsertRequest,
    MergeRequest,
    QueryRequest,
    QueryResponse,
    TelemetryRequest,
    decode,
    encode,
    spec_of,
)
from repro.net.transport import serve_frame
from repro.obs import Observability


@pytest.fixture()
def client():
    return TrustedClient(seed=61)


@pytest.fixture()
def loaded(client):
    """A catalog with one column of [10, 20, 30, 40]."""
    catalog = ColumnCatalog(obs=Observability())
    rows, row_ids = client.encrypt_dataset([10, 20, 30, 40])
    catalog.create_column("prices", rows, row_ids)
    return catalog


class TestRegistry:
    def test_create_and_lookup(self, loaded):
        assert loaded.column_names == ["prices"]
        assert len(loaded) == 1
        assert len(loaded.server("prices")) == 4

    def test_duplicate_rejected(self, loaded, client):
        rows, row_ids = client.encrypt_dataset([1])
        with pytest.raises(UpdateError, match="already exists"):
            loaded.create_column("prices", rows, row_ids)

    def test_empty_name_rejected(self, loaded, client):
        rows, row_ids = client.encrypt_dataset([1])
        with pytest.raises(UpdateError):
            loaded.create_column("", rows, row_ids)

    def test_unknown_column(self, loaded):
        with pytest.raises(QueryError, match="unknown column"):
            loaded.server("volumes")
        with pytest.raises(QueryError):
            loaded.config("volumes")

    def test_unknown_config_key_rejected(self, client):
        catalog = ColumnCatalog()
        rows, row_ids = client.encrypt_dataset([1, 2])
        with pytest.raises(UpdateError, match="unknown column config"):
            catalog.create_column("c", rows, row_ids, {"bogus": 1})

    def test_config_preserved(self, client):
        catalog = ColumnCatalog()
        rows, row_ids = client.encrypt_dataset([1, 2])
        catalog.create_column("c", rows, row_ids, {"min_piece_size": 4})
        config = catalog.config("c")
        assert config["min_piece_size"] == 4
        assert config["engine"] == "adaptive"  # defaults filled in

    def test_a_create_waits_out_a_quiesced_catalog(self, loaded, client):
        """A checkpoint's cut is taken under ``quiesced``: a create that
        committed inside it would be in the log below the checkpoint's
        watermark yet missing from its snapshot, or snapshotted without
        its lock."""
        import threading

        rows, row_ids = client.encrypt_dataset([1, 2])
        creator = threading.Thread(
            target=loaded.create_column, args=("volumes", rows, row_ids)
        )
        with loaded.quiesced():
            creator.start()
            creator.join(timeout=0.2)
            assert creator.is_alive()
            assert loaded.column_names == ["prices"]
        creator.join(timeout=10)
        assert not creator.is_alive()
        assert loaded.column_names == ["prices", "volumes"]


def kinds(reply):
    """The wire kinds of a batch reply's slots."""
    return [spec_of(response).kind for response in reply.responses]


def served(catalog, frame):
    """The reply envelope the endpoint answers ``frame`` with."""
    return decode(serve_frame(catalog, frame))


class TestDispatch:
    def test_query_dispatch(self, loaded, client):
        request = QueryRequest(column="prices", query=client.make_query(15, 35))
        reply = loaded.dispatch(request)
        assert isinstance(reply, QueryResponse)
        values = sorted(
            client.encryptor.decrypt_value(row) for row in reply.response.rows
        )
        assert values == [20, 30]

    def test_unknown_column_becomes_error_envelope(self, loaded):
        reply = loaded.dispatch(MergeRequest(column="volumes"))
        assert isinstance(reply, ErrorResponse)
        assert reply.code == "query"
        assert "volumes" in reply.message

    def test_malformed_request_becomes_error_envelope(self, loaded):
        # A query_request for "prices" whose query has unknown flag bits.
        frame = bytes((0xAE, PROTOCOL_VERSION, 5, 0, 6)) + b"prices"
        reply = served(loaded, frame + bytes((0xFF, 0, 0, 1, 1)))
        assert isinstance(reply, ErrorResponse)
        assert reply.code == "serialization"

    def test_wrong_version_becomes_error_envelope(self, loaded):
        frame = encode(MergeRequest(column="prices"))
        reply = served(loaded, bytes((0xAE, 99)) + frame[2:])
        assert isinstance(reply, ErrorResponse)
        assert reply.code == "serialization"
        assert "version" in reply.message

    def test_dispatch_never_raises(self, loaded):
        for garbage in (b"", b"{}", b"\xae", bytes((0xAE, PROTOCOL_VERSION))):
            assert served(loaded, garbage).code == "serialization"
        for garbage in ({}, None, SerializationError("undecodable")):
            assert isinstance(loaded.dispatch(garbage), ErrorResponse)


class TestMetrics:
    def test_request_and_error_counters(self, loaded):
        metrics = loaded.obs.metrics
        base = metrics.counter_value("net.requests")
        loaded.dispatch(MergeRequest(column="prices"))
        loaded.dispatch(MergeRequest(column="volumes"))
        assert metrics.counter_value("net.requests") == base + 2
        assert metrics.counter_value("net.errors") == 1

    def test_columns_created_counter(self, client):
        obs = Observability()
        catalog = ColumnCatalog(obs=obs)
        rows, row_ids = client.encrypt_dataset([1, 2])
        catalog.create_column("a", rows, row_ids)
        rows, row_ids = client.encrypt_dataset([3, 4])
        catalog.create_column("b", rows, row_ids)
        assert obs.metrics.counter_value("net.columns_created") == 2

    def test_batch_counts_sub_requests_as_work_units(self, loaded):
        """``net.requests`` reflects load, not framing: a 3-item batch
        adds 3 (``net.batches`` counts the envelope itself)."""
        metrics = loaded.obs.metrics
        base = metrics.counter_value("net.requests")
        reply = loaded.dispatch(_batch([MergeRequest(column="prices")] * 3))
        assert isinstance(reply, BatchResponse)
        assert metrics.counter_value("net.requests") == base + 3
        assert metrics.counter_value("net.batches") == 1
        assert metrics.histogram("net.batch_size").max == 3

    def test_malformed_batch_counts_one_request(self, loaded):
        metrics = loaded.obs.metrics
        base = metrics.counter_value("net.requests")
        # A batch_request announcing 127 slots and holding none.
        reply = served(loaded, bytes((0xAE, PROTOCOL_VERSION, 2, 0, 0x7F)))
        assert isinstance(reply, ErrorResponse)
        assert metrics.counter_value("net.requests") == base + 1
        assert metrics.counter_value("net.errors") == 1


def _batch(items):
    return BatchRequest(requests=tuple(items))


@pytest.fixture()
def two_columns(client):
    """A catalog hosting two independent columns."""
    catalog = ColumnCatalog(obs=Observability())
    rows, row_ids = client.encrypt_dataset([10, 20, 30, 40])
    catalog.create_column("prices", rows, row_ids)
    rows, row_ids = client.encrypt_dataset([1, 2, 3, 4])
    catalog.create_column("volumes", rows, row_ids)
    return catalog


class TestBatchSlots:
    def test_slots_run_in_slot_order(self, loaded, client):
        """A column-less slot between two queries sees exactly the
        queries before it: slots are served in slot order, not grouped
        by column."""
        query = QueryRequest(column="prices", query=client.make_query(0, 50))
        reply = loaded.dispatch(_batch([
            query,
            TelemetryRequest(sections=("metrics",)),
            query,
        ]))
        assert kinds(reply) == [
            "query_response", "telemetry_response", "query_response"]
        counters = reply.responses[1].sections["metrics"]["counters"]
        assert counters.get("server.queries_served", 0) == 1
        assert loaded.obs.metrics.counter_value("server.queries_served") == 2

    def test_responses_stay_positional(self, two_columns, client):
        """Slot order in the response matches the request, including
        error slots."""
        reply = two_columns.dispatch(_batch([
            MergeRequest(column="volumes"),
            MergeRequest(column="missing"),
            MergeRequest(column="prices"),
        ]))
        assert kinds(reply) == [
            "merge_response", "error_response", "merge_response"]

    def test_same_column_slots_keep_order(self, two_columns, client):
        """An insert earlier in the batch is visible to a later query
        on the same column, with another column's slot after them."""
        rows, _ = client.encrypt_dataset([25])
        reply = two_columns.dispatch(_batch([
            InsertRequest(column="prices", rows=tuple(rows)),
            MergeRequest(column="prices"),
            QueryRequest(column="prices", query=client.make_query(25, 25)),
            MergeRequest(column="volumes"),
        ]))
        assert kinds(reply) == [
            "insert_response",
            "merge_response",
            "query_response",
            "merge_response",
        ]
        assert len(reply.responses[2].response.rows) == 1

    def test_nested_batch_rejected_per_slot(self, loaded, client):
        reply = loaded.dispatch(
            _batch([_batch([]), MergeRequest(column="prices")])
        )
        assert kinds(reply) == ["error_response", "merge_response"]
        assert "nest" in reply.responses[0].message

    def test_a_multi_column_batch_answers_each_slot_from_its_column(
        self, two_columns, client
    ):
        reply = two_columns.dispatch(_batch(
            QueryRequest(column=c, query=client.make_query(0, 50))
            for c in ("prices", "volumes", "prices")
        ))
        assert kinds(reply) == ["query_response"] * 3
        values = [
            sorted(client.decrypt_results(
                slot.response.row_ids, slot.response.rows
            ).values.tolist())
            for slot in reply.responses
        ]
        assert values == [[10, 20, 30, 40], [1, 2, 3, 4], [10, 20, 30, 40]]

    def test_a_delete_slot_is_seen_by_the_next_query_slot(
        self, loaded, client
    ):
        query = QueryRequest(column="prices", query=client.make_query(0, 50))
        reply = loaded.dispatch(_batch([
            query,
            DeleteRequest(column="prices", row_ids=(0,)),
            query,
        ]))
        assert kinds(reply) == [
            "query_response", "delete_response", "query_response"]
        first, _, last = reply.responses
        assert sorted(first.response.row_ids.tolist()) == [0, 1, 2, 3]
        assert sorted(last.response.row_ids.tolist()) == [1, 2, 3]

    def test_an_error_slot_does_not_stop_the_slots_after_it(
        self, loaded, client
    ):
        rows, _ = client.encrypt_dataset([25])
        reply = loaded.dispatch(_batch([
            QueryRequest(column="missing", query=client.make_query(0, 50)),
            InsertRequest(column="prices", rows=tuple(rows)),
            QueryRequest(column="prices", query=client.make_query(25, 25)),
        ]))
        assert kinds(reply) == [
            "error_response", "insert_response", "query_response"]
        assert "unknown column" in reply.responses[0].message
        assert len(reply.responses[2].response.rows) == 1
        assert len(loaded.server("prices")) == 5


class TestAdopt:
    def test_adopt_rejects_duplicates(self, loaded):
        server = loaded.server("prices")
        with pytest.raises(UpdateError, match="already exists"):
            loaded.adopt_column("prices", server)


class TestLifetime:
    def test_a_dropped_catalog_dies_by_reference_count(self):
        """A catalog nobody holds is freed at once — with its server
        and both of the server's columns — not at CPython's next full
        cyclic collection: dispatch keeps no bound method of the
        catalog on the catalog."""
        import gc
        import weakref

        from repro.core.session import OutsourcedDatabase

        gc.collect()
        gc.disable()
        try:
            db = OutsourcedDatabase(list(range(200)), seed=3)
            db.query(10, 50)
            db.insert(5)
            db.query(0, 20)
            server = db.server
            alive = [
                weakref.ref(target)
                for target in (
                    db._catalog, server, server.engine,
                    server.engine.column, server.pending,
                )
            ]
            del db, server
            assert [ref() for ref in alive] == [None] * len(alive)
        finally:
            gc.enable()


class TestQueryOfAnotherLength:
    """A query whose bounds are not of the column's ciphertext length is
    refused as a typed ``query`` error before the server touches
    anything — not answered ``internal`` from deep in the kernel."""

    @staticmethod
    def _state(server):
        engine, column = server.engine, server.engine.column
        return (
            [(position, id(key)) for key, position
             in zip(engine.cracks.keys, engine.cracks.positions)],
            column.rows_at(range(len(column))).limbs.tobytes(),
            column.row_ids.tobytes(),
            len(server.stats_log),
            list(server.stats_log),
        )

    @pytest.mark.parametrize("cracked", (False, True), ids=("fresh", "cracked"))
    @pytest.mark.parametrize("key_length", (3, 5))
    @pytest.mark.parametrize("sides", ("two", "low", "high"))
    def test_is_refused_before_any_descent(self, cracked, key_length, sides):
        client = TrustedClient(seed=61)
        catalog = ColumnCatalog(obs=Observability())
        rows, row_ids = client.encrypt_dataset(list(range(0, 2_000, 5)))
        catalog.create_column("prices", rows, row_ids, {"min_piece_size": 1})
        if cracked:
            for low in range(0, 2_000, 100):
                reply = catalog.dispatch(QueryRequest(
                    column="prices", query=client.make_query(low, low + 40)
                ))
                assert len(reply.response.rows) == 9
        server = catalog.server("prices")
        assert bool(len(server.engine.cracks)) == cracked
        before = self._state(server)
        other = TrustedClient(seed=62, key_length=key_length)
        bounds = {"two": (500, 900), "low": (500, None), "high": (None, 900)}
        query = other.make_query(*bounds[sides])
        reply = catalog.dispatch(QueryRequest(column="prices", query=query))
        assert isinstance(reply, ErrorResponse)
        assert reply.code == "query", reply
        assert "length" in reply.message
        assert self._state(server) == before
        with pytest.raises(QueryError):
            server.execute(query)
        assert self._state(server) == before
