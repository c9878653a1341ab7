"""Telemetry-plane and trace-propagation wire tests.

Three concerns:

* *the trace section* — a request frame of a tracing-disabled peer
  carries an empty trace section (one zero byte; golden frames pinned
  below), a traced one the caller's context, which a batch's slots
  inherit; a malformed section degrades to untraced dispatch.
* *telemetry envelopes* — ``telemetry_request``/``telemetry_response``
  round-trip on a frame and in the dict form, dispatch column-lessly
  through the catalog, and support provider registration.
* *server-front accounting* — the ``net.queue_depth`` gauge decays to
  zero after a drain and a frame whose serving raises is counted
  (``net.worker_errors``) and answered, with the failing span keeping
  the error.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.core.session import OutsourcedDatabase
from repro.errors import ProtocolError, SerializationError
from repro.net import (
    ColumnCatalog,
    LoopbackTransport,
    RemoteColumn,
    TcpTransport,
    serve,
)
from repro.net.protocol import (
    DICT_VERSION,
    BatchRequest,
    DeleteRequest,
    MergeRequest,
    TelemetryRequest,
    TelemetryResponse,
    decode,
    decode_request,
    encode,
    request_from_dict,
    request_to_dict,
    response_from_dict,
    response_to_dict,
    trace_from_wire,
)
from repro.obs import Observability

VALUES = list(np.random.default_rng(88).permutation(300))

# The frames of two untraced requests: magic, version, kind code, an
# empty trace section, then the fields (a column name; an id run).
GOLDEN_MERGE = b"\xae\x07\x09\x00\x06values"
GOLDEN_DELETE = b"\xae\x07\x08\x00\x06values\x00\x06\x00\x01\x02\x03\x04\x05"

CTX = {"trace_id": "ab" * 8, "parent": "cafe0000-3", "sampled": True}


def raw_section(body):
    """A trace section of ``body``: its byte count, then the bytes."""
    return bytes((len(body),)) + body


def section(value):
    """A trace section: its byte count, then the value's JSON text."""
    return raw_section(json.dumps(
        value, sort_keys=True, separators=(",", ":")).encode())


#: :data:`CTX` as a frame's trace section.
CTX_SECTION = section(CTX)


@pytest.fixture()
def endpoint():
    server = serve()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.stop()
        thread.join(timeout=5)


class TestWireCompatibility:
    """The trace section: one zero byte in an untraced frame, the
    caller's context in a traced one — never a failed request."""

    def test_golden_frames_unchanged(self):
        merge = MergeRequest(column="values")
        delete = DeleteRequest(column="values", row_ids=(0, 1, 2, 3, 4, 5))
        assert encode(merge) == encode(merge, None) == GOLDEN_MERGE
        assert encode(delete) == GOLDEN_DELETE
        assert decode_request(GOLDEN_MERGE) == (merge, None)

    def test_a_traced_frame_carries_the_context(self):
        merge = MergeRequest(column="values")
        frame = encode(merge, CTX)
        assert frame == GOLDEN_MERGE[:3] + CTX_SECTION + GOLDEN_MERGE[4:]
        assert decode_request(frame) == (merge, CTX)
        assert decode(frame) == merge
        # Responses have no section to carry one in.
        reply = TelemetryResponse(sections={})
        assert encode(reply, CTX) == encode(reply)

    def test_a_batch_carries_one_context_its_slots_inherit(self):
        batch = BatchRequest(requests=(MergeRequest(column="a"),
                                       MergeRequest(column="b")))
        frame = encode(batch, CTX)
        assert decode_request(frame) == (batch, CTX)
        assert len(frame) == len(encode(batch)) + len(CTX_SECTION) - 1

    @pytest.mark.parametrize("malformed", [
        section(None),
        section({"trace_id": "ab" * 8}),                   # no parent
        section(dict(CTX, sampled=7)),                     # not a boolean
        section(dict(CTX, trace_id="")),                   # empty
        b"\x01\xff",                                       # not UTF-8
        raw_section(b'{"trace_id":"abab'),                 # cut short
        raw_section(section(CTX)[1:-1] + b',"parent":"x"}'),  # a repeated key
        raw_section(b"[" * 9 + b"]" * 9),                  # no object
    ], ids=repr)
    def test_a_malformed_section_degrades_to_untraced(self, malformed):
        frame = GOLDEN_MERGE[:3] + malformed + GOLDEN_MERGE[4:]
        assert decode_request(frame) == (MergeRequest(column="values"), None)

    @pytest.mark.parametrize("bad", [
        None,
        "not-a-dict",
        42,
        [],
        {},
        {"trace_id": "ab" * 8},                      # missing parent
        {"parent": "cafe0000-1"},                    # missing trace_id
        {"trace_id": "", "parent": "cafe0000-1"},    # empty trace_id
        {"trace_id": "ab" * 8, "parent": ""},        # empty parent
        {"trace_id": 5, "parent": "cafe0000-1"},     # wrong types
        {"trace_id": "ab" * 8, "parent": "cafe0000-1", "sampled": "yes"},
    ])
    def test_trace_from_wire_rejects_malformed(self, bad):
        assert trace_from_wire(bad) is None

    def test_trace_from_wire_accepts_valid(self):
        assert trace_from_wire(dict(CTX)) == CTX
        sparse = {"trace_id": "ab" * 8, "parent": "cafe0000-1"}
        decoded = trace_from_wire(sparse)
        assert decoded["sampled"] is True  # defaulted

    def test_untraced_session_frames_carry_no_trace_field(self, endpoint):
        """A tracing-disabled client (the default) must put nothing on
        the wire — recorded frames decode without a trace context."""
        host, port = endpoint.server_address
        sent = []

        class Recording(TcpTransport):
            def exchange(self, frame, retryable=False):
                sent.append(frame)
                return super().exchange(frame, retryable=retryable)

        with Recording(host, port) as transport:
            db = OutsourcedDatabase(VALUES[:80], seed=9, transport=transport)
            db.query(10, 200)
            db.query_many([(0, 50), (100, 250)])
        assert sent
        for frame in sent:
            assert decode_request(frame)[1] is None

    def test_traced_session_frames_carry_the_context(self, endpoint):
        host, port = endpoint.server_address
        sent = []

        class Recording(TcpTransport):
            def exchange(self, frame, retryable=False):
                sent.append(frame)
                return super().exchange(frame, retryable=retryable)

        obs = Observability(tracing=True)
        with Recording(host, port) as transport:
            db = OutsourcedDatabase(VALUES[:80], seed=9, transport=transport,
                                    obs=obs)
            db.query(10, 200)
        contexts = [decode_request(frame)[1] for frame in sent]
        assert contexts and None not in contexts
        for ctx in contexts:
            assert trace_from_wire(ctx) == ctx
            assert ctx["sampled"] is True


class TestTelemetryEnvelopes:
    def test_round_trip_frame_and_dict(self):
        request = TelemetryRequest(sections=("metrics", "pool"))
        response = TelemetryResponse(
            sections={"metrics": {"counters": {"net.requests": 3}}}
        )
        assert decode(encode(request)) == request
        assert request_from_dict(request_to_dict(request)) == request
        assert decode(encode(response)) == response
        assert response_from_dict(response_to_dict(response)) == response

    def test_sections_none_is_sent_as_null(self):
        payload = request_to_dict(TelemetryRequest())
        assert payload["sections"] is None
        assert request_from_dict(payload) == TelemetryRequest(sections=None)
        frame = encode(TelemetryRequest())
        assert frame[4:] == b"\x04null"  # every section
        assert decode(frame) == TelemetryRequest(sections=None)

    def test_malformed_sections_rejected(self):
        with pytest.raises(SerializationError):
            request_from_dict({"kind": "telemetry_request",
                               "version": DICT_VERSION, "sections": [1, 2]})
        with pytest.raises(SerializationError):
            response_from_dict({"kind": "telemetry_response",
                                "version": DICT_VERSION,
                                "sections": ["not", "a", "dict"]})


class TestCatalogTelemetry:
    def test_builtin_sections(self):
        catalog = ColumnCatalog()
        sections = catalog.telemetry()
        assert set(sections) >= {"metrics", "tracer", "slow_queries",
                                 "catalog"}
        assert sections["catalog"]["columns"] == []
        assert sections["tracer"]["enabled"] is False
        assert sections["slow_queries"]["recorded"] == 0

    def test_section_filter_and_unknown_names(self):
        catalog = ColumnCatalog()
        assert set(catalog.telemetry(["metrics"])) == {"metrics"}
        assert catalog.telemetry(["no-such-section"]) == {}

    def test_provider_registration_and_replacement(self):
        catalog = ColumnCatalog()
        catalog.register_telemetry_provider("custom", lambda: {"v": 1})
        assert catalog.telemetry(["custom"]) == {"custom": {"v": 1}}
        catalog.register_telemetry_provider("custom", lambda: {"v": 2})
        assert catalog.telemetry(["custom"]) == {"custom": {"v": 2}}

    def test_dispatch_is_column_less(self):
        catalog = ColumnCatalog()
        response = catalog.dispatch(TelemetryRequest(sections=("catalog",)))
        assert isinstance(response, TelemetryResponse)
        assert response.sections["catalog"]["columns"] == []

    def test_loopback_client_method(self):
        catalog = ColumnCatalog()
        remote = RemoteColumn(LoopbackTransport(catalog), "telemetry")
        sections = remote.telemetry(["metrics", "catalog"])
        assert set(sections) == {"metrics", "catalog"}
        # The telemetry exchanges themselves were counted.
        assert sections["metrics"]["counters"]["net.requests"] >= 1


class TestLiveTelemetry:
    """Acceptance: ``--connect`` telemetry matches the server's own
    local snapshot, counter for counter."""

    def test_remote_counters_equal_local_snapshot(self, endpoint):
        host, port = endpoint.server_address
        catalog = endpoint.catalog
        with TcpTransport(host, port) as transport:
            db = OutsourcedDatabase(VALUES[:120], seed=11,
                                    transport=transport)
            for low, high in [(5, 60), (100, 280), (0, 299)]:
                db.query(low, high)
            db.query_many([(10, 40), (200, 260)])
            # Same connection => strict frame ordering: by the time the
            # telemetry reply arrives, every prior request has fully
            # finished its server-side accounting.
            remote = RemoteColumn(transport, "telemetry")
            sections = remote.telemetry(["metrics", "pool"])
            # Snapshot while the connection is open, so connection
            # gauges agree with what the server reported.
            local = catalog.obs.metrics.snapshot()
        reported = sections["metrics"]["counters"]
        # A snapshot cannot count the reply that carries it.
        assert (
            local["counters"].pop("server.bytes_shipped")
            - reported.pop("server.bytes_shipped")
        ) == remote.last_received_bytes
        assert reported == local["counters"]
        assert sections["metrics"]["gauges"] == local["gauges"]
        assert sections["pool"]["workers"] == endpoint.workers
        assert sections["pool"]["draining"] is False

    def test_queue_depth_gauge_decays_to_zero(self, endpoint):
        """Satellite: the gauge tracks dequeues too — after all traffic
        drains it reads 0, not the high-water mark."""
        host, port = endpoint.server_address
        with TcpTransport(host, port) as transport:
            db = OutsourcedDatabase(VALUES[:100], seed=13,
                                    transport=transport)
            db.query_many([(0, 299)] * 8)
            remote = RemoteColumn(transport, "telemetry")
            sections = remote.telemetry(["metrics", "pool"])
        assert sections["pool"]["queue_depth"] == 0
        assert sections["metrics"]["gauges"]["net.queue_depth"] == 0

    def test_worker_errors_are_counted_not_silent(self, endpoint):
        """Satellite: a frame whose serving *raises* (below the
        catalog's own isolation) is counted, the span keeps the error,
        and the client gets a prompt typed answer on a connection that
        stays usable."""
        host, port = endpoint.server_address
        catalog = endpoint.catalog
        obs = catalog.obs
        obs.tracer.enable()
        original = catalog.dispatch
        try:
            def exploding(request, trace=None):
                if isinstance(request, MergeRequest):
                    raise RuntimeError("simulated defect below isolation")
                return original(request, trace)

            catalog.dispatch = exploding
            with TcpTransport(host, port) as transport:
                db = OutsourcedDatabase(VALUES[:60], seed=17,
                                        transport=transport)
                # Answered with an ``internal`` envelope at once, not
                # left to the socket timeout (30 s here).
                started = time.monotonic()
                with pytest.raises(ProtocolError, match="RuntimeError"):
                    db.merge()
                assert time.monotonic() - started < 5.0
                # ... and the same connection serves the next request.
                assert sorted(db.query(0, 299).values.tolist()) == sorted(
                    int(v) for v in VALUES[:60]
                )
        finally:
            catalog.dispatch = original
            obs.tracer.disable()
        assert obs.metrics.snapshot()["counters"]["net.worker_errors"] == 1
        failed = [s for s in obs.tracer.spans
                  if s.name == "serve-frame" and s.error]
        assert failed and "RuntimeError" in failed[0].error

        # The endpoint still serves new connections.
        with TcpTransport(host, port) as transport:
            remote = RemoteColumn(transport, "telemetry")
            counters = remote.telemetry(["metrics"])["metrics"]["counters"]
            assert counters["net.worker_errors"] == 1


class TestSlowQueryIntegration:
    def test_threshold_zero_records_dispatches_with_breakdown(self):
        obs = Observability(tracing=True)
        catalog = ColumnCatalog(obs=obs, slow_query_threshold=0.0)
        db = OutsourcedDatabase(
            VALUES[:100], seed=19,
            transport=LoopbackTransport(catalog), obs=obs,
        )
        db.query(10, 200)
        entries = catalog.slow_query_log.entries()
        kinds = {entry["kind"] for entry in entries}
        assert "query_request" in kinds
        query_entry = [e for e in entries
                       if e["kind"] == "query_request"][-1]
        assert query_entry["column"] == "values"
        assert query_entry["trace_id"]
        assert "server-execute" in query_entry["breakdown"]

    def test_batch_entries_record_slot_count(self):
        catalog = ColumnCatalog(slow_query_threshold=0.0)
        db = OutsourcedDatabase(
            VALUES[:100], seed=19, transport=LoopbackTransport(catalog)
        )
        db.query_many([(0, 50), (60, 120), (130, 250)])
        batches = [e for e in catalog.slow_query_log.entries()
                   if e["kind"] == "batch_request"]
        assert batches and batches[-1]["slots"] == 3

    def test_default_threshold_records_nothing_fast(self):
        catalog = ColumnCatalog()  # default 0.25s threshold
        db = OutsourcedDatabase(
            VALUES[:50], seed=19, transport=LoopbackTransport(catalog)
        )
        db.query(0, 299)
        assert len(catalog.slow_query_log) == 0

    def test_served_over_telemetry_envelope(self):
        catalog = ColumnCatalog(slow_query_threshold=0.0,
                                slow_query_capacity=16)
        db = OutsourcedDatabase(
            VALUES[:50], seed=19, transport=LoopbackTransport(catalog)
        )
        db.query(0, 100)
        remote = RemoteColumn(LoopbackTransport(catalog), "telemetry")
        slow = remote.telemetry(["slow_queries"])["slow_queries"]
        assert slow["capacity"] == 16
        assert slow["recorded"] >= 1
        assert slow["entries"][0]["seconds"] >= 0.0
