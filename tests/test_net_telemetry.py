"""Telemetry-plane and trace-propagation wire tests.

Three concerns:

* *wire compatibility* — envelopes with tracing disabled carry no
  ``trace`` field and are **byte-identical** to the pre-tracing
  protocol (golden frames captured before the field existed), in both
  codecs; malformed ``trace`` fields degrade to untraced dispatch.
* *telemetry envelopes* — ``telemetry_request``/``telemetry_response``
  round-trip both codecs, dispatch column-lessly through the catalog,
  and support provider registration.
* *server-front accounting* — the ``net.queue_depth`` gauge decays to
  zero after a drain and a frame whose serving raises is counted
  (``net.worker_errors``) and answered, with the failing span keeping
  the error.
"""

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
    FetchRequest,
    MergeRequest,
    TelemetryRequest,
    TelemetryResponse,
    attach_trace,
    decode_frame,
    encode_frame,
    request_from_dict,
    request_to_dict,
    response_from_dict,
    response_to_dict,
    trace_from_wire,
)
from repro.obs import Observability

VALUES = list(np.random.default_rng(88).permutation(300))

# Frames captured from the codec *before* the trace field existed.
# Tracing-disabled peers must keep emitting exactly these bytes.  (The
# one byte that differs from that capture is the envelope version,
# 1 -> 2, which the row-block PR bumped for every envelope.)
GOLDEN_MERGE_JSON = b'{"column":"values","kind":"merge_request","version":3}'
GOLDEN_MERGE_BINARY = (
    b"\xae\x01\x01\t\x03\x06\x06column\x06\x06values\x06\x04kind"
    b"\x06\rmerge_request\x06\x07version\x03\x06"
)
GOLDEN_FETCH_JSON = (
    b'{"column":"values","kind":"fetch_request",'
    b'"row_ids":[0,1,2,3,4,5],"version":3}'
)
GOLDEN_FETCH_BINARY = (
    b"\xae\x01\x01\t\x04\x06\x06column\x06\x06values\x06\x04kind"
    b"\x06\rfetch_request\x06\x07row_ids\n\x00\x06\x00\x01\x02\x03"
    b"\x04\x05\x06\x07version\x03\x06"
)

CTX = {"trace_id": "ab" * 8, "parent": "cafe0000-3", "sampled": True}


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
    """Satellite: untraced frames must not change by a single byte."""

    def test_golden_frames_unchanged(self):
        merge = request_to_dict(MergeRequest(column="values"))
        fetch = request_to_dict(
            FetchRequest(column="values", row_ids=(0, 1, 2, 3, 4, 5))
        )
        assert encode_frame(merge, codec="json") == GOLDEN_MERGE_JSON
        assert encode_frame(merge, codec="binary") == GOLDEN_MERGE_BINARY
        assert encode_frame(fetch, codec="json") == GOLDEN_FETCH_JSON
        assert encode_frame(fetch, codec="binary") == GOLDEN_FETCH_BINARY

    def test_attach_trace_none_is_identity(self):
        payload = request_to_dict(MergeRequest(column="values"))
        assert attach_trace(payload, None) is payload
        assert "trace" not in payload

    def test_attach_trace_sets_field_and_batch_slots(self):
        batch = {
            "kind": "batch_request",
            "version": 1,
            "requests": [
                request_to_dict(MergeRequest(column="a")),
                request_to_dict(MergeRequest(column="b")),
            ],
        }
        attach_trace(batch, CTX)
        assert batch["trace"] == CTX
        for sub in batch["requests"]:
            assert sub["trace"] == CTX
            assert sub["trace"] is not CTX  # copies, not shared refs

    def test_traced_frame_decodes_and_still_parses(self):
        payload = attach_trace(
            request_to_dict(MergeRequest(column="values")), CTX
        )
        for codec in ("json", "binary"):
            decoded = decode_frame(encode_frame(payload, codec=codec))
            assert decoded["trace"] == CTX
            # The envelope parser tolerates (ignores) the extra key.
            assert request_from_dict(decoded) == MergeRequest(column="values")

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
        the wire — recorded frames decode without a trace key."""
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
            decoded = decode_frame(frame)
            assert "trace" not in decoded
            for sub in decoded.get("requests", []):
                assert "trace" not in sub

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
        traced = [decode_frame(f) for f in sent if b"trace" in f]
        assert traced  # every post-upload frame carries the field
        for decoded in traced:
            ctx = trace_from_wire(decoded["trace"])
            assert ctx is not None
            assert ctx["sampled"] is True


class TestTelemetryEnvelopes:
    def test_round_trip_both_codecs(self):
        request = TelemetryRequest(sections=("metrics", "pool"))
        response = TelemetryResponse(
            sections={"metrics": {"counters": {"net.requests": 3}}}
        )
        for codec in ("json", "binary"):
            req = request_from_dict(
                decode_frame(encode_frame(request_to_dict(request),
                                          codec=codec))
            )
            assert req == request
            resp = response_from_dict(
                decode_frame(encode_frame(response_to_dict(response),
                                          codec=codec))
            )
            assert resp == response

    def test_sections_none_omitted_from_wire(self):
        payload = request_to_dict(TelemetryRequest())
        assert "sections" not in payload
        assert request_from_dict(payload) == TelemetryRequest(sections=None)

    def test_malformed_sections_rejected(self):
        with pytest.raises(SerializationError):
            request_from_dict({"kind": "telemetry_request", "version": 1,
                               "sections": [1, 2]})
        with pytest.raises(SerializationError):
            response_from_dict({"kind": "telemetry_response", "version": 1,
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
        response = catalog.dispatch(
            request_to_dict(TelemetryRequest(sections=("catalog",)))
        )
        assert response["kind"] == "telemetry_response"
        assert response["sections"]["catalog"]["columns"] == []

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
            def exploding(request_dict):
                if request_dict.get("kind") == "merge_request":
                    raise RuntimeError("simulated defect below isolation")
                return original(request_dict)

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
