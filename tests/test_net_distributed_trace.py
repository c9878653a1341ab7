"""End-to-end distributed tracing over a real TCP session.

The acceptance test for the trace-propagation tentpole: with tracing
enabled on both ends of a :class:`~repro.net.transport.TcpTransport`
session, the client and server JSONL dumps merge into a single span
tree — every server ``rpc-serve`` span's parent resolves to the client
``rpc`` span that caused it, including pipelined batches, whose slot
spans nest under the ``rpc-serve`` span of their own frame.
"""

import threading
from collections import Counter

import numpy as np
import pytest

from repro.core.session import OutsourcedDatabase
from repro.net import ColumnCatalog, TcpTransport, serve
from repro.net.protocol import ENVELOPES
from repro.obs import Observability, load_trace_jsonl, merge_traces

VALUES = list(np.random.default_rng(123).permutation(400))
WORKLOAD = [(20, 80), (150, 260), (0, 399), (42, 43)]

#: Client rpc spans label themselves with the request class name; the
#: server's rpc-serve spans with the wire kind.  Same registry.
WIRE_KIND = {cls.__name__: spec.kind for cls, spec in ENVELOPES.items()}


@pytest.fixture()
def traced_endpoint():
    """A live TCP endpoint whose catalog records server-side spans."""
    obs = Observability(tracing=True)
    server = serve(catalog=ColumnCatalog(obs=obs))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.stop()
        thread.join(timeout=5)


class TestDistributedTrace:
    def test_merged_dump_is_one_linked_tree(self, traced_endpoint,
                                            tmp_path):
        host, port = traced_endpoint.server_address
        server_obs = traced_endpoint.catalog.obs
        client_obs = Observability(tracing=True)

        # Plain queries plus a pipelined batch on one connection...
        with TcpTransport(host, port) as transport:
            db = OutsourcedDatabase(VALUES, seed=29, transport=transport,
                                    obs=client_obs)
            for low, high in WORKLOAD:
                db.query(low, high)
            db.query_many([(10, 90), (200, 300), (0, 150)])

        # ...and a second connection's batch on another column.
        with TcpTransport(host, port) as transport:
            other = OutsourcedDatabase(
                VALUES[:200], seed=31, transport=transport,
                obs=client_obs, column="batched",
            )
            other.query_many([(5, 180), (60, 61)])

        client_path = str(tmp_path / "client.jsonl")
        server_path = str(tmp_path / "server.jsonl")
        client_obs.tracer.dump_jsonl(client_path)
        server_obs.tracer.dump_jsonl(server_path)
        client_records = load_trace_jsonl(client_path)
        server_records = load_trace_jsonl(server_path)
        merged = merge_traces(client_records, server_records)
        assert len(merged) == len(client_records) + len(server_records)

        by_id = {r["span_id"]: r for r in merged}
        client_ids = {r["span_id"] for r in client_records}
        rpc_ids = {r["span_id"] for r in client_records
                   if r["name"] == "rpc"}
        serves = [r for r in server_records if r["name"] == "rpc-serve"]
        assert serves  # the server really did adopt remote parents

        # THE acceptance criterion: every rpc-serve span's parent is
        # the client rpc span that caused it — same trace, matching
        # request kind, one tree level below it in the merged tree.
        for record in serves:
            parent_id = record.get("parent_id")
            assert parent_id in rpc_ids, record
            parent = by_id[parent_id]
            assert record["trace_id"] == parent["trace_id"]
            assert record["kind"] == WIRE_KIND[parent["kind"]]
            merged_record = by_id[record["span_id"]]
            assert merged_record["tree_depth"] == parent["tree_depth"] + 1

        # Batched sub-requests: every slot span is a child of its own
        # frame's adopted rpc-serve span, one tree level below it, and a
        # frame's slots start in slot order.
        batch_serves = {r["span_id"]: r for r in serves
                        if r["kind"] == "batch_request"}
        assert len(batch_serves) == 2
        slots = [r for r in server_records if r["name"] == "rpc-serve-slot"]
        for record in slots:
            serve_record = batch_serves[record.get("parent_id")]
            assert record["trace_id"] == serve_record["trace_id"]
            assert (by_id[record["span_id"]]["tree_depth"]
                    == by_id[serve_record["span_id"]]["tree_depth"] + 1)
        assert sorted(Counter(r["parent_id"] for r in slots).values()) == [
            2, 3]
        for serve_id in batch_serves:
            starts = [r["start"] for r in slots if r["parent_id"] == serve_id]
            assert starts == sorted(starts)

        # No server span floats free of the client's traces except the
        # worker-loop serve-frame roots (they wrap the socket read, not
        # a dispatch, so they have no remote parent to adopt).
        client_traces = {r["trace_id"] for r in client_records}
        for record in server_records:
            if record["name"] == "serve-frame":
                assert "parent_id" not in record
            else:
                assert record["trace_id"] in client_traces, record
                assert by_id[record["span_id"]]["tree_depth"] >= 1

    def test_untraced_client_leaves_server_spans_unadopted(
            self, traced_endpoint):
        """No trace field on the wire -> rpc-serve spans stay inside
        server-local trees (nested under the worker's serve-frame span,
        trace_ids minted server-side — never adopted from a client)."""
        host, port = traced_endpoint.server_address
        server_obs = traced_endpoint.catalog.obs
        with TcpTransport(host, port) as transport:
            db = OutsourcedDatabase(VALUES[:80], seed=37,
                                    transport=transport)
            db.query(10, 70)
        spans = {s.span_id: s for s in server_obs.tracer.spans}
        serves = [s for s in spans.values() if s.name == "rpc-serve"]
        assert serves
        for span in serves:
            parent = spans[span.parent_id]
            assert parent.name == "serve-frame"
            assert span.trace_id == parent.trace_id
