"""Transport-layer tests: loopback/TCP equivalence and fault injection."""

import socket
import threading
import time

import numpy as np
import pytest

from repro.core.session import OutsourcedDatabase
from repro.errors import ProtocolError, QueryError, TransportError
from repro.net import ColumnCatalog, serve
from repro.net.binframe import write_varint
from repro.net.protocol import (
    PROTOCOL_VERSION,
    BatchResponse,
    ErrorResponse,
    InsertRequest,
    MergeRequest,
    QueryRequest,
    decode,
    encode,
)
from repro.net.transport import LoopbackTransport, TcpTransport, Transport

VALUES = list(np.random.default_rng(77).permutation(400))

# A fig-9-style burst: random ranges over the domain, hammering the
# adaptive index from cold.
WORKLOAD = [(30, 90), (200, 260), (10, 350), (120, 121), (0, 399), (55, 180)]

BINARY_MERGE = encode(MergeRequest(column="values"))
MALFORMED_FRAMES = {
    "garbage": b"\x00\xffnot a frame",
    "json": b'{"column":"values","kind":"merge_request","version":3}',
    "truncated-binary": BINARY_MERGE[:-3],
    # a hello whose codec list is 70 one-element lists nested in each other
    "over-deep-binary": bytes((0xAE, PROTOCOL_VERSION, 1, 0))
    + b"\x08\x01" * 70 + b"\x00",
}


@pytest.fixture()
def endpoint():
    """A live TCP endpoint on an ephemeral port."""
    server = serve()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.stop()
        thread.join(timeout=5)


def run_workload(db):
    return [sorted(db.query(low, high).logical_ids.tolist())
            for low, high in WORKLOAD]


class RecordingTransport(Transport):
    """Wraps a transport and keeps every frame that crosses it."""

    def __init__(self, inner):
        self.inner = inner
        self.sent = []
        self.received = []

    def exchange(self, frame, retryable=False):
        self.sent.append(frame)
        reply = self.inner.exchange(frame, retryable=retryable)
        self.received.append(reply)
        return reply

    def close(self):
        self.inner.close()


class TestLoopbackTcpEquivalence:
    def test_identical_row_id_sets(self, endpoint):
        host, port = endpoint.server_address
        local = OutsourcedDatabase(VALUES, seed=5)
        with TcpTransport(host, port) as transport:
            remote = OutsourcedDatabase(VALUES, seed=5, transport=transport)
            assert run_workload(local) == run_workload(remote)

    def test_byte_identical_frames(self, endpoint):
        host, port = endpoint.server_address
        local = RecordingTransport(None)  # inner filled in below

        # Loopback run: let the session build its own catalog, then
        # wrap its transport so frames are recorded.
        loop_db = OutsourcedDatabase(VALUES[:100], seed=6)
        local.inner = loop_db.transport
        loop_db._remote._transport = local
        tcp = RecordingTransport(TcpTransport(host, port))
        tcp_db = OutsourcedDatabase(VALUES[:100], seed=6, transport=tcp)
        for low, high in WORKLOAD[:3]:
            loop_db.query(low, high)
            tcp_db.query(low, high)
        tcp_db.insert(10 ** 6)
        loop_db.insert(10 ** 6)
        # The create frame is missing from the loopback recording (the
        # wrapper was installed after upload); everything after must
        # match byte for byte in both directions.
        assert local.sent == tcp.sent[1:]
        assert local.received == tcp.received[1:]
        tcp.close()

    @pytest.mark.parametrize("name", sorted(MALFORMED_FRAMES))
    def test_malformed_frames_get_the_same_reply(self, endpoint, name):
        """Both transports serve through one function: an undecodable
        frame is answered — never raised — with the same typed
        ``serialization`` envelope."""
        frame = MALFORMED_FRAMES[name]
        host, port = endpoint.server_address
        with TcpTransport(host, port) as tcp:
            replies = [
                LoopbackTransport(ColumnCatalog()).exchange(frame),
                tcp.exchange(frame),
            ]
        assert replies[0] == replies[1]
        reply = decode(replies[0])
        assert isinstance(reply, ErrorResponse)
        assert reply.code == "serialization"

    def test_updates_and_rotation_over_tcp(self, endpoint):
        host, port = endpoint.server_address
        with TcpTransport(host, port) as transport:
            db = OutsourcedDatabase(VALUES[:60], seed=7, transport=transport)
            inserted = db.insert(9999)
            assert 9999 in db.query(9990, 10010).values.tolist()
            db.delete(inserted)
            assert db.query(9990, 10010).values.tolist() == []
            db.merge()
            db.rotate_key(new_seed=70)
            expected = sorted(VALUES[:60])
            assert sorted(db.query(-1, 10 ** 9).values.tolist()) == expected

    def test_server_property_unavailable_remotely(self, endpoint):
        host, port = endpoint.server_address
        with TcpTransport(host, port) as transport:
            db = OutsourcedDatabase(VALUES[:10], seed=8, transport=transport)
            with pytest.raises(ProtocolError, match="remote transport"):
                db.server


class TestFaults:
    def test_connection_refused(self):
        # Bind-then-close guarantees a dead port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        __, port = probe.getsockname()
        probe.close()
        transport = TcpTransport("127.0.0.1", port, connect_timeout=2.0)
        with pytest.raises(TransportError, match="cannot connect"):
            transport.exchange(b"{}")

    def test_server_killed_mid_session(self, endpoint):
        host, port = endpoint.server_address
        transport = TcpTransport(host, port)
        db = OutsourcedDatabase(VALUES[:30], seed=9, transport=transport)
        db.query(0, 100)
        endpoint.stop()
        with pytest.raises(TransportError):
            db.query(100, 200)
        transport.close()

    def test_the_timeout_bounds_the_whole_exchange(self):
        # A peer that sends its 12-byte reply one byte every 0.3 s: each
        # recv returns well inside the timeout, the exchange does not.
        listener = socket.create_server(("127.0.0.1", 0))
        stop = threading.Event()

        def trickle():
            connection, _ = listener.accept()
            with connection:
                connection.recv(1024)
                for byte in b"\x00\x00\x00\x08" + bytes(8):
                    if stop.wait(0.3):
                        return
                    try:
                        connection.sendall(bytes((byte,)))
                    except OSError:
                        return

        peer = threading.Thread(target=trickle, daemon=True)
        peer.start()
        transport = TcpTransport(*listener.getsockname(), timeout=1.0)
        started = time.monotonic()
        try:
            with pytest.raises(TransportError):
                transport.exchange(b"ping")
            assert time.monotonic() - started < 1.5
        finally:
            stop.set()
            transport.close()
            peer.join(timeout=5)
            listener.close()

    def test_error_envelope_crosses_the_wire(self, endpoint):
        host, port = endpoint.server_address
        with TcpTransport(host, port) as transport:
            from repro.net.client import RemoteColumn

            handle = RemoteColumn(transport, "never-created")
            with pytest.raises(QueryError, match="unknown column"):
                handle.merge()

    def test_duplicate_column_rejected_across_sessions(self, endpoint):
        host, port = endpoint.server_address
        from repro.errors import UpdateError

        with TcpTransport(host, port) as t1:
            OutsourcedDatabase(VALUES[:10], seed=10, transport=t1, column="dup")
            with TcpTransport(host, port) as t2:
                with pytest.raises(UpdateError, match="already exists"):
                    OutsourcedDatabase(
                        VALUES[:10], seed=10, transport=t2, column="dup"
                    )


class TestBatches:
    @pytest.mark.parametrize("slots", [1, 5], ids=["short", "long"])
    def test_a_reply_with_the_wrong_slot_count_is_refused(self, slots):
        """Three merges answered by a batch of another length: the
        client cannot pair the slots, so it raises instead of returning
        what the reply happens to hold."""
        from repro.net import RemoteColumn
        from repro.net.protocol import MergeResponse

        class Stub(Transport):
            def exchange(self, frame, retryable=False):
                return encode(BatchResponse(
                    responses=(MergeResponse(delta=0),) * slots))

            def close(self):
                pass

        remote = RemoteColumn(Stub(), "values")
        with pytest.raises(ProtocolError, match="3 requests"):
            remote.call_many([MergeRequest(column="values")] * 3)

    def test_query_many_matches_sequential_one_round_trip(self, endpoint):
        host, port = endpoint.server_address
        with TcpTransport(host, port) as transport:
            db = OutsourcedDatabase(VALUES, seed=21, transport=transport)
            before = db.round_trips
            results = db.query_many(WORKLOAD)
            assert db.round_trips == before + 1
            got = [sorted(r.values.tolist()) for r in results]
            expected = [
                sorted(v for v in VALUES if low <= v <= high)
                for low, high in WORKLOAD
            ]
            assert got == expected

    def test_server_killed_mid_batch_then_reconnect(self, endpoint):
        """A crash during a batch surfaces TransportError; the session
        works again once the endpoint is back (same catalog, same
        port)."""
        from repro.net.server import CatalogTCPServer

        host, port = endpoint.server_address
        transport = TcpTransport(host, port)
        db = OutsourcedDatabase(VALUES[:80], seed=22, transport=transport)
        db.query(0, 100)
        endpoint.stop()
        with pytest.raises(TransportError):
            db.query_many(WORKLOAD)
        revived = CatalogTCPServer((host, port), endpoint.catalog)
        thread = threading.Thread(target=revived.serve_forever, daemon=True)
        thread.start()
        try:
            results = db.query_many([(0, 100), (100, 200)])
            expected = [
                sorted(v for v in VALUES[:80] if low <= v <= high)
                for low, high in ((0, 100), (100, 200))
            ]
            assert [sorted(r.values.tolist()) for r in results] == expected
        finally:
            revived.stop()
            thread.join(timeout=5)
            transport.close()

    def test_batch_isolates_malformed_sub_request(self, endpoint):
        """One garbage item inside a batch fails alone; the valid
        sub-requests around it are applied."""

        def slot(body):
            out = bytearray()
            write_varint(out, len(body))
            return bytes(out) + body

        def body(request):
            # A sub-frame: the kind code and fields, no trace section.
            frame = encode(request)
            return frame[2:3] + frame[4:]

        host, port = endpoint.server_address
        with TcpTransport(host, port) as transport:
            db = OutsourcedDatabase(VALUES[:40], seed=23, transport=transport)
            rows = db.client.encrypt_value(10 ** 6)
            merge = body(MergeRequest(column="values"))
            frame = bytes((0xAE, PROTOCOL_VERSION, 2, 0, 3)) + b"".join((
                slot(body(InsertRequest(column="values", rows=tuple(rows)))),
                slot(bytes((99,)) + merge[1:]),  # a kind no one registered
                slot(merge),
            ))
            reply = decode(transport.exchange(frame))
            assert isinstance(reply, BatchResponse)
            first, second, third = reply.responses
            assert type(first).__name__ == "InsertResponse"
            assert isinstance(second, ErrorResponse)
            assert second.code == "serialization"
            assert type(third).__name__ == "MergeResponse"
            # The insert and merge really happened: a query answers the
            # new row under the id the batch assigned it.
            answer = db._remote.query(db.client.make_query(10 ** 6, 10 ** 6))
            assert answer.row_ids.tolist() == list(first.row_ids)
            result = db.client.decrypt_results(answer.row_ids, answer.rows)
            assert result.values.tolist() == [10 ** 6]

    def test_client_send_path_enforces_frame_cap(self, endpoint, monkeypatch):
        """Oversized request frames are refused before the socket is
        touched, and the refusal leaves the connection usable."""
        import repro.net.transport as transport_module

        host, port = endpoint.server_address
        with TcpTransport(host, port) as transport:
            db = OutsourcedDatabase(VALUES[:20], seed=24, transport=transport)
            expected = sorted(v for v in VALUES[:20] if v <= 100)
            assert sorted(db.query(0, 100).values.tolist()) == expected
            monkeypatch.setattr(transport_module, "MAX_FRAME_BYTES", 64)
            with pytest.raises(TransportError, match="oversized request"):
                db.query(0, 100)
            monkeypatch.undo()
            # Same connection, no reconnect needed: the cap check fired
            # before any bytes were written.
            assert sorted(db.query(0, 100).values.tolist()) == expected


class TestConcurrentSessions:
    def test_two_columns_do_not_interleave(self, endpoint):
        host, port = endpoint.server_address
        results = {}
        errors = []

        def session(name, values, seed):
            try:
                with TcpTransport(host, port) as transport:
                    db = OutsourcedDatabase(
                        values, seed=seed, transport=transport, column=name
                    )
                    out = []
                    for low, high in WORKLOAD:
                        out.append(sorted(db.query(low, high).values.tolist()))
                    results[name] = out
            except Exception as exc:  # surfaced after join
                errors.append((name, exc))

        a_values = VALUES[:200]
        b_values = VALUES[200:]
        threads = [
            threading.Thread(target=session, args=("col-a", a_values, 11)),
            threading.Thread(target=session, args=("col-b", b_values, 12)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for name, values in (("col-a", a_values), ("col-b", b_values)):
            expected = [
                sorted(v for v in values if low <= v <= high)
                for low, high in WORKLOAD
            ]
            assert results[name] == expected


class TestLoopback:
    def test_loopback_still_frames_everything(self):
        db = OutsourcedDatabase(VALUES[:50], seed=13)
        recorder = RecordingTransport(db.transport)
        db._remote._transport = recorder
        db.query(0, 100)
        assert len(recorder.sent) == 1
        assert recorder.sent[0][:2] == bytes((0xAE, PROTOCOL_VERSION))
        assert isinstance(decode(recorder.sent[0]), QueryRequest)
        assert db.bytes_sent > 0 and db.bytes_received > 0

    def test_loopback_codec_argument_selects_nothing(self):
        sent = []
        for codec in ("auto", "binary"):
            db = OutsourcedDatabase(VALUES[:50], seed=13, codec=codec)
            recorder = RecordingTransport(db.transport)
            db._remote._transport = recorder
            db.query(0, 100)
            sent.append(recorder.sent)
        assert sent[0] == sent[1]

    def test_loopback_transport_exposes_catalog(self):
        db = OutsourcedDatabase(VALUES[:10], seed=14)
        assert isinstance(db.transport, LoopbackTransport)
        assert db.transport.catalog.column_names == ["values"]


class TestCliConnect:
    def test_query_over_socket_matches_loopback(self, endpoint, tmp_path, capsys):
        from repro.cli import main

        host, port = endpoint.server_address
        column_file = tmp_path / "col.txt"
        column_file.write_text("\n".join(str(v) for v in VALUES[:120]))
        args = [str(column_file), "--range", "10", "90", "--range", "40", "200",
                "--seed", "3"]
        assert main(["query"] + args) == 0
        loop_lines = [line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("range ")]
        assert main(
            ["query"] + args
            + ["--connect", "%s:%d" % (host, port), "--column", "cli-test"]
        ) == 0
        tcp_lines = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("range ")]
        assert loop_lines == tcp_lines

    def test_a_connected_run_closes_its_socket(self, endpoint, tmp_path):
        """``query`` / ``stats`` / ``trace --connect`` close their
        transport when the run ends: the collector finds no open socket
        to warn about."""
        import gc
        import warnings

        from repro.cli import main

        host, port = endpoint.server_address
        column_file = tmp_path / "col.txt"
        column_file.write_text("\n".join(str(v) for v in VALUES[:120]))
        runs = (
            ["query", str(column_file), "--range", "10", "90"],
            ["stats", str(column_file), "--point", "40"],
            ["trace", str(column_file), "--range", "10", "90",
             "--output", str(tmp_path / "trace.jsonl")],
        )
        for argv in runs:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(argv + [
                    "--connect", "%s:%d" % (host, port),
                    "--column", "close-%s" % argv[0],
                ]) == 0
                gc.collect()
            leaks = [str(warning.message) for warning in caught
                     if issubclass(warning.category, ResourceWarning)]
            assert leaks == [], argv[0]
