"""Concurrency stress tests for the net layer.

Covers the three PR-5 guarantees:

* shared-transport safety — one :class:`TcpTransport` used by many
  threads/columns never interleaves frame bytes or mis-pairs
  responses (regression: pre-lock, concurrent ``exchange`` calls
  corrupted the length-prefixed stream);
* server front — bounded dispatch slots with ``busy`` backpressure and
  graceful drain (admitted requests finish, late frames get a typed
  refusal, nothing hangs);
* rotation fencing — ``rotate_apply`` is refused when the column
  mutated after ``rotate_begin`` (regression: pre-fence, a concurrent
  insert between the two messages was silently erased by the rebuild);
* poll before parking — a connection thread that polls for its next
  frame answers it exactly as a parked one would, ends cleanly when
  its client or the endpoint goes away mid-poll, and never keeps
  another connection waiting.

A thread that dies of an exception fails the test it ran in.
"""

import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.query import EncryptedQuery
from repro.core.session import OutsourcedDatabase
from repro.errors import (
    ProtocolError,
    ReproError,
    RotationConflictError,
    SerializationError,
    ServerBusyError,
    TransportError,
)
from repro.net import ColumnCatalog, RemoteColumn, serve
from repro.net import server as server_module
from repro.net.protocol import (
    ENVELOPES,
    DeleteRequest,
    ErrorResponse,
    HelloRequest,
    HelloResponse,
    InsertRequest,
    MergeRequest,
    MergeResponse,
    RotateApplyRequest,
    decode,
    encode,
)
from repro.net.server import CatalogTCPServer
from repro.net.transport import (
    LENGTH_PREFIX,
    MAX_FRAME_BYTES,
    LoopbackTransport,
    TcpTransport,
    Transport,
    serve_frame,
)

pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)

VALUES_A = list(np.random.default_rng(41).permutation(200))
VALUES_B = [1000 + v for v in np.random.default_rng(42).permutation(200)]


def start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def pool_state(server):
    """The endpoint's public ``pool`` telemetry section."""
    return server.catalog.telemetry(["pool"])["pool"]


class GatedCatalog(ColumnCatalog):
    """Catalog whose dispatch blocks on a gate for selected kinds.

    Lets a test park a frame mid-dispatch deterministically, so slot
    occupancy / drain windows can be asserted without sleeps.
    """

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)
        self.gated_kinds = set()

    def dispatch(self, request, trace=None):
        spec = ENVELOPES.get(type(request))
        if spec is not None and spec.kind in self.gated_kinds:
            self.entered.release()
            self.gate.wait()
        return super().dispatch(request, trace)


class CountingCatalog(ColumnCatalog):
    """Catalog recording the high-water mark of concurrent dispatches."""

    def __init__(self):
        super().__init__()
        self._count_lock = threading.Lock()
        self.active = self.peak = 0

    def dispatch(self, request, trace=None):
        with self._count_lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            return super().dispatch(request, trace)
        finally:
            with self._count_lock:
                self.active -= 1


# -- shared transport ----------------------------------------------------------


class TestSharedTransport:
    def test_two_columns_eight_threads_one_transport(self):
        """Regression: concurrent exchanges over one shared TCP
        transport used to interleave their frame bytes on the socket.
        With the per-transport lock, every thread gets exactly its own
        column's rows back."""
        server = serve()
        thread = start(server)
        host, port = server.server_address
        transport = TcpTransport(host, port)
        try:
            db_a = OutsourcedDatabase(
                VALUES_A, seed=1, transport=transport, column="a"
            )
            db_b = OutsourcedDatabase(
                VALUES_B, seed=2, transport=transport, column="b"
            )
            plans = [("a", db_a, VALUES_A), ("b", db_b, VALUES_B)]
            errors = []
            everything = EncryptedQuery(low=None, high=None)

            def hammer(name, db, values):
                handle = RemoteColumn(transport, name)
                try:
                    for _ in range(25):
                        # Unbounded and tokenless: every row, whole.
                        answer = handle.query(everything)
                        is_real, opened = db.client.encryptor.open_block(
                            answer.rows)
                        assert is_real.all()
                        assert sorted(opened.tolist()) == sorted(values), (
                            "cross-delivered rows in column %r" % name
                        )
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=plans[i % 2])
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors, errors
        finally:
            transport.close()
            server.stop()
            thread.join(timeout=5)


# -- rotation fencing ----------------------------------------------------------


class TestRotationFence:
    def _loopback_db(self):
        return OutsourcedDatabase(list(range(100)), seed=11)

    def test_insert_between_begin_and_apply_is_fenced(self):
        db = self._loopback_db()
        catalog = db.transport.catalog
        begin = db._remote.rotate_begin()
        epoch_at_begin = catalog.epoch("values")
        assert begin.fence == epoch_at_begin
        # A concurrent session sneaks an insert in between the two
        # rotation messages.
        catalog.handle(
            InsertRequest(
                column="values", rows=tuple(db.client.encrypt_value(5555))
            )
        )
        with pytest.raises(RotationConflictError, match="mutated"):
            db._remote.rotate_apply(
                begin.response.rows, begin.response.row_ids, fence=begin.fence
            )
        # The refused apply left the column (and its epoch) intact:
        # the sneaked-in row is still there.
        assert catalog.epoch("values") == epoch_at_begin + 1
        got = sorted(db.query(0, 99).values.tolist())
        assert got == list(range(100))

    def test_delete_between_begin_and_apply_is_fenced(self):
        db = self._loopback_db()
        catalog = db.transport.catalog
        begin = db._remote.rotate_begin()
        catalog.handle(DeleteRequest(column="values", row_ids=(0,)))
        with pytest.raises(RotationConflictError):
            db._remote.rotate_apply(
                begin.response.rows, begin.response.row_ids, fence=begin.fence
            )

    def test_session_rotate_key_surfaces_conflict_and_recovers(self):
        """End-to-end: a mutation racing ``rotate_key`` surfaces as
        RotationConflictError, the session stays usable under the old
        key, and calling ``rotate_key`` again succeeds."""
        db = self._loopback_db()
        catalog = db.transport.catalog
        inner = db.transport

        class RacingTransport(Transport):
            """Injects an out-of-band delete between the session's
            rotate_begin and rotate_apply, exactly once."""

            def __init__(self):
                self.fired = False

            def exchange(self, frame, retryable=False):
                if (
                    not self.fired
                    and isinstance(decode(frame), RotateApplyRequest)
                ):
                    self.fired = True
                    catalog.handle(
                        DeleteRequest(column="values", row_ids=(0,))
                    )
                return inner.exchange(frame, retryable=retryable)

        db._remote._transport = RacingTransport()
        old_key = db.client
        with pytest.raises(RotationConflictError):
            db.rotate_key(new_seed=77)
        # The key switch never committed: both parties still speak the
        # old key, so the session keeps answering correctly.
        assert db.client is old_key
        before_retry = sorted(db.query(0, 99).values.tolist())
        # Retrying takes a fresh snapshot (which includes the racing
        # delete) and succeeds.
        db.rotate_key(new_seed=78)
        assert db.client is not old_key
        assert sorted(db.query(0, 99).values.tolist()) == before_retry


# -- worker-pool front ---------------------------------------------------------


class TestWorkerPool:
    def test_busy_backpressure_when_queue_full(self):
        catalog = GatedCatalog()
        server = CatalogTCPServer(
            ("127.0.0.1", 0), catalog, workers=1, queue_size=1
        )
        thread = start(server)
        host, port = server.server_address
        transports = []

        def handle():
            transport = TcpTransport(host, port)
            transports.append(transport)
            return RemoteColumn(transport, "values")

        try:
            setup = TcpTransport(host, port)
            transports.append(setup)
            OutsourcedDatabase(
                list(range(20)), seed=3, transport=setup, column="values",
            )
            catalog.gated_kinds = {"hello"}
            results = []

            def hello(h):
                results.append(h.call(HelloRequest()))

            occupant = threading.Thread(target=hello, args=(handle(),))
            occupant.start()
            assert catalog.entered.acquire(timeout=10)  # worker is parked
            queued = threading.Thread(target=hello, args=(handle(),))
            queued.start()
            deadline = time.monotonic() + 10
            # the one place in the waiting room fills
            while pool_state(server)["queue_depth"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # Worker busy + queue full: the next request is refused
            # with a typed busy envelope, not dropped or queued.
            with pytest.raises(ServerBusyError, match="queue full"):
                handle().call(HelloRequest())
            assert catalog.obs.metrics.counter_value("net.busy_rejected") >= 1
            catalog.gate.set()
            occupant.join(timeout=10)
            queued.join(timeout=10)
            # Backpressure never lost the admitted requests.
            assert results == [HelloResponse()] * 2
        finally:
            catalog.gate.set()
            server.stop()
            thread.join(timeout=5)
            for transport in transports:
                transport.close()

    @pytest.mark.parametrize("workers, waiting", [(2, 0), (1, 1)])
    def test_drain_finishes_in_flight_and_refuses_late_frames(
        self, workers, waiting
    ):
        """Every frame admitted before ``stop()`` — running, or still
        waiting for a dispatch slot — gets its real answer; a frame
        arriving after gets ``busy``."""
        catalog = GatedCatalog()
        server = CatalogTCPServer(("127.0.0.1", 0), catalog, workers=workers)
        thread = start(server)
        host, port = server.server_address
        transports = []
        try:
            setup = TcpTransport(host, port)
            transports.append(setup)
            OutsourcedDatabase(
                list(range(20)), seed=4, transport=setup, column="values",
            )
            bystander_transport = TcpTransport(host, port)
            transports.append(bystander_transport)
            bystander = RemoteColumn(bystander_transport, "values")
            # connection established
            assert bystander.call(HelloRequest()) == HelloResponse()
            catalog.gated_kinds = {"hello"}
            admitted_results = []

            def admitted():
                transport = TcpTransport(host, port)
                transports.append(transport)
                handle = RemoteColumn(transport, "values")
                admitted_results.append(handle.call(HelloRequest()))

            clients = [
                threading.Thread(target=admitted) for _ in range(1 + waiting)
            ]
            clients[0].start()
            assert catalog.entered.acquire(timeout=10)  # holds a slot
            for client in clients[1:]:
                client.start()
            deadline = time.monotonic() + 10
            while pool_state(server)["queue_depth"] < waiting:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            while not pool_state(server)["draining"]:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # A frame arriving during the drain gets a typed refusal.
            with pytest.raises(ServerBusyError, match="draining"):
                bystander.call(HelloRequest())
            # ... while every admitted request still completes.
            catalog.gate.set()
            for client in clients:
                client.join(timeout=10)
            stopper.join(timeout=30)
            assert not stopper.is_alive()
            assert len(admitted_results) == 1 + waiting
            assert admitted_results == [HelloResponse()] * (1 + waiting)
            assert catalog.obs.metrics.gauge("net.queue_depth").value == 0
            # The endpoint is really gone afterwards.
            probe = TcpTransport(host, port, connect_timeout=2.0)
            transports.append(probe)
            with pytest.raises(TransportError):
                probe.exchange(b"{}")
        finally:
            catalog.gate.set()
            server.stop()
            thread.join(timeout=5)
            for transport in transports:
                transport.close()

    def test_many_sessions_through_small_pool(self):
        """More concurrent sessions than workers: the bounded pool
        serves them all correctly, one connection's frames strictly
        serialized."""
        # Each connection has at most one frame in flight, so 9
        # sessions can never overflow 3 dispatch slots plus the default
        # 6 places in the waiting room: no frame is refused ``busy``
        # while there is room for it.
        catalog = CountingCatalog()
        server = serve(catalog, workers=3)
        thread = start(server)
        host, port = server.server_address
        errors = []
        # More runnable threads than cores, switching often: a lost
        # update to the slot counts would show as a fourth concurrent
        # dispatch or a waiting count that never returns to 0.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def session(index):
            values = [index * 10000 + v for v in range(120)]
            try:
                with TcpTransport(host, port) as transport:
                    db = OutsourcedDatabase(
                        values, seed=index, transport=transport,
                        column="col-%d" % index,
                    )
                    low = index * 10000 + 10
                    high = index * 10000 + 90
                    got = sorted(db.query(low, high).values.tolist())
                    assert got == list(range(low, high + 1))
                    inserted = db.insert(index * 10000 + 5000)
                    assert index * 10000 + 5000 in db.query(
                        index * 10000 + 4999, index * 10000 + 5001
                    ).values.tolist()
                    db.delete(inserted)
            except Exception as exc:  # surfaced after join
                errors.append((index, exc))

        try:
            threads = [
                threading.Thread(target=session, args=(i,)) for i in range(9)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors
            assert 1 <= catalog.peak <= 3
            assert pool_state(server)["queue_depth"] == 0
        finally:
            sys.setswitchinterval(switch_interval)
            server.stop()
            thread.join(timeout=5)

    def test_stop_under_load_never_hangs_or_corrupts(self):
        """Kill the endpoint while sessions are mid-workload: every
        thread either gets correct answers or a typed error — never a
        hang, never wrong data."""
        server = serve(workers=4)
        thread = start(server)
        host, port = server.server_address
        ready = threading.Semaphore(0)
        unexpected = []
        successes = [0] * 6

        def session(index):
            values = [index * 1000 + v for v in range(80)]
            expected = sorted(values[:40])
            try:
                with TcpTransport(host, port) as transport:
                    db = OutsourcedDatabase(
                        values, seed=index, transport=transport,
                        column="load-%d" % index,
                    )
                    for round_no in range(200):
                        got = sorted(
                            db.query(
                                index * 1000, index * 1000 + 39
                            ).values.tolist()
                        )
                        assert got == expected, "corrupt answer"
                        successes[index] += 1
                        if round_no == 1:
                            ready.release()
            except (TransportError, ServerBusyError):
                pass  # the endpoint went away mid-workload: expected
            except Exception as exc:
                unexpected.append((index, exc))

        threads = [
            threading.Thread(target=session, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        try:
            for _ in range(6):
                assert ready.acquire(timeout=60)
            server.stop()
        finally:
            for t in threads:
                t.join(timeout=60)
        assert not unexpected, unexpected
        assert all(count >= 2 for count in successes)
        assert not any(t.is_alive() for t in threads)


# -- reconnect and retry -------------------------------------------------------


class TestReconnect:
    def _endpoint(self):
        server = serve()
        thread = start(server)
        return server, thread

    def test_idempotent_query_retries_across_restart(self):
        server, thread = self._endpoint()
        host, port = server.server_address
        transport = TcpTransport(host, port, retries=3, backoff=0.01)
        db = OutsourcedDatabase(
            list(range(60)), seed=5, transport=transport
        )
        expected = sorted(db.query(10, 40).values.tolist())
        server.stop()
        thread.join(timeout=5)
        revived = CatalogTCPServer((host, port), server.catalog)
        revived_thread = start(revived)
        try:
            # The old connection is dead; the retryable query reconnects
            # and succeeds transparently.
            assert sorted(db.query(10, 40).values.tolist()) == expected
            assert transport.retry_count >= 1
            assert db.obs.metrics.counter_value("net.retries") >= 1
        finally:
            revived.stop()
            revived_thread.join(timeout=5)
            transport.close()

    def test_mutations_are_never_auto_retried(self):
        server, thread = self._endpoint()
        host, port = server.server_address
        transport = TcpTransport(host, port, retries=3, backoff=0.01)
        db = OutsourcedDatabase(
            list(range(30)), seed=6, transport=transport
        )
        server.stop()
        thread.join(timeout=5)
        before = transport.retry_count
        started = time.monotonic()
        with pytest.raises(TransportError):
            db.insert(4242)
        # No reconnect attempts were burned on the mutation: its
        # server-side effect would be unknown after a lost response.
        assert transport.retry_count == before
        assert time.monotonic() - started < 2.0
        transport.close()

    def test_reconnect_sends_the_request_alone(self):
        """After a restart the next frame on the new connection is the
        request itself: there is no codec to agree on first."""
        server, thread = self._endpoint()
        host, port = server.server_address
        transport = TcpTransport(host, port, retries=2, backoff=0.01)
        db = OutsourcedDatabase(list(range(50)), seed=8, transport=transport)
        expected = sorted(db.query(5, 30).values.tolist())
        server.stop()
        thread.join(timeout=5)
        with pytest.raises(TransportError):
            db.query(5, 30)
        revived = CatalogTCPServer((host, port), server.catalog)
        revived_thread = start(revived)
        try:
            requests = revived.catalog.obs.metrics.counter_value(
                "net.requests")
            assert sorted(db.query(5, 30).values.tolist()) == expected
            assert (revived.catalog.obs.metrics.counter_value("net.requests")
                    == requests + 1)
        finally:
            revived.stop()
            revived_thread.join(timeout=5)
            transport.close()


class _ScriptedTransport(Transport):
    """Answers every frame with the next scripted response envelope."""

    def __init__(self, *responses):
        self.responses = list(responses)
        self.sent = []

    def exchange(self, frame, retryable=False):
        self.sent.append(frame)
        return encode(self.responses.pop(0))

    def close(self):
        pass


class TestOneCodec:
    MERGED = MergeResponse(delta=0)

    @pytest.mark.parametrize("codec", ["auto", "binary"])
    def test_the_first_exchange_is_the_request(self, codec):
        transport = _ScriptedTransport(self.MERGED)
        remote = RemoteColumn(transport, "c", codec=codec)
        assert remote.merge() == 0
        assert transport.sent == [encode(MergeRequest(column="c"))]

    @pytest.mark.parametrize("codec", ["json", "zstd"])
    def test_no_other_codec_is_accepted(self, codec):
        with pytest.raises(SerializationError, match="codec"):
            RemoteColumn(_ScriptedTransport(), "c", codec=codec)
        with pytest.raises(SerializationError, match="codec"):
            OutsourcedDatabase([1, 2, 3], seed=1, codec=codec)

    @pytest.mark.parametrize("code, error", [
        ("busy", ServerBusyError),
        ("transport", TransportError),
        ("protocol", ProtocolError),
    ])
    def test_an_error_envelope_raises_its_type(self, code, error):
        transport = _ScriptedTransport(
            ErrorResponse(code=code, message="no"), self.MERGED,
        )
        remote = RemoteColumn(transport, "c")
        with pytest.raises(error):
            remote.merge()
        assert remote.merge() == 0  # the next call is served as ever


# -- poll before parking -------------------------------------------------------

HELLO = encode(HelloRequest())
HELLO_REPLY = serve_frame(ColumnCatalog(), HELLO)

#: A budget no test outlasts: whoever polls keeps polling until a frame,
#: a close or a dispatch slot ends it.
LONG_POLL = 5.0


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def send_frame(sock, frame):
    sock.sendall(LENGTH_PREFIX.pack(len(frame)) + frame)


def read_frame(sock):
    deadline = time.monotonic() + 10
    (length,) = LENGTH_PREFIX.unpack(
        TcpTransport._recv_exact(sock, 4, deadline)
    )
    return TcpTransport._recv_exact(sock, length, deadline)


def waits(server):
    """Where each connection thread waits for its next frame:
    ``"poll"``, ``"park"`` (a blocking read) or ``None`` (neither)."""
    frames = sys._current_frames()
    places = []
    for thread in list(server._connections.values()):
        names = set()
        frame = frames.get(thread.ident)
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        places.append(
            "poll" if "_poll" in names
            else "park" if "_recv_exact" in names
            else None
        )
    return places


def frame_counts(server):
    counter = server.catalog.obs.metrics.counter_value
    return counter("net.frames_polled"), counter("net.frames_parked")


@pytest.fixture()
def endpoint():
    server = serve(GatedCatalog())
    thread = start(server)
    try:
        yield server
    finally:
        server.catalog.gate.set()
        server.stop()
        thread.join(timeout=5)


@pytest.fixture()
def long_poll(monkeypatch, endpoint):
    """An endpoint whose connections poll for :data:`LONG_POLL`."""
    monkeypatch.setattr(server_module, "POLL_SECONDS", LONG_POLL)
    return endpoint


@pytest.fixture()
def connect(endpoint):
    """Opens raw client sockets to ``endpoint``; closes them after."""
    sockets = []

    def open_one():
        sock = socket.create_connection(endpoint.server_address, timeout=10)
        sockets.append(sock)
        return sock

    yield open_one
    for sock in sockets:
        sock.close()


class TestPollBeforePark:
    def test_polled_frames_get_the_loopback_transcript(self, long_poll):
        """Every frame of a session arrives while its thread polls, and
        the transcript is byte for byte the loopback one."""

        class Recording(Transport):
            def __init__(self, inner):
                self.inner, self.sent, self.received = inner, [], []

            def exchange(self, frame, retryable=False):
                self.sent.append(frame)
                self.received.append(self.inner.exchange(frame, retryable))
                return self.received[-1]

        loop = Recording(LoopbackTransport(ColumnCatalog()))
        tcp = Recording(TcpTransport(*long_poll.server_address))
        for transport in (loop, tcp):
            db = OutsourcedDatabase(VALUES_A, seed=6, transport=transport)
            for low, high in [(30, 90), (0, 199), (120, 121)]:
                db.query(low, high)
            db.delete(db.insert(10 ** 6))
        tcp.inner.close()
        assert (loop.sent, loop.received) == (tcp.sent, tcp.received)
        assert frame_counts(long_poll) == (len(tcp.sent), 0)

    def test_a_prefix_split_across_the_poll_boundary_decodes(
        self, monkeypatch, endpoint, connect
    ):
        monkeypatch.setattr(server_module, "POLL_SECONDS", 0.05)
        sock = connect()
        send_frame(sock, HELLO)
        assert read_frame(sock) == HELLO_REPLY
        wait_until(lambda: waits(endpoint) == ["poll"])
        head = LENGTH_PREFIX.pack(len(HELLO))
        sock.sendall(head[:1])  # during the poll ...
        time.sleep(0.2)  # ... then well past its budget
        sock.sendall(head[1:] + HELLO)
        assert read_frame(sock) == HELLO_REPLY
        assert frame_counts(endpoint)[0] == 2

    def test_an_oversized_prefix_during_a_poll_drops_the_connection(
        self, long_poll, connect
    ):
        sock = connect()
        send_frame(sock, HELLO)
        read_frame(sock)
        wait_until(lambda: waits(long_poll) == ["poll"])
        sock.sendall(LENGTH_PREFIX.pack(MAX_FRAME_BYTES + 1))
        try:
            assert sock.recv(1) == b""
        except ConnectionResetError:
            pass
        wait_until(lambda: not long_poll._connections)

    def test_a_client_closing_mid_poll_ends_the_thread(
        self, long_poll, connect
    ):
        sock = connect()
        send_frame(sock, HELLO)
        read_frame(sock)
        wait_until(lambda: waits(long_poll) == ["poll"])
        (thread,) = long_poll._connections.values()
        sock.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert not long_poll._connections
        assert pool_state(long_poll)["polling"] is False

    def test_stop_mid_poll_returns_within_the_budget(
        self, long_poll, connect
    ):
        sock = connect()
        send_frame(sock, HELLO)
        read_frame(sock)
        wait_until(lambda: waits(long_poll) == ["poll"])
        (thread,) = long_poll._connections.values()
        started = time.monotonic()
        long_poll.stop()
        assert time.monotonic() - started < LONG_POLL
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_a_second_connection_is_served_while_the_first_polls(
        self, long_poll, connect
    ):
        first = connect()
        send_frame(first, HELLO)
        read_frame(first)
        wait_until(lambda: waits(long_poll) == ["poll"])
        second = connect()
        started = time.monotonic()
        for _ in range(20):
            send_frame(second, HELLO)
            assert read_frame(second) == HELLO_REPLY
        assert time.monotonic() - started < LONG_POLL / 2
        assert waits(long_poll).count("poll") <= 1

    def test_a_frame_holding_a_slot_ends_the_poll(self, long_poll, connect):
        first = connect()
        send_frame(first, HELLO)
        read_frame(first)
        wait_until(lambda: waits(long_poll) == ["poll"])
        long_poll.catalog.gated_kinds = {"hello"}
        second = connect()
        send_frame(second, HELLO)
        assert long_poll.catalog.entered.acquire(timeout=10)
        # While the second connection's frame holds its dispatch slot
        # the first connection stops polling ...
        wait_until(lambda: waits(long_poll) == ["park", None],
                   timeout=LONG_POLL / 2)
        long_poll.catalog.gate.set()
        assert read_frame(second) == HELLO_REPLY
        # ... so its next frame finds it parked.
        polled, parked = frame_counts(long_poll)
        send_frame(first, HELLO)
        read_frame(first)
        assert frame_counts(long_poll) == (polled, parked + 1)

    def test_four_idle_connections_share_one_poll_token(
        self, long_poll, connect
    ):
        sockets = [connect() for _ in range(4)]
        wait_until(lambda: len(waits(long_poll)) == 4
                   and None not in waits(long_poll))
        assert sorted(waits(long_poll)) == ["park"] * 3 + ["poll"]
        assert pool_state(long_poll)["polling"] is True
        for sock in sockets:
            send_frame(sock, HELLO)
            read_frame(sock)
        wait_until(lambda: None not in waits(long_poll))
        assert sorted(waits(long_poll)) == ["park"] * 3 + ["poll"]


def test_back_to_back_frames_are_polled_and_an_idle_gap_parks(endpoint):
    """The count gate of poll-before-park, at the shipped budget: 200
    back-to-back exchanges on one in-process connection arrive while
    the thread polls (>= 90 %), and one after a 50 ms idle gap finds it
    parked."""
    with TcpTransport(*endpoint.server_address) as transport:
        transport.exchange(HELLO)
        before = frame_counts(endpoint)
        for _ in range(200):
            transport.exchange(HELLO)
        polled, parked = frame_counts(endpoint)
        assert polled - before[0] >= 180, (polled, parked, before)
        time.sleep(0.05)
        transport.exchange(HELLO)
        assert frame_counts(endpoint) == (polled, parked + 1)
