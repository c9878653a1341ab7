"""TCP endpoint hosting a column catalog (``repro serve``).

:class:`CatalogTCPServer` is the one server front: an accept loop
admits at most ``max_connections`` persistent connections, and the
thread accepted for a connection reads its length-prefixed frames and
serves them itself (:func:`~repro.net.transport.serve_frame`, as the
loopback transport does) behind one lock-guarded admission gate.  The
gate — not the connection count — is the concurrency limit on engine
work: at most ``workers`` frames hold a dispatch slot and at most
``queue_size`` more wait for one, so a thousand idle connections cost
a thousand parked threads and, once per idle gap, one bounded poll.

Backpressure is explicit: a frame that finds every slot taken and the
waiting room full (or the server draining) is answered immediately
with a typed ``busy`` error envelope — the request is *never
dispatched*, so the client may safely retry after a backoff, even for
mutations.  Connections beyond ``max_connections`` are refused at
accept.

:meth:`CatalogTCPServer.stop` drains gracefully: the listener closes,
new frames are refused with ``busy``, frames already running or
waiting for a slot finish and their responses are written, and only
then are the connections torn down.

Each connection processes its frames strictly in order (its thread
writes the response of frame *n* before reading frame *n+1*), matching
the client's one-outstanding-request protocol and making response
mis-pairing impossible even against a misbehaving client.

Poll before parking: in a closed loop the client's next frame arrives
a fraction of a millisecond after the reply, and a thread parked in
``recv`` by then resumes on a core that has gone idle.  So after a
reply the thread first polls its socket for up to
:data:`POLL_SECONDS`, yielding the CPU between polls, and parks in
the blocking read only when nothing arrived.  One connection polls at
a time (it holds a non-blocking token), and only while no frame holds
or waits for a dispatch slot; every other connection parks at once.
The poll only waits: once a byte is there, the frame is read, admitted
and served exactly as a parked thread would.

Server-side failures never cross the wire as exceptions: malformed
frames, engine errors and defects below the catalog's own error
isolation are answered with typed error envelopes, and a connection
that turns into garbage (bad length prefix, oversized frame) is simply
closed.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.net.catalog import ColumnCatalog
from repro.net.protocol import ErrorResponse, encode, error_response_for
from repro.net.transport import LENGTH_PREFIX, MAX_FRAME_BYTES, serve_frame

#: Seconds a connection polls for its next frame before it parks.  The
#: gap between a reply and the client's next frame measured 366 / 140
#: us at p50 and 1.08 / 0.75 ms at p99 on the closed-loop ``range_tcp``
#: / ``mixed_wal`` benchmarks (EXPERIMENTS.md); an idle connection
#: burns at most this much CPU once per idle gap.
POLL_SECONDS = 0.002

#: ``recv`` flags that look for a byte without consuming it or
#: blocking; polling is off where the platform lacks them.
_PEEK = (
    socket.MSG_PEEK | socket.MSG_DONTWAIT
    if hasattr(socket, "MSG_DONTWAIT") and hasattr(os, "sched_yield")
    else None
)


class CatalogTCPServer:
    """Bounded TCP server in front of one :class:`ColumnCatalog`.

    Args:
        address: ``(host, port)``; port 0 picks an ephemeral port
            (read it back from :attr:`server_address`).
        catalog: the endpoint's column catalog; a fresh empty one is
            created when omitted.
        workers: dispatch slots — the bound on concurrent engine
            work.
        max_connections: accepted connections beyond this are closed
            immediately (``net.connections_refused``).
        queue_size: bound on frames waiting for a dispatch slot;
            beyond it frames are answered ``busy``
            (``net.busy_rejected``).  Defaults to ``2 * workers``.
    """

    def __init__(
        self,
        address,
        catalog: ColumnCatalog = None,
        workers: int = 8,
        max_connections: int = 128,
        queue_size: int = None,
    ) -> None:
        self.catalog = catalog if catalog is not None else ColumnCatalog()
        self.workers = max(1, int(workers))
        self.max_connections = max(1, int(max_connections))
        self.queue_size = (
            max(1, int(queue_size)) if queue_size is not None
            else 2 * self.workers
        )
        self._metrics = self.catalog.obs.metrics
        # One lock guards the whole front — the slot counts, the drain
        # flag and the connection table — so "admitted" and "draining"
        # can never disagree, and the gauges are written under it: the
        # last update always writes the true value, so they decay back
        # to 0 instead of sticking at a high-water mark.
        self._gate = threading.Condition()
        self._running = 0  # frames holding a dispatch slot
        self._waiting = 0  # frames admitted, waiting for a slot
        self._draining = False
        self._connections = {}  # accepted socket -> its serving thread
        # Held by the one connection polling for its next frame.
        self._poll_token = threading.Lock()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind(address)
            listener.listen(min(128, self.max_connections))
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self.server_address = listener.getsockname()
        self._metrics.set("net.workers", self.workers)
        self._metrics.set("net.queue_depth", 0)
        self._metrics.set("net.active_connections", 0)
        self.catalog.register_telemetry_provider("pool", self._pool_telemetry)

    def _pool_telemetry(self) -> dict:
        """The ``pool`` telemetry section: live admission-gate state."""
        with self._gate:
            return {
                "workers": self.workers,
                "queue_size": self.queue_size,
                "queue_depth": self._waiting,
                "max_connections": self.max_connections,
                "active_connections": len(self._connections),
                "draining": self._draining,
                "polling": self._poll_token.locked(),
            }

    # -- serving -----------------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the accept loop in the calling thread until :meth:`stop`."""
        while True:
            try:
                sock, address = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            self._admit(sock, address)

    def _admit(self, sock: socket.socket, address) -> None:
        # Accepted sockets carry SO_REUSEADDR too, so sockets lingering
        # in FIN_WAIT/TIME_WAIT after stop() don't block a successor
        # from rebinding the same port.
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        except OSError:  # pragma: no cover
            pass
        with self._gate:
            admitted = (
                not self._draining
                and len(self._connections) < self.max_connections
            )
            if admitted:
                thread = self._connections[sock] = threading.Thread(
                    target=self._serve_connection,
                    args=(sock,),
                    name="catalog-connection-%s:%s" % address[:2],
                    daemon=True,
                )
                self._metrics.set(
                    "net.active_connections", len(self._connections)
                )
                # Started under the lock, so stop() can never find (and
                # join) a registered thread that has not started yet.
                thread.start()
        if not admitted:
            self._metrics.add("net.connections_refused")
            _close(sock)

    def _serve_connection(self, sock: socket.socket) -> None:
        """Serve one connection's frames, strictly one at a time.

        The thread reads a frame, takes a dispatch slot, serves the
        frame and writes the reply before it reads the next, so
        responses can never be mis-paired and one connection can hold
        at most one slot (or one place in the waiting room).
        """
        try:
            while True:
                polled = self._poll(sock)
                header = _recv_exact(sock, LENGTH_PREFIX.size)
                if header is None:
                    return  # client closed the connection
                self._metrics.add(
                    "net.frames_polled" if polled else "net.frames_parked"
                )
                (length,) = LENGTH_PREFIX.unpack(header)
                if length > MAX_FRAME_BYTES:
                    return  # corrupt stream; drop the connection
                payload = _recv_exact(sock, length)
                if payload is None:
                    return
                refusal = self._take_slot()
                if refusal is None:
                    try:
                        alive = self._serve(sock, payload)
                    finally:
                        self._release_slot()
                else:
                    # The request never reached the catalog, so the
                    # client may retry it — even a mutation — once the
                    # endpoint has capacity.  During a graceful drain
                    # the frame is refused the same way (never silently
                    # dropped) and the connection then closes.
                    alive = _write_frame(sock, encode(
                        ErrorResponse(code="busy", message=refusal)
                    )) and not self._draining
                if not alive:
                    return
        finally:
            with self._gate:
                if self._connections.pop(sock, None) is not None:
                    self._metrics.set(
                        "net.active_connections", len(self._connections)
                    )
            _close(sock)

    def _poll(self, sock: socket.socket) -> bool:
        """Poll for the next frame (see the module docstring): True once
        the socket is readable — a byte, the client's close, or an
        error the blocking read will report — False when this thread
        should park instead.  The gate is re-read on every iteration,
        so a frame on another connection ends the poll at once.
        """
        if _PEEK is None or not self._poll_token.acquire(blocking=False):
            return False
        try:
            deadline = time.monotonic() + POLL_SECONDS
            while not (self._running or self._waiting):
                try:
                    sock.recv(1, _PEEK)
                    return True  # a byte, or the client's close
                except BlockingIOError:
                    pass
                except OSError:
                    return True  # the blocking read reports it
                if time.monotonic() >= deadline:
                    return False
                os.sched_yield()  # and the GIL: other threads run first
            return False
        finally:
            self._poll_token.release()

    def _take_slot(self) -> str | None:
        """Admit one frame: ``None`` once it holds a dispatch slot, or
        the reason it is refused ``busy`` without being dispatched.

        A frame is refused only when every slot is taken *and* the
        waiting room is full (or the server is draining); one admitted
        before a drain began keeps its place and is served.
        """
        with self._gate:
            if self._draining:
                return "endpoint draining"
            if self._running >= self.workers:
                if self._waiting >= self.queue_size:
                    self._metrics.add("net.busy_rejected")
                    return (
                        "request queue full (%d workers, queue %d)"
                        % (self.workers, self.queue_size)
                    )
                self._waiting += 1
                self._metrics.set("net.queue_depth", self._waiting)
                while self._running >= self.workers:
                    self._gate.wait()
                self._waiting -= 1
                self._metrics.set("net.queue_depth", self._waiting)
            self._running += 1
            return None

    def _release_slot(self) -> None:
        with self._gate:
            self._running -= 1
            # Wakes the frames waiting for a slot, and stop() waiting
            # for the front to fall idle.
            self._gate.notify_all()

    def _serve(self, sock: socket.socket, payload: bytes) -> bool:
        """Serve one admitted frame; False when the client went away."""
        try:
            # The span records the exception type on exit, so a failure
            # answered below still shows up in the trace.
            with self.catalog.obs.span("serve-frame"):
                return _write_frame(sock, serve_frame(self.catalog, payload))
        except Exception as exc:
            # A defect in an engine below the catalog's own isolation
            # must cost the client neither its answer nor its
            # connection: it is counted, never silent, and answered
            # with a typed ``internal`` envelope.
            self._metrics.add("net.worker_errors")
            return _write_frame(sock, encode(error_response_for(exc)))

    # -- shutdown ----------------------------------------------------------------

    def stop(self) -> None:
        """Drain and stop: finish admitted work, then tear down.

        The listener closes first (no new connections), any frame
        arriving after this point is refused with a ``busy`` envelope,
        frames already running or waiting for a slot complete and
        their responses are written, and finally every connection is
        closed — so a client blocked on an already-admitted exchange
        gets its answer, while the next exchange raises
        :class:`~repro.errors.TransportError`.
        """
        with self._gate:
            if self._draining:
                return
            self._draining = True
        # shutdown() before close(): closing the fd alone does not wake
        # a thread blocked in accept(), and that blocked syscall keeps
        # the kernel socket alive in LISTEN state (blocking rebinds).
        _close(self._listener)
        with self._gate:
            # Bounded, so a frame wedged in an engine cannot hang the
            # shutdown with it.
            self._gate.wait_for(
                lambda: not (self._running or self._waiting), timeout=30
            )
            connections = dict(self._connections)
            self._connections.clear()
            self._metrics.set("net.active_connections", 0)
        for sock in connections:
            _close(sock)
        for thread in connections.values():
            thread.join(timeout=5)


def _write_frame(sock: socket.socket, frame: bytes) -> bool:
    """Send one length-prefixed frame; False when the client went away."""
    try:
        sock.sendall(LENGTH_PREFIX.pack(len(frame)) + frame)
    except OSError:
        return False
    return True


def _recv_exact(sock: socket.socket, count: int):
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _close(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover - close is best effort
        pass


def serve(
    catalog: ColumnCatalog = None,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 8,
    max_connections: int = 128,
    queue_size: int = None,
) -> CatalogTCPServer:
    """Bind a catalog endpoint; the caller drives ``serve_forever``.

    Returns the bound server so callers can read the actual port
    (``server.server_address``) before starting the accept loop —
    typically on a background thread in tests, or foreground under the
    ``repro serve`` CLI command.
    """
    return CatalogTCPServer(
        (host, port),
        catalog,
        workers=workers,
        max_connections=max_connections,
        queue_size=queue_size,
    )
