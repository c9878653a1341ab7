"""Pluggable transports carrying protocol frames between the parties.

A transport moves opaque frame bytes (one encoded envelope) from the
client to an endpoint and returns the response frame.  Two
implementations cover the deployment spectrum:

* :class:`LoopbackTransport` — in-process, near-zero overhead, the
  default for a single-process session.  It still decodes every
  request frame and re-encodes every response frame, so even loopback
  traffic exercises the real wire format (tests pin loopback and TCP
  frames byte-identical for the same workload).
* :class:`TcpTransport` — length-prefixed frames over a TCP socket to
  a :mod:`repro.net.server` endpoint (``repro serve``), with connect
  and exchange timeouts.

Every transport failure surfaces as a typed
:class:`~repro.errors.TransportError` — a refused connection, a
timeout, or a server that died mid-exchange — never a hang or a raw
``OSError``.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from abc import ABC, abstractmethod

from repro.errors import SerializationError, TransportError
from repro.net.protocol import decode_request, encode

#: Frame length prefix: 4-byte unsigned big-endian.
LENGTH_PREFIX = struct.Struct(">I")

#: Upper bound on a single frame, enforced in *both* directions: the
#: server read path drops connections announcing larger frames, and the
#: client send path refuses to ship one (the receiver would kill the
#: connection anyway — failing before the write keeps it alive).
MAX_FRAME_BYTES = 1 << 30


def serve_frame(catalog, payload: bytes) -> bytes:
    """The endpoint half of one exchange: request frame in, reply out.

    The one place a frame meets
    :meth:`~repro.net.catalog.ColumnCatalog.dispatch`, under every
    transport: a frame that does not decode is dispatched as the
    :class:`~repro.errors.SerializationError` it raised, and so
    answered with a typed ``serialization`` envelope.
    ``server.bytes_shipped`` counts the reply's length: every byte the
    endpoint ships, measured, under either transport.
    """
    try:
        request, trace = decode_request(payload)
    except SerializationError as exc:
        request, trace = exc, None
    reply = encode(catalog.dispatch(request, trace))
    catalog.obs.metrics.add("server.bytes_shipped", len(reply))
    return reply


class Transport(ABC):
    """One client's channel to a column-catalog endpoint."""

    #: Total idempotent re-sends performed (see ``TcpTransport``
    #: retries); column handles read the delta per exchange to feed the
    #: ``net.retries`` counter.
    retry_count = 0

    @abstractmethod
    def exchange(self, frame: bytes, retryable: bool = False) -> bytes:
        """Deliver one request frame; return the response frame.

        ``retryable`` marks the frame as an idempotent request the
        transport may re-send after a mid-exchange connection loss;
        transports without retry support ignore it.
        """

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class LoopbackTransport(Transport):
    """In-process transport over a local
    :class:`~repro.net.catalog.ColumnCatalog`.

    Both directions pass through the real frame codec
    (:func:`serve_frame`, the function the TCP endpoint serves with), so
    every request gets byte for byte the reply it would get behind a
    socket.
    """

    def __init__(self, catalog) -> None:
        self._catalog = catalog

    @property
    def catalog(self):
        """The in-process endpoint this transport is looped onto."""
        return self._catalog

    def exchange(self, frame: bytes, retryable: bool = False) -> bytes:
        return serve_frame(self._catalog, frame)


class TcpTransport(Transport):
    """Length-prefixed frames over one persistent TCP connection.

    The transport is safe to share across threads and column handles:
    a per-transport lock serializes :meth:`exchange`, so two threads
    can never interleave their frame bytes on the socket or steal each
    other's responses.  A connection is (re-)established lazily on the
    next exchange after any failure.

    Args:
        host, port: the ``repro serve`` endpoint address.
        connect_timeout: seconds allowed for establishing the
            connection (lazily, on first exchange).
        timeout: seconds one exchange — sending the request and
            receiving the whole reply — may take, however the peer
            paces its bytes (each re-send gets a deadline of its own).
        retries: how many times a *retryable* frame (flagged by the
            caller — queries, telemetry, hello) may be re-sent after a
            mid-exchange connection loss.  0 (default) disables
            retries; mutating frames are never retried regardless.
        backoff: initial delay in seconds before the first re-send;
            doubles per attempt up to ``backoff_cap``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 5.0,
        timeout: float = 30.0,
        retries: int = 0,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        self._address = (host, int(port))
        self._connect_timeout = connect_timeout
        self._timeout = timeout
        self._retries = max(0, int(retries))
        self._backoff = backoff
        self._backoff_cap = backoff_cap
        self._lock = threading.Lock()
        self._sock: socket.socket = None
        self.retry_count = 0

    @property
    def address(self):
        """The ``(host, port)`` endpoint this transport connects to."""
        return self._address

    def _connection(self) -> socket.socket:
        if self._sock is None:
            try:
                sock = socket.create_connection(
                    self._address, timeout=self._connect_timeout
                )
            except OSError as exc:
                raise TransportError(
                    "cannot connect to %s:%d: %s" % (*self._address, exc)
                ) from exc
            self._sock = sock
        return self._sock

    def exchange(self, frame: bytes, retryable: bool = False) -> bytes:
        if len(frame) > MAX_FRAME_BYTES:
            # Refuse before touching the socket: the server would drop
            # the connection on an oversized announcement, so failing
            # here keeps the session usable.
            raise TransportError(
                "oversized request frame (%d bytes, limit %d)"
                % (len(frame), MAX_FRAME_BYTES)
            )
        with self._lock:
            attempts_left = self._retries if retryable else 0
            delay = self._backoff
            while True:
                try:
                    return self._exchange_once(frame)
                except TransportError:
                    if attempts_left <= 0:
                        raise
                    attempts_left -= 1
                    self.retry_count += 1
                    time.sleep(delay)
                    delay = min(delay * 2, self._backoff_cap)

    def _exchange_once(self, frame: bytes) -> bytes:
        """One send/receive attempt; any failure drops the connection
        (the next attempt reconnects lazily)."""
        sock = self._connection()
        deadline = time.monotonic() + self._timeout
        try:
            _arm(sock, deadline)
            sock.sendall(LENGTH_PREFIX.pack(len(frame)) + frame)
            (length,) = LENGTH_PREFIX.unpack(
                self._recv_exact(sock, 4, deadline)
            )
            if length > MAX_FRAME_BYTES:
                raise TransportError(
                    "oversized response frame (%d bytes)" % length
                )
            return self._recv_exact(sock, length, deadline)
        except TransportError:
            self._drop_connection()
            raise
        except OSError as exc:
            # Covers socket.timeout and connection resets alike; the
            # connection state is unknown, so drop it.
            self._drop_connection()
            raise TransportError(
                "exchange with %s:%d failed: %s" % (*self._address, exc)
            ) from exc

    @staticmethod
    def _recv_exact(
        sock: socket.socket, count: int, deadline: float
    ) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            _arm(sock, deadline)
            chunk = sock.recv(remaining)
            if not chunk:
                raise TransportError(
                    "connection closed mid-frame (%d of %d bytes missing)"
                    % (remaining, count)
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _drop_connection(self) -> None:
        """Close the socket; the next exchange reconnects."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best effort
                pass
            self._sock = None

    def close(self) -> None:
        self._drop_connection()


def _arm(sock: socket.socket, deadline: float) -> None:
    """Give ``sock``'s next send or receive what is left before
    ``deadline`` (a ``time.monotonic`` instant).

    Raises:
        socket.timeout: nothing is left.
    """
    left = deadline - time.monotonic()
    if left <= 0:
        raise socket.timeout("exchange deadline passed")
    sock.settimeout(left)
