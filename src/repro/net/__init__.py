"""`repro.net` — the explicit client/server seam.

The paper's threat model separates a trusted client from an
honest-but-curious server; this package is that separation made
mechanical.  It has three layers:

* :mod:`repro.net.protocol` — the request/response envelopes (query,
  insert, delete, merge, key-rotation begin/apply, column upload,
  tuple-reconstruction fetch, an endpoint hello, and the pipelined
  ``batch_request``/``batch_response`` pair) plus a versioned error
  envelope, and the one deterministic frame codec the envelope
  registry builds over :mod:`repro.net.binframe`'s primitives
  (:func:`~repro.net.protocol.encode` / :func:`~repro.net.protocol.decode`).
* :mod:`repro.net.transport` — how frames move:
  :class:`LoopbackTransport` (in-process default; still encodes and
  decodes every message) and :class:`TcpTransport` (length-prefixed
  frames to a ``repro serve`` endpoint), both surfacing failures as a
  typed :class:`~repro.errors.TransportError`.
* :mod:`repro.net.catalog` / :mod:`repro.net.server` — the server
  side: a :class:`ColumnCatalog` hosting many named columns (one
  :class:`~repro.core.server.SecureServer` each) behind a single
  dispatcher, fronted by a bounded TCP endpoint
  (:class:`CatalogTCPServer`: accept loop + one thread per connection
  serving its own frames behind N dispatch slots, ``busy``
  backpressure, graceful drain).

:class:`~repro.net.client.RemoteColumn` is the client-side handle
sessions hold instead of a server reference.  Wire details are
documented in ``docs/protocol.md``.
"""

from __future__ import annotations

from repro.net.catalog import ColumnCatalog
from repro.net.client import RemoteColumn
from repro.net.protocol import (
    PROTOCOL_VERSION,
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    HelloRequest,
    HelloResponse,
    TelemetryRequest,
    TelemetryResponse,
    decode,
    encode,
    request_from_dict,
    request_to_dict,
    response_from_dict,
    response_to_dict,
    trace_from_wire,
)
from repro.net.server import (
    CatalogTCPServer,
    serve,
)
from repro.net.transport import (
    LoopbackTransport,
    TcpTransport,
    Transport,
)

__all__ = [
    "BatchRequest",
    "BatchResponse",
    "CatalogTCPServer",
    "ColumnCatalog",
    "ErrorResponse",
    "HelloRequest",
    "HelloResponse",
    "LoopbackTransport",
    "PROTOCOL_VERSION",
    "RemoteColumn",
    "TcpTransport",
    "TelemetryRequest",
    "TelemetryResponse",
    "Transport",
    "decode",
    "encode",
    "request_from_dict",
    "request_to_dict",
    "response_from_dict",
    "response_to_dict",
    "serve",
    "trace_from_wire",
]
