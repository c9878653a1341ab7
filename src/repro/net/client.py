"""Client-side column handle: typed calls over an opaque transport.

A :class:`RemoteColumn` is the only thing a session holds instead of a
server reference: it encodes each request envelope to a frame, pushes
the frame through its transport, decodes the response frame, and
re-raises typed error envelopes.  Because encoding happens here — on
the client side of the seam — the measured frame lengths are the real
transfer costs: ``net.bytes_sent`` / ``net.bytes_received`` count
every exchanged byte, and sessions read :attr:`last_sent_bytes` /
:attr:`last_received_bytes` to account workload traffic exactly.

Spans: ``rpc`` wraps the whole operation (it is the unit of
distributed-trace propagation — its id rides the request frame's trace
context so the server's ``rpc-serve`` span can adopt it as parent), with
``transport-encode`` and ``transport-decode`` nested inside it timing
the codec: the envelope goes straight to frame bytes and back
(:func:`~repro.net.protocol.encode` / :func:`~repro.net.protocol.decode`).

Retry: request kinds the protocol registry marks ``idempotent`` (they
read state, ping the endpoint, or report progress the primary stores
idempotently) are flagged ``retryable`` to the transport, which — when
configured with ``retries > 0`` — re-sends them after a mid-exchange
connection loss with capped exponential backoff.  The others (insert,
delete, merge, the rotation pair, batches) are never retried
automatically: a lost response leaves their server-side effect unknown.

Replies are checked against the registry too: a response that is
neither an error envelope nor the request's registered reply type
raises :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.core.query import EncryptedQuery
from repro.core.server import ServerResponse
from repro.errors import ProtocolError
from repro.net.protocol import (
    BatchRequest,
    CreateColumnRequest,
    DeleteRequest,
    ErrorResponse,
    InsertRequest,
    MergeRequest,
    QueryRequest,
    RotateApplyRequest,
    RotateBeginRequest,
    RotateBeginResponse,
    TelemetryRequest,
    check_codec,
    decode,
    encode,
    raise_error_response,
    request_ids,
    spec_of,
)
from repro.net.transport import Transport
from repro.obs import Observability


class RemoteColumn:
    """Typed protocol calls against one named column of an endpoint.

    Args:
        transport: the channel to the endpoint (loopback or TCP).
        column: the column name requests address.
        obs: observability bundle the ``net.*`` counters and
            transport spans report into.
        codec: ``"auto"`` or ``"binary"``, accepted for older callers:
            there is one frame codec, and this selects nothing.
    """

    def __init__(
        self,
        transport: Transport,
        column: str,
        obs: Observability = None,
        codec: str = "auto",
    ) -> None:
        check_codec(codec)
        self._transport = transport
        self.column = column
        self._obs = obs if obs is not None else Observability()
        metrics = self._obs.metrics
        self._net_sent = metrics.counter("net.bytes_sent")
        self._net_received = metrics.counter("net.bytes_received")
        self._net_round_trips = metrics.counter("net.round_trips")
        self._net_retries = metrics.counter("net.retries")
        #: Frame lengths of the most recent exchange (request, response).
        self.last_sent_bytes = 0
        self.last_received_bytes = 0

    @property
    def transport(self) -> Transport:
        """The underlying transport (shared across columns)."""
        return self._transport

    def call_many(self, requests: Sequence) -> List:
        """Pipeline many sub-requests into one batched round trip.

        Sub-requests may address other columns (each envelope names its
        own).  Returns the per-item response envelopes in request
        order; failed items come back as :class:`ErrorResponse` objects
        for the caller to raise or tolerate — one bad item never
        poisons the batch.  A reply of another length than the batch
        is a :class:`ProtocolError`.
        """
        requests = tuple(requests)
        responses = self.call(BatchRequest(requests=requests)).responses
        if len(responses) != len(requests):
            raise ProtocolError(
                "a batch of %d requests answered with %d responses"
                % (len(requests), len(responses))
            )
        for request, response in zip(requests, responses):
            if not isinstance(response, ErrorResponse):
                self._check_reply(request, response)
        return list(responses)

    def call(self, request):
        """One full round trip: encode, exchange, decode, raise errors."""
        kind = type(request).__name__
        tracer = self._obs.tracer
        # The rpc span wraps the whole operation (codec work included)
        # so its id exists before encoding: the frame carries it as its
        # trace context and the server's rpc-serve span adopts it.
        # wire_context() is None when tracing is off.
        with self._obs.span("rpc", kind=kind, column=self.column):
            context = tracer.wire_context()
            with self._obs.span("transport-encode", kind=kind):
                frame = encode(request, context)
            retryable = spec_of(request).idempotent
            retries_before = getattr(self._transport, "retry_count", 0)
            try:
                reply = self._transport.exchange(frame, retryable=retryable)
            finally:
                retried = (
                    getattr(self._transport, "retry_count", 0) - retries_before
                )
                if retried:
                    self._net_retries.add(retried)
            with self._obs.span("transport-decode", kind=kind):
                response = decode(reply)
        self.last_sent_bytes = len(frame)
        self.last_received_bytes = len(reply)
        self._net_sent.add(len(frame))
        self._net_received.add(len(reply))
        self._net_round_trips.add(1)
        if isinstance(response, ErrorResponse):
            raise_error_response(response)
        return self._check_reply(request, response)

    @staticmethod
    def _check_reply(request, response):
        """``response`` if it is the reply type the registry pairs
        with ``request``; a :class:`ProtocolError` otherwise."""
        expected = spec_of(request).reply
        if not isinstance(response, expected):
            raise ProtocolError(
                "expected %s, got %s"
                % (expected.__name__, type(response).__name__)
            )
        return response

    # -- typed operations --------------------------------------------------------

    def create(
        self,
        rows: Sequence,
        row_ids: Sequence[int],
        config: Dict[str, Any] = None,
    ) -> int:
        """Upload the column; returns the stored physical row count."""
        response = self.call(
            CreateColumnRequest(
                column=self.column,
                rows=rows,
                row_ids=request_ids(row_ids),
                config=dict(config or {}),
            )
        )
        return response.rows_stored

    def query(self, query: EncryptedQuery) -> ServerResponse:
        """Run one encrypted query; returns the qualifying rows."""
        return self.call(QueryRequest(column=self.column, query=query)).response

    def query_many(
        self, queries: Sequence[EncryptedQuery]
    ) -> List[ServerResponse]:
        """Run many encrypted queries in one pipelined round trip.

        The server executes them in order under the column lock; the
        first failed sub-query re-raises its typed error here.
        """
        out: List[ServerResponse] = []
        for response in self.call_many(
            [QueryRequest(column=self.column, query=q) for q in queries]
        ):
            if isinstance(response, ErrorResponse):
                raise_error_response(response)
            out.append(response.response)
        return out

    def insert(self, rows: Sequence) -> List[int]:
        """Buffer new encrypted rows; returns their assigned ids."""
        response = self.call(
            InsertRequest(column=self.column, rows=rows)
        )
        return list(response.row_ids)

    def delete(self, row_ids: Sequence[int]) -> int:
        """Tombstone rows by physical id; returns the count processed."""
        response = self.call(
            DeleteRequest(
                column=self.column, row_ids=tuple(int(i) for i in row_ids)
            )
        )
        return response.deleted

    def merge(self) -> int:
        """Merge the pending buffer; returns the row-count delta."""
        return self.call(MergeRequest(column=self.column)).delta

    def telemetry(self, sections: Sequence[str] = None) -> Dict[str, Any]:
        """Fetch the endpoint's live telemetry snapshot.

        Returns the section dict served by the endpoint's catalog:
        ``metrics`` (registry snapshot), ``tracer`` (span totals),
        ``slow_queries`` (the bounded slow-dispatch ring), ``catalog``,
        and — for a TCP endpoint — ``pool``.  ``sections``
        restricts the reply; unknown names are ignored server-side.
        """
        request = TelemetryRequest(
            sections=None if sections is None
            else tuple(str(s) for s in sections)
        )
        return self.call(request).sections

    def rotate_begin(self) -> RotateBeginResponse:
        """Fetch every live row, pending ones included, for rotation.

        Returns the full envelope: ``.response`` holds the rows and
        ``.fence`` the mutation-epoch token to echo into
        :meth:`rotate_apply`.
        """
        return self.call(RotateBeginRequest(column=self.column))

    def rotate_apply(
        self,
        rows: Sequence,
        row_ids: Sequence[int],
        fence: int,
    ) -> int:
        """Replace the column with re-encrypted rows; returns the count.

        ``fence`` is the token from :meth:`rotate_begin`; the server
        raises :class:`~repro.errors.RotationConflictError` (leaving
        the column intact) if the column mutated since then.
        """
        response = self.call(
            RotateApplyRequest(
                column=self.column,
                rows=rows,
                row_ids=request_ids(row_ids),
                fence=int(fence),
            )
        )
        return response.rows_stored

    def close(self) -> None:
        """Close the underlying transport."""
        self._transport.close()
