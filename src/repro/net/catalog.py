"""Server-side endpoint: a catalog of named encrypted columns.

One :class:`ColumnCatalog` is the whole server side of a deployment:
it hosts many named columns — one
:class:`~repro.core.server.SecureServer` engine each — behind a single
dispatch entry point, so multiple sessions address columns by name
through the same wire protocol.  This mirrors the service-layer routing of Enc2DB and the
client/enclave split of HardIDX (PAPERS.md): the trust boundary is a
message interface, not a Python reference.

Dispatch is the only door: a request envelope goes in, a response
envelope comes out, and every server-side failure — unknown column,
undecodable frame, engine error — leaves as a versioned
:class:`~repro.net.protocol.ErrorResponse` rather than an exception,
so one bad client cannot take down a serving thread.

Columns are independently locked: concurrent sessions on different
columns proceed in parallel and never interleave engine state, while
requests against one column serialize (cracking mutates the column).
A ``batch_request`` is served slot by slot, in slot order, on the
dispatching thread: each slot takes its column's lock on its own.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.query import EncryptedQuery
from repro.core.server import SecureServer
from repro.errors import (
    PersistenceError,
    ProtocolError,
    QueryError,
    ReproError,
    RotationConflictError,
    SerializationError,
    UpdateError,
)
from repro.net.protocol import (
    CODECS,
    CONFIG_DEFAULTS,
    ENVELOPES,
    BatchRequest,
    BatchResponse,
    CreateColumnRequest,
    CreateColumnResponse,
    DeleteRequest,
    FetchRequest,
    FetchResponse,
    HelloRequest,
    HelloResponse,
    InsertRequest,
    MergeRequest,
    QueryRequest,
    QueryResponse,
    RotateApplyRequest,
    RotateBeginRequest,
    RotateBeginResponse,
    TelemetryRequest,
    TelemetryResponse,
    decode_request,
    encode,
    error_response_for,
    spec_of,
)
from repro.obs import Observability, SlowQueryLog, Span
from repro.obs.telemetry import (
    DEFAULT_SLOW_QUERY_CAPACITY,
    DEFAULT_SLOW_QUERY_THRESHOLD,
)


@dataclass
class _Column:
    """One hosted column: its engine (which holds the create-time
    configuration), the lock its requests serialize under, and its
    mutation epoch — bumped by every state-changing request and compared
    by the rotation fence, so a rebuild never erases concurrent writes."""

    server: SecureServer
    epoch: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


def _on_column(operation: Callable) -> Callable:
    """Turn a ``(catalog, request, server)`` column operation into a
    handler ``(catalog, request)`` that runs it under the addressed
    column's lock."""

    def handler(catalog, request):
        column = catalog._column(request.column)
        with column.lock:
            # Read under the lock: a rotation swaps the server.
            return operation(catalog, request, column.server)

    return handler


class ColumnCatalog:
    """Hosts named encrypted columns behind one dispatch entry point.

    Args:
        obs: shared observability bundle; every hosted engine reports
            into it (one registry per endpoint).  A private bundle is
            created when omitted.
        slow_query_threshold: dispatches taking at least this many
            seconds land in the slow-query ring (served over
            ``telemetry_request``); ``0.0`` records every dispatch.
        slow_query_capacity: slow-query ring size.
    """

    def __init__(self, obs: Observability = None,
                 slow_query_threshold: float = DEFAULT_SLOW_QUERY_THRESHOLD,
                 slow_query_capacity: int = DEFAULT_SLOW_QUERY_CAPACITY,
                 ) -> None:
        self._obs = obs if obs is not None else Observability()
        self._slow_log = SlowQueryLog(
            threshold=slow_query_threshold, capacity=slow_query_capacity
        )
        # Extra telemetry sections (name -> zero-arg callable returning
        # a JSON-compatible payload); the TCP server registers "pool".
        self._telemetry_providers: Dict[str, Callable[[], Any]] = {}
        self._registry_lock = threading.Lock()
        self._columns: Dict[str, _Column] = {}
        # Durability plumbing (optional; see bind_wal).
        self._wal = None
        self._wal_checkpoint: Optional[Callable[[], int]] = None
        self._checkpoint_segments = 0
        self._checkpoint_lock = threading.Lock()

    @property
    def obs(self) -> Observability:
        """The endpoint-wide observability bundle."""
        return self._obs

    @property
    def column_names(self) -> List[str]:
        """Names of all hosted columns."""
        with self._registry_lock:
            return sorted(self._columns)

    def __len__(self) -> int:
        with self._registry_lock:
            return len(self._columns)

    # -- column registry ---------------------------------------------------------

    def create_column(
        self,
        name: str,
        rows: Sequence,
        row_ids: Optional[Sequence[int]] = None,
        config: Dict[str, Any] = None,
    ) -> SecureServer:
        """Create a named column from uploaded ciphertext rows.

        ``config`` takes the :class:`SecureServer` engine knobs (see
        :data:`~repro.net.protocol.CONFIG_DEFAULTS`); the server keeps
        it so key rotation can rebuild the engine with every knob
        intact.

        Raises:
            UpdateError: empty name, duplicate column, or an unknown
                config key.
        """
        if not name:
            raise UpdateError("column name must be non-empty")
        merged = dict(CONFIG_DEFAULTS)
        merged.update(config or {})
        unknown = set(merged) - set(CONFIG_DEFAULTS)
        if unknown:
            raise UpdateError(
                "unknown column config keys: %s" % ", ".join(sorted(unknown))
            )
        server = SecureServer(rows, row_ids, obs=self._obs, **merged)
        self.adopt_column(name, server)
        self._obs.metrics.add("net.columns_created")
        return server

    def adopt_column(
        self,
        name: str,
        server: SecureServer,
        epoch: int = 0,
    ) -> None:
        """Install an already-built server under a name (the restore
        path, and the registration half of :meth:`create_column`).

        ``epoch`` restores the column's mutation epoch from a snapshot,
        so WAL replay can fence out entries the snapshot already
        contains (and rotation fences survive a restart).
        """
        if not name:
            raise UpdateError("column name must be non-empty")
        with self._registry_lock:
            if name in self._columns:
                raise UpdateError("column %r already exists" % name)
            self._columns[name] = _Column(server, max(0, int(epoch)))

    def _column(self, name: str) -> _Column:
        """The record of one hosted column.

        Raises:
            QueryError: for unknown names.
        """
        with self._registry_lock:
            try:
                return self._columns[name]
            except KeyError:
                raise QueryError("unknown column: %r" % name) from None

    def server(self, name: str) -> SecureServer:
        """The engine behind one column (:class:`QueryError` for
        unknown names, as for every per-column accessor below)."""
        return self._column(name).server

    def replace_server(self, name: str, server: SecureServer) -> None:
        """Swap the engine behind an *existing* column in place.

        The snapshot-restore path of a session's private endpoint: the
        column keeps its name and lock, and its epoch moves on.  The
        swap has no journal entry, so a journaled catalog refuses it —
        the next logged mutation would sit two epochs past the last
        and recovery would refuse the directory as gapped.

        Raises:
            QueryError: for unknown names.
            UpdateError: while a WAL is bound.
        """
        column = self._column(name)
        if self._wal is not None:
            raise UpdateError(
                "column %r is journaled: replacing its server would bump "
                "the epoch without a WAL entry" % name
            )
        with self._registry_lock:
            column.server = server
            column.epoch += 1

    def config(self, name: str) -> Dict[str, Any]:
        """The create-time engine configuration of one column."""
        return self._column(name).server.config

    def epoch(self, name: str) -> int:
        """The column's current mutation epoch (rotation-fence token)."""
        return self._column(name).epoch

    def epochs(self) -> Dict[str, int]:
        """Every column's current mutation epoch (the fence WAL replay
        compares each record against)."""
        with self._registry_lock:
            return {name: column.epoch for name, column in self._columns.items()}

    @contextmanager
    def quiesced(self):
        """Hold every column lock (in sorted name order) for the body.

        No mutation can commit while held, so the catalog state plus
        the WAL head form a consistent cut — checkpoint snapshots are
        taken here.  Workers only ever hold one column lock at a time
        and never this context, so the sorted acquisition order cannot
        deadlock.
        """
        with self._registry_lock:
            locks = [self._columns[name].lock for name in sorted(self._columns)]
        for lock in locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(locks):
                lock.release()

    # -- durability --------------------------------------------------------------

    def bind_wal(self, writer, checkpoint: Callable[[], int] = None,
                 checkpoint_segments: int = 0) -> None:
        """Journal every mutation this catalog commits to ``writer``.

        From this point each insert/delete/merge/rotate_apply appends
        its request frame to the WAL *under the column lock, before the
        response is returned*: an acknowledged mutation is always in
        the log (per the writer's fsync policy), an unacknowledged one
        may be lost on a crash.  Binding also exports the ``wal``
        telemetry section: the writer's ``stats()`` (``seq``,
        ``segments``, ``bytes``, ``fsync``) plus :meth:`epochs`.

        ``checkpoint`` (usually
        :func:`repro.core.persistence.checkpoint_catalog` curried with
        the data directory) is invoked opportunistically at the end of
        a dispatch once the log exceeds ``checkpoint_segments`` segment
        files; ``0`` disables auto-checkpointing.
        """
        self._wal = writer
        if writer is not None and writer.metrics is None:
            writer.metrics = self.obs.metrics
        self._wal_checkpoint = checkpoint
        self._checkpoint_segments = max(0, int(checkpoint_segments))
        self.register_telemetry_provider("wal", self._wal_telemetry)

    @property
    def wal(self):
        """The bound :class:`~repro.core.wal.WalWriter` (or ``None``)."""
        return self._wal

    def _log_mutation(self, column: str, epoch: int, request) -> None:
        """Append one committed mutation's request frame to the WAL.

        Called under the column's lock, so per-column log order equals
        epoch order.
        """
        wal = self._wal
        if wal is None:
            return
        wal.append(column, epoch, encode(request))

    @staticmethod
    def logged_request(record):
        """The request a :class:`~repro.core.wal.WalRecord` journals.

        Raises:
            PersistenceError: a frame that does not decode, or decodes
                to a kind the registry does not mark ``journaled``, or
                to one addressing another column than the record.
        """
        try:
            request, __ = decode_request(record.frame)
        except SerializationError as exc:
            raise PersistenceError(
                "WAL record %d carries a malformed frame: %s"
                % (record.seq, exc)
            ) from exc
        spec = spec_of(request)
        if not spec.journaled or request.column != record.column:
            raise PersistenceError(
                "WAL record %d of column %r carries a %s frame"
                % (record.seq, record.column, spec.kind)
            )
        return request

    def apply_record(self, record) -> bool:
        """Apply one record read off a WAL (a
        :class:`~repro.core.wal.WalRecord`) if its column has not seen it
        yet — recovery's replay step.

        The per-column epoch is the idempotence fence: a record at or
        below the column's current epoch is already reflected (it was
        in the snapshot) and is skipped; the successor epoch applies;
        anything further ahead is a gap, i.e. corruption.  A
        ``create_column`` record (epoch 0) is skipped when the column
        exists.  Returns ``True`` when the record mutated state.

        Replay runs on a catalog with no WAL bound (the record is
        already in the log it came from): applying it through a bound
        one would journal it a second time.

        Raises:
            PersistenceError: a WAL is bound; a gap, a record for an
                unknown column, or one that fails to apply (or to
                decode, see :meth:`logged_request`).
        """
        if self._wal is not None:
            raise PersistenceError(
                "WAL record %d cannot be replayed into a journaled "
                "catalog: it would be logged twice" % record.seq
            )
        request = self.logged_request(record)
        seq, column, epoch = record.seq, record.column, record.epoch
        with self._registry_lock:
            hosted = self._columns.get(column)
        if isinstance(request, CreateColumnRequest):
            if hosted is not None:
                return False
        elif hosted is None:
            raise PersistenceError(
                "WAL entry %d mutates unknown column %r" % (seq, column)
            )
        elif epoch <= hosted.epoch:
            return False
        elif epoch != hosted.epoch + 1:
            raise PersistenceError(
                "WAL entry %d skips column %r from epoch %d to %d "
                "(missing entries)" % (seq, column, hosted.epoch, epoch)
            )
        try:
            self.handle(request)
        except ReproError as exc:
            raise PersistenceError(
                "WAL entry %d (%s on %r) failed to apply: %s"
                % (seq, spec_of(request).kind, column, exc)
            ) from exc
        return True

    def _maybe_checkpoint(self) -> None:
        """Opportunistic snapshot-then-truncate at the end of a
        dispatch (the worker holds no locks here).  Non-blocking: if
        another worker is already checkpointing, skip."""
        wal = self._wal
        if (wal is None or self._wal_checkpoint is None
                or self._checkpoint_segments <= 0):
            return
        if wal.segment_count() <= self._checkpoint_segments:
            return
        if not self._checkpoint_lock.acquire(blocking=False):
            return
        try:
            self._wal_checkpoint()
            self._obs.metrics.add("wal.checkpoints")
        except ReproError:
            # A failed checkpoint must never fail the dispatch that
            # triggered it; the log simply keeps growing until one
            # succeeds (visible as wal.checkpoint_failures).
            self._obs.metrics.add("wal.checkpoint_failures")
        finally:
            self._checkpoint_lock.release()

    def _wal_telemetry(self) -> Dict[str, Any]:
        """The ``wal`` telemetry section: the log's head and size plus
        every column's epoch."""
        wal = self._wal
        section = wal.stats() if wal is not None else {}
        section["epochs"] = self.epochs()
        return section

    # -- dispatch ----------------------------------------------------------------

    def dispatch(self, request, trace: Optional[Dict[str, Any]] = None):
        """One request envelope in, one response envelope out.

        ``request`` may also be the :class:`~repro.errors.SerializationError`
        a frame raised instead of decoding: it is answered like any
        failure.  Never raises for malformed or failing requests: every
        error is returned as a typed :class:`ErrorResponse` envelope.  A
        ``batch_request`` is served slot by slot, so a failing (or
        undecodable) sub-request fails *its slot only* — the valid
        sub-requests around it still execute.

        ``net.requests`` counts *work units*: a batch adds one per
        sub-envelope it carries (its own envelope is counted by
        ``net.batches``), so request-rate metrics reflect actual load
        whether or not clients pipeline.

        ``trace`` — the request frame's trace context — links this
        dispatch into the caller's distributed trace: the ``rpc-serve``
        span adopts the remote ``rpc`` span as its parent.  Dispatches
        that cross the slow-query threshold are recorded in the
        endpoint's ring with their span breakdown.
        """
        metrics = self._obs.metrics
        batch = type(request) is BatchRequest
        metrics.add("net.requests", len(request.requests) if batch else 1)
        kind = getattr(ENVELOPES.get(type(request)), "kind", None)
        started = time.perf_counter()
        with self._obs.span("rpc-serve", remote=trace, kind=kind) as span:
            if batch:
                response = self._serve_batch(request)
            else:
                response = self._serve_one(request)
        elapsed = time.perf_counter() - started
        if elapsed >= self._slow_log.threshold:
            metrics.add("net.slow_queries")
            self._record_slow(request, kind, elapsed, span)
        # Opportunistic snapshot-then-truncate: the dispatching worker
        # holds no locks here, so it can safely quiesce the catalog.
        self._maybe_checkpoint()
        return response

    def _record_slow(self, request, kind: Optional[str], elapsed: float,
                     span: Any) -> None:
        """Append one over-threshold dispatch to the slow-query ring."""
        extra: Dict[str, Any] = {}
        if type(request) is BatchRequest:
            extra["slots"] = len(request.requests)
        trace_id = None
        breakdown = None
        if isinstance(span, Span):
            trace_id = span.trace_id
            breakdown = self._obs.tracer.subtree_summary(span) or None
        self._slow_log.record(
            kind=str(kind),
            seconds=elapsed,
            column=getattr(request, "column", None),
            trace_id=trace_id,
            breakdown=breakdown,
            **extra,
        )

    # -- telemetry ---------------------------------------------------------------

    @property
    def slow_query_log(self) -> SlowQueryLog:
        """The endpoint's bounded slow-dispatch ring."""
        return self._slow_log

    def register_telemetry_provider(
        self, name: str, provider: Callable[[], Any]
    ) -> None:
        """Export an extra telemetry section.

        ``provider`` is a zero-arg callable returning a JSON-compatible
        payload, invoked on every :meth:`telemetry` call that selects
        the section.  Registering the same name again replaces the
        provider (a restarted server front re-registers its pool).
        """
        with self._registry_lock:
            self._telemetry_providers[str(name)] = provider

    def telemetry(self, sections: Optional[Sequence[str]] = None
                  ) -> Dict[str, Any]:
        """The endpoint's live telemetry sections, JSON-compatible.

        Built-in sections: ``metrics`` (registry snapshot), ``tracer``
        (enabled flag, span count, per-name totals), ``slow_queries``
        (the ring snapshot), ``catalog`` (the hosted columns).
        Registered providers add more (the TCP server exports
        ``pool``).  ``sections=None`` serves all; unknown names are
        silently skipped so older servers stay compatible with newer
        clients.
        """
        tracer = self._obs.tracer
        available: Dict[str, Callable[[], Any]] = {
            "metrics": self._obs.metrics.snapshot,
            "tracer": lambda: {
                "enabled": tracer.enabled,
                "spans": len(tracer.spans),
                "summary": tracer.summary(),
            },
            "slow_queries": self._slow_log.snapshot,
            "catalog": lambda: {"columns": self.column_names},
        }
        with self._registry_lock:
            available.update(self._telemetry_providers)
        wanted = list(available) if sections is None else list(sections)
        return {
            name: available[name]() for name in wanted if name in available
        }

    def _serve_one(self, request):
        """Execute one envelope; a failure — or a request that never
        decoded — becomes a typed error envelope, never an exception."""
        if isinstance(request, ReproError):
            error = request
        else:
            try:
                return self.handle(request)
            except Exception as exc:  # a serving thread must survive anything
                error = exc
        self._obs.metrics.add("net.errors")
        return error_response_for(error)

    def _serve_batch(self, request: BatchRequest) -> BatchResponse:
        """Execute every sub-envelope of a batch in slot order, isolating
        failures.

        Each slot runs on this thread under its own column's lock, so a
        later slot observes every earlier one and the response array
        matches the request slots positionally.  Other sessions may
        interleave between two slots.  Each failure is confined to its
        slot as an error envelope.
        """
        responses = tuple(self._serve_slot(item) for item in request.requests)
        metrics = self._obs.metrics
        metrics.add("net.batches")
        metrics.observe("net.batch_size", len(responses))
        return BatchResponse(responses=responses)

    def _serve_slot(self, item: Any):
        """Execute one batch slot (nested batches are refused here)
        under an ``rpc-serve-slot`` span, a child of the dispatch's
        ``rpc-serve``."""
        if type(item) is BatchRequest:
            item = SerializationError("batch requests cannot nest")
        spec = ENVELOPES.get(type(item))
        with self._obs.span("rpc-serve-slot", kind=spec and spec.kind,
                            column=getattr(item, "column", None)):
            return self._serve_one(item)

    def handle(self, request):
        """Execute one decoded request envelope against its column.

        With a WAL bound (:meth:`bind_wal`), each committed mutation's
        envelope is appended under the column lock before the response
        is returned, and mutation responses carry the column's new
        epoch.  Batches never reach this method: :meth:`dispatch`
        unpacks them slot by slot.
        """
        handler = self._HANDLERS.get(type(request))
        if handler is None:
            raise ProtocolError(
                "unhandled request kind: %s" % spec_of(request).kind
            )
        return handler(self, request)

    def _commit(self, request, **result):
        """Commit the mutation ``request`` just applied (the caller
        holds the column lock): bump the column's epoch, journal the
        envelope at that epoch, and answer with the request's reply
        type carrying ``result`` plus the epoch."""
        with self._registry_lock:
            column = self._columns[request.column]
            column.epoch += 1
            epoch = column.epoch
        self._log_mutation(request.column, epoch, request)
        return spec_of(request).reply(epoch=epoch, **result)

    def _hello(self, request: HelloRequest) -> HelloResponse:
        return HelloResponse(codecs=CODECS)

    def _telemetry(self, request: TelemetryRequest) -> TelemetryResponse:
        return TelemetryResponse(sections=self.telemetry(request.sections))

    def _create(self, request: CreateColumnRequest) -> CreateColumnResponse:
        server = self.create_column(
            request.column,
            request.rows,
            request.row_ids,
            request.config,
        )
        # Logged outside the (brand-new) column lock: a mutation can
        # only race this append if its issuer learned the column name
        # before our response — i.e. out of band.
        self._log_mutation(request.column, 0, request)
        return CreateColumnResponse(
            column=request.column, rows_stored=len(server), epoch=0
        )

    def _query(self, request: QueryRequest, server: SecureServer):
        return QueryResponse(response=server.execute(request.query))

    def _fetch(self, request: FetchRequest, server: SecureServer):
        return FetchResponse(
            rows=server.engine.column.rows_by_ids(request.row_ids)
        )

    def _insert(self, request: InsertRequest, server: SecureServer):
        return self._commit(
            request, row_ids=tuple(server.insert(request.rows))
        )

    def _delete(self, request: DeleteRequest, server: SecureServer):
        server.delete(request.row_ids)
        return self._commit(request, deleted=len(request.row_ids))

    def _merge(self, request: MergeRequest, server: SecureServer):
        return self._commit(request, delta=server.merge_pending())

    def _rotate_begin(self, request: RotateBeginRequest,
                      server: SecureServer) -> RotateBeginResponse:
        # The merge below is part of the snapshot, so the fence is read
        # *after* it: only mutations arriving between begin and apply
        # can invalidate the token.
        server.merge_pending()
        everything = server.execute(EncryptedQuery(low=None, high=None))
        return RotateBeginResponse(
            response=everything, fence=self.epoch(request.column)
        )

    def _rotate_apply(self, request: RotateApplyRequest,
                      server: SecureServer):
        current = self.epoch(request.column)
        if request.fence is not None and request.fence != current:
            self._obs.metrics.add("net.rotation_conflicts")
            raise RotationConflictError(
                "column %r mutated since rotate_begin "
                "(epoch %d, fence %d); restart the rotation"
                % (request.column, current, request.fence)
            )
        rebuilt = SecureServer(
            request.rows,
            request.row_ids,
            obs=self._obs,
            **server.config,
        )
        with self._registry_lock:
            self._columns[request.column].server = rebuilt
        return self._commit(request, rows_stored=len(rebuilt))

    #: Request type -> handler ``(catalog, request)``: the whole of
    #: dispatch.  Column operations run under their column's lock (see
    #: ``_on_column``).  Plain functions on the class, not bound methods
    #: on the instance: a catalog that held its own bound methods would
    #: be a reference cycle, freed (with its servers and their columns)
    #: only by a full cyclic collection.
    _HANDLERS: Dict[type, Callable] = {
        HelloRequest: _hello,
        TelemetryRequest: _telemetry,
        CreateColumnRequest: _create,
        QueryRequest: _on_column(_query),
        FetchRequest: _on_column(_fetch),
        InsertRequest: _on_column(_insert),
        DeleteRequest: _on_column(_delete),
        MergeRequest: _on_column(_merge),
        RotateBeginRequest: _on_column(_rotate_begin),
        RotateApplyRequest: _on_column(_rotate_apply),
    }
