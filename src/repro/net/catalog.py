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
A ``batch_request`` whose sub-requests target *distinct* columns is
executed concurrently on a small per-catalog pool (sub-requests for
the same column keep their slot order) — the server half of the
scatter-gather fan-out that :class:`~repro.net.shard.ShardedRemoteColumn`
performs on the client side.

The catalog also records *shard metadata*: a column created with a
``shard`` descriptor (``{"of": logical, "index": i, "count": n,
"physical_per_value": p}``) is one slice of a logical sharded column.
The catalog validates that sibling shards agree on the geometry and
exposes the registry to persistence so snapshots restore the logical
grouping.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.query import EncryptedQuery
from repro.core.server import SecureServer
from repro.errors import (
    PersistenceError,
    ProtocolError,
    QueryError,
    ReadOnlyError,
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
    ReplicateAckRequest,
    ReplicateAckResponse,
    ReplicateEntriesRequest,
    ReplicateEntriesResponse,
    ReplicateSubscribeRequest,
    ReplicateSubscribeResponse,
    RotateApplyRequest,
    RotateBeginRequest,
    RotateBeginResponse,
    TelemetryRequest,
    TelemetryResponse,
    decode_request,
    encode,
    error_response_for,
    request_from_dict,
    request_to_dict,
    spec_of,
)
from repro.obs import Observability, SlowQueryLog, Span
from repro.obs.telemetry import (
    DEFAULT_SLOW_QUERY_CAPACITY,
    DEFAULT_SLOW_QUERY_THRESHOLD,
)

#: Cap on entries per ``replicate_entries`` reply: bounds frame size
#: regardless of what limit the replica asks for.
MAX_REPLICATION_BATCH = 256


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
        batch_workers: size of the pool that executes multi-column
            batches concurrently.  The pool is created lazily on the
            first batch that actually spans columns, so plain loopback
            sessions never spawn a thread; ``<= 1`` disables parallel
            batches entirely.
        slow_query_threshold: dispatches taking at least this many
            seconds land in the slow-query ring (served over
            ``telemetry_request``); ``0.0`` records every dispatch.
        slow_query_capacity: slow-query ring size.
    """

    def __init__(self, obs: Observability = None, batch_workers: int = 8,
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
        # Logical sharded columns: logical name -> {"count", \
        # "physical_per_value", "columns": [shard column names]}.
        self._shards: Dict[str, Dict[str, Any]] = {}
        self._batch_workers = max(0, int(batch_workers))
        self._pool_lock = threading.Lock()
        self._batch_pool: Optional[ThreadPoolExecutor] = None
        self._closed = False
        # Durability/replication plumbing (all optional; see bind_wal /
        # set_read_only).  ``_replaying`` marks the current thread as
        # applying already-logged entries, which bypasses both the WAL
        # append and the read-only refusal.
        self._wal = None
        self._wal_checkpoint: Optional[Callable[[], int]] = None
        self._checkpoint_segments = 0
        self._checkpoint_lock = threading.Lock()
        self._read_only_primary: Optional[str] = None
        self._replaying = threading.local()
        # Replica progress reported through replicate_ack:
        # replica_id -> {"seq", "epochs", "lag_epochs"}.
        self._replicas: Dict[str, Dict[str, Any]] = {}
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
        shard: Dict[str, Any] = None,
    ) -> SecureServer:
        """Create a named column from uploaded ciphertext rows.

        ``config`` takes the :class:`SecureServer` engine knobs (see
        :data:`~repro.net.protocol.CONFIG_DEFAULTS`); the server keeps
        it so key rotation can rebuild the engine with every knob
        intact.  ``shard`` optionally declares this column one slice of
        a logical sharded column (see :meth:`register_shard`).

        Raises:
            UpdateError: empty name, duplicate column, or inconsistent
                shard metadata.
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
        if shard is not None:
            self._check_shard(shard)
        server = SecureServer(rows, row_ids, obs=self._obs, **merged)
        self.adopt_column(name, server, shard=shard)
        self._obs.metrics.add("net.columns_created")
        return server

    def adopt_column(
        self,
        name: str,
        server: SecureServer,
        shard: Dict[str, Any] = None,
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
        if shard is not None:
            self._check_shard(shard)
        with self._registry_lock:
            if name in self._columns:
                raise UpdateError("column %r already exists" % name)
            self._columns[name] = _Column(server, max(0, int(epoch)))
        if shard is not None:
            try:
                self.register_shard(name, shard)
            except UpdateError:
                # Shard registration is part of creation: a geometry
                # mismatch must not leave a half-registered column.
                with self._registry_lock:
                    self._columns.pop(name, None)
                raise

    @staticmethod
    def _check_shard(shard: Dict[str, Any]) -> None:
        """Validate one shard descriptor's shape before any state changes."""
        if not isinstance(shard, dict):
            raise UpdateError("shard metadata must be a dict")
        logical = shard.get("of")
        if not isinstance(logical, str) or not logical:
            raise UpdateError("shard 'of' must be a non-empty string")
        count = shard.get("count")
        index = shard.get("index")
        per_value = shard.get("physical_per_value", 1)
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise UpdateError("shard 'count' must be a positive int")
        if (not isinstance(index, int) or isinstance(index, bool)
                or not 0 <= index < count):
            raise UpdateError(
                "shard 'index' must be an int in [0, %r)" % count
            )
        if per_value not in (1, 2):
            raise UpdateError("shard 'physical_per_value' must be 1 or 2")

    def register_shard(self, name: str, shard: Dict[str, Any]) -> None:
        """Record ``name`` as one slice of the logical column
        ``shard["of"]``, checking the descriptor against any siblings
        already registered.

        Raises:
            UpdateError: geometry mismatch with a sibling shard, or a
                slot already taken.
        """
        self._check_shard(shard)
        logical = shard["of"]
        count = shard["count"]
        index = shard["index"]
        per_value = shard.get("physical_per_value", 1)
        with self._registry_lock:
            entry = self._shards.get(logical)
            if entry is None:
                entry = self._shards[logical] = {
                    "count": count,
                    "physical_per_value": per_value,
                    "columns": [None] * count,
                }
            if entry["count"] != count:
                raise UpdateError(
                    "shard count mismatch for %r: %d registered, %d offered"
                    % (logical, entry["count"], count)
                )
            if entry["physical_per_value"] != per_value:
                raise UpdateError(
                    "shard physical_per_value mismatch for %r" % logical
                )
            if entry["columns"][index] is not None:
                raise UpdateError(
                    "shard %d of %r already registered as %r"
                    % (index, logical, entry["columns"][index])
                )
            entry["columns"][index] = name
            self._set_shards_gauge()

    def _set_shards_gauge(self) -> None:
        """Write ``catalog.shards``; the caller holds the registry lock."""
        self._obs.metrics.set("catalog.shards", sum(
            column is not None
            for meta in self._shards.values()
            for column in meta["columns"]
        ))

    def shards(self) -> Dict[str, Dict[str, Any]]:
        """Copy of the shard registry: logical name -> geometry +
        ordered shard column names (``None`` for unregistered slots)."""
        with self._registry_lock:
            return {
                logical: {
                    "count": meta["count"],
                    "physical_per_value": meta["physical_per_value"],
                    "columns": list(meta["columns"]),
                }
                for logical, meta in self._shards.items()
            }

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
        """Every column's current mutation epoch (the replication
        watermark a replica reports and a client routes reads by)."""
        with self._registry_lock:
            return {name: column.epoch for name, column in self._columns.items()}

    @contextmanager
    def quiesced(self):
        """Hold every column lock (in sorted name order) for the body.

        No mutation can commit while held, so the catalog state plus
        the WAL head form a consistent cut — the checkpoint and
        replica-subscribe snapshots are taken here.  Workers only ever
        hold one column lock at a time and never this context, so the
        sorted acquisition order cannot deadlock.
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

    # -- durability / replication ------------------------------------------------

    def bind_wal(self, writer, checkpoint: Callable[[], int] = None,
                 checkpoint_segments: int = 0) -> None:
        """Journal every mutation this catalog commits to ``writer``.

        From this point each insert/delete/merge/rotate_apply appends
        its request frame to the WAL *under the column lock, before the
        response is returned*: an acknowledged mutation is always in
        the log (per the writer's fsync policy), an unacknowledged one
        may be lost on a crash.  Binding also exports the
        ``replication`` telemetry section and enables serving the
        ``replicate_*`` envelopes.

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
        self.register_telemetry_provider(
            "replication", self._replication_telemetry
        )

    @property
    def wal(self):
        """The bound :class:`~repro.core.wal.WalWriter` (or ``None``)."""
        return self._wal

    def set_read_only(self, primary: str) -> None:
        """Turn this catalog into a read replica of ``primary``.

        Queries, fetches, hello, telemetry, and batches thereof keep
        working; every mutation is refused with a typed ``read_only``
        error naming the primary.  The replication apply path
        (:meth:`apply_wal_entry`) bypasses the refusal.
        """
        self._read_only_primary = str(primary)

    @property
    def read_only_primary(self) -> Optional[str]:
        """The primary this catalog replicates (``None`` on a primary)."""
        return self._read_only_primary

    def _is_replaying(self) -> bool:
        return getattr(self._replaying, "active", False)

    def _log_mutation(self, column: str, epoch: int, request) -> None:
        """Append one committed mutation's request frame to the WAL.

        Called under the column's lock (so per-column log order equals
        epoch order) and skipped while replaying — replayed entries are
        already in the log (restart) or belong to the primary's log
        (replica).
        """
        wal = self._wal
        if wal is None or self._is_replaying():
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
        """:meth:`apply_wal_entry` of a record read off this endpoint's
        own log (a :class:`~repro.core.wal.WalRecord`)."""
        return self._apply_logged(
            record.seq, record.column, record.epoch,
            self.logged_request(record),
        )

    def apply_wal_entry(self, entry: Dict[str, Any]) -> bool:
        """Apply one logged mutation if the column hasn't seen it yet —
        ``entry`` as the replication feed ships it, the request in its
        dict form.

        The per-column epoch is the idempotence fence: an entry at or
        below the column's current epoch is already reflected (it was
        in the snapshot) and is skipped; the successor epoch applies;
        anything further ahead is a gap, i.e. corruption.  A
        ``create_column`` entry (epoch 0) is skipped when the column
        exists.  Returns ``True`` when the entry mutated state.

        Raises:
            PersistenceError: on a gap, an entry for an unknown column,
                or an entry that fails to apply.
        """
        try:
            request = request_from_dict(entry["request"])
        except ReproError as exc:
            raise PersistenceError(
                "WAL entry %d carries a malformed %r envelope: %s"
                % (entry["seq"], entry["request"].get("kind"), exc)
            ) from exc
        return self._apply_logged(
            entry["seq"], entry["column"], entry["epoch"], request
        )

    def _apply_logged(self, seq: int, column: str, epoch: int,
                      request) -> bool:
        with self._registry_lock:
            hosted = self._columns.get(column)
        if isinstance(request, CreateColumnRequest):
            if hosted is not None:
                return False
            self._apply_replayed(seq, request)
            return True
        if hosted is None:
            raise PersistenceError(
                "WAL entry %d mutates unknown column %r" % (seq, column)
            )
        current = hosted.epoch
        if epoch <= current:
            return False
        if epoch != current + 1:
            raise PersistenceError(
                "WAL entry %d skips column %r from epoch %d to %d "
                "(missing entries)" % (seq, column, current, epoch)
            )
        self._apply_replayed(seq, request)
        return True

    def _apply_replayed(self, seq: int, request):
        """Execute an already-logged envelope, bypassing the read-only
        refusal and the WAL append."""
        self._replaying.active = True
        try:
            return self.handle(request)
        except ReproError as exc:
            raise PersistenceError(
                "WAL entry %d (%s on %r) failed to apply: %s"
                % (seq, spec_of(request).kind, request.column, exc)
            ) from exc
        finally:
            self._replaying.active = False

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

    def _replication_telemetry(self) -> Dict[str, Any]:
        """The ``replication`` telemetry section (primary role)."""
        wal = self._wal
        with self._registry_lock:
            replicas = {
                replica_id: dict(info)
                for replica_id, info in self._replicas.items()
            }
        return {
            "role": "primary",
            "wal": wal.stats() if wal is not None else None,
            "epochs": self.epochs(),
            "replicas": replicas,
        }

    def reset_state_from(self, other: "ColumnCatalog") -> None:
        """Replace this catalog's entire column state with ``other``'s.

        The replica resubscribe path: when the primary's log no longer
        covers the replica's position, the replica restores a fresh
        snapshot into a throwaway catalog and swaps it in here.  Column
        locks are recreated (the snapshot's columns are new objects);
        an in-flight read still holding an old lock finishes against
        the old server object, which stays valid — it just returns the
        pre-reset data one last time.
        """
        with other._registry_lock:
            columns = {
                name: _Column(column.server, column.epoch)
                for name, column in other._columns.items()
            }
        shards = other.shards()
        with self._registry_lock:
            self._columns = columns
            self._shards = shards
            self._set_shards_gauge()

    def _require_wal(self):
        if self._wal is None:
            raise ProtocolError(
                "this endpoint does not replicate (no WAL bound)"
            )
        return self._wal

    def _serve_replicate_subscribe(
        self, request: ReplicateSubscribeRequest
    ) -> ReplicateSubscribeResponse:
        """A replica joins: consistent snapshot + the WAL head it cuts."""
        wal = self._require_wal()
        from repro.core.persistence import snapshot_catalog

        with self.quiesced():
            seq = wal.last_seq
            snapshot = snapshot_catalog(self, wal_seq=seq)
        with self._registry_lock:
            self._replicas.setdefault(
                request.replica_id,
                {"seq": seq, "epochs": {}, "lag_epochs": 0},
            )
        self._obs.metrics.add("replication.subscribes")
        return ReplicateSubscribeResponse(snapshot=snapshot, seq=seq)

    def _serve_replicate_entries(
        self, request: ReplicateEntriesRequest
    ) -> ReplicateEntriesResponse:
        """The catch-up poll: WAL entries after the replica's position."""
        wal = self._require_wal()
        from repro.core.wal import WalReader, wal_start_seq

        head = wal.last_seq
        after = max(0, int(request.after_seq))
        if after > head:
            # The replica is ahead of this log: it subscribed to a
            # different incarnation of the primary.  Resubscribe.
            self._obs.metrics.add("replication.resets")
            return ReplicateEntriesResponse(entries=(), seq=head, reset=True)
        if after < head:
            start = wal_start_seq(wal.directory)
            if start is None or after + 1 < start:
                # The requested range was compacted away.
                self._obs.metrics.add("replication.resets")
                return ReplicateEntriesResponse(
                    entries=(), seq=head, reset=True
                )
        limit = request.limit
        if limit is None or limit <= 0 or limit > MAX_REPLICATION_BATCH:
            limit = MAX_REPLICATION_BATCH
        # The feed ships each record with its request in the dict form.
        entries = tuple(
            {"seq": record.seq, "column": record.column,
             "epoch": record.epoch,
             "request": request_to_dict(self.logged_request(record))}
            for record in WalReader(wal.directory).entries(after, limit=limit)
        )
        self._obs.metrics.add("replication.entries_served", len(entries))
        return ReplicateEntriesResponse(entries=entries, seq=head)

    def _serve_replicate_ack(
        self, request: ReplicateAckRequest
    ) -> ReplicateAckResponse:
        """Record replica progress and publish its epoch lag."""
        self._require_wal()
        mine = self.epochs()
        lag = sum(
            max(0, epoch - int(request.epochs.get(name, 0)))
            for name, epoch in mine.items()
        )
        with self._registry_lock:
            self._replicas[request.replica_id] = {
                "seq": int(request.seq),
                "epochs": dict(request.epochs),
                "lag_epochs": lag,
            }
        self._obs.metrics.set(
            "replication.lag_epochs.%s" % request.replica_id, lag
        )
        return ReplicateAckResponse(lag_epochs=lag)

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
        (the ring snapshot), ``catalog`` (hosted columns and shard
        geometry).  Registered providers add more (the TCP server
        exports ``pool``).  ``sections=None`` serves all;
        unknown names are silently skipped so older servers stay
        compatible with newer clients.
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
            "catalog": lambda: {
                "columns": self.column_names,
                "shards": self.shards(),
                "batch_workers": self._batch_workers,
            },
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
        """Execute every sub-envelope of a batch, isolating failures.

        Sub-requests targeting *distinct* columns run concurrently on
        the catalog's batch pool — each under its own per-column lock,
        so they never interleave with other sessions' traffic on those
        columns.  Sub-requests on the *same* column keep their slot
        order (a later sub-request observes every earlier one on that
        column), and the response array always matches request slots
        positionally.  Each failure is confined to its slot as an error
        envelope.
        """
        metrics = self._obs.metrics
        items = request.requests
        # Group slot indices by target column.  Slots without a column
        # (undecodable slots, create/hello) form singleton groups: they
        # carry no per-column ordering contract.
        groups: Dict[Any, List[int]] = {}
        for index, item in enumerate(items):
            column = getattr(item, "column", None)
            key = ("#slot", index) if column is None else column
            groups.setdefault(key, []).append(index)
        responses: List[Any] = [None] * len(items)
        # Export the enclosing rpc-serve span (dispatch opened it on
        # this thread) so slot spans running on pool threads still
        # parent to it — in-process context propagation across the
        # batch pool.  None when tracing is off.
        context = self._obs.tracer.wire_context()

        def serve_group(indices: List[int]) -> None:
            for index in indices:
                responses[index] = self._serve_slot(items[index], context)

        pool = self._batch_executor() if len(groups) > 1 else None
        if pool is None:
            for indices in groups.values():
                serve_group(indices)
        else:
            metrics.add("net.parallel_batches")
            # The dispatching thread serves the first group itself
            # rather than idling on futures: one fewer pool hand-off
            # per batch, and a saturated pool can never stall a batch
            # completely.
            group_list = list(groups.values())
            futures = [
                pool.submit(serve_group, indices)
                for indices in group_list[1:]
            ]
            serve_group(group_list[0])
            for future in futures:
                future.result()
        metrics.add("net.batches")
        metrics.observe("net.batch_size", len(items))
        return BatchResponse(responses=tuple(responses))

    def _serve_slot(self, item: Any,
                    context: Optional[Dict[str, Any]] = None):
        """Execute one batch slot (nested batches are refused here).

        ``context`` is the enclosing ``rpc-serve`` span's exported
        trace context; the slot's ``rpc-serve-slot`` span adopts it so
        slots served on the batch pool stay inside the dispatch's
        subtree.
        """
        if type(item) is BatchRequest:
            item = SerializationError("batch requests cannot nest")
        spec = ENVELOPES.get(type(item))
        with self._obs.span("rpc-serve-slot", remote=context,
                            kind=spec and spec.kind,
                            column=getattr(item, "column", None)):
            return self._serve_one(item)

    def _batch_executor(self) -> Optional[ThreadPoolExecutor]:
        """The lazily-created batch pool, or None when parallel batches
        are disabled (``batch_workers <= 1``) or the catalog is closed."""
        if self._batch_workers <= 1:
            return None
        with self._pool_lock:
            if self._closed:
                return None
            if self._batch_pool is None:
                self._batch_pool = ThreadPoolExecutor(
                    max_workers=self._batch_workers,
                    thread_name_prefix="repro-batch",
                )
            return self._batch_pool

    def close(self) -> None:
        """Shut down the batch pool (idempotent).  The catalog keeps
        serving afterwards — batches just fall back to sequential."""
        with self._pool_lock:
            pool, self._batch_pool = self._batch_pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=True)

    def handle(self, request):
        """Execute one decoded request envelope against its column.

        On a read replica (:meth:`set_read_only`) every envelope the
        protocol registry marks ``mutates`` is refused with a typed
        :class:`~repro.errors.ReadOnlyError` naming the primary.  With
        a WAL bound (:meth:`bind_wal`), each committed mutation's
        envelope is appended under the column lock before the response
        is returned, and mutation responses carry the column's new
        epoch as a replica-read fence.  Batches never reach this
        method: :meth:`dispatch` unpacks them slot by slot.
        """
        spec = spec_of(request)
        primary = self._read_only_primary
        if (primary is not None and spec.mutates
                and not self._is_replaying()):
            self._obs.metrics.add("replication.mutations_refused")
            raise ReadOnlyError(
                "this endpoint is a read replica; send %s to the primary "
                "at %s" % (spec.kind, primary)
            )
        handler = self._HANDLERS.get(type(request))
        if handler is None:
            raise ProtocolError("unhandled request kind: %s" % spec.kind)
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
            shard=request.shard,
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
        ReplicateSubscribeRequest: _serve_replicate_subscribe,
        ReplicateEntriesRequest: _serve_replicate_entries,
        ReplicateAckRequest: _serve_replicate_ack,
        CreateColumnRequest: _create,
        QueryRequest: _on_column(_query),
        FetchRequest: _on_column(_fetch),
        InsertRequest: _on_column(_insert),
        DeleteRequest: _on_column(_delete),
        MergeRequest: _on_column(_merge),
        RotateBeginRequest: _on_column(_rotate_begin),
        RotateApplyRequest: _on_column(_rotate_apply),
    }
