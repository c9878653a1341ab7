"""Warm read replicas: streaming WAL catch-up and replica-aware reads.

Two halves of the multi-server topology the WAL makes possible (the
HardIDX / Enc²DB serving-tier seam in PAPERS.md):

* :class:`ReplicationClient` runs *inside a replica process*
  (``repro serve --replica-of HOST:PORT``).  It subscribes to the
  primary — receiving a consistent catalog snapshot plus the WAL
  position it cuts — then long-polls ``replicate_entries`` and applies
  each mutation envelope through the catalog's epoch-fenced replay
  path, acknowledging progress so the primary can publish the
  replica's ``replication.lag_epochs`` gauge.

* :class:`ReplicaSet` is a *client-side* transport policy: one
  primary transport plus N replica transports behind the ordinary
  :class:`~repro.net.transport.Transport` interface, so any session
  or :class:`~repro.net.client.RemoteColumn` can use it unchanged.
  Mutations always go to the primary; queries and fetches fan out
  round-robin across replicas — but only when the target replica's
  *epoch watermark* for the addressed column has caught up to the
  last mutation this ReplicaSet itself acknowledged (bounded
  staleness, default 0 = read-your-writes).  A replica that fails or
  lags falls back to the primary, never to an error.

Consistency model: the primary orders all mutations; a replica serves
a prefix of that order per column.  Read-your-writes holds per
ReplicaSet instance (it remembers the epochs its own writes reached);
cross-client monotonicity is whatever ``max_staleness_epochs`` allows.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, TransportError
from repro.net.client import RemoteColumn
from repro.net.protocol import (
    ENVELOPES,
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    TelemetryRequest,
    decode,
    decode_request,
    encode,
)
from repro.net.transport import Transport
from repro.obs import Observability

#: Default seconds between entry polls when the replica is caught up.
DEFAULT_POLL_INTERVAL = 0.05

#: Default seconds a cached replica watermark stays fresh.
DEFAULT_WATERMARK_INTERVAL = 0.25


class ReplicationClient:
    """Applies a primary's WAL stream to a local replica catalog.

    Args:
        catalog: the replica's own (initially empty) catalog; it will
            be populated from the primary's snapshot and kept warm.
        transport: channel to the primary endpoint.
        replica_id: name reported to the primary (telemetry key).
        poll_interval: seconds to sleep between polls when caught up.
        batch_limit: max entries to request per poll.
        obs: observability bundle for the replica-side counters
            (``replication.entries_applied`` etc.); defaults to the
            catalog's bundle.
    """

    def __init__(
        self,
        catalog,
        transport: Transport,
        replica_id: str,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        batch_limit: int = 128,
        obs: Observability = None,
    ) -> None:
        self.catalog = catalog
        self.replica_id = str(replica_id)
        self.poll_interval = max(0.0, float(poll_interval))
        self.batch_limit = max(1, int(batch_limit))
        self._obs = obs if obs is not None else catalog.obs
        self._remote = RemoteColumn(
            transport, "__replication__", obs=self._obs
        )
        self._applied_seq = 0
        self._head_seq = 0
        self._subscribed = False
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._last_error: Optional[str] = None
        catalog.register_telemetry_provider("replication", self.telemetry)

    @property
    def applied_seq(self) -> int:
        """Last WAL sequence number applied locally."""
        return self._applied_seq

    @property
    def lag_entries(self) -> int:
        """Entries between the primary's last-seen head and here."""
        return max(0, self._head_seq - self._applied_seq)

    def telemetry(self) -> Dict[str, Any]:
        """The replica's ``replication`` telemetry section.

        ``epochs`` is the watermark :class:`ReplicaSet` routes reads
        by; ``lag_entries`` measures catch-up backlog against the last
        head the primary reported.
        """
        return {
            "role": "replica",
            "replica_id": self.replica_id,
            "applied_seq": self._applied_seq,
            "head_seq": self._head_seq,
            "lag_entries": self.lag_entries,
            "epochs": self.catalog.epochs(),
            "last_error": self._last_error,
        }

    def subscribe(self) -> int:
        """Join (or re-join) the feed: restore the primary's snapshot.

        Returns the WAL sequence number the snapshot captures.  On a
        re-subscribe the replica's whole column state is swapped for
        the fresh snapshot.
        """
        from repro.core.persistence import restore_catalog

        with self._lock:
            response = self._remote.replicate_subscribe(self.replica_id)
            fresh = restore_catalog(response.snapshot, obs=None)
            self.catalog.reset_state_from(fresh)
            self._applied_seq = int(response.seq)
            self._head_seq = int(response.seq)
            self._subscribed = True
            self._obs.metrics.add("replication.subscribes")
            return self._applied_seq

    def sync_once(self) -> int:
        """One pull-apply-ack cycle; returns entries applied.

        Subscribes first if needed; a ``reset`` reply (our position
        was compacted away on the primary) triggers a re-subscribe.
        """
        if not self._subscribed:
            self.subscribe()
        response = self._remote.replicate_entries(
            self.replica_id, self._applied_seq, limit=self.batch_limit
        )
        if response.reset:
            self._obs.metrics.add("replication.resets")
            self._subscribed = False
            self.subscribe()
            return 0
        applied = 0
        with self._lock:
            self._head_seq = max(int(response.seq), self._applied_seq)
            for entry in response.entries:
                if self.catalog.apply_wal_entry(entry):
                    applied += 1
                self._applied_seq = entry["seq"]
        if applied:
            self._obs.metrics.add("replication.entries_applied", applied)
        self._obs.metrics.set("replication.lag_entries", self.lag_entries)
        self._remote.replicate_ack(
            self.replica_id, self._applied_seq, self.catalog.epochs()
        )
        self._last_error = None
        return applied

    def run(self) -> None:
        """Poll until :meth:`stop` — the replica's catch-up loop.

        Transport blips (primary restarting, network hiccups) are
        retried forever: a replica's job is to be eventually caught
        up, not to crash with its primary.
        """
        while not self._stop.is_set():
            try:
                applied = self.sync_once()
            except TransportError as exc:
                self._last_error = str(exc)
                self._obs.metrics.add("replication.poll_failures")
                self._stop.wait(min(1.0, self.poll_interval * 10 or 0.5))
                continue
            except ReproError as exc:
                # Anything non-transport (a corrupt entry, a failed
                # apply) is fatal for the stream: resubscribing from a
                # fresh snapshot is the only safe recovery.
                self._last_error = str(exc)
                self._obs.metrics.add("replication.apply_failures")
                self._subscribed = False
                self._stop.wait(min(1.0, self.poll_interval * 10 or 0.5))
                continue
            if applied == 0 and self.lag_entries == 0:
                self._stop.wait(self.poll_interval)

    def start(self) -> "ReplicationClient":
        """Run the catch-up loop on a daemon thread."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self.run, name="repro-replication", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the catch-up loop (idempotent)."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)
        self._thread = None

    def close(self) -> None:
        """Stop the loop and close the primary transport."""
        self.stop()
        self._remote.close()


class ReplicaSet(Transport):
    """Routes reads across replicas, pins writes to the primary.

    A drop-in :class:`~repro.net.transport.Transport`: hand it to a
    session or :class:`RemoteColumn` and every mutation, hello, and
    telemetry exchange goes to the primary while queries and fetches
    round-robin over replicas — *bounded-staleness guarded*.  The set
    remembers the epoch each of its own writes reached per column (the
    ``epoch`` field on mutation responses) and only routes a read to a
    replica whose cached watermark satisfies
    ``fence - watermark <= max_staleness_epochs``.  The default 0
    yields read-your-writes for this client; raise it to trade
    freshness for replica offload.  Any replica failure falls back to
    the primary transparently.

    Args:
        primary: transport to the writable endpoint.
        replicas: transports to warm read replicas (may be empty, in
            which case everything goes to the primary).
        max_staleness_epochs: how many epochs a replica may trail a
            column this client wrote before reads on it divert to the
            primary.
        watermark_interval: seconds a cached replica watermark stays
            fresh before the next read on a fenced column re-polls it.
        obs: observability bundle for routing counters.
    """

    def __init__(
        self,
        primary: Transport,
        replicas: Sequence[Transport] = (),
        max_staleness_epochs: int = 0,
        watermark_interval: float = DEFAULT_WATERMARK_INTERVAL,
        obs: Observability = None,
    ) -> None:
        self.primary = primary
        self.replicas: Tuple[Transport, ...] = tuple(replicas)
        self.max_staleness_epochs = max(0, int(max_staleness_epochs))
        self.watermark_interval = max(0.0, float(watermark_interval))
        self._obs = obs if obs is not None else Observability()
        self._lock = threading.Lock()
        self._rr = 0
        # Column -> highest epoch one of *our* writes reached.
        self._fences: Dict[str, int] = {}
        # Replica index -> (monotonic timestamp, {column: epoch}).
        self._watermarks: Dict[int, Tuple[float, Dict[str, int]]] = {}
        self.retry_count = 0

    # -- Transport interface -----------------------------------------------------

    def exchange(self, frame: bytes, retryable: bool = False) -> bytes:
        """Route one frame by its decoded request (see class docstring)."""
        try:
            request, _ = decode_request(frame)
        except ReproError:
            # Undecodable frames are the primary's problem to reject.
            return self._primary_exchange(frame, retryable)
        columns = self._read_columns(request)
        if columns is None or not self.replicas:
            reply = self._primary_exchange(frame, retryable)
            self._harvest_fences(request, reply)
            return reply
        index = self._pick_replica(columns)
        if index is None:
            self._obs.metrics.add("replicaset.reads_primary")
            return self._primary_exchange(frame, retryable)
        try:
            reply = self.replicas[index].exchange(frame, retryable=retryable)
        except TransportError:
            self._obs.metrics.add("replicaset.failovers")
            with self._lock:
                self._watermarks.pop(index, None)
            return self._primary_exchange(frame, retryable)
        if self._is_error_reply(reply):
            # A replica error on an idempotent read (most likely a
            # column whose create entry has not streamed over yet) is
            # never final: the primary is authoritative, re-ask it.
            self._obs.metrics.add("replicaset.failovers")
            with self._lock:
                self._watermarks.pop(index, None)
            return self._primary_exchange(frame, retryable)
        self._obs.metrics.add("replicaset.reads_replica")
        return reply

    def close(self) -> None:
        """Close every underlying transport."""
        for transport in (self.primary,) + self.replicas:
            transport.close()

    # -- routing internals -------------------------------------------------------

    @staticmethod
    def _is_error_reply(reply: bytes) -> bool:
        try:
            return isinstance(decode(reply), ErrorResponse)
        except ReproError:
            return True

    def _primary_exchange(self, frame: bytes, retryable: bool) -> bytes:
        before = getattr(self.primary, "retry_count", 0)
        try:
            return self.primary.exchange(frame, retryable=retryable)
        finally:
            self.retry_count += (
                getattr(self.primary, "retry_count", 0) - before
            )

    @staticmethod
    def _read_columns(request) -> Optional[List[str]]:
        """Columns a read-only request addresses, or ``None`` when it
        must go to the primary: anything but envelopes the protocol
        registry marks ``replica_readable`` (and batches made only of
        them)."""
        if type(request) is BatchRequest:
            items = request.requests
            if not items:
                return None
        else:
            items = (request,)
        columns: List[str] = []
        for item in items:
            spec = ENVELOPES.get(type(item))
            column = getattr(item, "column", None)
            if (spec is None or not spec.replica_readable
                    or not isinstance(column, str)):
                return None
            columns.append(column)
        return columns

    def _pick_replica(self, columns: Sequence[str]) -> Optional[int]:
        """Next replica (round-robin) whose watermark satisfies every
        addressed column's fence, or ``None`` for the primary."""
        with self._lock:
            fences = {
                column: self._fences[column]
                for column in columns
                if column in self._fences
            }
            order = [
                (self._rr + offset) % len(self.replicas)
                for offset in range(len(self.replicas))
            ]
            self._rr = (self._rr + 1) % len(self.replicas)
        if not fences:
            # Nothing we wrote constrains these columns: any replica is
            # fresh enough, no watermark poll needed.
            return order[0]
        for index in order:
            if self._watermark_satisfies(index, fences):
                return index
        return None

    def _watermark_satisfies(self, index: int,
                             fences: Dict[str, int]) -> bool:
        watermark = self._fresh_watermark(index)
        if watermark is None:
            return False
        for column, fence in fences.items():
            if column not in watermark:
                # Even a fence of 0 (we created the column) requires
                # the replica to have adopted it.
                return False
            if fence - watermark[column] > self.max_staleness_epochs:
                return False
        return True

    def _fresh_watermark(self, index: int) -> Optional[Dict[str, int]]:
        """The replica's per-column epochs, cached for
        ``watermark_interval`` seconds; ``None`` if unreachable."""
        now = time.monotonic()
        with self._lock:
            cached = self._watermarks.get(index)
            if cached is not None and now - cached[0] < self.watermark_interval:
                return cached[1]
        frame = encode(TelemetryRequest(sections=("replication",)))
        try:
            reply = decode(
                self.replicas[index].exchange(frame, retryable=True)
            )
            epochs = reply.sections["replication"]["epochs"]
        except (ReproError, AttributeError, KeyError, TypeError):
            return None
        if not isinstance(epochs, dict):
            return None
        watermark = {
            str(name): int(epoch)
            for name, epoch in epochs.items()
            if isinstance(epoch, int) and not isinstance(epoch, bool)
        }
        with self._lock:
            self._watermarks[index] = (now, watermark)
        self._obs.metrics.add("replicaset.watermark_polls")
        return watermark

    def _harvest_fences(self, request, reply: bytes) -> None:
        """Record the epoch each of our primary-bound writes reached
        (the mutation response's ``epoch`` field)."""
        try:
            response = decode(reply)
        except ReproError:
            return
        if type(request) is BatchRequest:
            if type(response) is BatchResponse:
                for item, answer in zip(request.requests, response.responses):
                    self._harvest_one(item, answer)
            return
        self._harvest_one(request, response)

    def _harvest_one(self, request, response) -> None:
        epoch = getattr(response, "epoch", None)
        column = getattr(request, "column", None)
        if (isinstance(epoch, int) and not isinstance(epoch, bool)
                and isinstance(column, str)):
            # Epoch 0 (a create) is fence-worthy too: it pins reads to
            # replicas that have at least adopted the column.
            with self._lock:
                if (column not in self._fences
                        or epoch > self._fences[column]):
                    self._fences[column] = epoch

    def fences(self) -> Dict[str, int]:
        """Snapshot of the per-column read-your-writes fences."""
        with self._lock:
            return dict(self._fences)
