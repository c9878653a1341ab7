"""The honest-but-curious server: stores ciphertexts, answers queries.

The server holds only ciphertext rows and the encrypted cracker index; it
executes queries "as with a non-encrypted database" (Section 3.3) —
locate pieces, crack, return the qualifying rows — plus the update
path of requirement 6: newly arriving encrypted rows land in a pending
column (a second, never-cracked :class:`EncryptedColumn`) that is
scanned per query until a merge ripples them into their pieces in one
pass (routing each row among the cracks with scalar products).

Every response is a single message naming exactly the qualifying rows
(requirement 5), each shipped whole once to a session token and by id
alone after that; the ``server.queries_served`` / ``server.rows_shipped``
registry counters account for the transfer volume (in bytes:
:func:`repro.net.transport.serve_frame`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.crypto.ciphertext import RowBlock, ValueCiphertext
from repro.core.encrypted_column import EncryptedColumn
from repro.core.query import EncryptedQuery
from repro.core.secure_index import SecureAdaptiveIndex
from repro.core.secure_scan import SecureScan
from repro.errors import ProtocolError, UpdateError
from repro.linalg.limbs import _WORD_STAGE
from repro.obs import Observability
from repro.store.updates import PendingUpdates

ENGINES = ("adaptive", "scan")

#: Session tokens a server keeps what it shipped to (least recent out).
SENT_TOKENS = 16


@dataclass(frozen=True)
class ServerResponse:
    """One query's response: qualifying rows, in a single round.

    ``rows`` is a :class:`~repro.crypto.ciphertext.RowBlock` of the rows
    of ``row_ids`` not named by id alone (as ``-1 - id``), in order (any
    sequence of rows passed in is packed into one).
    """

    row_ids: np.ndarray
    rows: RowBlock

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", RowBlock.from_rows(self.rows))


class SecureServer:
    """Server-side endpoint: encrypted storage, indexing, updates.

    Args:
        rows: uploaded ciphertext rows.
        row_ids: stable physical ids parallel to ``rows`` (default
            ``0..n-1``).
        engine: ``"adaptive"`` for secure cracking (the paper's
            system) or ``"scan"`` for the SecureScan baseline.
        auto_merge_threshold: when set, the pending buffer is merged
            into the main column as soon as it exceeds this many rows
            (bounding the per-query pending-scan cost); None keeps
            merging fully manual.
        min_piece_size / use_three_way: forwarded to the adaptive
            engine; ``min_piece_size`` None (default) derives the
            scan-or-crack threshold from the column's arithmetic
            (:class:`~repro.cracking.index.CrackingEngine`).
    """

    def __init__(
        self,
        rows: Sequence[ValueCiphertext],
        row_ids: Sequence[int] = None,
        engine: str = "adaptive",
        auto_merge_threshold: int = None,
        min_piece_size: Optional[int] = None,
        use_three_way: bool = False,
        obs: Observability = None,
    ) -> None:
        if auto_merge_threshold is not None and auto_merge_threshold < 1:
            raise UpdateError("auto-merge threshold must be positive")
        if engine not in ENGINES:
            raise ProtocolError("unknown engine %r; pick from %s" % (engine, ENGINES))
        self._config = {
            "engine": engine,
            "auto_merge_threshold": auto_merge_threshold,
            "min_piece_size": (
                None if min_piece_size is None else max(1, int(min_piece_size))
            ),
            "use_three_way": use_three_way,
        }
        self._obs = obs if obs is not None else Observability()
        self._queries_served = self._obs.metrics.counter("server.queries_served")
        self._rows_shipped = self._obs.metrics.counter("server.rows_shipped")
        column = EncryptedColumn(rows, row_ids, obs=self._obs)
        if engine == "adaptive":
            self._engine = SecureAdaptiveIndex(
                column,
                min_piece_size=min_piece_size,
                use_three_way=use_three_way,
                obs=self._obs,
            )
        else:
            self._engine = SecureScan(column, obs=self._obs)
        next_id = int(column.row_ids.max()) + 1 if len(column) else 0
        self._updates = PendingUpdates(next_id)
        self._uploaded = next_id  # ids below it are marked, per token
        self._sent: "OrderedDict[int, np.ndarray]" = OrderedDict()
        # The main column's width: unmergeable rows are refused on arrival.
        self._pending = EncryptedColumn(column.rows_at(()), obs=self._obs)

    def __len__(self) -> int:
        return len(self._engine.column) + len(self._pending)

    @property
    def obs(self) -> Observability:
        """The observability bundle shared by server, engine, column."""
        return self._obs

    @property
    def engine(self):
        """The query engine (adaptive index or secure scan)."""
        return self._engine

    @property
    def stats_log(self):
        """Per-query engine cost breakdowns."""
        return self._engine.stats_log

    @property
    def pending(self) -> EncryptedColumn:
        """The pending rows in arrival order, as a never-cracked column."""
        return self._pending

    @property
    def pending_count(self) -> int:
        """Rows waiting in the pending column."""
        return len(self._pending)

    @property
    def updates(self) -> PendingUpdates:
        """The update ledger: next row id, tombstones since the last merge."""
        return self._updates

    @property
    def uploaded(self) -> int:
        """The upload's row count: the ids below it are the ones a reply
        names by id alone once shipped whole to a token."""
        return self._uploaded

    @property
    def config(self) -> dict:
        """The engine configuration this server was built with, keyed
        like :data:`repro.net.protocol.CONFIG_DEFAULTS` (a copy)."""
        return dict(self._config)

    # -- query path ---------------------------------------------------------------

    def execute(self, query: EncryptedQuery) -> ServerResponse:
        """Answer one encrypted query in a single round.

        The indexed column is consulted through the engine (cracking as
        a side effect under the adaptive engine); pending inserts are
        scanned with scalar products; tombstoned rows are filtered out;
        all the query's products are charged to its stats entry once.
        A bound not of the column's length is a :class:`QueryError`
        before anything is compared or logged."""
        column = self._engine.column
        query.check_length(column.ciphertext_length)
        audit = self._obs.audit
        if audit.enabled:
            audit.record(
                "query",
                bound=audit.ref(query.low.eb if query.low is not None else None),
                bound_high=audit.ref(
                    query.high.eb if query.high is not None else None
                ),
                pending=len(self._pending),
            )
        pending = self._pending
        updates = self._updates
        tombstoned = updates.has_tombstones
        products_before = column.product_counts()
        with self._obs.span("server-execute", pending=len(pending)):
            try:
                indices = self._engine.qualifying_indices(query)
                row_ids = column.row_ids_at(indices)
                if tombstoned:
                    live = ~updates.deleted_mask(row_ids)
                    if not live.all():
                        indices, row_ids = indices[live], row_ids[live]
                row_ids, indices = self._held(query.token, row_ids, indices)
                rows = column.rows_at(indices)
                with self._obs.span("pending-scan", pending=len(pending)):
                    if len(pending):
                        matched = pending.scan_query(query)
                        pending_ids = pending.row_ids_at(matched)
                        if tombstoned:
                            live = ~updates.deleted_mask(pending_ids)
                            matched, pending_ids = matched[live], pending_ids[live]
                        row_ids = np.concatenate((row_ids, pending_ids))
                        rows += pending.rows_at(matched)
            finally:  # on the entry the engine logged; pending counts alike
                column.charge_products(self._engine.stats_log[-1], products_before)
        self._queries_served.add()
        self._rows_shipped.add(len(row_ids))
        if audit.enabled:
            audit.record("response", rows=len(row_ids))
        return ServerResponse(row_ids=row_ids, rows=rows)

    def _held(self, token: int, row_ids: np.ndarray, indices: np.ndarray):
        """The indexed column's ``row_ids`` in a reply as shipped — one
        that went whole to ``token`` before as ``-1 - id``, all marked
        now — and the ``indices`` of the rows that go whole.  A reply
        under the word stage's floor of rows, where the client's memory
        starts (:class:`~repro.core.client.OpenedRows`), goes whole."""
        if not token or len(row_ids) < _WORD_STAGE[False][0] or not self._uploaded:
            return row_ids, indices
        sent = self._sent.get(token)
        if sent is None:
            sent = self._sent[token] = np.zeros(self._uploaded + 1, dtype=bool)
            if len(self._sent) > SENT_TOKENS:
                self._sent.popitem(last=False)
        else:
            self._sent.move_to_end(token)
        slots = np.minimum(row_ids, self._uploaded)  # the last slot: never set
        held = sent[slots]
        sent[slots] = True
        sent[-1] = False
        count = np.count_nonzero(held)
        if count == len(held):
            return ~row_ids, indices[:0]
        if not count:
            return row_ids, indices
        return np.where(held, ~row_ids, row_ids), indices[~held]

    # -- update path -----------------------------------------------------------------

    def insertable(self, rows: Sequence[ValueCiphertext]) -> RowBlock:
        """``rows`` as the block :meth:`insert` appends, or an
        :class:`UpdateError`: no rows, or rows not of the column's length."""
        if not rows:
            raise UpdateError("insert requires at least one row")
        try:
            block = RowBlock.from_rows(rows)
        except ValueError as exc:
            raise UpdateError(str(exc)) from exc
        # Only a column that never held a row adopts the incoming length.
        if block.length != (self._pending.ciphertext_length or block.length):
            raise UpdateError("row has wrong ciphertext length")
        return block

    def insert(self, rows: Sequence[ValueCiphertext]) -> List[int]:
        """Buffer newly arriving encrypted rows; returns assigned ids.

        With ``auto_merge_threshold`` configured, crossing it triggers
        an immediate merge (the inserted rows stay visible throughout).
        Rows :meth:`insertable` refuses change nothing.
        """
        block = self.insertable(rows)
        pending, count = self._pending, len(block)
        assigned = self._updates.assign(count)
        # At the end, in arrival order: an append into spare rows.
        pending.insert_block([len(pending)] * count, block, assigned)
        self._obs.metrics.add("server.rows_inserted", count)
        if self._obs.audit.enabled:
            self._obs.audit.record("insert", rows=count)
        threshold = self._config["auto_merge_threshold"]
        if threshold is not None and len(pending) > threshold:
            self.merge_pending()
        return assigned.tolist()

    def delete(self, row_ids: Sequence[int]) -> int:
        """Tombstone rows by physical id — all of them or, on a bad id
        (:meth:`PendingUpdates.assigned`), none; returns how many."""
        self._updates.delete(row_ids)
        self._obs.metrics.add("server.rows_deleted", len(row_ids))
        if self._obs.audit.enabled:
            self._obs.audit.record("delete", rows=len(row_ids))
        return len(row_ids)

    def merge_pending(self) -> int:
        """Fold the pending column into the main one; returns row delta.

        Under the adaptive engine the pending rows are *rippled* into
        their pieces (routed by scalar products); under the scan
        engine they are appended (order is irrelevant to a scan).
        Tombstoned rows are physically reclaimed.  The pending column
        and the ledger are cleared only once the engine's merge landed.
        """
        pending, tombstones = self._pending, self._updates.tombstones
        live = np.flatnonzero(~self._updates.deleted_mask(pending.row_ids))
        with self._obs.span(
            "merge-pending", pending=len(live), tombstones=len(tombstones)
        ):
            column = self._engine.column
            dead = np.fromiter(tombstones, dtype=np.int64, count=len(tombstones))
            reclaimed = dead[np.isin(dead, column.row_ids)]
            rows, row_ids = pending.rows_at(live), pending.row_ids_at(live)
            if self._config["engine"] == "adaptive":
                self._engine.merge(rows, row_ids, reclaimed)
            else:
                column.insert_block(np.full(len(live), len(column)), rows, row_ids)
                column.delete_positions(column.positions_of(reclaimed))
            pending.delete_positions(np.arange(len(pending)))
            self._updates.drain()
        self._obs.metrics.add("server.merges")
        if self._obs.audit.enabled:
            self._obs.audit.record(
                "merge", pending=len(live), tombstones=len(tombstones)
            )
        return len(live) - len(reclaimed)

    def restore_updates(
        self, next_row_id: int, rows: RowBlock, row_ids, tombstones,
        uploaded: int,
    ) -> None:
        """Adopt persisted update state on a freshly built server (see
        :mod:`repro.core.persistence`): ``uploaded`` is the upload's row
        count, which no id assigned since may be below.  Every row id,
        indexed or pending, must be distinct and below ``next_row_id``:
        a negative one would read as a row named by id alone."""
        if not 0 <= uploaded <= next_row_id:
            raise UpdateError(
                "an upload of %d rows does not fit below row id %d"
                % (uploaded, next_row_id)
            )
        self._uploaded = uploaded
        self._pending.insert_block(np.zeros(len(rows), dtype=np.int64), rows, row_ids)
        indexed, pending = self._engine.column.row_ids, self._pending.row_ids
        ids = np.concatenate((indexed, pending))
        if len(ids) and (ids.min() < 0 or ids.max() >= next_row_id) or (
                np.isin(pending, indexed).any()):
            raise UpdateError(
                "row ids must be distinct and in [0, %d)" % next_row_id
            )
        self._updates = PendingUpdates(next_row_id)
        self._updates.delete(tombstones)
