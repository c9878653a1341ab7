"""The honest-but-curious server: stores ciphertexts, answers queries.

The server holds only ciphertext rows and the encrypted AVL index; it
executes queries "as with a non-encrypted database" (Section 3.3) —
locate pieces, crack, return the qualifying rows — plus the update
path of requirement 6: newly arriving encrypted rows land in a pending
buffer that is scanned per query until a merge ripples them into their
pieces (routing each row down the tree with scalar products).

Every response is a single message containing exactly the qualifying
rows (requirement 5); :attr:`rows_shipped` accounts for the transfer
volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.crypto.ciphertext import RowBlock, ValueCiphertext
from repro.core.encrypted_column import EncryptedColumn
from repro.core.query import EncryptedQuery
from repro.core.secure_index import SecureAdaptiveIndex
from repro.core.secure_scan import SecureScan
from repro.errors import ProtocolError, UpdateError
from repro.obs import Observability
from repro.store.updates import PendingUpdates

ENGINES = ("adaptive", "scan")

#: Wire cost of one row id in a response (int64, as serialised).
ROW_ID_BYTES = 8


@dataclass(frozen=True)
class ServerResponse:
    """One query's response: qualifying rows, in a single round.

    ``rows`` is a :class:`~repro.crypto.ciphertext.RowBlock` parallel
    to ``row_ids`` (any sequence of rows passed in is packed into one).
    """

    row_ids: np.ndarray
    rows: RowBlock

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", RowBlock.from_rows(self.rows))

    @property
    def size_bytes(self) -> int:
        """Estimated wire size of the response (ciphertext rows plus
        row ids, under a compact binary coding).  Transports measure
        the real encoded frame lengths; this estimate is what the
        server-side ``bytes_shipped`` ledger accumulates, which exists
        even when no transport is watching."""
        return self.rows.size_bytes + ROW_ID_BYTES * len(self.row_ids)


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
        min_piece_size / use_three_way / record_stats: forwarded to
            the adaptive engine.
    """

    def __init__(
        self,
        rows: Sequence[ValueCiphertext],
        row_ids: Sequence[int] = None,
        engine: str = "adaptive",
        auto_merge_threshold: int = None,
        min_piece_size: int = 1,
        use_three_way: bool = False,
        record_stats: bool = True,
        obs: Observability = None,
    ) -> None:
        if auto_merge_threshold is not None and auto_merge_threshold < 1:
            raise UpdateError("auto-merge threshold must be positive")
        if engine not in ENGINES:
            raise ProtocolError("unknown engine %r; pick from %s" % (engine, ENGINES))
        self._config = {
            "engine": engine,
            "auto_merge_threshold": auto_merge_threshold,
            "min_piece_size": max(1, int(min_piece_size)),
            "use_three_way": use_three_way,
            "record_stats": bool(record_stats),
        }
        self._obs = obs if obs is not None else Observability()
        column = EncryptedColumn(rows, row_ids, obs=self._obs)
        if engine == "adaptive":
            self._engine = SecureAdaptiveIndex(
                column,
                min_piece_size=min_piece_size,
                use_three_way=use_three_way,
                record_stats=record_stats,
                obs=self._obs,
            )
        else:
            self._engine = SecureScan(column, record_stats=record_stats, obs=self._obs)
        self.engine_kind = engine
        if row_ids is None:
            next_id = len(rows)
        else:
            ids = [int(i) for i in row_ids]
            next_id = max(ids) + 1 if ids else 0
        self._updates: PendingUpdates[ValueCiphertext] = PendingUpdates(next_id)
        self.queries_served = 0
        self.rows_shipped = 0
        self.bytes_shipped = 0

    def __len__(self) -> int:
        return len(self._engine.column) + len(self._updates)

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
    def pending_count(self) -> int:
        """Rows waiting in the pending buffer."""
        return len(self._updates)

    @property
    def config(self) -> dict:
        """The engine configuration this server was built with, keyed
        like :data:`repro.net.protocol.CONFIG_DEFAULTS` (a copy)."""
        return dict(self._config)

    @property
    def record_stats(self) -> bool:
        """Whether the engine records per-query cost breakdowns."""
        return self._config["record_stats"]

    # -- query path ---------------------------------------------------------------

    def execute(self, query: EncryptedQuery) -> ServerResponse:
        """Answer one encrypted query in a single round.

        The indexed column is consulted through the engine (cracking as
        a side effect under the adaptive engine); pending inserts are
        scanned with scalar products; tombstoned rows are filtered out.
        """
        audit = self._obs.audit
        if audit.enabled:
            audit.record(
                "query",
                bound=audit.ref(query.low.eb if query.low is not None else None),
                bound_high=audit.ref(
                    query.high.eb if query.high is not None else None
                ),
                pending=len(self._updates),
            )
        with self._obs.span("server-execute", pending=len(self._updates)):
            indices = self._engine.qualifying_indices(query)
            column = self._engine.column
            row_ids = column.row_ids_at(indices)
            live = ~self._updates.deleted_mask(row_ids)
            if not live.all():
                indices, row_ids = indices[live], row_ids[live]
            rows = column.rows_at(indices)
            products = column.exact_products
            products_before = products.value
            with self._obs.span("pending-scan", pending=len(self._updates)):
                pending = [
                    (row_id, row)
                    for row_id, row in self._updates.pending
                    if not self._updates.is_deleted(row_id)
                    and _row_qualifies(row, query, products)
                ]
            if pending:
                row_ids = np.concatenate(
                    (row_ids, np.array([i for i, _ in pending], dtype=np.int64))
                )
                rows += [row for _, row in pending]
            # The engine appended this query's stats entry inside
            # ``qualifying_indices``; the pending scan's products (already
            # on the registry counter) belong on the same entry.
            if self.record_stats:
                self._engine.stats_log[-1].kernel_exact_products += (
                    products.value - products_before
                )
        response = ServerResponse(row_ids=row_ids, rows=rows)
        shipped = response.size_bytes
        self.queries_served += 1
        self.rows_shipped += len(rows)
        self.bytes_shipped += shipped
        metrics = self._obs.metrics
        metrics.add("server.queries_served")
        metrics.add("server.rows_shipped", len(rows))
        metrics.add("server.bytes_shipped", shipped)
        if audit.enabled:
            audit.record("response", rows=len(rows))
        return response

    # -- update path -----------------------------------------------------------------

    def insert(self, rows: Sequence[ValueCiphertext]) -> List[int]:
        """Buffer newly arriving encrypted rows; returns assigned ids.

        With ``auto_merge_threshold`` configured, crossing it triggers
        an immediate merge (the inserted rows stay visible throughout).
        """
        if not rows:
            raise UpdateError("insert requires at least one row")
        assigned = [self._updates.insert(row) for row in rows]
        self._obs.metrics.add("server.rows_inserted", len(assigned))
        if self._obs.audit.enabled:
            self._obs.audit.record("insert", rows=len(assigned))
        threshold = self._config["auto_merge_threshold"]
        if threshold is not None and len(self._updates) > threshold:
            self.merge_pending()
        return assigned

    def delete(self, row_ids: Sequence[int]) -> None:
        """Tombstone rows by physical id."""
        for row_id in row_ids:
            self._updates.delete(int(row_id))
        self._obs.metrics.add("server.rows_deleted", len(row_ids))
        if self._obs.audit.enabled:
            self._obs.audit.record("delete", rows=len(row_ids))

    def merge_pending(self) -> int:
        """Fold the pending buffer into the main column; returns row delta.

        Under the adaptive engine each pending row is *rippled* into
        its piece (tree-routed by scalar products); under the scan
        engine rows are appended (order is irrelevant to a scan).
        Tombstoned rows are physically reclaimed.
        """
        pending, tombstones = self._updates.drain()
        with self._obs.span(
            "merge-pending", pending=len(pending), tombstones=len(tombstones)
        ):
            column = self._engine.column
            reclaimed = sorted(i for i in tombstones if i in column)
            for row_id in reclaimed:
                if self.engine_kind == "adaptive":
                    self._engine.delete_row(row_id)
                else:
                    column.delete_at(column.physical_index_of(row_id))
            for row_id, row in pending:
                if self.engine_kind == "adaptive":
                    self._engine.insert_row(row, row_id)
                else:
                    column.insert_at(len(column), row, row_id)
        self._obs.metrics.add("server.merges")
        if self._obs.audit.enabled:
            self._obs.audit.record(
                "merge", pending=len(pending), tombstones=len(tombstones)
            )
        return len(pending) - len(reclaimed)


def _row_qualifies(row: ValueCiphertext, query: EncryptedQuery, products) -> bool:
    """Evaluate the full range predicate on one pending-buffer row via
    scalar products, each counted on the ``products`` counter."""
    if query.low is not None:
        products.add()
        sign = query.low.eb.product_sign(row)
        if not (sign >= 0 if query.low_inclusive else sign > 0):
            return False
    if query.high is None:
        return True
    products.add()
    sign = query.high.eb.product_sign(row)
    return sign <= 0 if query.high_inclusive else sign < 0
