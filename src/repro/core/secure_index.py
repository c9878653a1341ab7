"""Secure adaptive indexing engine (the paper's contribution).

The query flow — locate the two bound cracks, reorganise at most two
pieces, return the qualifying contiguous area — is the shared
:class:`repro.cracking.index.CrackingEngine` driver, untouched; what
makes it secure is only how two things are compared:

* data rows are classified against a query bound via
  ``sign(Eb(b) . Ev(v))``
  (:meth:`repro.core.encrypted_column.EncryptedColumn.below`);
* crack keys (previous bounds, stored in ``Ev`` mode) are compared to a
  new bound (arriving in ``Eb`` mode) the same way — the double
  encryption of Section 4.3
  (:func:`repro.core.query.compare_encrypted_keys`).

On top of the driver this module adds what only a server over
ciphertexts needs: per-query scalar-product accounting, the
leakage-audit events and the one-pass ripple merge of the update path.

The engine works identically whether rows came from plain or ambiguous
encryption: fake interpretations are just rows whose pseudo-values the
client will discard.  Nothing here touches a key or a plaintext.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cracking.index import CrackingEngine
from repro.core.encrypted_column import EncryptedColumn
from repro.core.query import (
    EncryptedBoundKey,
    EncryptedQuery,
    compare_encrypted_keys,
)
from repro.crypto.ciphertext import BoundCiphertext, RowBlock
from repro.obs import Observability


class SecureAdaptiveIndex(CrackingEngine):
    """Query-triggered cracking over an :class:`EncryptedColumn`.

    Args:
        column: the encrypted column (owned by the engine thereafter).
        min_piece_size: pieces at or below this size are scanned with
            scalar products instead of cracked — the Section 2.2
            threshold that also caps structural order leakage.  None
            (default) derives it from the column's arithmetic:
            :data:`~repro.cracking.index.WORD_SCAN_ROWS` for products
            proven in words, 1 (always crack) for exact ones.
        use_three_way: crack once, three ways, when both bounds land in
            a single raw piece.
        obs: observability bundle (tracing + metrics + audit); the
            engine adopts its column's bundle when omitted, so product
            accounting and engine accounting always share one metrics
            registry.
    """

    def __init__(
        self,
        column: EncryptedColumn,
        min_piece_size: Optional[int] = None,
        use_three_way: bool = False,
        obs: Observability = None,
    ) -> None:
        super().__init__(
            column,
            compare_encrypted_keys,
            min_piece_size,
            use_three_way,
            obs if obs is not None else column.obs,
        )

    # -- querying ---------------------------------------------------------------

    def query(self, query: EncryptedQuery) -> Tuple[np.ndarray, List]:
        """Answer one encrypted range query.

        Cracks (at most two pieces, or one three-way) as a side effect
        and returns ``(row_ids, ciphertext_rows)`` of the qualifying
        tuples — the single-round response of paper requirement 5.
        The scalar products it computes land on the query's
        :class:`QueryStats`.
        """
        products_before = self._column.product_counts()
        try:
            indices = self.qualifying_indices(query)
        finally:  # on the entry ``_answer`` logged, returning or raising
            self._column.charge_products(self.stats_log[-1], products_before)
        return self._column.row_ids_at(indices), self._column.rows_at(indices)

    def qualifying_indices(self, query: EncryptedQuery) -> np.ndarray:
        """Physical indices of qualifying rows (cracks as a side effect).

        Lower-level hook used by the server for tombstone filtering
        before materialising ciphertexts; the caller charges the products
        to the query's entry, once, with whatever else it multiplies.
        Client pivots (stochastic mode) are cracked first, as strict bounds.
        """
        with self._obs.span("engine-query", pivots=len(query.pivots)):
            return self._answer(
                query.left_key,
                query.right_key,
                [EncryptedBoundKey(pivot, inclusive=False)
                 for pivot in query.pivots],
            )

    def _cut(self, key: EncryptedBoundKey) -> Tuple[BoundCiphertext, bool]:
        return key.bound.eb, key.inclusive

    def _audit(self, kind: str, **fields) -> None:
        audit = self._obs.audit
        if audit.enabled:
            for name in ("bound", "bound_high"):
                if name in fields:
                    fields[name] = audit.ref(fields[name])
            audit.record(kind, **fields)

    # -- updates -------------------------------------------------------------------

    @staticmethod
    def _route_row(row, key: EncryptedBoundKey) -> int:
        """Merge routing's comparator: -1 when a new encrypted row
        belongs left of the crack ``key``, else 1 — so a row's
        :meth:`~repro.cracking.cracks.CrackIndex.locate` rank is the
        first crack right of it, whose position is the upper edge of
        the row's piece.

        The row is compared against the key's ``Eb`` form
        (``sign(Eb(b_key) . Ev(v_new)) == sign(v_new - b_key)``) — the
        server can do this without learning ``v_new``.
        """
        sign = key.bound.eb.product_sign(row)
        return -1 if sign < 0 or (sign == 0 and key.inclusive) else 1

    def merge(self, block: RowBlock, row_ids, reclaimed_ids) -> None:
        """Land a whole merge in one pass: drop the rows ``reclaimed_ids``
        name, ripple ``block``'s rows (ids ``row_ids``) each to the upper
        edge of its piece — the outcome of deleting, then rippling the
        rows in one at a time.

        Rows are ordered, and cracks shifted, by *key order*, not by
        position: deletes can empty a piece, leaving several cracks on
        one position, and a row lands between the cracks it sorts
        between.  Everything that can refuse (id lookup, routing, the
        column's width and id checks) runs before the first array is
        replaced, so a refused merge changes nothing.
        """
        column, cracks = self._column, self._cracks
        row_ids = np.asarray(row_ids, dtype=np.int64).reshape(-1)
        doomed = np.sort(column.positions_of(reclaimed_ids))
        doomed_ids = column.row_ids_at(doomed)
        with self._obs.span("ripple-insert", rows=len(block)):
            # One product per comparison the routing searches make.
            routed = cracks.comparison_count
            try:
                locate, route = cracks.locate, self._route_row
                ranks = np.array(
                    [locate(row, route)[1] for row in block], dtype=np.int64
                )
            finally:
                column.exact_products.add(cracks.comparison_count - routed)
            order = np.argsort(ranks, kind="stable")
            ranks = ranks[order]
            # Crack positions in key order (the column end standing in
            # for "right of every crack"), moved by two prefix counts:
            # down by the doomed rows left, up by the new rows at or below.
            edges = np.array(cracks.positions + [len(column)], dtype=np.int64)
            kept = edges - np.searchsorted(doomed, edges)
            settled = kept + np.searchsorted(
                ranks, np.arange(len(edges)), side="right"
            )
            targets = edges[ranks]
            column.insert_block(targets, block.take(order), row_ids[order])
            column.delete_positions(
                doomed + np.searchsorted(targets, doomed, side="right")
            )
            cracks.positions[:] = settled[:-1].tolist()
        self._obs.metrics.add("index.row_deletes", len(doomed))
        self._obs.metrics.add("index.ripple_inserts", len(block))
        audit = self._obs.audit
        if audit.enabled:
            for row_id, position in zip(doomed_ids.tolist(), doomed.tolist()):
                audit.record("row-delete", row_id=row_id, position=position)
            landed = kept[ranks] + np.arange(len(ranks))
            for row_id, position in zip(row_ids[order].tolist(), landed.tolist()):
                audit.record("ripple-insert", row_id=row_id, position=position)
