"""Secure adaptive indexing engine (the paper's contribution).

The query flow — locate the two bound cracks, reorganise at most two
pieces, return the qualifying contiguous area — is the shared
:class:`repro.cracking.index.CrackingEngine` driver, untouched; what
makes it secure is only how two things are compared:

* data rows are classified against a query bound via
  ``sign(Eb(b) . Ev(v))``
  (:meth:`repro.core.encrypted_column.EncryptedColumn.below`);
* AVL keys (previous bounds, stored in ``Ev`` mode) are compared to a
  new bound (arriving in ``Eb`` mode) the same way — the double
  encryption of Section 4.3
  (:func:`repro.core.query.compare_encrypted_keys`).

On top of the driver this module adds what only a server over
ciphertexts needs: per-query scalar-product accounting, the
leakage-audit events, the pseudocode-literal tree procedures as a test
oracle, and the one-pass ripple merge of the update path.

The engine works identically whether rows came from plain or ambiguous
encryption: fake interpretations are just rows whose pseudo-values the
client will discard.  Nothing here touches a key or a plaintext.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cracking.index import CrackingEngine
from repro.core.encrypted_avl import add_crack_encrypted, find_piece_encrypted
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
        use_paper_tree_algorithms: route piece localisation through the
            pseudocode-literal transcriptions of Section 4.3 instead of
            the generic helpers (identical results; fidelity mode).
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
        use_paper_tree_algorithms: bool = False,
        obs: Observability = None,
    ) -> None:
        super().__init__(
            column,
            compare_encrypted_keys,
            min_piece_size,
            use_three_way,
            obs if obs is not None else column.obs,
        )
        if use_paper_tree_algorithms:
            # The transcriptions walk the tree themselves.
            self._find_piece = lambda tree, key, size, located: (
                find_piece_encrypted(tree, key, size)
            )
            self._add_crack = lambda tree, key, position, size, located: (
                add_crack_encrypted(tree, key, position, size)
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

    def _route_row(self, row):
        """Walk a new encrypted row down the tree: the first node right
        of it in key order (None at the far right), whose position is
        the upper edge of the row's piece.

        The row is compared against each node's ``Eb`` form
        (``sign(Eb(b_node) . Ev(v_new)) == sign(v_new - b_node)``) —
        the server can do this without learning ``v_new``.
        """
        node, successor = self._tree.root, None
        while node is not None:
            self._column.exact_products.add()
            sign = node.key.bound.eb.product_sign(row)
            if sign < 0 or (sign == 0 and node.key.inclusive):
                successor, node = node, node.left
            else:
                node = node.right
        return successor

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
        column, nodes = self._column, list(self._tree.in_order())
        row_ids = np.asarray(row_ids, dtype=np.int64).reshape(-1)
        doomed = np.sort(column.positions_of(reclaimed_ids))
        doomed_ids = column.row_ids_at(doomed)
        with self._obs.span("ripple-insert", rows=len(block)):
            rank_of = {node: rank for rank, node in enumerate(nodes)}
            ranks = np.array(
                [rank_of.get(self._route_row(row), len(nodes)) for row in block],
                dtype=np.int64,
            )
            order = np.argsort(ranks, kind="stable")
            ranks = ranks[order]
            # Crack positions in key order (the column end standing in
            # for "right of every crack"), moved by two prefix counts:
            # down by the doomed rows left, up by the new rows at or below.
            cracks = np.array(
                [node.position for node in nodes] + [len(column)], dtype=np.int64
            )
            kept = cracks - np.searchsorted(doomed, cracks)
            settled = kept + np.searchsorted(
                ranks, np.arange(len(cracks)), side="right"
            )
            targets = cracks[ranks]
            column.insert_block(targets, block.take(order), row_ids[order])
            column.delete_positions(
                doomed + np.searchsorted(targets, doomed, side="right")
            )
            for node, position in zip(nodes, settled.tolist()):
                node.position = position
        self._obs.metrics.add("index.row_deletes", len(doomed))
        self._obs.metrics.add("index.ripple_inserts", len(block))
        audit = self._obs.audit
        if audit.enabled:
            for row_id, position in zip(doomed_ids.tolist(), doomed.tolist()):
                audit.record("row-delete", row_id=row_id, position=position)
            landed = kept[ranks] + np.arange(len(ranks))
            for row_id, position in zip(row_ids[order].tolist(), landed.tolist()):
                audit.record("ripple-insert", row_id=row_id, position=position)

    def insert_row(self, row, row_id: int) -> None:
        """Ripple-insert one row into its piece (:meth:`merge` of one)."""
        self.merge(RowBlock.from_rows([row]), [row_id], ())

    def delete_row(self, row_id: int) -> None:
        """Physically remove a row by id (:meth:`merge` of one)."""
        self.merge(self._column.rows_at(()), (), [row_id])
