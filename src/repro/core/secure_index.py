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
oracle, and the ripple insert/delete of the update path.

The engine works identically whether rows came from plain or ambiguous
encryption: fake interpretations are just rows whose pseudo-values the
client will discard.  Nothing here touches a key or a plaintext.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.cracking.index import CrackingEngine
from repro.core.encrypted_avl import add_crack_encrypted, find_piece_encrypted
from repro.core.encrypted_column import EncryptedColumn
from repro.core.query import (
    EncryptedBoundKey,
    EncryptedQuery,
    compare_encrypted_keys,
)
from repro.crypto.ciphertext import BoundCiphertext
from repro.obs import Observability


class SecureAdaptiveIndex(CrackingEngine):
    """Query-triggered cracking over an :class:`EncryptedColumn`.

    Args:
        column: the encrypted column (owned by the engine thereafter).
        min_piece_size: pieces at or below this size are scanned with
            scalar products instead of cracked — the Section 2.2
            threshold that also caps structural order leakage.
        use_three_way: crack once, three ways, when both bounds land in
            a single raw piece.
        use_paper_tree_algorithms: route piece localisation through the
            pseudocode-literal transcriptions of Section 4.3 instead of
            the generic helpers (identical results; fidelity mode).
        record_stats: append per-query :class:`QueryStats` to
            :attr:`stats_log`.
        obs: observability bundle (tracing + metrics + audit); the
            engine adopts its column's bundle when omitted, so product
            accounting and engine accounting always share one metrics
            registry.  Metric counters are recorded regardless of
            ``record_stats`` — that flag only controls the
            :attr:`stats_log` view.
    """

    def __init__(
        self,
        column: EncryptedColumn,
        min_piece_size: int = 1,
        use_three_way: bool = False,
        use_paper_tree_algorithms: bool = False,
        record_stats: bool = True,
        obs: Observability = None,
    ) -> None:
        super().__init__(
            column,
            compare_encrypted_keys,
            min_piece_size,
            use_three_way,
            record_stats,
            obs if obs is not None else column.obs,
        )
        if use_paper_tree_algorithms:
            self._find_piece = find_piece_encrypted
            self._add_crack = add_crack_encrypted

    # -- querying ---------------------------------------------------------------

    def query(self, query: EncryptedQuery) -> Tuple[np.ndarray, List]:
        """Answer one encrypted range query.

        Cracks (at most two pieces, or one three-way) as a side effect
        and returns ``(row_ids, ciphertext_rows)`` of the qualifying
        tuples — the single-round response of paper requirement 5.
        """
        indices = self.qualifying_indices(query)
        return self._column.row_ids_at(indices), self._column.rows_at(indices)

    def qualifying_indices(self, query: EncryptedQuery) -> np.ndarray:
        """Physical indices of qualifying rows (cracks as a side effect).

        Lower-level hook used by the server for tombstone filtering
        before materialising ciphertexts.

        The scalar products it computes land on the query's
        :class:`QueryStats`.  Client-supplied pivots (stochastic mode)
        are cracked on first, as strict bounds.
        """
        products_before = self._column.exact_products.value
        with self._obs.span("engine-query", pivots=len(query.pivots)):
            indices, stats = self._answer(
                query.left_key,
                query.right_key,
                [EncryptedBoundKey(pivot, inclusive=False)
                 for pivot in query.pivots],
            )
        stats.kernel_exact_products = (
            self._column.exact_products.value - products_before
        )
        return indices

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
        """Walk a new encrypted row down the tree: its piece ``[lo, hi)``
        and the first node right of it in key order (None at the far
        right).

        The row is compared against each node's ``Eb`` form
        (``sign(Eb(b_node) . Ev(v_new)) == sign(v_new - b_node)``) —
        the server can do this without learning ``v_new``.
        """
        node, successor = self._tree.root, None
        piece_lo, piece_hi = 0, len(self._column)
        while node is not None:
            self._column.exact_products.add()
            sign = node.key.bound.eb.product_sign(row)
            if sign < 0 or (sign == 0 and node.key.inclusive):
                piece_hi, successor = node.position, node
                node = node.left
            else:
                piece_lo = node.position
                node = node.right
        return piece_lo, piece_hi, successor

    def locate_piece_for_row(self, row) -> Tuple[int, int]:
        """Piece ``[lo, hi)`` where a new encrypted row belongs (used by
        the ripple merge of pending inserts)."""
        return self._route_row(row)[:2]

    def insert_row(self, row, row_id: int) -> int:
        """Ripple-insert one row into its piece; returns the position.

        Physically inserts at the upper edge of the target piece and
        shifts by one every crack that sorts above the row.  Cracks are
        shifted by *key order*, not by position: deletes can empty a
        piece, leaving several cracks on one position, and the ones the
        row sorts above must stay put.
        """
        with self._obs.span("ripple-insert", row_id=row_id):
            __, piece_hi, successor = self._route_row(row)
            self._column.insert_at(piece_hi, row, row_id)
            above = False
            for node in self._tree.in_order():
                above = above or node is successor
                if above:
                    node.position += 1
        self._obs.metrics.add("index.ripple_inserts")
        audit = self._obs.audit
        if audit.enabled:
            audit.record("ripple-insert", row_id=row_id, position=piece_hi)
        return piece_hi

    def delete_row(self, row_id: int) -> int:
        """Physically remove a row by id; returns its old position."""
        position = self._column.physical_index_of(row_id)
        self._column.delete_at(position)
        for node in self._tree.in_order():
            if node.position > position:
                node.position -= 1
        self._obs.metrics.add("index.row_deletes")
        audit = self._obs.audit
        if audit.enabled:
            audit.record("row-delete", row_id=row_id, position=position)
        return position
