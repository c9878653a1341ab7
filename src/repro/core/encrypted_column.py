"""Encrypted cracker column: ciphertext rows in a fixed-width dense array.

The server-side instance of
:class:`repro.cracking.column.CrackableColumn`: each row is a
length-``l`` integer vector (an ``Ev``-mode ciphertext's numerators)
with a positive denominator, held in a numpy ``object`` matrix so
Python big-ints flow through vectorised arithmetic without overflow —
the reproduction's analogue of the paper's GMP arrays.

Cracks, three-way cracks, edge scans and partition checks are the
shared base's; this class supplies only the classification primitive,
:meth:`EncryptedColumn.below`, as the sign of scalar products against
an ``Eb``-mode bound (``sign(Eb . Ev) == sign(v - b)``).  The column
never compares two of its own rows, mirroring the scheme's central
restriction.

Scalar products have one implementation, :meth:`EncryptedColumn.products`:
an exact object-dtype matmul.  At the paper's Section 5 parameters the
components reach ~2^56 and the products pass 2^63, so no machine-word
path can serve them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.query import EncryptedQuery
from repro.cracking.column import CrackableColumn
from repro.crypto.ciphertext import BoundCiphertext, RowBlock, ValueCiphertext
from repro.errors import IndexStateError
from repro.obs import Observability


class EncryptedColumn(CrackableColumn):
    """Dense array of encrypted rows, physically reorganised by cracking.

    Args:
        rows: the ciphertext rows in upload order — a
            :class:`~repro.crypto.ciphertext.RowBlock` (as uploads
            arrive off the wire) or any sequence of rows.
        row_ids: stable identifiers parallel to ``rows``; defaults to
            ``0..n-1``.  With ambiguity enabled upstream, two physical
            rows share one logical origin — the id convention is the
            uploader's business, the column just preserves ids across
            reorganisation.
        use_inplace_algorithm: route cracks through the
            pointer-faithful Algorithm 1 (slower; fidelity tests).
        obs: observability bundle shared with the owning engine/server;
            a private one is created when omitted.  :meth:`products`
            counts on its ``kernel.exact_products`` counter and emits
            ``kernel-product`` spans / ``products`` audit events.
    """

    def __init__(
        self,
        rows: Sequence[ValueCiphertext],
        row_ids: Sequence[int] = None,
        use_inplace_algorithm: bool = False,
        obs: Observability = None,
    ) -> None:
        try:
            rows = RowBlock.from_rows(rows)
        except ValueError as exc:
            raise IndexStateError(str(exc)) from exc
        self._length = rows.length
        # Copies: cracking permutes these in place.
        self._matrix = rows.numerators.copy()
        self._denominators = rows.denominators.copy()
        if row_ids is None:
            self._row_ids = np.arange(len(rows), dtype=np.int64)
        else:
            self._row_ids = np.array(row_ids, dtype=np.int64).reshape(-1)
            if len(self._row_ids) != len(rows):
                raise IndexStateError("row_ids length mismatch")
        self._use_inplace = use_inplace_algorithm
        if len(np.unique(self._row_ids)) != len(self._row_ids):
            raise IndexStateError("row ids must be unique")
        # (sorted row ids, their physical indices), built on demand.
        self._id_order = None
        self._obs = obs if obs is not None else Observability()
        #: Every ``Eb . Ev`` product the server computes counts on this
        #: registry counter: the batched ones here (main or pending
        #: column), the one-row ones of merge routing at their call site.
        self.exact_products = self._obs.metrics.counter("kernel.exact_products")

    @property
    def obs(self) -> Observability:
        """The column's observability bundle (engines adopt it)."""
        return self._obs

    def __len__(self) -> int:
        return self._matrix.shape[0]

    @property
    def ciphertext_length(self) -> int:
        """The ciphertext vector length ``l`` (0 for an empty column)."""
        return self._length

    @property
    def row_ids(self) -> np.ndarray:
        """Row ids in current physical order (read-only view)."""
        view = self._row_ids.view()
        view.flags.writeable = False
        return view

    # -- scalar products -------------------------------------------------------

    def products(
        self, piece_lo: int, piece_hi: int, bound: BoundCiphertext
    ) -> np.ndarray:
        """Exact products ``Eb . Ev`` for rows in ``[piece_lo, piece_hi)``.

        Denominators are positive, so the signs of these integers equal
        the signs of the exact rational comparisons.
        """
        self._check_range(piece_lo, piece_hi)
        audit = self._obs.audit
        if audit.enabled:
            # The access-pattern observation: which positions were
            # compared against which (opaque) bound ciphertext.
            audit.record(
                "products",
                bound=audit.ref(bound),
                lo=piece_lo,
                hi=piece_hi,
                rows=piece_hi - piece_lo,
            )
        self.exact_products.add(piece_hi - piece_lo)
        with self._obs.span("kernel-product", rows=piece_hi - piece_lo):
            return self._matrix[piece_lo:piece_hi] @ np.asarray(
                bound.vector, dtype=object
            )

    def below(
        self, piece_lo: int, piece_hi: int, bound: BoundCiphertext, inclusive: bool
    ) -> np.ndarray:
        """Rows of ``[piece_lo, piece_hi)`` with ``v < b`` (``<= b`` when
        ``inclusive``), read off the product signs — the server can
        evaluate this exactly because the client shipped the bound in
        ``Eb`` mode."""
        products = self.products(piece_lo, piece_hi, bound)
        return (products <= 0 if inclusive else products < 0).astype(bool)

    def scan_query(self, query: EncryptedQuery) -> np.ndarray:
        """Physical indices of every row inside ``query``'s range — the
        whole column scanned, an absent bound costing nothing."""
        return self.scan_qualifying(
            0,
            len(self),
            query.low.eb if query.low is not None else None,
            query.low_inclusive,
            query.high.eb if query.high is not None else None,
            query.high_inclusive,
        )

    # -- row access -------------------------------------------------------------------

    def row(self, index: int) -> ValueCiphertext:
        """The ciphertext currently at a physical index."""
        return ValueCiphertext(
            tuple(self._matrix[index]), int(self._denominators[index])
        )

    def rows_at(self, indices: Iterable[int]) -> RowBlock:
        """Ciphertexts at the given physical indices, as one block (a
        single fancy index into the dense matrix)."""
        indices = np.asarray(indices, dtype=np.int64)
        return RowBlock(self._matrix[indices], self._denominators[indices])

    def row_ids_at(self, indices) -> np.ndarray:
        """Row ids at the given physical indices."""
        return self._row_ids[np.asarray(indices, dtype=np.int64)]

    # -- updates -----------------------------------------------------------------------

    def insert_block(self, positions, block: RowBlock, row_ids) -> None:
        """Physically insert ``block``'s rows in one pass: row ``k`` lands
        before the row now at ``positions[k]`` (``len(self)`` appends),
        rows sharing a position in block order.  A refusal changes nothing.

        The ciphertext length must be the established ``_length`` —
        also once deletes have emptied the column; only a column that
        never held a row adopts the incoming length.
        """
        positions = np.asarray(positions, dtype=np.int64).reshape(-1)
        row_ids = np.asarray(row_ids, dtype=np.int64).reshape(-1)
        if not len(positions) == len(block) == len(row_ids):
            raise IndexStateError("positions, rows and row ids differ in length")
        if not len(block):
            return
        if positions.min() < 0 or positions.max() > len(self):
            raise IndexStateError("insert position out of range")
        if block.length != (self._length or block.length):
            raise IndexStateError("row has wrong ciphertext length")
        merged_ids = np.concatenate((self._row_ids, row_ids))
        if len(np.unique(merged_ids)) != len(merged_ids):
            raise IndexStateError("row id already present or repeated")
        if not self._length:
            self._length = block.length
            self._matrix = np.empty((0, self._length), dtype=object)
        self._matrix = np.insert(self._matrix, positions, block.numerators, axis=0)
        self._denominators = np.insert(
            self._denominators, positions, block.denominators
        )
        self._row_ids = np.insert(self._row_ids, positions, row_ids)
        self._id_order = None

    def insert_at(self, position: int, row: ValueCiphertext, row_id: int) -> None:
        """Insert one row at ``position`` (:meth:`insert_block` of one)."""
        self.insert_block([position], RowBlock.from_rows([row]), [row_id])

    def delete_positions(self, positions) -> None:
        """Physically remove the rows at ``positions`` in one pass."""
        positions = np.asarray(positions, dtype=np.int64).reshape(-1)
        if len(positions) and (positions.min() < 0 or positions.max() >= len(self)):
            raise IndexStateError("delete position out of range")
        self._matrix = np.delete(self._matrix, positions, axis=0)
        self._denominators = np.delete(self._denominators, positions)
        self._row_ids = np.delete(self._row_ids, positions)
        self._id_order = None

    def delete_at(self, position: int) -> None:
        """Remove the row at ``position`` (:meth:`delete_positions` of one)."""
        self.delete_positions([position])

    # -- row ids to positions ----------------------------------------------------------

    def positions_of(self, row_ids: Iterable[int]) -> np.ndarray:
        """Current physical indices of the given row ids, in their order
        — derived from :attr:`row_ids` (one argsort, memoised until the
        next crack, insert or delete).

        Raises:
            IndexStateError: if any id is not present.
        """
        try:
            row_ids = np.asarray(row_ids, dtype=np.int64).reshape(-1)
        except OverflowError:
            raise IndexStateError("row id beyond int64 not present") from None
        if self._id_order is None:
            order = np.argsort(self._row_ids, kind="stable")
            self._id_order = (self._row_ids[order], order)
        sorted_ids, order = self._id_order
        slots = np.searchsorted(sorted_ids, row_ids)
        absent = slots == len(order)
        absent[~absent] = sorted_ids[slots[~absent]] != row_ids[~absent]
        if absent.any():
            raise IndexStateError("row id %d not present" % row_ids[absent][0])
        return order[slots]

    def __contains__(self, row_id: int) -> bool:
        """Whether a row with this id is in the column."""
        try:
            self.positions_of([row_id])
        except IndexStateError:
            return False
        return True

    def physical_index_of(self, row_id: int) -> int:
        """Current physical index of one row id (:meth:`positions_of`)."""
        return int(self.positions_of([row_id])[0])

    def rows_by_ids(self, row_ids: Iterable[int]) -> RowBlock:
        """Ciphertexts for the given row ids, in the given order.

        Positional tuple reconstruction across sibling columns: a
        select on one attribute returns qualifying ids; siblings
        materialise the other attributes through this lookup,
        regardless of how differently each column has been cracked.
        """
        return self.rows_at(self.positions_of(row_ids))

    # -- internals ----------------------------------------------------------------------

    def _parallel_arrays(self):
        return self._matrix, self._denominators, self._row_ids

    def _apply_order(self, piece_lo: int, piece_hi: int, order: np.ndarray) -> None:
        for array in self._parallel_arrays():
            array[piece_lo:piece_hi] = array[piece_lo:piece_hi][order]
        self._id_order = None

    def _swap(self, i: int, j: int) -> None:
        for array in self._parallel_arrays():
            array[[i, j]] = array[[j, i]]
        self._id_order = None
