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
        # id -> current physical index; maintained through every
        # reorganisation so positional tuple reconstruction across
        # sibling columns stays O(1) per row.
        self._position_of_id = {
            int(row_id): index for index, row_id in enumerate(self._row_ids)
        }
        if len(self._position_of_id) != len(self._row_ids):
            raise IndexStateError("row ids must be unique")
        self._obs = obs if obs is not None else Observability()
        #: Every ``Eb . Ev`` product the server computes — the batched
        #: ones here, the one-row ones of ripple routing and the
        #: pending-buffer scan at their call sites — counts on this
        #: registry counter.
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

    def row_ids_in(self, piece_lo: int, piece_hi: int) -> np.ndarray:
        """Row ids of every row in ``[piece_lo, piece_hi)``."""
        self._check_range(piece_lo, piece_hi)
        return self._row_ids[piece_lo:piece_hi].copy()

    # -- updates -----------------------------------------------------------------------

    def insert_at(self, position: int, row: ValueCiphertext, row_id: int) -> None:
        """Physically insert one row at ``position`` (O(n) memmove).

        The ciphertext length is validated against the established
        ``_length`` whenever one exists — including after deletes have
        emptied the column, which must not let a wrong-length row reset
        the column's width mid-life.  Only a column that never held a
        row adopts the incoming row's length.
        """
        if not 0 <= position <= len(self):
            raise IndexStateError("insert position out of range")
        if self._length:
            if row.length != self._length:
                raise IndexStateError("row has wrong ciphertext length")
        else:
            self._length = row.length
            self._matrix = np.empty((0, self._length), dtype=object)
        if int(row_id) in self._position_of_id:
            raise IndexStateError("row id %d already present" % row_id)
        new_row = np.empty((1, self._length), dtype=object)
        new_row[0, :] = row.numerators
        self._matrix = np.concatenate(
            (self._matrix[:position], new_row, self._matrix[position:])
        )
        self._denominators = np.concatenate(
            (
                self._denominators[:position],
                np.array([row.denominator], dtype=object),
                self._denominators[position:],
            )
        )
        self._row_ids = np.concatenate(
            (
                self._row_ids[:position],
                np.array([row_id], dtype=np.int64),
                self._row_ids[position:],
            )
        )
        for index in range(position, len(self._row_ids)):
            self._position_of_id[int(self._row_ids[index])] = index

    def delete_at(self, position: int) -> None:
        """Physically remove the row at ``position`` (O(n) memmove)."""
        if not 0 <= position < len(self):
            raise IndexStateError("delete position out of range")
        del self._position_of_id[int(self._row_ids[position])]
        self._matrix = np.delete(self._matrix, position, axis=0)
        self._denominators = np.delete(self._denominators, position)
        self._row_ids = np.delete(self._row_ids, position)
        for index in range(position, len(self._row_ids)):
            self._position_of_id[int(self._row_ids[index])] = index

    def __contains__(self, row_id: int) -> bool:
        """Whether a row with this id is in the column (O(1))."""
        return int(row_id) in self._position_of_id

    def physical_index_of(self, row_id: int) -> int:
        """Current physical index of a row id (O(1) through the id map).

        Raises:
            IndexStateError: if the id is not present.
        """
        try:
            return self._position_of_id[int(row_id)]
        except KeyError:
            raise IndexStateError("row id %d not present" % row_id) from None

    def rows_by_ids(self, row_ids: Iterable[int]) -> RowBlock:
        """Ciphertexts for the given row ids, in the given order.

        Positional tuple reconstruction across sibling columns: a
        select on one attribute returns qualifying ids; siblings
        materialise the other attributes through this O(1)-per-row
        lookup, regardless of how differently each column has been
        cracked.
        """
        return self.rows_at(
            [self.physical_index_of(row_id) for row_id in row_ids]
        )

    # -- internals ----------------------------------------------------------------------

    def _parallel_arrays(self):
        return self._matrix, self._denominators, self._row_ids

    def _apply_order(self, piece_lo: int, piece_hi: int, order: np.ndarray) -> None:
        for array in self._parallel_arrays():
            array[piece_lo:piece_hi] = array[piece_lo:piece_hi][order]
        for index in range(piece_lo, piece_hi):
            self._position_of_id[int(self._row_ids[index])] = index

    def _swap(self, i: int, j: int) -> None:
        for array in self._parallel_arrays():
            array[[i, j]] = array[[j, i]]
        self._position_of_id[int(self._row_ids[i])] = i
        self._position_of_id[int(self._row_ids[j])] = j
