"""Encrypted cracker column: ciphertext rows in a fixed-width dense array.

The server-side instance of
:class:`repro.cracking.column.CrackableColumn`: each row is a
length-``l`` integer vector (an ``Ev``-mode ciphertext's numerators)
with a positive denominator, held as the limbs of a
:class:`~repro.crypto.ciphertext.RowBlock` — an ``n x (l + 1) x k``
``uint64`` array, the reproduction's analogue of the paper's GMP
arrays.  That array is the column's only copy of its rows: a crack
permutes it, a fetch gathers from it, an insert or delete splices it,
all as plain fixed-width array operations, and Python ints are made
only for rows the exact fallback below must verify.

Cracks, three-way cracks, edge scans and partition checks are the
shared base's; this class supplies only the classification primitive,
:meth:`EncryptedColumn.below`, as the sign of scalar products against
an ``Eb``-mode bound (``sign(Eb . Ev) == sign(v - b)``).  The column
never compares two of its own rows, mirroring the scheme's central
restriction.

Scalar products have one implementation, :meth:`EncryptedColumn.products`,
and it is exact.  The noise terms of ``Eb . Ev`` cancel, so at the
paper's Section 5 parameters 50- to 66-bit numerators (the key draw
decides) against ~31-bit bound components give products of at most ~46
bits: the *product* fits a machine word although the operands, let
alone their partial sums, need not.  Limb 0 of the store is each
numerator's two's-complement low word, so the column multiplies that in
wrapping 64-bit arithmetic and proves, row by row, that the wrapped
word is the true product — against a ``float64`` plane derived from
the limbs in numpy, under the rounding bound of
:mod:`repro.linalg.limbs` (where the rule and its proof live; the
client's decrypt shares it).

Rows that fail the test (their product does not fit a word) are
computed exactly some other way, as is everything when the bound
reaches ``2^62`` (a product that fits is no longer sure to pass, so the
attempt could be wasted; ambiguity rows, whose numerators carry a
58-bit denominator, are the case in point): 96 rows or more in 32-bit
digits (:func:`repro.linalg.limbs.exact_products` — carries, no
rounding, nothing boxed when only signs are wanted), fewer by boxing
them for the object-dtype big-int matmul.  Bit-lengths and the row
count are read off data the server holds anyway; nothing selects a
kernel.
The float plane is built when the first bound it can serve is
multiplied, and from then on it is one more of the parallel arrays a
crack permutes.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.core.query import EncryptedQuery
from repro.cracking.column import CrackableColumn
from repro.crypto.ciphertext import BoundCiphertext, RowBlock, ValueCiphertext
from repro.errors import IndexStateError
from repro.obs import Observability
from repro.linalg.limbs import (
    ROUNDING_LIMIT,
    bit_length,
    common_width,
    digit_operand,
    digits_sign,
    digits_to_limbs,
    exact_products,
    int_bit_length,
    proven_products,
    rounding_bound,
    to_digits,
    to_float,
    to_objects,
    top_bits,
    widen,
    word_operand,
)


#: Fewest rows :meth:`EncryptedColumn.products` multiplies in digits
#: where no word holds the product (~50 array calls, against ~0.7 us a
#: row boxed and multiplied as Python ints).
_DIGITS_MIN_ROWS = 96


def _head_of(array: np.ndarray, capacity: int) -> np.ndarray:
    """A buffer of ``capacity`` rows shaped like ``array``, whose first
    rows are a copy of it."""
    buffer = np.empty((capacity,) + array.shape[1:], dtype=array.dtype)
    buffer[:len(array)] = array
    return buffer


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
            counts on its ``kernel.fast_products`` /
            ``kernel.exact_products`` counters and emits
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
        # A copy: cracking permutes it in place.
        self._limbs = rows.limbs.copy()
        if row_ids is None:
            self._row_ids = np.arange(len(rows), dtype=np.int64)
        else:
            self._row_ids = np.array(row_ids, dtype=np.int64).reshape(-1)
            if len(self._row_ids) != len(rows):
                raise IndexStateError("row_ids length mismatch")
        self._use_inplace = use_inplace_algorithm
        ids = self._row_ids
        # Ascending ids (an upload's 0 .. n - 1) are unique at a
        # glance; any other order is sorted to find out.
        if not (ids[1:] > ids[:-1]).all() and len(np.unique(ids)) != len(ids):
            raise IndexStateError("row ids must be unique")
        # (sorted row ids, their physical indices), built on demand.
        self._id_order = None
        #: An upper bound on every id the column holds (-1 when none):
        #: ids ascending above it are new without a look at the others.
        self._id_ceiling = int(ids.max()) if len(ids) else -1
        #: None, or the buffers ``(limbs, row ids, floats or None)`` the
        #: parallel arrays are the first ``len(self)`` rows of, with
        #: spare rows behind them for appends (:meth:`insert_block`).
        self._spare = None
        #: An upper bound on the bit-length of every numerator the
        #: column has held: measured here, raised from the top limbs
        #: alone (at most two bits loose) as rows arrive.
        self._bits = bit_length(self._numerators)
        # The float64 plane of the numerators (module docstring),
        # derived from the limbs by the first product a bound it can
        # serve asks for (an ambiguity column never builds one).  Not
        # here: an upload's transients are still alive, and a long-lived
        # array allocated above them pins the heap.
        self._floats = None
        self._obs = obs if obs is not None else Observability()
        #: Every ``Eb . Ev`` product the server computes counts on one
        #: of these two registry counters: a batched one (main or
        #: pending column) on ``fast_products`` when its word-sized
        #: value was proven, on ``exact_products`` when the big-int
        #: matmul computed it; the one-row ones of merge routing on
        #: ``exact_products`` at their call site.
        self.fast_products = self._obs.metrics.counter("kernel.fast_products")
        self.exact_products = self._obs.metrics.counter("kernel.exact_products")

    @property
    def obs(self) -> Observability:
        """The column's observability bundle (engines adopt it)."""
        return self._obs

    def __len__(self) -> int:
        return self._limbs.shape[0]

    @property
    def _numerators(self) -> np.ndarray:
        """The numerator limbs, ``n x l x k`` (a view of the store)."""
        return self._limbs[:, :-1]

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
        self,
        piece_lo: int,
        piece_hi: int,
        bound: BoundCiphertext,
        signs: bool = False,
    ) -> np.ndarray:
        """Exact products ``Eb . Ev`` for rows in ``[piece_lo, piece_hi)``
        — ``int64`` when every row's word-sized product was proven,
        Python integers otherwise.  A caller that reads nothing but the
        sign (:meth:`below`) says so with ``signs``, and a row no word
        holds may then be answered by its product's sign alone (-1, 0
        or 1) instead of the boxed product.

        Denominators are positive, so the signs of these integers equal
        the signs of the exact rational comparisons.
        """
        self._check_range(piece_lo, piece_hi)
        rows = piece_hi - piece_lo
        audit = self._obs.audit
        if audit.enabled:
            # The access-pattern observation: which positions were
            # compared against which (opaque) bound ciphertext.
            audit.record(
                "products",
                bound=audit.ref(bound),
                lo=piece_lo,
                hi=piece_hi,
                rows=rows,
            )
        vector = bound.vector
        with self._obs.span("kernel-product", rows=rows):
            proven = self._word_products(piece_lo, piece_hi, vector)
            if proven is None:
                self.exact_products.add(rows)
                return self._big_products(
                    slice(piece_lo, piece_hi), vector, signs
                )
            words, accepted = proven
            if accepted.all():
                self.fast_products.add(rows)
                return words
            missed = np.flatnonzero(~accepted)
            self.fast_products.add(rows - len(missed))
            self.exact_products.add(len(missed))
            exact = self._big_products(piece_lo + missed, vector, signs)
            products = words.astype(exact.dtype)
            products[missed] = exact
            return products

    def _big_products(self, rows, vector, signs: bool = False) -> np.ndarray:
        """The products of ``rows`` (a slice or physical indices) no
        word holds.  Enough of them to repay the array calls are
        multiplied exactly in 32-bit digits
        (:func:`repro.linalg.limbs.exact_products`) and only the
        products boxed — or, with ``signs``, nothing at all; a few are
        boxed for the occasion and go through the object-dtype big-int
        matmul, the verifier of last resort."""
        numerators = self._limbs[rows, :-1]
        if len(numerators) >= _DIGITS_MIN_ROWS:
            operand = digit_operand(vector)
            if operand is not None:
                digits = exact_products(to_digits(numerators), operand)[..., 0]
                if signs:
                    return digits_sign(digits)
                return to_objects(digits_to_limbs(digits))
        return to_objects(numerators) @ np.asarray(vector, dtype=object)

    def product_counts(self) -> Tuple[int, int]:
        """``(fast, exact)``: the two product counters' totals."""
        return self.fast_products.value, self.exact_products.value

    def charge_products(self, stats, since: Tuple[int, int]) -> None:
        """Add the products computed since ``since`` (an earlier
        :meth:`product_counts`) to a query's ``stats`` entry."""
        fast, exact = self.product_counts()
        stats.kernel_fast_products += fast - since[0]
        stats.kernel_exact_products += exact - since[1]

    def _rounding_bound(self, bits: int, bound_bits: int = 0) -> int:
        """The rounding bound of this column's products, were its
        widest numerator ``bits`` bits, against a ``bound_bits`` bound."""
        return rounding_bound(
            self._length, bits, bound_bits, self._limbs.shape[2]
        )

    def _word_products(self, piece_lo: int, piece_hi: int, vector):
        """``(words, accepted)``: the wrapped 64-bit products of the
        piece and, per row, whether the acceptance inequality proves
        the word is the product (:mod:`repro.linalg.limbs`).  None when
        the operands' bit-lengths rule the proof out."""
        bound = self._rounding_bound(self._bits, int_bit_length(vector))
        if bound >= ROUNDING_LIMIT:
            return None
        if self._floats is None:
            self._floats = to_float(self._numerators)
        return proven_products(
            self._limbs[piece_lo:piece_hi, :-1, 0],
            self._floats[piece_lo:piece_hi],
            word_operand(vector),
            bound,
        )

    def below(
        self, piece_lo: int, piece_hi: int, bound: BoundCiphertext, inclusive: bool
    ) -> np.ndarray:
        """Rows of ``[piece_lo, piece_hi)`` with ``v < b`` (``<= b`` when
        ``inclusive``), read off the product signs — the server can
        evaluate this exactly because the client shipped the bound in
        ``Eb`` mode."""
        products = self.products(piece_lo, piece_hi, bound, signs=True)
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
        return self.rows_at([index])[0]

    def rows_at(self, indices: Iterable[int]) -> RowBlock:
        """Ciphertexts at the given physical indices, as one block (a
        single fancy index into the store)."""
        return RowBlock._of(self._limbs[np.asarray(indices, dtype=np.int64)])

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

        Rows that all go to the end, no wider than the store, with ids
        ascending above every id the column holds (what
        :meth:`SecureServer.insert` hands the pending column) are
        written into spare rows behind the arrays, grown geometrically:
        such an append costs the block, not the column.  Anything else
        is spliced, and drops the spare rows.
        """
        positions = np.asarray(positions, dtype=np.int64).reshape(-1)
        row_ids = np.asarray(row_ids, dtype=np.int64).reshape(-1)
        count = len(block)
        if not len(positions) == count == len(row_ids):
            raise IndexStateError("positions, rows and row ids differ in length")
        if not count:
            return
        size = len(self)
        if block.length != (self._length or block.length):
            raise IndexStateError("row has wrong ciphertext length")
        limbs = block.limbs
        bits = max(self._bits, top_bits(limbs[:, :-1]))
        k = self._limbs.shape[2]
        if (self._length and limbs.shape[2] <= k and (positions == size).all()
                and row_ids[0] > self._id_ceiling
                and (count == 1 or (row_ids[1:] > row_ids[:-1]).all())):
            self._append(size, widen(limbs, k), row_ids, bits)
            return
        if positions.min() < 0 or positions.max() > size:
            raise IndexStateError("insert position out of range")
        merged_ids = np.concatenate((self._row_ids, row_ids))
        if len(np.unique(merged_ids)) != len(merged_ids):
            raise IndexStateError("row id already present or repeated")
        store = self._limbs
        if not self._length:
            store = store[:, :0].reshape(0, block.length + 1, k)
        store, incoming = common_width((store, limbs))
        floats = self._floats
        if store is not self._limbs or (
            self._rounding_bound(bits) >= ROUNDING_LIMIT
        ):
            # No plane of another shape (a wider store recombines
            # anew); none of rows so wide that no bound can be proven
            # against them (2^1024 has no float64).
            floats = None
        if floats is not None:
            floats = np.insert(
                floats, positions, to_float(incoming[:, :-1]), axis=0
            )
        self._length, self._bits, self._floats = block.length, bits, floats
        self._limbs = np.insert(store, positions, incoming, axis=0)
        self._row_ids = np.insert(self._row_ids, positions, row_ids)
        self._id_ceiling = max(self._id_ceiling, int(row_ids.max()))
        self._id_order = self._spare = None

    def _append(self, size: int, incoming: np.ndarray, row_ids: np.ndarray,
                bits: int) -> None:
        """Write ``incoming`` (limbs at the store's width) and its ids
        after the ``size`` rows the column holds, into the spare rows —
        made, twice what the column then holds, when there are too few
        of them or none for a float plane the column has since derived."""
        end = size + len(row_ids)
        floats = self._floats
        if floats is not None and bits > self._bits and (
            self._rounding_bound(bits) >= ROUNDING_LIMIT
        ):
            floats = None  # as the splice drops it
        spare = self._spare
        if spare is None or len(spare[0]) < end or (
            floats is not None and spare[2] is None
        ):
            spare = tuple(
                None if array is None else _head_of(array, 2 * end)
                for array in (self._limbs, self._row_ids, floats)
            )
        limbs, ids, plane = spare
        limbs[size:end] = incoming
        ids[size:end] = row_ids
        if floats is None:
            plane = None
        else:
            plane[size:end] = to_float(incoming[:, :-1])
            floats = plane[:end]
        self._spare = limbs, ids, plane
        self._limbs, self._row_ids, self._floats = limbs[:end], ids[:end], floats
        self._bits = bits
        self._id_ceiling = int(row_ids[-1])
        self._id_order = None

    def insert_at(self, position: int, row: ValueCiphertext, row_id: int) -> None:
        """Insert one row at ``position`` (:meth:`insert_block` of one)."""
        self.insert_block([position], RowBlock.from_rows([row]), [row_id])

    def delete_positions(self, positions) -> None:
        """Physically remove the rows at ``positions`` in one pass."""
        positions = np.asarray(positions, dtype=np.int64).reshape(-1)
        if len(positions) and (positions.min() < 0 or positions.max() >= len(self)):
            raise IndexStateError("delete position out of range")
        self._limbs = np.delete(self._limbs, positions, axis=0)
        self._row_ids = np.delete(self._row_ids, positions)
        if self._floats is not None:
            self._floats = np.delete(self._floats, positions, axis=0)
        self._id_order = self._spare = None

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
        """Ciphertexts for the given row ids, in the given order
        (a ``fetch_request``), however the column has been cracked."""
        return self.rows_at(self.positions_of(row_ids))

    # -- verification -----------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the parallel arrays are parallel, the tracked
        bit-length covers the numerators and the float plane is the one
        the limbs define — what :meth:`products` rests its proof on.

        Raises:
            AssertionError: on any violated invariant.
        """
        assert {len(array) for array in self._parallel_arrays()} == {len(self)}, (
            "parallel arrays differ in length"
        )
        assert bit_length(self._numerators) <= self._bits, (
            "a numerator is wider than the tracked bit-length"
        )
        assert len(self) == 0 or self._row_ids.max() <= self._id_ceiling, (
            "a row id is above the tracked ceiling"
        )
        for array, buffer in zip(self._parallel_arrays(), self._spare or ()):
            assert buffer is None or array.base is buffer, (
                "an array is not the head of its spare rows"
            )
        if self._floats is not None:
            assert self._rounding_bound(self._bits) < ROUNDING_LIMIT, (
                "float plane kept for rows no bound can serve"
            )
            assert np.array_equal(self._floats, to_float(self._numerators)), (
                "float plane drifted from the limbs"
            )

    # -- internals ----------------------------------------------------------------------

    def _parallel_arrays(self):
        if self._floats is None:
            return self._limbs, self._row_ids
        return self._limbs, self._row_ids, self._floats

    def _apply_order(self, piece_lo: int, piece_hi: int, order: np.ndarray) -> None:
        for array in self._parallel_arrays():
            array[piece_lo:piece_hi] = array[piece_lo:piece_hi][order]
        self._id_order = None

    def _swap(self, i: int, j: int) -> None:
        for array in self._parallel_arrays():
            array[[i, j]] = array[[j, i]]
        self._id_order = None
