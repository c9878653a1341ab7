"""Cracker columns: the one crack/scan kernel, and its plaintext instance.

The paper's prototype "receives a column of values (fixed-width dense
array) as input and returns a set of positions that mark qualifying
values" (Section 5).  Everything a cracking engine asks of such an
array reduces to one question — *which rows of piece* ``[lo, hi)``
*fall left of a crack* ``(bound, inclusive)``, i.e. satisfy
``v < bound`` (``v <= bound`` when ``inclusive``).  A crack moves those
rows to the front of the piece, a three-way crack does so for two
cracks at once, an edge scan keeps the rows right of the low crack and
left of the high one, a partition check asks it either side of a split.

:class:`CrackableColumn` implements those once over the abstract
:meth:`~CrackableColumn.below` mask.  :class:`CrackerColumn` answers it
with one ``int64`` comparison;
:class:`repro.core.encrypted_column.EncryptedColumn` with the sign of
``Eb . Ev`` scalar products — the *only* difference between the
plaintext and the encrypted engine.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.cracking.algorithms import (
    crack_in_two,
    partition_order,
    three_way_partition_order,
)
from repro.errors import IndexStateError


class CrackableColumn:
    """A dense column physically reorganised by cracking.

    Subclasses provide ``__len__``, :meth:`below`, :meth:`_apply_order`
    and :meth:`_swap`, and set ``_use_inplace`` (route two-way cracks
    through the pointer-faithful Algorithm 1 — slower; fidelity tests).
    """

    _use_inplace = False

    def below(self, piece_lo: int, piece_hi: int, bound, inclusive: bool) -> np.ndarray:
        """Boolean mask over ``[piece_lo, piece_hi)``: True where the row
        falls left of the crack — ``v < bound``, or ``v <= bound`` when
        ``inclusive``."""
        raise NotImplementedError

    def below_each(self, piece_lo: int, piece_hi: int, cuts) -> list:
        """:meth:`below` for each ``(bound, inclusive)`` of ``cuts``, in
        order; a column that classifies against several bounds in one
        pass overrides this."""
        return [self.below(piece_lo, piece_hi, *cut) for cut in cuts]

    def scans_in_words(self, bound) -> bool:
        """Whether :meth:`below` against ``bound`` runs in proven
        machine words, which makes scanning a piece cheaper than
        cracking it; an engine left without a threshold reads its own
        off this.  False unless a column proves it."""
        return False

    def _apply_order(self, piece_lo: int, piece_hi: int, order: np.ndarray) -> None:
        """Permute every parallel array of ``[piece_lo, piece_hi)``."""
        raise NotImplementedError

    def _swap(self, i: int, j: int) -> None:
        """Exchange rows ``i`` and ``j`` (Algorithm 1's tuple exchange)."""
        raise NotImplementedError

    # -- cracking -----------------------------------------------------------

    def crack(self, piece_lo: int, piece_hi: int, bound, inclusive: bool) -> int:
        """Reorganise ``[piece_lo, piece_hi)`` around ``bound``.

        After the call, rows with ``v < bound`` (``<= bound`` when
        ``inclusive``) occupy ``[piece_lo, split)`` and the rest
        ``[split, piece_hi)``.  Over ciphertexts the classification is
        by product sign only — the server learns which side each row
        falls on (that is the point of on-demand indexing) but nothing
        about distances.

        Returns:
            The split position.
        """
        self._check_range(piece_lo, piece_hi)
        if self._use_inplace:
            # Algorithm 1: converging cursors classifying one row at a
            # time and exchanging misplaced tuples.
            return crack_in_two(
                lambda i: bool(self.below(i, i + 1, bound, inclusive)[0]),
                self._swap,
                piece_lo,
                piece_hi - 1,
            )
        mask = self.below(piece_lo, piece_hi, bound, inclusive)
        self._apply_order(piece_lo, piece_hi, partition_order(mask))
        return piece_lo + int(np.count_nonzero(mask))

    def crack_three(
        self,
        piece_lo: int,
        piece_hi: int,
        low,
        low_inclusive: bool,
        high,
        high_inclusive: bool,
    ) -> Tuple[int, int]:
        """Three-way reorganisation of ``[piece_lo, piece_hi)`` in one pass.

        Region 0 holds rows below the range (failing the ``low`` side),
        region 1 rows inside ``[low, high]`` (respecting inclusiveness),
        region 2 rows above.  Realises the paper's split-into-three
        optimisation for a two-sided predicate landing in one piece.

        Returns:
            ``(split0, split1)``: the range rows occupy
            ``[split0, split1)``.
        """
        self._check_range(piece_lo, piece_hi)
        before, within = self.below_each(
            piece_lo, piece_hi, ((low, not low_inclusive), (high, high_inclusive))
        )
        regions = np.where(before, 0, np.where(within, 1, 2))
        order, count0, count01 = three_way_partition_order(regions)
        self._apply_order(piece_lo, piece_hi, order)
        return piece_lo + count0, piece_lo + count01

    # -- scans ----------------------------------------------------------------

    def scan_qualifying(
        self,
        piece_lo: int,
        piece_hi: int,
        low,
        low_inclusive: bool,
        high,
        high_inclusive: bool,
    ) -> np.ndarray:
        """Physical indices in ``[piece_lo, piece_hi)`` inside the range.

        Used for edge pieces below the cracking threshold (Section 2.2:
        "when a piece becomes small enough ... we scan the data at
        virtually no overhead"): the full predicate is evaluated per
        row.  Either bound may be None (one-sided queries), costing one
        comparison per row instead of two.
        """
        self._check_range(piece_lo, piece_hi)
        if low is None and high is None:
            mask = np.ones(piece_hi - piece_lo, dtype=bool)
        elif high is None:
            mask = ~self.below(piece_lo, piece_hi, low, not low_inclusive)
        elif low is None:
            mask = self.below(piece_lo, piece_hi, high, high_inclusive)
        else:
            below_low, below_high = self.below_each(
                piece_lo, piece_hi,
                ((low, not low_inclusive), (high, high_inclusive)),
            )
            mask = below_high & ~below_low
        return piece_lo + mask.nonzero()[0]

    # -- verification -------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert whatever redundancy the column keeps beside its rows
        is coherent (a plain value array keeps none)."""

    def check_partition(self, split: int, bound, inclusive: bool,
                        piece_lo: int = 0, piece_hi: int = None) -> bool:
        """Whether ``[piece_lo, split)`` / ``[split, piece_hi)`` respects ``bound``."""
        if piece_hi is None:
            piece_hi = len(self)
        mask = self.below(piece_lo, piece_hi, bound, inclusive)
        left = split - piece_lo
        return bool(mask[:left].all() and not mask[left:].any())

    def _check_range(self, piece_lo: int, piece_hi: int) -> None:
        if not 0 <= piece_lo <= piece_hi <= len(self):
            raise IndexStateError(
                "piece [%d, %d) out of bounds for column of size %d"
                % (piece_lo, piece_hi, len(self))
            )


class CrackerColumn(CrackableColumn):
    """The plaintext cracker column: a numpy ``int64`` value array plus
    the parallel *base position* array recording where each tuple lived
    in the original column — the cracker-index copy of Figure 1 ("the
    original column A (including positions) is copied into a cracker
    index column, which is then continuously reorganized").

    Args:
        values: one-dimensional integer array-like; copied.
        use_inplace_algorithm: route cracks through the
            pointer-faithful Algorithm 1 instead of the vectorised
            partition (slower; used by fidelity tests).
    """

    def __init__(self, values, use_inplace_algorithm: bool = False) -> None:
        self._values = np.array(values, dtype=np.int64).reshape(-1)
        self._positions = np.arange(len(self._values), dtype=np.int64)
        self._use_inplace = use_inplace_algorithm

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> np.ndarray:
        """The current physical value order (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def positions(self) -> np.ndarray:
        """Base positions parallel to :attr:`values` (read-only view)."""
        view = self._positions.view()
        view.flags.writeable = False
        return view

    def below(self, piece_lo: int, piece_hi: int, bound: int, inclusive: bool) -> np.ndarray:
        """One ``int64`` comparison over the piece's values."""
        chunk = self._values[piece_lo:piece_hi]
        return chunk <= bound if inclusive else chunk < bound

    def _apply_order(self, piece_lo: int, piece_hi: int, order: np.ndarray) -> None:
        for array in (self._values, self._positions):
            array[piece_lo:piece_hi] = array[piece_lo:piece_hi][order]

    def _swap(self, i: int, j: int) -> None:
        for array in (self._values, self._positions):
            array[i], array[j] = array[j], array[i]

    # -- base positions ---------------------------------------------------------

    def scan_positions(
        self,
        piece_lo: int,
        piece_hi: int,
        low: int = None,
        low_inclusive: bool = True,
        high: int = None,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Base positions of rows in ``[piece_lo, piece_hi)`` within range
        (:meth:`scan_qualifying`, mapped to where the rows came from)."""
        return self._positions[
            self.scan_qualifying(
                piece_lo, piece_hi, low, low_inclusive, high, high_inclusive
            )
        ]

    def positions_in(self, piece_lo: int, piece_hi: int) -> np.ndarray:
        """Base positions of every row in ``[piece_lo, piece_hi)``."""
        self._check_range(piece_lo, piece_hi)
        return self._positions[piece_lo:piece_hi].copy()
