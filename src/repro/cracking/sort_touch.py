"""Hybrid cracking: fully sort small pieces when first touched.

Among the cracking variants the paper enumerates (Section 2.2):
"numerous algorithms have been proposed that split a piece ... fully
sorting pieces when touched for the first time" — the hybrid-crack-sort
family.  Sorting a touched piece costs ``n log n`` once, after which
every bound that lands in it resolves by binary search with *zero*
physical movement, so convergence inside hot regions is immediate.

The security contrast is the interesting part for this paper: a sorted
piece leaks its *entire internal order*, which is exactly what the
plain cracking design avoids by scanning sub-threshold pieces instead
(and why the encrypted engine has no sort-touch variant at all — the
server cannot sort ciphertexts, Section 5.5).  The leakage ablation
quantifies the difference.

Implementation notes: a sorted piece's sub-pieces are sorted too, so
sortedness is tracked as a set of disjoint intervals that refine
naturally as cracks land inside them; cracks within a sorted interval
are ``searchsorted`` lookups and move nothing.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

from repro.cracking.index import AdaptiveIndex, BoundKey, QueryStats


class SortTouchAdaptiveIndex(AdaptiveIndex):
    """Cracking that fully sorts pieces at or below ``sort_threshold``.

    Pieces larger than the threshold crack normally; once a crack or a
    bound lands in a piece at or below it, the piece is sorted in place
    and remembered, and all further bounds inside it resolve by binary
    search.

    Args:
        values: the column (copied).
        sort_threshold: pieces of at most this many rows are sorted on
            first touch.  Must be >= 2.
        **kwargs: forwarded to :class:`AdaptiveIndex` (``min_piece_size``
            is forced to 1 — the sort threshold replaces it).
    """

    def __init__(self, values, sort_threshold: int = 4096, **kwargs) -> None:
        if sort_threshold < 2:
            raise ValueError("sort threshold must be at least 2")
        kwargs.pop("min_piece_size", None)
        super().__init__(values, min_piece_size=1, **kwargs)
        self._sort_threshold = sort_threshold
        #: Disjoint, sorted [lo, hi) intervals known to be sorted.
        self._sorted_ranges: List[Tuple[int, int]] = []

    @property
    def sorted_row_count(self) -> int:
        """Rows currently inside fully sorted intervals."""
        return sum(hi - lo for lo, hi in self._sorted_ranges)

    def _place(self, key: BoundKey, stats: QueryStats, located=None):
        size, cracks = len(self._column), self._cracks
        tick = time.perf_counter()
        if located is None:
            located = cracks.locate(key)
        exact, rank = located
        if not exact:
            piece_lo, piece_hi = cracks.piece(located, size)
        stats.search_seconds += time.perf_counter() - tick
        if exact:
            return cracks.positions[rank], None, False

        sorted_range = self._containing_sorted_range(piece_lo, piece_hi)
        if sorted_range is None and piece_hi - piece_lo <= self._sort_threshold:
            tick = time.perf_counter()
            self._sort_piece(piece_lo, piece_hi)
            stats.crack_seconds += time.perf_counter() - tick
            stats.cracked_rows += piece_hi - piece_lo
            stats.comparisons += piece_hi - piece_lo  # ~n log n, order-of
            sorted_range = (piece_lo, piece_hi)

        if sorted_range is None:
            return (
                self._crack_piece(key, piece_lo, piece_hi, stats, located),
                None, False,
            )
        bound, inclusive = key
        tick = time.perf_counter()
        side = "right" if inclusive else "left"
        values = self._column.values
        split = piece_lo + int(
            np.searchsorted(values[piece_lo:piece_hi], bound, side=side)
        )
        stats.search_seconds += time.perf_counter() - tick
        tick = time.perf_counter()
        cracks.add(key, split, size, located)
        stats.insert_seconds += time.perf_counter() - tick
        return split, None, False

    def _sort_piece(self, piece_lo: int, piece_hi: int) -> None:
        """Sort one piece in place (values and base positions together)."""
        order = np.argsort(self._column.values[piece_lo:piece_hi], kind="stable")
        self._column._apply_order(piece_lo, piece_hi, order)
        self._sorted_ranges.append((piece_lo, piece_hi))
        self._sorted_ranges.sort()

    def _containing_sorted_range(self, piece_lo: int, piece_hi: int):
        """The sorted interval containing ``[piece_lo, piece_hi)``, if any."""
        for lo, hi in self._sorted_ranges:
            if lo <= piece_lo and piece_hi <= hi:
                return (lo, hi)
        return None

    def check_invariants(self) -> None:
        """Base invariants plus sortedness of recorded intervals."""
        super().check_invariants()
        values = self._column.values
        for lo, hi in self._sorted_ranges:
            assert np.all(np.diff(values[lo:hi]) >= 0), (
                "sorted range [%d, %d) is not sorted" % (lo, hi)
            )
