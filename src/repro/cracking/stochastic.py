"""Stochastic cracking: random-pivot reorganisation (DDR-style).

Plain query-bound cracking degenerates on adversarial workloads — a
sequential sweep of bounds shaves one thin slice off an enormous piece
per query, keeping per-query cost high for a long time.  Stochastic
cracking (Halim et al., cited as [20] by the paper) restores robustness
by also cracking oversized pieces at *random* pivots drawn from the
data, so piece sizes shrink geometrically regardless of the workload.

:class:`StochasticAdaptiveIndex` implements the DDR (data-driven
random) flavour on top of the plaintext engine: before the query-bound
crack, the piece containing the bound is repeatedly split at a random
resident value until it falls under ``ddr_piece_limit``; each auxiliary
split is registered in the cracker index like any other crack.

The encrypted engine takes the client-assisted variant instead (the
server cannot invent pivots it can compare — Section 5.5: data "can be
sorted only in a query-triggered manner, relying on encrypted pivot
values provided by the client"); see
``repro.core.session.OutsourcedDatabase(jitter_pivots=...)``.
"""

from __future__ import annotations

import random
import time
from typing import Tuple

from repro.cracking.index import AdaptiveIndex, BoundKey, QueryStats


class StochasticAdaptiveIndex(AdaptiveIndex):
    """DDR-style stochastic cracking over a plaintext column.

    Args:
        values: the column (copied).
        ddr_piece_limit: auxiliary random cracks are applied while the
            piece containing a query bound exceeds this many rows.
        seed: randomness for pivot selection.
        **kwargs: forwarded to :class:`AdaptiveIndex`.
    """

    def __init__(
        self,
        values,
        ddr_piece_limit: int = 4096,
        seed: int = None,
        **kwargs,
    ) -> None:
        super().__init__(values, **kwargs)
        if ddr_piece_limit < 2:
            raise ValueError("ddr_piece_limit must be at least 2")
        self._ddr_piece_limit = ddr_piece_limit
        self._pivot_rng = random.Random(seed)

    def _place(self, key: BoundKey, stats: QueryStats, located=None):
        """Shrink the target piece with random pivots, then defer to base
        (locating ``key`` again: the pivots may have moved its rank)."""
        self._random_shrink(key, stats)
        return super()._place(key, stats)

    def _random_shrink(self, key: BoundKey, stats: QueryStats) -> None:
        size, cracks = len(self._column), self._cracks
        while True:
            located = cracks.locate(key)
            if located[0]:
                return
            piece_lo, piece_hi = cracks.piece(located, size)
            if piece_hi - piece_lo <= self._ddr_piece_limit:
                return
            pivot_key = self._draw_pivot(piece_lo, piece_hi)
            if pivot_key is None:
                return
            pivot = cracks.locate(pivot_key)
            if pivot[0]:
                return
            tick = time.perf_counter()
            split = self._column.crack(piece_lo, piece_hi, pivot_key[0], pivot_key[1])
            stats.crack_seconds += time.perf_counter() - tick
            stats.cracked_rows += piece_hi - piece_lo
            stats.cracks += 1
            if split in (piece_lo, piece_hi):
                # Degenerate pivot (piece is constant-valued); stop.
                return
            tick = time.perf_counter()
            cracks.add(pivot_key, split, size, pivot)
            stats.insert_seconds += time.perf_counter() - tick

    def _draw_pivot(self, piece_lo: int, piece_hi: int) -> Tuple[int, bool]:
        """Pick a random resident value of the piece as a strict bound."""
        if piece_hi <= piece_lo:
            return None
        index = self._pivot_rng.randrange(piece_lo, piece_hi)
        pivot_value = int(self._column.values[index])
        return (pivot_value, False)
