"""The cracking engine: one query driver, and its plaintext instance.

Section 2.2's select operator answers a range query *and*, as a side
effect, physically reorganises the touched pieces and refines the
cracker index.  :class:`CrackingEngine` is that operator, written once
over crack keys and physical index ranges.  It never looks inside a key
— keys are ordered by the index's comparator and classified against
rows by the column's
:meth:`~repro.cracking.column.CrackableColumn.below` mask — so the
paper's server runs it "as with a non-encrypted database" (Section
3.3): :class:`repro.core.secure_index.SecureAdaptiveIndex` is the same
driver over double-encrypted bounds and ciphertext rows.

:class:`AdaptiveIndex` is the plaintext instance, the paper's baseline
system (the "Plain" curves of Figures 6-8 and 11).  Its
``query(low, high, low_inclusive, high_inclusive)`` returns the *base
positions* (original row ids) of qualifying tuples — the column-store
select interface of Section 5 ("returns a set of positions that mark
qualifying values").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.cracking.column import CrackableColumn, CrackerColumn
from repro.cracking.cracks import CrackIndex
from repro.errors import QueryError
from repro.obs import Observability

#: Crack key: (bound, inclusive).  Every row before the key's position
#: satisfies ``value < bound`` (inclusive=False) or ``value <= bound``
#: (inclusive=True).  Lexicographic tuple order
#: (False < True) matches predicate-set inclusion over the integers.
BoundKey = Tuple[int, bool]


def _compare_bound_keys(a: BoundKey, b: BoundKey) -> int:
    """Total order on plaintext bound keys."""
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


@dataclass
class QueryStats:
    """Per-query cost breakdown (Figures 8-10 report these series).

    Attributes:
        search_seconds: time locating pieces in the cracker index.
        crack_seconds: time physically reorganising column pieces.
        insert_seconds: time adding crack bounds to the index.
        scan_seconds: time scanning sub-threshold edge pieces.
        result_count: number of qualifying rows returned.
        cracked_rows: rows physically touched by cracking.
        cracks: number of crack operations performed (0-2, or 1 for a
            three-way crack).
        comparisons: predicate evaluations performed (cost model —
            machine-independent; for the secure engine each one is a
            scalar product): one per row classified by a crack, two per
            row filtered by a two-sided scan, one per key comparison
            in the cracker index.
        kernel_fast_products: scalar products whose word-sized value
            was proven exact (secure engines only; 0 for plaintext
            engines).
        kernel_exact_products: scalar products computed in exact
            digits or big-int arithmetic (likewise).
    """

    search_seconds: float = 0.0
    crack_seconds: float = 0.0
    insert_seconds: float = 0.0
    scan_seconds: float = 0.0
    result_count: int = 0
    cracked_rows: int = 0
    cracks: int = 0
    comparisons: int = 0
    kernel_fast_products: int = 0
    kernel_exact_products: int = 0

    @property
    def total_seconds(self) -> float:
        """Sum of all recorded phases."""
        return (
            self.search_seconds
            + self.crack_seconds
            + self.insert_seconds
            + self.scan_seconds
        )


#: QueryStats field -> metrics-registry counter fed by that field.
#: The two ``kernel_*_products`` fields are absent on purpose: their
#: events originate where the products are computed
#: (:attr:`repro.core.encrypted_column.EncryptedColumn.fast_products` /
#: ``exact_products``, counters of the same registry), and the stats
#: fields are *derived from* those counters — forwarding them again
#: would double-count.
STATS_METRIC_OF_FIELD = {
    "search_seconds": "query.search_seconds",
    "crack_seconds": "query.crack_seconds",
    "insert_seconds": "query.insert_seconds",
    "scan_seconds": "query.scan_seconds",
    "result_count": "query.result_rows",
    "cracked_rows": "query.cracked_rows",
    "cracks": "query.cracks",
    "comparisons": "query.comparisons",
}

#: Metric names whose per-query registry delta defines a query's
#: :class:`QueryStats` (the acceptance contract tested in
#: ``tests/test_obs_integration.py``).
QUERY_METRIC_NAMES = tuple(STATS_METRIC_OF_FIELD.values()) + (
    "kernel.fast_products",
    "kernel.exact_products",
)


#: Entries a ``stats_log`` keeps: it is trimmed back to its newest
#: ``STATS_KEPT`` whenever it grows to twice that, so an engine's memory
#: does not rise with the number of queries it has served.
STATS_KEPT = 4096


def stats_counters(metrics) -> tuple:
    """``(field, counter of metrics)`` per :data:`STATS_METRIC_OF_FIELD` entry."""
    return tuple((name, metrics.counter(metric))
                 for name, metric in STATS_METRIC_OF_FIELD.items())


def record_query_stats(stats_log: list, stats: QueryStats, counters=()) -> None:
    """Book one query, finished or failed: add each mapped field to its
    counter of ``counters`` (:func:`stats_counters`, the only write they
    get; none without a registry) and append the entry to ``stats_log``."""
    fields = vars(stats)
    for name, counter in counters:
        counter.value += fields[name]
    stats_log.append(stats)
    if len(stats_log) >= 2 * STATS_KEPT:
        del stats_log[:-STATS_KEPT]


#: Largest raw piece an engine left without a threshold scans rather
#: than cracks where its column multiplies in proven words (the best
#: of 64 - 4 096 on a fresh 100k-row column; EXPERIMENTS.md).
WORD_SCAN_ROWS = 1024


class CrackingEngine:
    """Query-triggered cracking over a column and its cracker index.

    A crack key stands for the crack "every row before my position falls
    left of me"; a range query is the rows right of its *left key* (the
    crack excluding too-low rows) and left of its *right key*.
    Subclasses build the keys, say how one is handed to the column
    (:meth:`_cut`) and ship the physical indices :meth:`_answer` finds.

    Args:
        column: the column to crack (owned by the engine thereafter).
        cracks: the empty cracker index, which orders the crack keys.
        min_piece_size: pieces at or below this size are scanned rather
            than cracked (Section 2.2's cache-size threshold — also the
            mechanism that keeps the index from ever leaking a total
            order).  1 means "always crack".  None derives it per bound
            from the column's arithmetic: :data:`WORD_SCAN_ROWS` where
            :meth:`~repro.cracking.column.CrackableColumn.scans_in_words`,
            and there each edge piece is scanned against its own bound
            only when the other's crack already lies beyond it; 1
            elsewhere (an exact-arithmetic column always cracks).
        use_three_way: crack with one three-way pass when both query
            bounds land in the same piece (instead of two two-way
            cracks).
        obs: observability bundle (tracing spans + metrics + audit).

    Every query appends its :class:`QueryStats` to :attr:`stats_log`
    (the newest :data:`STATS_KEPT` are kept).
    """

    def __init__(
        self,
        column: CrackableColumn,
        cracks: CrackIndex,
        min_piece_size: Optional[int],
        use_three_way: bool,
        obs: Observability,
    ) -> None:
        self._column = column
        self._cracks = cracks
        self._min_piece = (
            None if min_piece_size is None else max(1, int(min_piece_size))
        )
        self._use_three_way = use_three_way
        self._obs = obs
        self.stats_log: List[QueryStats] = []
        metrics = obs.metrics  # what booking a query writes, looked up once
        self._stats_counters = stats_counters(metrics)
        self._cracks_per_query = metrics.histogram("query.cracks_per_query")
        self._pieces = metrics.gauge("index.pieces")

    @property
    def obs(self) -> Observability:
        """The engine's observability bundle."""
        return self._obs

    def __len__(self) -> int:
        return len(self._column)

    @property
    def column(self) -> CrackableColumn:
        """The underlying cracker column (read access for analysis)."""
        return self._column

    @property
    def cracks(self) -> CrackIndex:
        """The cracker index (read access for analysis)."""
        return self._cracks

    # -- subclass hooks -----------------------------------------------------------

    def _cut(self, key) -> Tuple[object, bool]:
        """``(bound, inclusive)`` of a crack key, as ``column.below`` takes them."""
        raise NotImplementedError

    def _audit(self, kind: str, **fields) -> None:
        """Leakage-audit hook: one ``find`` / ``crack`` / ``scan`` event,
        column-level bounds under ``bound`` / ``bound_high``.  Only an
        engine a curious server runs has anything to record."""

    # -- the driver -----------------------------------------------------------------

    def _answer(
        self, left_key, right_key, pivot_keys: Iterable = ()
    ) -> np.ndarray:
        """Physical indices of the rows between the two keys; cracks as
        a side effect and books the query's cost breakdown once,
        whether it returns or raises.  Either key may be None
        (one-sided: at most one piece is cracked); ``pivot_keys`` are
        cracked on first and do not affect the result."""
        stats = QueryStats()
        cracks = self._cracks
        comparisons_before = cracks.comparison_count
        try:
            for key in pivot_keys:
                self._place(key, stats)
            indices = self._execute(left_key, right_key, stats)
            stats.result_count = len(indices)
        finally:
            stats.comparisons += cracks.comparison_count - comparisons_before
            record_query_stats(self.stats_log, stats, self._stats_counters)
        self._cracks_per_query.observe(stats.cracks)
        self._pieces.set(len(cracks) + 1)
        return indices

    def _execute(self, left_key, right_key, stats: QueryStats) -> np.ndarray:
        """Place the keys; gather a range and the filtered edge pieces."""
        size = len(self._column)
        if size == 0:
            return np.empty(0, dtype=np.int64)
        left_at = right_at = None
        if self._use_three_way and left_key is not None and right_key is not None:
            three_way, left_at, right_at = self._try_three_way(
                left_key, right_key, stats)
            if three_way is not None:
                return np.arange(three_way[0], three_way[1], dtype=np.int64)
        cracks, count = self._cracks, len(self._cracks)
        start, left_piece, left_alone = (
            (0, None, False) if left_key is None
            else self._place(left_key, stats, left_at)
        )
        if right_at is not None and len(cracks) != count:
            # If the left key alone went in, at its rank, a right key
            # ranked after it moves up one; else it is located afresh.
            exact, rank = right_at
            if (len(cracks) != count + 1 or cracks.keys[left_at[1]] is not left_key
                    or rank == left_at[1] and not exact):
                right_at = None
            elif rank >= left_at[1]:
                right_at = (exact, rank + 1)
        end, right_piece, right_alone = (
            (size, None, False) if right_key is None
            else self._place(right_key, stats, right_at)
        )
        keys = (left_key, right_key)
        if left_piece is not None and left_piece == right_piece:
            return self._timed_scan(left_piece, keys, stats)
        if left_piece is not None:
            start = left_piece[1]
        if right_piece is not None:
            end = right_piece[0]
        # Left of the right piece every row is left of its crack, and
        # right of the left piece right of that one, so a piece may be
        # scanned against its own bound — unless the range is inverted,
        # or the right bound cracked the left piece after it was found.
        segments: List[np.ndarray] = []
        if left_piece is not None:
            alone = left_alone and start <= end
            segments.append(self._timed_scan(
                left_piece, (left_key, None) if alone else keys, stats))
        if start < end:
            segments.append(np.arange(start, end, dtype=np.int64))
        if right_piece is not None:
            alone = right_alone and start <= end
            segments.append(self._timed_scan(
                right_piece, (None, right_key) if alone else keys, stats))
        if not segments:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(segments)

    def _place(self, key, stats: QueryStats, located=None):
        """Locate ``key`` (one search, none given its ``located``; its
        scan policy read once) and
        crack its raw piece at once if past the threshold, so the next
        key is located in the index the crack left: ``(position, None,
        False)``, or ``(None, piece, alone)`` for a piece to scan —
        ``alone`` when against this bound only."""
        cracks = self._cracks
        bound = self._cut(key)[0]
        tick = time.perf_counter()
        with self._obs.span("find-piece"):
            if located is None:
                located = cracks.locate(key)
            exact, rank = located
            if not exact:
                piece = cracks.piece(located, len(self._column))
        stats.search_seconds += time.perf_counter() - tick
        if exact:
            position = cracks.positions[rank]
            self._audit("find", bound=bound, position=position)
            return position, None, False
        self._audit("find", bound=bound, lo=piece[0], hi=piece[1])
        rows, alone = self._scan_policy(bound)
        if piece[1] - piece[0] <= rows:
            return None, piece, alone
        return self._crack_piece(key, piece[0], piece[1], stats, located), None, False

    def _scan_policy(self, bound) -> Tuple[int, bool]:
        """``(rows, alone)``: the largest raw piece ``bound`` is scanned
        in rather than cracked, and whether such a scan may leave the
        query's other bound out — ``min_piece_size`` when it was given,
        else read off the column's arithmetic for this bound."""
        if self._min_piece is not None:
            return self._min_piece, False
        if self._column.scans_in_words(bound):
            return WORD_SCAN_ROWS, True
        return 1, False

    def _crack_piece(
        self, key, piece_lo: int, piece_hi: int, stats: QueryStats, located=None
    ) -> int:
        """Crack the raw piece ``key`` falls in and index the split
        (at ``located``, the key's ``cracks.locate``, when given);
        returns the split."""
        bound, inclusive = self._cut(key)
        rows = piece_hi - piece_lo
        tick = time.perf_counter()
        with self._obs.span("crack", lo=piece_lo, hi=piece_hi, rows=rows):
            split = self._column.crack(piece_lo, piece_hi, bound, inclusive)
        stats.crack_seconds += time.perf_counter() - tick
        self._count_crack(stats, rows, sides=1)
        self._audit("crack", lo=piece_lo, hi=piece_hi, splits=[split],
                    bound=bound, inclusive=inclusive)
        tick = time.perf_counter()
        with self._obs.span("insert-bound", position=split):
            self._cracks.add(key, split, len(self._column), located)
        stats.insert_seconds += time.perf_counter() - tick
        return split

    def _try_three_way(
        self, left_key, right_key, stats: QueryStats
    ) -> Optional[Tuple[int, int]]:
        """One-pass three-way crack when both bounds share a raw piece.

        Returns ``(range, left, right)``: the qualifying physical range
        on success, None when the preconditions fail (either bound
        already indexed, different pieces, or the piece is below the
        cracking threshold), with each key's ``locate`` while still good.
        """
        size = len(self._column)
        tick = time.perf_counter()
        cracks = self._cracks
        located = cracks.locate(left_key)
        right = None
        same_piece = False
        if not located[0]:
            right = cracks.locate(right_key)
            piece = cracks.piece(located, size)
            same_piece = not right[0] and piece == cracks.piece(right, size)
        stats.search_seconds += time.perf_counter() - tick
        if not same_piece:
            return None, located, right
        piece_lo, piece_hi = piece
        rows = piece_hi - piece_lo
        if rows <= self._scan_policy(self._cut(left_key)[0])[0]:
            return None, located, right
        low, low_inclusive, high, high_inclusive = self._range(left_key, right_key)
        tick = time.perf_counter()
        with self._obs.span("crack", lo=piece_lo, hi=piece_hi, rows=rows,
                            three_way=True):
            split0, split1 = self._column.crack_three(
                piece_lo, piece_hi, low, low_inclusive, high, high_inclusive
            )
        stats.crack_seconds += time.perf_counter() - tick
        self._count_crack(stats, rows, sides=2)
        self._audit("crack", lo=piece_lo, hi=piece_hi, splits=[split0, split1],
                    bound=low, bound_high=high, three_way=True)
        tick = time.perf_counter()
        with self._obs.span("insert-bound", position=split0):
            self._cracks.add(left_key, split0, size, located)
        with self._obs.span("insert-bound", position=split1):
            # Located afresh: the left key may just have joined the index.
            self._cracks.add(right_key, split1, size)
        stats.insert_seconds += time.perf_counter() - tick
        return (split0, split1), None, None

    def _timed_scan(self, piece, keys, stats: QueryStats) -> np.ndarray:
        """Filter one sub-threshold edge piece with the full predicate."""
        low, low_inclusive, high, high_inclusive = self._range(*keys)
        tick = time.perf_counter()
        with self._obs.span("edge-scan", lo=piece[0], hi=piece[1]):
            indices = self._column.scan_qualifying(
                piece[0], piece[1], low, low_inclusive, high, high_inclusive
            )
        stats.scan_seconds += time.perf_counter() - tick
        sides = (low is not None) + (high is not None)
        stats.comparisons += sides * (piece[1] - piece[0])
        self._audit("scan", lo=piece[0], hi=piece[1], bound=low,
                    bound_high=high, matched=len(indices))
        return indices

    def _range(self, left_key, right_key):
        """The two crack keys as the ``(low, low_inclusive, high,
        high_inclusive)`` the column's scan and three-way crack take."""
        low, low_cut = (None, False) if left_key is None else self._cut(left_key)
        high, high_cut = (None, True) if right_key is None else self._cut(right_key)
        return low, not low_cut, high, high_cut

    def _count_crack(self, stats: QueryStats, rows: int, sides: int) -> None:
        stats.cracked_rows += rows
        stats.cracks += 1
        stats.comparisons += sides * rows
        self._obs.metrics.observe("index.piece_rows", rows)

    # -- introspection ----------------------------------------------------------

    def piece_boundaries(self) -> List[int]:
        """Sorted crack positions, including the column ends.

        Consecutive entries delimit the current pieces; the leakage
        analysis of Section 4.1 works from this structure.
        """
        return [0] + sorted(set(self._cracks.positions)) + [len(self._column)]

    def check_invariants(self) -> None:
        """Assert every indexed crack still partitions the column.

        Notably the *server* can run this check itself — each key
        holds the bound in the form ``below`` takes, so partition
        membership is a sign test.  (It learns nothing new: the
        partition is exactly what cracking already revealed.)

        Raises:
            IndexStateError: on a disordered or out-of-range index.
            AssertionError: on any violated cracking invariant.
        """
        size = len(self._column)
        self._cracks.check_invariants(size)
        # Before the partition checks: they classify through the column.
        self._column.check_invariants()
        for key, position in zip(self._cracks.keys, self._cracks.positions):
            below = self._column.below(0, size, *self._cut(key))
            assert below[:position].all(), (
                "rows before the crack violate its predicate"
            )
            assert not below[position:].any(), (
                "rows after the crack violate its predicate"
            )


class AdaptiveIndex(CrackingEngine):
    """Self-organising cracking index over a plaintext integer column.

    Args:
        values: the column (copied).
        min_piece_size / use_three_way: see :class:`CrackingEngine`.
        obs: observability bundle; a private one is created when
            omitted.
    """

    def __init__(
        self,
        values,
        min_piece_size: int = 1,
        use_three_way: bool = False,
        obs: Observability = None,
    ) -> None:
        super().__init__(
            CrackerColumn(values),
            CrackIndex(_compare_bound_keys),
            min_piece_size,
            use_three_way,
            obs if obs is not None else Observability(),
        )

    def _cut(self, key: BoundKey) -> BoundKey:
        return key

    def query(
        self,
        low: int = None,
        high: int = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Answer a range query, cracking touched pieces as a side effect.

        Either bound may be None for a one-sided query (``A <= high`` /
        ``A >= low``), which cracks at most one piece.  Returns the
        base positions of qualifying rows (unordered).

        Raises:
            QueryError: if ``low > high``.
        """
        if low is not None and high is not None and low > high:
            raise QueryError("inverted range: low=%r > high=%r" % (low, high))
        # The crack separating non-qualifying low rows: rows with
        # v < low (inclusive query) or v <= low (exclusive query).
        left_key: BoundKey = None if low is None else (low, not low_inclusive)
        # The crack whose left side is the qualifying high side.
        right_key: BoundKey = None if high is None else (high, high_inclusive)
        with self._obs.span("query", engine="plain-adaptive"):
            indices = self._answer(left_key, right_key)
        return self._column.positions[indices]

    def query_point(self, value: int) -> np.ndarray:
        """Answer an equality query (``A == value``)."""
        return self.query(value, value, True, True)
