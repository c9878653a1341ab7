"""Adaptive merging: the incremental-merge-sort flavour of adaptive
indexing.

The paper situates cracking among its siblings: "database cracking can
be validly described as an incremental quicksort, while another
alternative for adaptive indexing, adaptive merging, can be seen as an
incremental external merge sort" (Section 4.1).  This module implements
that sibling over plaintext columns, completing the family for the
cracking-vs-merging ablation:

* at load time the column is cut into ``run_count`` *sorted runs*
  (cheap: sorting R runs costs R * (n/R) log(n/R) < n log n);
* each range query binary-searches every run, *extracts* the
  qualifying rows, and merges them into the sorted *final partition*;
* data migrates from runs to the final partition exactly as fast as
  queries demand it — once a value range has been queried, it lives in
  the final partition and later queries touch only binary searches.

Adaptive merging converges in fewer queries than cracking (each range
is fully sorted after one touch) at a higher per-query cost early —
the classic trade-off, visible in ``benchmarks/bench_abl_merging.py``.

Note the security angle the paper draws from this equivalence: *any*
adaptive index tends toward sorted order, which is why the encrypted
design needs the ambiguity layer and the piece-size threshold.  An
encrypted adaptive-merging variant is impossible under the paper's
scheme precisely because the server cannot sort ciphertexts — runs
could not be built (Section 5.5); this engine is plaintext-only.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

from repro.cracking.index import QueryStats, record_query_stats
from repro.errors import QueryError


class AdaptiveMergingIndex:
    """Incremental external merge sort, driven by queries.

    Args:
        values: the column (copied).
        run_count: number of initial sorted runs (models memory-sized
            sort batches).

    Every query appends its :class:`QueryStats` to :attr:`stats_log`
    (extraction time is booked as ``crack_seconds`` — it is the
    physical-reorganisation cost of this method).
    """

    def __init__(self, values, run_count: int = 16) -> None:
        base = np.array(values, dtype=np.int64).reshape(-1)
        if run_count < 1:
            raise QueryError("need at least one run")
        tick = time.perf_counter()
        boundaries = np.linspace(0, len(base), run_count + 1).astype(int)
        self._runs: List[Tuple[np.ndarray, np.ndarray]] = []
        for lo, hi in zip(boundaries, boundaries[1:]):
            if hi <= lo:
                continue
            chunk = base[lo:hi]
            order = np.argsort(chunk, kind="stable")
            self._runs.append((chunk[order], (np.arange(lo, hi)[order])))
        self._final_values = np.empty(0, dtype=np.int64)
        self._final_positions = np.empty(0, dtype=np.int64)
        self.build_seconds = time.perf_counter() - tick
        self.stats_log: List[QueryStats] = []

    def __len__(self) -> int:
        return len(self._final_values) + sum(len(v) for v, __ in self._runs)

    @property
    def final_partition_size(self) -> int:
        """Rows already merged into the sorted final partition."""
        return len(self._final_values)

    @property
    def run_count(self) -> int:
        """Surviving (non-empty) runs."""
        return len(self._runs)

    # -- querying -----------------------------------------------------------

    def query(
        self,
        low: int = None,
        high: int = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Answer a range query, migrating touched rows to the final
        partition as a side effect.

        Either bound may be None for a one-sided query.  Returns base
        positions of qualifying rows.
        """
        if low is not None and high is not None and low > high:
            raise QueryError("inverted range: low=%r > high=%r" % (low, high))
        stats = QueryStats()
        tick = time.perf_counter()
        moved_values: List[np.ndarray] = []
        moved_positions: List[np.ndarray] = []
        surviving: List[Tuple[np.ndarray, np.ndarray]] = []
        for run_values, run_positions in self._runs:
            start, end = _range_slice(
                run_values, low, high, low_inclusive, high_inclusive
            )
            if end > start:
                moved_values.append(run_values[start:end])
                moved_positions.append(run_positions[start:end])
                run_values = np.delete(run_values, slice(start, end))
                run_positions = np.delete(run_positions, slice(start, end))
                stats.cracked_rows += end - start
            stats.comparisons += 2 * max(
                1, int(np.log2(len(run_values) + 2))
            )
            if len(run_values):
                surviving.append((run_values, run_positions))
        self._runs = surviving
        if moved_values:
            combined_values = np.concatenate(
                [self._final_values] + moved_values
            )
            combined_positions = np.concatenate(
                [self._final_positions] + moved_positions
            )
            order = np.argsort(combined_values, kind="stable")
            self._final_values = combined_values[order]
            self._final_positions = combined_positions[order]
        stats.crack_seconds = time.perf_counter() - tick

        tick = time.perf_counter()
        start, end = _range_slice(
            self._final_values, low, high, low_inclusive, high_inclusive
        )
        result = self._final_positions[start:end].copy()
        stats.search_seconds = time.perf_counter() - tick
        stats.result_count = len(result)
        record_query_stats(self.stats_log, stats)
        return result

    def query_point(self, value: int) -> np.ndarray:
        """Equality query."""
        return self.query(value, value, True, True)

    # -- introspection --------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert sortedness and conservation of rows.

        Raises:
            AssertionError: on any violated invariant.
        """
        assert np.all(np.diff(self._final_values) >= 0), "final not sorted"
        for run_values, run_positions in self._runs:
            assert np.all(np.diff(run_values) >= 0), "run not sorted"
            assert len(run_values) == len(run_positions)
        all_positions = np.concatenate(
            [self._final_positions]
            + [positions for __, positions in self._runs]
        )
        assert len(np.unique(all_positions)) == len(all_positions), (
            "rows duplicated or lost"
        )


def _range_slice(sorted_values, low, high, low_inclusive, high_inclusive):
    """Half-open slice of a sorted array covered by an optional range."""
    if low is None:
        start = 0
    else:
        start = np.searchsorted(
            sorted_values, low, side="left" if low_inclusive else "right"
        )
    if high is None:
        end = len(sorted_values)
    else:
        end = np.searchsorted(
            sorted_values, high, side="right" if high_inclusive else "left"
        )
    return start, max(start, end)
