"""Plaintext baselines: full scan and sort-once indexing.

These bracket adaptive indexing from both sides, as in the adaptive
indexing literature the paper builds on: a full scan pays nothing up
front and a full column cost per query; a complete sort pays the whole
indexing cost on the first query (or at load time) and trivial costs
afterwards.  Cracking interpolates between the two.  The encrypted
counterpart of the scan baseline is
:class:`repro.core.secure_scan.SecureScan` (the paper's *SecureScan*);
a sort-once baseline has no encrypted counterpart — the scheme
deliberately makes server-side sorting impossible (Section 5.5).
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.cracking.index import QueryStats, record_query_stats
from repro.errors import QueryError


class FullScanIndex:
    """No index at all: every query scans the whole column."""

    def __init__(self, values) -> None:
        self._values = np.array(values, dtype=np.int64).reshape(-1)
        self.stats_log: List[QueryStats] = []

    def __len__(self) -> int:
        return len(self._values)

    def query(
        self,
        low: int = None,
        high: int = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Return base positions of qualifying rows by scanning.

        Either bound may be None for a one-sided query.
        """
        if low is not None and high is not None and low > high:
            raise QueryError("inverted range: low=%r > high=%r" % (low, high))
        tick = time.perf_counter()
        mask = np.ones(len(self._values), dtype=bool)
        if low is not None:
            mask &= self._values >= low if low_inclusive else self._values > low
        if high is not None:
            mask &= (
                self._values <= high if high_inclusive else self._values < high
            )
        result = np.flatnonzero(mask)
        stats = QueryStats(scan_seconds=time.perf_counter() - tick,
                           result_count=len(result))
        record_query_stats(self.stats_log, stats)
        return result

    def query_point(self, value: int) -> np.ndarray:
        """Equality query by scanning."""
        return self.query(value, value, True, True)


class FullSortIndex:
    """Sort-once baseline: complete ordering built at load time.

    The load-time sort cost is recorded in :attr:`build_seconds`; each
    query then runs two binary searches.  This is the upfront-indexing
    strategy adaptive indexing exists to avoid ("requiring neither a
    priori idle time nor a priori workload knowledge") — and the one an
    order-preserving scheme such as OPES would enable on the server,
    leaking the total order (Section 2.1).
    """

    def __init__(self, values) -> None:
        base = np.array(values, dtype=np.int64).reshape(-1)
        tick = time.perf_counter()
        self._order = np.argsort(base, kind="stable")
        self._sorted = base[self._order]
        self.build_seconds = time.perf_counter() - tick
        self.stats_log: List[QueryStats] = []

    def __len__(self) -> int:
        return len(self._sorted)

    def query(
        self,
        low: int = None,
        high: int = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Return base positions of qualifying rows via binary search.

        Either bound may be None for a one-sided query.
        """
        if low is not None and high is not None and low > high:
            raise QueryError("inverted range: low=%r > high=%r" % (low, high))
        tick = time.perf_counter()
        if low is None:
            start = 0
        else:
            start = np.searchsorted(
                self._sorted, low, side="left" if low_inclusive else "right"
            )
        if high is None:
            end = len(self._sorted)
        else:
            end = np.searchsorted(
                self._sorted, high, side="right" if high_inclusive else "left"
            )
        result = self._order[start:end].copy()
        stats = QueryStats(search_seconds=time.perf_counter() - tick,
                           result_count=len(result))
        record_query_stats(self.stats_log, stats)
        return result

    def query_point(self, value: int) -> np.ndarray:
        """Equality query via binary search."""
        return self.query(value, value, True, True)
