"""SecureScan: the paper's no-index baseline over encrypted data.

"We compare our cracking-based results against a plain scan of the
encrypted numeric data, evaluating queries using comparisons via scalar
products without any indexing or cracking; we call this approach
SecureScan" (Section 5).  Every query costs two scalar products per
row, forever — the dashed reference lines of Figures 6 and 7.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

from repro.core.encrypted_column import EncryptedColumn
from repro.core.query import EncryptedQuery
from repro.cracking.index import QueryStats, record_query_stats, stats_counters
from repro.obs import Observability


class SecureScan:
    """Full-column scalar-product scan; never reorganises anything."""

    def __init__(
        self,
        column: EncryptedColumn,
        obs: Observability = None,
    ) -> None:
        self._column = column
        self._obs = obs if obs is not None else column.obs
        self._stats_counters = stats_counters(self._obs.metrics)
        self.stats_log: List[QueryStats] = []

    @property
    def obs(self) -> Observability:
        """The observability bundle shared with the column."""
        return self._obs

    def __len__(self) -> int:
        return len(self._column)

    @property
    def column(self) -> EncryptedColumn:
        """The underlying encrypted column (left in upload order)."""
        return self._column

    def query(self, query: EncryptedQuery) -> Tuple[np.ndarray, List]:
        """Answer one encrypted range query by scanning everything; its
        scalar products land on the query's :class:`QueryStats`."""
        products_before = self._column.product_counts()
        try:
            indices = self.qualifying_indices(query)
        finally:
            self._column.charge_products(self.stats_log[-1], products_before)
        return self._column.row_ids_at(indices), self._column.rows_at(indices)

    def qualifying_indices(self, query: EncryptedQuery) -> np.ndarray:
        """Physical indices of qualifying rows (no side effects but the
        query's stats entry; the caller charges its products)."""
        stats = QueryStats()
        tick = time.perf_counter()
        try:
            with self._obs.span("full-scan", rows=len(self._column)):
                indices = self._column.scan_query(query)
            stats.result_count = len(indices)
        finally:
            stats.scan_seconds = time.perf_counter() - tick
            record_query_stats(self.stats_log, stats, self._stats_counters)
        audit = self._obs.audit
        if audit.enabled:
            audit.record(
                "scan",
                lo=0,
                hi=len(self._column),
                bound=audit.ref(query.low.eb if query.low is not None else None),
                bound_high=audit.ref(
                    query.high.eb if query.high is not None else None
                ),
                matched=len(indices),
            )
        return indices
