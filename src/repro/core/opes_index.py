"""Outsourced database over OPES — the comparison system (Section 2.1).

Under order-preserving encryption the server sees the total order from
day one, so it needs no adaptivity at all: it sorts the ciphertexts at
load time and answers every range query with two binary searches.
That is exactly the trade the paper rejects — "it delivers encrypted
values in sortable form ... a more conservative alternative would
enable selective indexing without a priori leaking information about
the order of values" — and this engine makes both sides of the trade
measurable:

* performance: OPES queries are nearly free (Figure-7-style
  comparison in the OPES ablation benchmark);
* leakage: the resolved-order fraction is 1.0 *before the first
  query*, versus the cracking engines' gradual, threshold-capped
  climb.

The client-facing interface mirrors
:class:`~repro.core.session.OutsourcedDatabase` so the two systems are
drop-in comparable.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.client import ClientResult
from repro.cracking.index import QueryStats, record_query_stats
from repro.crypto.opes import OpesCipher, generate_opes_key
from repro.errors import QueryError


class OpesServer:
    """Server over OPES ciphertexts: sort once, binary-search forever."""

    def __init__(self, ciphertexts: Sequence[int]) -> None:
        base = np.array(ciphertexts, dtype=np.int64).reshape(-1)
        tick = time.perf_counter()
        self._order = np.argsort(base, kind="stable")
        self._sorted = base[self._order]
        self.build_seconds = time.perf_counter() - tick
        self.stats_log: List[QueryStats] = []

    def __len__(self) -> int:
        return len(self._sorted)

    def execute(
        self,
        low_ciphertext: int,
        high_ciphertext: int,
        low_inclusive: bool,
        high_inclusive: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Answer a range query over ciphertext bounds.

        Returns ``(row_ids, ciphertexts)``; order comparisons work
        directly on ciphertexts because the encryption preserves order
        — the very property under scrutiny.
        """
        tick = time.perf_counter()
        start = np.searchsorted(
            self._sorted,
            low_ciphertext,
            side="left" if low_inclusive else "right",
        )
        end = np.searchsorted(
            self._sorted,
            high_ciphertext,
            side="right" if high_inclusive else "left",
        )
        row_ids = self._order[start:end].copy()
        ciphertexts = self._sorted[start:end].copy()
        stats = QueryStats(
            search_seconds=time.perf_counter() - tick,
            result_count=len(row_ids),
            # Two binary searches over n sorted ciphertexts.
            comparisons=2 * len(self._sorted).bit_length(),
        )
        record_query_stats(self.stats_log, stats)
        return row_ids, ciphertexts

    def piece_boundaries(self) -> List[int]:
        """Every position is a piece boundary: the order is fully known."""
        return list(range(len(self._sorted) + 1))


class OpesOutsourcedDatabase:
    """End-to-end OPES session, interface-compatible with the secure one."""

    def __init__(
        self,
        values: Sequence[int],
        seed: int = 0,
        domain: Tuple[int, int] = None,
    ) -> None:
        values = [int(v) for v in values]
        if domain is None:
            if not values:
                raise QueryError("provide a domain for an empty column")
            domain = (min(values), max(values) + 1)
        self.cipher = OpesCipher(generate_opes_key(domain, seed=seed))
        tick = time.perf_counter()
        ciphertexts = [self.cipher.encrypt(v) for v in values]
        self.encrypt_seconds = time.perf_counter() - tick
        self.server = OpesServer(ciphertexts)
        self.round_trips = 0

    def __len__(self) -> int:
        return len(self.server)

    def query(
        self,
        low: int = None,
        high: int = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> ClientResult:
        """Run one range query end to end (one round trip).

        Either bound may be None for a one-sided query (substituted by
        the domain edge — under OPES the domain is part of the key).
        """
        domain_lo, domain_hi = self.cipher.key.domain
        if low is None:
            low, low_inclusive = domain_lo, True
        if high is None:
            high, high_inclusive = domain_hi - 1, True
        if low > high:
            raise QueryError("inverted range: low=%r > high=%r" % (low, high))
        if low > domain_hi - 1 or high < domain_lo:
            # The whole range lies outside the data domain.
            self.round_trips += 1
            return ClientResult(
                values=np.empty(0, dtype=np.int64),
                logical_ids=np.empty(0, dtype=np.int64),
                false_positives=0,
                returned_rows=0,
                decrypt_seconds=0.0,
            )
        low_ct = self.cipher.encrypt_bound(low)
        high_ct = self.cipher.encrypt_bound(high)
        # Clamping out-of-domain bounds to edge cells must not drop or
        # add edge values; widen inclusiveness accordingly.
        if low < domain_lo:
            low_inclusive = True
        if high > domain_hi - 1:
            high_inclusive = True
        row_ids, ciphertexts = self.server.execute(
            low_ct, high_ct, low_inclusive, high_inclusive
        )
        self.round_trips += 1
        tick = time.perf_counter()
        values = np.array(
            [self.cipher.decrypt(int(c)) for c in ciphertexts], dtype=np.int64
        )
        return ClientResult(
            values=values,
            logical_ids=row_ids.astype(np.int64),
            false_positives=0,
            returned_rows=len(row_ids),
            decrypt_seconds=time.perf_counter() - tick,
        )

    def query_values(self, low: int, high: int, **kwargs) -> np.ndarray:
        """Convenience: sorted plaintext values in range."""
        return np.sort(self.query(low, high, **kwargs).values)
