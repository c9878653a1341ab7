"""Slow-query ring buffer for the live telemetry plane.

A :class:`SlowQueryLog` keeps the most recent dispatches whose
end-to-end server time crossed a threshold, each with enough context to
diagnose it offline: the request kind, the column, the duration, the
trace id (when the dispatch was traced) and a per-span-name breakdown
of where the time went (``Tracer.subtree_summary`` of the dispatch's
``rpc-serve`` span).

The buffer is bounded (a ring: oldest entries fall off) and
lock-guarded, so a long-running server holds constant memory and the
connection threads can record concurrently.  Its snapshot is one of the
sections served by the ``telemetry_request`` envelope and rendered by
``repro stats --connect`` / ``repro top``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

#: Default slowness threshold in seconds; ``repro serve
#: --slow-query-threshold`` overrides it per endpoint.
DEFAULT_SLOW_QUERY_THRESHOLD = 0.25

#: Default ring capacity (entries kept).
DEFAULT_SLOW_QUERY_CAPACITY = 64


class SlowQueryLog:
    """Bounded, thread-safe ring of slow-dispatch records.

    Args:
        threshold: dispatches taking at least this many seconds are
            recorded (``0.0`` records everything — useful in tests).
        capacity: ring size; the oldest entry is evicted when full.
    """

    def __init__(self, threshold: float = DEFAULT_SLOW_QUERY_THRESHOLD,
                 capacity: int = DEFAULT_SLOW_QUERY_CAPACITY) -> None:
        self.threshold = float(threshold)
        self.capacity = max(1, int(capacity))
        self._entries: deque = deque(maxlen=self.capacity)
        self._recorded = 0
        self._lock = threading.Lock()

    def record(self, kind: str, seconds: float,
               column: Optional[str] = None,
               trace_id: Optional[str] = None,
               breakdown: Optional[Dict[str, Dict[str, float]]] = None,
               **extra: Any) -> Dict[str, Any]:
        """Append one slow-dispatch entry; returns the stored record."""
        entry: Dict[str, Any] = {
            "kind": str(kind),
            "seconds": float(seconds),
            "time": time.time(),
        }
        if column is not None:
            entry["column"] = str(column)
        if trace_id:
            entry["trace_id"] = str(trace_id)
        if breakdown:
            entry["breakdown"] = breakdown
        entry.update(extra)
        with self._lock:
            self._entries.append(entry)
            self._recorded += 1
        return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> List[Dict[str, Any]]:
        """Current ring contents, oldest first (copies)."""
        with self._lock:
            return [dict(entry) for entry in self._entries]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible state: config, totals, and the ring."""
        with self._lock:
            return {
                "threshold_seconds": self.threshold,
                "capacity": self.capacity,
                "recorded": self._recorded,
                "entries": [dict(entry) for entry in self._entries],
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._recorded = 0
