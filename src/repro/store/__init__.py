"""The update ledger behind the graceful updates of paper requirement 6.

* :mod:`repro.store.updates` — the row-id / tombstone ledger the secure
  server keeps beside its pending rows.
"""

from repro.store.updates import PendingUpdates

__all__ = ["PendingUpdates"]
