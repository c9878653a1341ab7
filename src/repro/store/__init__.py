"""Minimal column-store substrate (paper, Sections 2.2 and 5).

The paper's prototype "precisely implements the select operator of a
modern column-store ... data is stored one column-at-a-time in
fixed-width dense arrays".  This package provides that substrate:

* :mod:`repro.store.select` — range predicates and the scan select
  operator shared across engines.
* :mod:`repro.store.table` — named columns, tables, positional tuple
  reconstruction, and per-column adaptive indexes.
* :mod:`repro.store.updates` — the row-id / tombstone ledger behind
  the graceful updates of paper requirement 6.
"""

from repro.store.select import RangePredicate, scan_select
from repro.store.table import Column, Table
from repro.store.updates import PendingUpdates

__all__ = ["RangePredicate", "scan_select", "Column", "Table", "PendingUpdates"]
