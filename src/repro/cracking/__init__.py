"""Database cracking substrate (paper, Section 2.2).

Self-contained adaptive-indexing machinery over *plaintext* columns —
the baseline the paper builds on — plus the pieces shared with the
encrypted engine:

* :mod:`repro.cracking.cracks` — the cracker index: crack bounds in
  key order under a pluggable comparator (the same index holds
  plaintext bounds and encrypted bound vectors), with the paper's
  ``findpiece`` and ``addCrack``.
* :mod:`repro.cracking.algorithms` — ``CrackInTwo`` (the paper's
  Algorithm 1), a three-way variant, and vectorised equivalents.
* :mod:`repro.cracking.column` / :mod:`repro.cracking.index` — the
  crack/scan kernel and the query driver both engines run, with their
  plaintext instances (cracker column, adaptive index).
* :mod:`repro.cracking.stochastic` — random-pivot (stochastic)
  cracking, the robustness variant the paper cites.
* :mod:`repro.cracking.baselines` — full scan and sort-once baselines.
"""

from repro.cracking.adaptive_merging import AdaptiveMergingIndex
from repro.cracking.baselines import FullScanIndex, FullSortIndex
from repro.cracking.column import CrackerColumn
from repro.cracking.cracks import CrackIndex
from repro.cracking.index import AdaptiveIndex, QueryStats
from repro.cracking.sort_touch import SortTouchAdaptiveIndex
from repro.cracking.stochastic import StochasticAdaptiveIndex

__all__ = [
    "AdaptiveMergingIndex",
    "CrackerColumn",
    "CrackIndex",
    "AdaptiveIndex",
    "QueryStats",
    "FullScanIndex",
    "FullSortIndex",
    "SortTouchAdaptiveIndex",
    "StochasticAdaptiveIndex",
]
