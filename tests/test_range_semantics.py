"""The range contract every select surface shares.

A select is ``low (<|<=) A (<|<=) high`` with either bound optional.
Each plaintext engine and each encrypted session must answer it exactly
as the brute-force reference (``conftest.reference_positions``) does —
at the inclusive/exclusive edges, on degenerate ranges that hold no
integer, on one-sided and unbounded ranges, and over a column with
duplicates and negative values — while its index cracks underneath.
An inverted range is a typed ``QueryError`` everywhere.

Each surface is built once per module and asked every case in turn, so
later cases run against an index the earlier ones cracked.
"""

import numpy as np
import pytest

from repro.core.opes_index import OpesOutsourcedDatabase
from repro.core.session import OutsourcedDatabase
from repro.cracking.adaptive_merging import AdaptiveMergingIndex
from repro.cracking.baselines import FullScanIndex, FullSortIndex
from repro.cracking.index import AdaptiveIndex
from repro.errors import QueryError

from conftest import reference_positions

#: 400 values in [-50, 50): every value repeats, so each bound has
#: qualifying neighbours on both sides of it.
VALUES = np.random.default_rng(5).integers(-50, 50, 400).astype(np.int64)

#: ``(low, high, low_inclusive, high_inclusive)``; ``None`` is unbounded.
CASES = {
    "closed": (-10, 10, True, True),
    "open": (-10, 10, False, False),
    "closed-open": (-10, 10, True, False),
    "open-closed": (-10, 10, False, True),
    "point": (7, 7, True, True),
    "point-open-low": (7, 7, False, True),
    "point-open-high": (7, 7, True, False),
    "point-open": (7, 7, False, False),
    "adjacent-open": (6, 7, False, False),
    "below-the-domain": (-100, -51, True, True),
    "above-the-domain": (50, 100, True, True),
    "the-whole-domain": (-50, 49, True, True),
    "below": (None, 0, True, True),
    "strictly-below": (None, 0, True, False),
    "above": (0, None, True, True),
    "strictly-above": (0, None, False, True),
    "unbounded": (None, None, True, True),
}


def expected(low, high, low_inclusive, high_inclusive):
    low = VALUES.min() - 1 if low is None else low
    high = VALUES.max() + 1 if high is None else high
    return reference_positions(
        VALUES, low, high, low_inclusive, high_inclusive
    ).tolist()


class PlainSurface:
    """A plaintext engine: answers are base positions."""

    def __init__(self, engine):
        self.engine = engine

    def select(self, *bounds):
        return sorted(self.engine.query(*bounds).tolist())

    def check(self):
        if hasattr(self.engine, "check_invariants"):
            self.engine.check_invariants()


class SessionSurface:
    """An encrypted session: answers are logical ids, and the decrypted
    values must be the plaintext values at those ids."""

    def __init__(self, db):
        self.db = db

    def select(self, *bounds):
        result = self.db.query(*bounds)
        ids = result.logical_ids.tolist()
        assert sorted(result.values.tolist()) == sorted(
            VALUES[ids].tolist()
        )
        return sorted(ids)

    def check(self):
        if isinstance(self.db, OpesOutsourcedDatabase):
            return
        for server in self.db.shard_servers():
            if hasattr(server.engine, "check_invariants"):
                server.engine.check_invariants()


SURFACES = {
    "adaptive": lambda: PlainSurface(AdaptiveIndex(VALUES)),
    "three-way": lambda: PlainSurface(
        AdaptiveIndex(VALUES, use_three_way=True)
    ),
    "scan": lambda: PlainSurface(FullScanIndex(VALUES)),
    "sort": lambda: PlainSurface(FullSortIndex(VALUES)),
    "merging": lambda: PlainSurface(AdaptiveMergingIndex(VALUES, run_count=4)),
    "secure-crack": lambda: SessionSurface(OutsourcedDatabase(VALUES, seed=71)),
    "secure-scan": lambda: SessionSurface(
        OutsourcedDatabase(VALUES, engine="scan", seed=72)
    ),
    "ambiguity": lambda: SessionSurface(
        OutsourcedDatabase(VALUES, ambiguity=True, seed=73)
    ),
    "sharded": lambda: SessionSurface(
        OutsourcedDatabase(VALUES, shards=2, seed=74)
    ),
    "opes": lambda: SessionSurface(OpesOutsourcedDatabase(VALUES, seed=75)),
}


@pytest.fixture(scope="module", params=list(SURFACES), ids=list(SURFACES))
def surface(request):
    return SURFACES[request.param]()


@pytest.mark.parametrize("bounds", list(CASES.values()), ids=list(CASES))
def test_answers_the_reference(surface, bounds):
    assert surface.select(*bounds) == expected(*bounds)
    surface.check()


def test_an_inverted_range_is_refused(surface):
    with pytest.raises(QueryError, match="inverted range"):
        surface.select(5, 4)
    with pytest.raises(QueryError, match="inverted range"):
        surface.select(5, 4, False, False)
    surface.check()


def test_a_cracked_index_answers_every_case_again(surface):
    """Once every case has cracked the index, asking them all again
    (in reverse) changes no answer."""
    for bounds in reversed(list(CASES.values())):
        assert surface.select(*bounds) == expected(*bounds), bounds
    surface.check()
