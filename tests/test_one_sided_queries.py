"""Tests for one-sided (open-ended) range queries across all engines."""

import numpy as np
import pytest

from repro.core.opes_index import OpesOutsourcedDatabase
from repro.core.session import OutsourcedDatabase
from repro.cracking.adaptive_merging import AdaptiveMergingIndex
from repro.cracking.baselines import FullScanIndex, FullSortIndex
from repro.cracking.index import AdaptiveIndex

VALUES = np.random.default_rng(55).permutation(500).astype(np.int64)


def expected_below(bound, inclusive=True):
    mask = VALUES <= bound if inclusive else VALUES < bound
    return np.flatnonzero(mask).tolist()


def expected_above(bound, inclusive=True):
    mask = VALUES >= bound if inclusive else VALUES > bound
    return np.flatnonzero(mask).tolist()


@pytest.mark.parametrize(
    "engine_factory",
    [
        lambda: AdaptiveIndex(VALUES),
        lambda: AdaptiveIndex(VALUES, min_piece_size=64),
        lambda: AdaptiveIndex(VALUES, use_three_way=True),
        lambda: FullScanIndex(VALUES),
        lambda: FullSortIndex(VALUES),
        lambda: AdaptiveMergingIndex(VALUES, run_count=4),
    ],
    ids=["adaptive", "threshold", "threeway", "scan", "sort", "merging"],
)
class TestPlainEngines:
    def test_below(self, engine_factory):
        engine = engine_factory()
        for bound, inclusive in [(250, True), (250, False), (0, True), (-5, True)]:
            got = sorted(engine.query(high=bound, high_inclusive=inclusive).tolist())
            assert got == expected_below(bound, inclusive)

    def test_above(self, engine_factory):
        engine = engine_factory()
        for bound, inclusive in [(250, True), (250, False), (499, True), (600, True)]:
            got = sorted(engine.query(low=bound, low_inclusive=inclusive).tolist())
            assert got == expected_above(bound, inclusive)

    def test_unbounded_both_sides(self, engine_factory):
        engine = engine_factory()
        assert len(engine.query()) == len(VALUES)


class TestAdaptiveSpecifics:
    def test_one_sided_cracks_one_piece(self):
        index = AdaptiveIndex(VALUES)
        index.query(high=250)
        assert index.stats_log[0].cracks == 1
        index.check_invariants()

    def test_alternating_sides_refine_index(self):
        index = AdaptiveIndex(VALUES)
        index.query(high=100)
        index.query(low=400)
        index.query(high=100)  # repeat: indexed, no crack
        assert index.stats_log[2].cracks == 0
        assert len(index.cracks) == 2


class TestSecureSessions:
    @pytest.fixture(scope="class")
    def db(self):
        return OutsourcedDatabase(VALUES, seed=66)

    def test_query_below(self, db):
        result = db.query_below(250)
        assert sorted(result.logical_ids.tolist()) == expected_below(250)

    def test_query_below_strict(self, db):
        result = db.query_below(250, inclusive=False)
        assert sorted(result.logical_ids.tolist()) == expected_below(250, False)

    def test_query_above(self, db):
        result = db.query_above(250)
        assert sorted(result.logical_ids.tolist()) == expected_above(250)

    def test_query_unbounded(self, db):
        result = db.query()
        assert len(result.values) == len(VALUES)

    def test_invariants_after_mixed_sides(self, db):
        db.query_below(100)
        db.query_above(450, inclusive=False)
        db.query(200, 300)
        db.server.engine.check_invariants()

    def test_with_ambiguity(self):
        db = OutsourcedDatabase(VALUES[:150], ambiguity=True, seed=67)
        result = db.query_below(75)
        expected = np.flatnonzero(VALUES[:150] <= 75).tolist()
        assert sorted(result.logical_ids.tolist()) == expected

    def test_securescan_one_sided(self):
        db = OutsourcedDatabase(VALUES[:100], engine="scan", seed=68)
        result = db.query_above(50)
        expected = np.flatnonzero(VALUES[:100] >= 50).tolist()
        assert sorted(result.logical_ids.tolist()) == expected


class TestOpesOneSided:
    def test_below_and_above(self):
        db = OpesOutsourcedDatabase(VALUES, seed=69)
        got = sorted(db.query(high=250).logical_ids.tolist())
        assert got == expected_below(250)
        got = sorted(db.query(low=250).logical_ids.tolist())
        assert got == expected_above(250)
        assert len(db.query().values) == len(VALUES)
