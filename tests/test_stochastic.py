"""Unit tests for stochastic (random-pivot) cracking."""

import numpy as np
import pytest

from repro.cracking.index import AdaptiveIndex
from repro.cracking.stochastic import StochasticAdaptiveIndex
from repro.workloads.generators import sequential_workload

from conftest import reference_positions


@pytest.fixture()
def values():
    rng = np.random.default_rng(11)
    return rng.permutation(20000).astype(np.int64)


class TestCorrectness:
    def test_matches_reference(self, small_values):
        index = StochasticAdaptiveIndex(
            small_values, ddr_piece_limit=64, seed=0
        )
        import random

        rng = random.Random(0)
        for _ in range(200):
            low = rng.randrange(0, 480)
            high = low + rng.randrange(0, 40)
            assert np.array_equal(
                np.sort(index.query(low, high)),
                reference_positions(small_values, low, high),
            )
        index.check_invariants()

    def test_invalid_limit_rejected(self, small_values):
        with pytest.raises(ValueError):
            StochasticAdaptiveIndex(small_values, ddr_piece_limit=1)

    def test_constant_column_terminates(self):
        index = StochasticAdaptiveIndex([7] * 100, ddr_piece_limit=4, seed=0)
        assert len(index.query(0, 10)) == 100
        index.check_invariants()


class TestRobustness:
    def test_sequential_workload_converges_faster(self, values):
        # Under a sequential sweep, plain cracking keeps touching a
        # huge tail piece; random pivots shrink pieces geometrically.
        domain = (0, 20000)
        queries = sequential_workload(60, domain, selectivity=0.005)
        plain = AdaptiveIndex(values.copy())
        stochastic = StochasticAdaptiveIndex(
            values.copy(), ddr_piece_limit=1024, seed=1
        )
        for query in queries:
            plain.query(*query.as_args())
            stochastic.query(*query.as_args())
        plain_touched = sum(s.cracked_rows for s in plain.stats_log[5:])
        stochastic_touched = sum(
            s.cracked_rows for s in stochastic.stats_log[5:]
        )
        assert stochastic_touched < plain_touched / 2

    def test_random_cracks_registered_in_tree(self, values):
        index = StochasticAdaptiveIndex(values, ddr_piece_limit=512, seed=2)
        index.query(100, 150)
        # The query introduces at most 2 bound cracks; the rest of the
        # tree are pivot cracks.
        assert len(index.cracks) > 2

    def test_pieces_bounded_after_first_query(self, values):
        limit = 2048
        index = StochasticAdaptiveIndex(values, ddr_piece_limit=limit, seed=3)
        index.query(5000, 5100)
        boundaries = index.piece_boundaries()
        sizes = np.diff(boundaries)
        # The pieces on the query path were shrunk below the limit.
        assert sizes.min() <= limit
