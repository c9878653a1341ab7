"""Tests for the analytic convergence model and transfer accounting."""

import numpy as np
import pytest

from repro.bench.cost_model import (
    convergence_horizon,
    expected_crack_comparisons,
    expected_cumulative_comparisons,
    expected_piece_count,
    measure_against_model,
    model_accuracy,
)
from repro.net.binframe import bigint_run
from repro.net.protocol import QueryRequest, encode


class TestFormulas:
    def test_piece_count(self):
        assert expected_piece_count(0) == 1
        assert expected_piece_count(1) == 3
        assert expected_piece_count(10) == 21

    def test_piece_count_negative_rejected(self):
        with pytest.raises(ValueError):
            expected_piece_count(-1)

    def test_crack_comparisons_decay(self):
        costs = [expected_crack_comparisons(1000, q) for q in range(1, 10)]
        assert costs == sorted(costs, reverse=True)
        assert costs[0] == 2000.0

    def test_crack_comparisons_one_based(self):
        with pytest.raises(ValueError):
            expected_crack_comparisons(1000, 0)

    def test_cumulative_is_harmonic(self):
        assert expected_cumulative_comparisons(100, 1) == 200.0
        assert expected_cumulative_comparisons(100, 2) == 300.0
        # Sub-linear growth: doubling queries adds ever less.
        ten = expected_cumulative_comparisons(100, 10)
        twenty = expected_cumulative_comparisons(100, 20)
        forty = expected_cumulative_comparisons(100, 40)
        assert twenty - ten > forty - twenty or np.isclose(
            twenty - ten, forty - twenty, rtol=0.2
        )

    def test_convergence_horizon(self):
        assert convergence_horizon(1000, 1000) == 0
        assert convergence_horizon(1000, 100) == 5
        with pytest.raises(ValueError):
            convergence_horizon(1000, 0)


class TestModelAgainstMeasurement:
    @pytest.fixture(scope="class")
    def series(self):
        return measure_against_model(
            column_size=5000, query_count=100, seed=1
        )

    def test_tracks_within_factor_two(self, series):
        assert model_accuracy(series) <= 1.0

    def test_first_query_near_2n(self, series):
        # First query cracks the whole column twice-ish (two bounds).
        assert 5000 <= series["measured"][0] <= 2.2 * 5000

    def test_decay_matches_direction(self, series):
        measured = np.asarray(series["measured"])
        assert measured[-20:].mean() < measured[:5].mean() / 5

    def test_accuracy_requires_window(self, series):
        with pytest.raises(ValueError):
            model_accuracy({"measured": [1.0], "predicted": [1.0]}, window=10)


def wire_bytes(ciphertext) -> int:
    """Encoded length of one ciphertext's integers as a frame's run
    holds them (a query's ``eb`` / ``ev`` runs, a snapshot's cracks)."""
    if hasattr(ciphertext, "vector"):
        return len(bigint_run(list(ciphertext.vector)))
    return len(bigint_run([*ciphertext.numerators, ciphertext.denominator]))


class TestTransferAccounting:
    """Sizes are measured frame lengths; nothing estimates them."""

    def test_ciphertext_sizes_positive_and_ordered(self, encryptor, encryptor8):
        small = encryptor.encrypt_value(5)
        large = encryptor8.encrypt_value(5)
        assert wire_bytes(large) > wire_bytes(small) > 0  # l=8 vs l=4

    def test_bound_and_ambiguous_sizes(self, encryptor):
        assert wire_bytes(encryptor.encrypt_bound(5)) > 0
        ambiguous = encryptor.encrypt_value_ambiguous(5)
        prefix, __ = ambiguous.interpretations()
        assert wire_bytes(ambiguous) > wire_bytes(prefix)

    def test_query_size_counts_all_parts(self):
        from repro.core.client import TrustedClient

        def frame_bytes(query):
            request = QueryRequest(column="c", query=query)
            return len(encode(request))

        client = TrustedClient(seed=1)
        two_sided = frame_bytes(client.make_query(1, 10))
        one_sided = frame_bytes(client.make_query(high=10))
        with_pivots = frame_bytes(client.make_query(1, 10, pivots=(5,)))
        assert one_sided < two_sided < with_pivots

    def test_session_accounting(self):
        from repro.core.session import OutsourcedDatabase

        db = OutsourcedDatabase(list(range(100)), seed=2)
        db.query(10, 20)
        db.query(30, 40)
        counted = db.obs.metrics.counter_value
        assert db.bytes_sent > 0
        assert counted("server.bytes_shipped") > db.bytes_received > 0
        assert counted("server.rows_shipped") == 22
