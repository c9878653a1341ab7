"""Unit tests for the positional-entropy leakage metric."""

import math

import numpy as np
import pytest

from repro.analysis.entropy import (
    ambiguous_rank_entropy,
    initial_rank_entropy,
    residual_rank_entropy,
)
from repro.core.session import OutsourcedDatabase


class TestResidualEntropy:
    def test_unqueried_column_is_log2_n(self):
        assert residual_rank_entropy([0, 1024], 1024) == pytest.approx(10.0)
        assert initial_rank_entropy(1024) == pytest.approx(10.0)

    def test_fully_cracked_is_zero(self):
        assert residual_rank_entropy(list(range(101)), 100) == 0.0

    def test_halving_costs_one_bit(self):
        whole = residual_rank_entropy([0, 256], 256)
        halves = residual_rank_entropy([0, 128, 256], 256)
        assert whole - halves == pytest.approx(1.0)

    def test_monotone_in_refinement(self):
        coarse = residual_rank_entropy([0, 100, 400], 400)
        fine = residual_rank_entropy([0, 50, 100, 400], 400)
        assert fine < coarse

    def test_weighted_by_piece_size(self):
        # A tiny fully-known piece barely reduces average uncertainty.
        skewed = residual_rank_entropy([0, 1, 1000], 1000)
        assert skewed == pytest.approx(
            (999 / 1000) * math.log2(999), rel=1e-9
        )

    def test_empty_column(self):
        assert residual_rank_entropy([0, 0], 0) == 0.0
        assert initial_rank_entropy(0) == 0.0

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ValueError):
            residual_rank_entropy([0, 50], 100)


class TestAmbiguousEntropy:
    def test_spans_both_pieces(self):
        # Two pieces of 4; a record with faces in different pieces has
        # log2(8) = 3 bits of rank uncertainty.
        boundaries = [0, 4, 8]
        per_logical = {0: (0, 1), 1: (2, 6)}
        positions = {i: i for i in range(8)}
        entropy = ambiguous_rank_entropy(
            boundaries, 8, per_logical, positions
        )
        # Record 0: both faces in piece 0 -> log2(4) = 2 bits.
        # Record 1: faces in both pieces -> log2(8) = 3 bits.
        assert entropy == pytest.approx((2.0 + 3.0) / 2)

    def test_floor_of_one_bit(self):
        # Even on a fully cracked column, two interpretations leave at
        # least one bit (which of the two single-row pieces is real?).
        boundaries = list(range(5))
        per_logical = {0: (0, 1), 1: (2, 3)}
        positions = {i: i for i in range(4)}
        entropy = ambiguous_rank_entropy(boundaries, 4, per_logical, positions)
        assert entropy == pytest.approx(1.0)

    def test_empty(self):
        assert ambiguous_rank_entropy([0, 0], 0, {}, {}) == 0.0


class TestEndToEndEntropy:
    def test_entropy_decreases_with_queries_but_ambiguity_keeps_more(self):
        values = np.random.default_rng(3).permutation(600)
        # Cracked to single rows, as the paper's engine is (a word-class
        # column's derived threshold would leave 600 rows uncracked).
        plain_db = OutsourcedDatabase(values, seed=4, min_piece_size=1)
        ambiguous_db = OutsourcedDatabase(values, ambiguity=True, seed=4)
        import random

        rng = random.Random(5)
        for _ in range(60):
            low = rng.randrange(0, 550)
            plain_db.query(low, low + 25)
            ambiguous_db.query(low, low + 25)

        plain_engine = plain_db.server.engine
        before = initial_rank_entropy(len(plain_engine.column))
        after = residual_rank_entropy(
            plain_engine.piece_boundaries(), len(plain_engine.column)
        )
        assert after < before / 2  # heavy structural leakage

        ambiguous_engine = ambiguous_db.server.engine
        ids = ambiguous_engine.column.row_ids
        positions = {int(rid): pos for pos, rid in enumerate(ids)}
        per_logical = {
            logical: (2 * logical, 2 * logical + 1)
            for logical in range(len(values))
        }
        targeted = ambiguous_rank_entropy(
            ambiguous_engine.piece_boundaries(),
            len(ambiguous_engine.column),
            per_logical,
            positions,
        )
        untargeted = residual_rank_entropy(
            ambiguous_engine.piece_boundaries(), len(ambiguous_engine.column)
        )
        # Identifying a record helps the adversary less under
        # ambiguity: targeted uncertainty exceeds the per-row residual.
        assert targeted > untargeted
        assert targeted >= 1.0
