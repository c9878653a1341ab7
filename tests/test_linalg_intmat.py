"""Unit tests for exact integer matrices."""

import random

import pytest

from repro.linalg.intmat import (
    determinant,
    identity,
    mat_mul,
    mat_transpose,
    mat_vec,
    random_unimodular,
)


class TestBasics:
    def test_identity(self):
        assert identity(2) == ((1, 0), (0, 1))

    def test_transpose(self):
        assert mat_transpose(((1, 2, 3), (4, 5, 6))) == ((1, 4), (2, 5), (3, 6))

    def test_mat_vec(self):
        assert mat_vec(((1, 2), (3, 4)), (5, 6)) == (17, 39)

    def test_mat_vec_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_vec(((1, 2),), (1, 2, 3))

    def test_mat_mul(self):
        a = ((1, 2), (3, 4))
        b = ((0, 1), (1, 0))
        assert mat_mul(a, b) == ((2, 1), (4, 3))

    def test_mat_mul_identity(self):
        a = ((7, -3), (2, 9))
        assert mat_mul(a, identity(2)) == a
        assert mat_mul(identity(2), a) == a

    def test_mat_mul_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(((1, 2),), ((1, 2),))


class TestDeterminant:
    def test_identity(self):
        assert determinant(identity(5)) == 1

    def test_known_2x2(self):
        assert determinant(((2, 3), (1, 4))) == 5

    def test_known_3x3(self):
        assert determinant(((1, 2, 3), (4, 5, 6), (7, 8, 10))) == -3

    def test_singular(self):
        assert determinant(((1, 2), (2, 4))) == 0

    def test_row_swap_changes_sign(self):
        assert determinant(((0, 1), (1, 0))) == -1

    def test_zero_pivot_recovery(self):
        m = ((0, 2, 1), (1, 0, 0), (0, 0, 3))
        assert determinant(m) == -6

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(((1, 2, 3), (4, 5, 6)))

    def test_empty(self):
        assert determinant(()) == 1

    def test_matches_cofactor_on_random(self):
        rng = random.Random(7)
        for _ in range(20):
            m = tuple(
                tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3)
            )
            expected = (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
            assert determinant(m) == expected


class TestRandomUnimodular:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
    def test_inverse_is_exact(self, n):
        rng = random.Random(n)
        m, m_inv = random_unimodular(n, rng)
        assert mat_mul(m, m_inv) == identity(n)
        assert mat_mul(m_inv, m) == identity(n)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_determinant_is_unit(self, n):
        rng = random.Random(n + 100)
        m, __ = random_unimodular(n, rng)
        assert determinant(m) in (1, -1)

    def test_mixes_entries(self):
        rng = random.Random(0)
        m, __ = random_unimodular(6, rng)
        off_diagonal = [m[i][j] for i in range(6) for j in range(6) if i != j]
        assert any(x != 0 for x in off_diagonal)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            random_unimodular(0, random.Random(0))

    def test_deterministic_given_seed(self):
        m1, __ = random_unimodular(4, random.Random(5))
        m2, __ = random_unimodular(4, random.Random(5))
        assert m1 == m2
