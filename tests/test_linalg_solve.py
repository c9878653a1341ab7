"""Unit tests for the fraction-free integer nullspace."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.solve import integer_nullspace
from repro.linalg.vectors import dot


def free_columns(rows):
    """Columns that depend on the columns to their left — what RREF
    leaves without a pivot — by incremental (float, small-entry) rank."""
    matrix = np.array(rows, dtype=float)
    free, rank = [], 0
    for column in range(matrix.shape[1]):
        grown = int(np.linalg.matrix_rank(matrix[:, :column + 1]))
        if grown == rank:
            free.append(column)
        rank = grown
    return free


def check_nullspace(rows, basis, scale):
    """Everything the contract promises, given only ``rows``."""
    assert scale > 0
    for vector in basis:
        assert len(vector) == len(rows[0])
        for row in rows:
            assert dot(row, vector) == 0
    free = free_columns(rows)
    assert len(basis) == len(free)
    # Free-column normal form: vector k holds ``scale`` at its own
    # free column, zero at the others', and (pivots being the leftmost
    # independent columns) nothing to the right of it.
    for k, vector in enumerate(basis):
        assert [vector[column] for column in free] == [
            scale if j == k else 0 for j in range(len(free))
        ]
        assert not any(vector[free[k] + 1:])


small_matrices = st.integers(1, 4).flatmap(
    lambda height: st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(-9, 9), min_size=width, max_size=width),
            min_size=height, max_size=height,
        )
    )
)


class TestSolveAffine:
    """Homogeneous systems directly, and affine ones ``A x = b``
    homogenised as ``[A | -b]`` — the way the bound-recovery attack
    poses them: the solution is ``basis / scale`` at constant 1."""

    def test_homogeneous_system(self):
        assert integer_nullspace([[1, -1]]) == ([[1, 1]], 1)

    def test_underdetermined_nullspace(self):
        basis, scale = integer_nullspace([[1, 1, 0]])
        assert (basis, scale) == ([[-1, 1, 0], [0, 0, 1]], 1)

    def test_nullspace_vectors_satisfy_homogeneous_system(self):
        rows = [[1, 2, 3, 4], [0, 1, 1, 0]]
        basis, scale = integer_nullspace(rows)
        assert len(basis) == 2
        check_nullspace(rows, basis, scale)

    def test_scale_is_the_pivot_minor(self):
        rows = [[2, 0, 4], [0, 3, 9]]
        basis, scale = integer_nullspace(rows)
        assert (basis, scale) == ([[-12, -18, 6]], 6)
        check_nullspace(rows, basis, scale)

    def test_negative_pivot_still_gives_a_positive_scale(self):
        assert integer_nullspace([[-3, 1]]) == ([[1, 3]], 3)

    def test_unique_solution(self):
        # Full column rank: only the zero vector, an empty basis.
        assert integer_nullspace([[2, 0], [0, 3]]) == ([], 6)

    def test_more_rows_than_unknowns_consistent(self):
        assert integer_nullspace([[1], [2], [3]]) == ([], 1)

    def test_redundant_rows_are_fine(self):
        rows = [[1, 1], [2, 2], [-3, -3]]
        basis, scale = integer_nullspace(rows)
        assert len(basis) == 1
        check_nullspace(rows, basis, scale)

    def test_zero_columns_become_free(self):
        assert integer_nullspace([[0, 1]]) == ([[1, 0]], 1)

    def test_all_zero_rows(self):
        basis, scale = integer_nullspace([[0, 0, 0], [0, 0, 0]])
        assert (basis, scale) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1)

    def test_pivot_skips_a_dependent_leading_column(self):
        # Columns 0 and 1 are parallel: the pivots are 0 and 2.
        rows = [[1, 2, 0, 5], [2, 4, 1, 7]]
        basis, scale = integer_nullspace(rows)
        assert free_columns(rows) == [1, 3]
        assert (basis[0][1], basis[1][3]) == (scale, scale)
        check_nullspace(rows, basis, scale)

    def test_exact_fractions(self):
        # 3x = 1, homogenised: x = 1/3 at constant 1.
        assert integer_nullspace([[3, -1]]) == ([[1, 3]], 3)

    def test_inconsistent_returns_none(self):
        # x + y = 1 and x + y = 2, homogenised: the constant's column
        # takes a pivot, so no nullspace vector has a nonzero constant
        # to normalise — there is no solution to read off.
        basis, scale = integer_nullspace([[1, 1, -1], [1, 1, -2]])
        assert [vector[2] for vector in basis] == [0]

    def test_no_rows(self):
        assert integer_nullspace([]) == ([], 1)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            integer_nullspace([[1, 2], [1]])

    def test_big_integers_stay_exact(self):
        rows = [[2 ** 70 + 1, -(3 ** 40), 7], [5, 2 ** 65, -(2 ** 90) + 3]]
        basis, scale = integer_nullspace(rows)
        assert len(basis) == 1 and all(type(x) is int for x in basis[0])
        assert basis[0][2] == scale > 0
        assert all(dot(row, basis[0]) == 0 for row in rows)

    @given(rows=small_matrices)
    @settings(max_examples=300, deadline=None)
    def test_contract_on_random_matrices(self, rows):
        basis, scale = integer_nullspace(rows)
        check_nullspace(rows, basis, scale)

    @given(
        factors=st.lists(
            st.lists(st.integers(-5, 5), min_size=2, max_size=2),
            min_size=3, max_size=4,
        ),
        generators=st.lists(
            st.lists(st.integers(-9, 9), min_size=6, max_size=6),
            min_size=2, max_size=2,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_contract_on_rank_deficient_matrices(self, factors, generators):
        # Three or four rows spanned by two generators: rank <= 2.
        rows = [
            [a * x + b * y for x, y in zip(*generators)] for a, b in factors
        ]
        basis, scale = integer_nullspace(rows)
        assert len(basis) >= 4
        check_nullspace(rows, basis, scale)
