"""Exact nullspaces of integer matrices.

Shared by the ambiguity layer (steering the fake branch of a
two-interpretation ciphertext onto a chosen counterfeit value, for the
value where the key's steering plan cannot pivot) and the
known-plaintext attack simulations.  Both pose homogeneous systems with
integer coefficients and read only the solution space, so the one
elimination here is fraction-free Gauss-Jordan over Python ints: every
intermediate entry is a minor of the input, every division is exact,
and no :class:`fractions.Fraction` is ever built.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def integer_nullspace(
    rows: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], int]:
    """Basis of ``{x : A x = 0}`` for an integer matrix, in integers.

    Returns ``(basis, scale)``: ``basis / scale`` is the nullspace
    basis read off the reduced row echelon form of ``A`` — one vector
    per free column ``f`` (leftmost independent columns are the
    pivots), holding 1 at ``f``, 0 at every other free column and
    ``-rref[r][f]`` at the pivot column of row ``r``.  ``scale`` is a
    positive integer common to the whole basis, so ``basis[k][f_k] ==
    scale``.  The RREF of a matrix is unique, hence so is
    ``basis / scale``; ``scale`` itself (a minor of ``A`` over the
    pivot columns) is not when ``A`` is rank deficient.

    Raises:
        ValueError: rows of different lengths.
    """
    matrix = [list(row) for row in rows]
    unknowns = len(matrix[0]) if matrix else 0
    if any(len(row) != unknowns for row in matrix):
        raise ValueError("ragged coefficient matrix")

    # Bareiss' update applied to every other row (Gauss-Jordan): after
    # each step the pivot rows all carry the newest pivot in their
    # pivot column and zero in the others', and dividing by the pivot
    # before it is exact.
    height = len(matrix)
    pivot_cols: List[int] = []
    scale = 1
    for col in range(unknowns):
        rank = len(pivot_cols)
        if rank == height:
            break
        pivot_row = next(
            (r for r in range(rank, height) if matrix[r][col]), None
        )
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot_line = matrix[rank]
        pivot = pivot_line[col]
        for r, row in enumerate(matrix):
            if r != rank:
                factor = row[col]
                matrix[r] = [
                    (pivot * x - factor * y) // scale
                    for x, y in zip(row, pivot_line)
                ]
        scale = pivot
        pivot_cols.append(col)

    sign = -1 if scale < 0 else 1
    basis: List[List[int]] = []
    for free in range(unknowns):
        if free in pivot_cols:
            continue
        vector = [0] * unknowns
        vector[free] = sign * scale
        for r, col in enumerate(pivot_cols):
            vector[col] = -sign * matrix[r][free]
        basis.append(vector)
    return basis, sign * scale
