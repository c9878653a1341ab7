"""Dense exact integer matrices.

Matrices are tuples of row tuples of Python ints.  The encryption scheme
(paper, Section 3.3) needs an invertible secret matrix ``M`` whose
inverse is applied at encryption time; we generate *unimodular* matrices
(determinant +/-1) as products of elementary integer row operations so
that ``M^-1`` is itself an integer matrix and every ciphertext component
stays an exact integer.

:func:`determinant` (fraction-free) is what the ambiguity layer reads
its per-key steering plan off: 3 x 3 minors of the steering system
(:mod:`repro.crypto.scheme`).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.linalg.vectors import IntVector

IntMatrix = Tuple[Tuple[int, ...], ...]


def identity(n: int) -> IntMatrix:
    """Return the ``n x n`` identity matrix."""
    return tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


def mat_transpose(m: IntMatrix) -> IntMatrix:
    """Return the transpose of ``m``."""
    return tuple(zip(*m))


def mat_vec(m: IntMatrix, v: Sequence[int]) -> IntVector:
    """Return the matrix-vector product ``m @ v``."""
    if m and len(m[0]) != len(v):
        raise ValueError(
            "matrix has %d columns but vector has length %d" % (len(m[0]), len(v))
        )
    return tuple(sum(mij * vj for mij, vj in zip(row, v)) for row in m)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Return the matrix product ``a @ b``."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    bt = mat_transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def determinant(m: IntMatrix) -> int:
    """Return the exact determinant of a square integer matrix.

    Uses the Bareiss fraction-free elimination algorithm, which keeps
    all intermediate values integral.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    a: List[List[int]] = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def random_unimodular(
    n: int,
    rng: random.Random,
    operations: int = None,
    coefficient_bound: int = 8,
) -> Tuple[IntMatrix, IntMatrix]:
    """Generate a random unimodular matrix ``M`` and its inverse.

    ``M`` is built as a product of random elementary integer row
    operations (row addition with a small integer coefficient, row
    swaps, row negations), each of which has determinant +/-1, so
    ``det(M) = +/-1`` and ``M^-1`` is integral.  The inverse is
    maintained incrementally by applying the inverse operation on the
    other side, so no matrix inversion is ever performed.

    Args:
        n: matrix dimension (the ciphertext length ``l``).
        rng: source of randomness.
        operations: number of elementary operations to compose;
            defaults to ``4 * n`` which empirically mixes all entries.
        coefficient_bound: row-addition coefficients are drawn from
            ``[-coefficient_bound, coefficient_bound] \\ {0}``.

    Returns:
        ``(M, M_inv)`` with ``mat_mul(M, M_inv) == identity(n)``.
    """
    if n < 1:
        raise ValueError("matrix dimension must be positive")
    if operations is None:
        operations = 4 * n
    m: List[List[int]] = [list(row) for row in identity(n)]
    m_inv: List[List[int]] = [list(row) for row in identity(n)]
    for _ in range(operations):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            # Row addition: row_i += c * row_j  (on M); the inverse
            # absorbs the opposite operation on columns: col_j -= c * col_i.
            i, j = rng.sample(range(n), 2)
            c = rng.choice(
                [k for k in range(-coefficient_bound, coefficient_bound + 1) if k]
            )
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
            for row in m_inv:
                row[j] -= c * row[i]
        elif kind == 1 and n >= 2:
            # Row swap on M; column swap on M^-1.
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
            for row in m_inv:
                row[i], row[j] = row[j], row[i]
        else:
            # Row negation on M; column negation on M^-1.
            i = rng.randrange(n)
            m[i] = [-a for a in m[i]]
            for row in m_inv:
                row[i] = -row[i]
    return tuple(tuple(row) for row in m), tuple(tuple(row) for row in m_inv)
