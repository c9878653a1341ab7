"""Exact integer vector operations.

Vectors are plain tuples of Python ints.  Python integers are arbitrary
precision, so every operation here is exact — this is the reproduction's
substitute for the paper's use of the GNU MP library (Section 5 of the
paper: "we require high arithmetic precision").

All functions are pure and allocate fresh tuples; nothing is mutated.
"""

from __future__ import annotations

import operator
import random
from typing import Sequence, Tuple

IntVector = Tuple[int, ...]


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    """Return the exact scalar product of two equal-length vectors.

    This is the single operation the server performs to compare an
    encrypted bound against an encrypted value (paper, Section 3):
    ``Eb(b) . Ev(v) = xi(v) * (v - b)``.

    Raises:
        ValueError: if the vectors differ in length.
    """
    if len(a) != len(b):
        raise ValueError(
            "dot product requires equal lengths, got %d and %d" % (len(a), len(b))
        )
    return sum(map(operator.mul, a, b))


def scale(a: Sequence[int], factor: int) -> IntVector:
    """Return ``factor * a`` as a fresh tuple."""
    return tuple(factor * x for x in a)


def vec_add(a: Sequence[int], b: Sequence[int]) -> IntVector:
    """Return the component-wise sum ``a + b``."""
    if len(a) != len(b):
        raise ValueError("vector addition requires equal lengths")
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Sequence[int], b: Sequence[int]) -> IntVector:
    """Return the component-wise difference ``a - b``."""
    if len(a) != len(b):
        raise ValueError("vector subtraction requires equal lengths")
    return tuple(x - y for x, y in zip(a, b))


def is_zero(a: Sequence[int]) -> bool:
    """Return True if every component of ``a`` is zero."""
    return all(x == 0 for x in a)


def orthogonal_vector(
    u: Sequence[int],
    rng: random.Random,
    magnitude: int = 1 << 16,
    max_attempts: int = 64,
) -> IntVector:
    """Sample a nonzero integer vector orthogonal to ``u``.

    The paper's noise layer (Section 3.1) embeds into each encrypted
    value vector a noisy subvector ``n_v`` orthogonal to the secret
    direction ``u``; the orientation of ``n_v`` is free ("any vector
    orthogonal to u will suffice").  We project a uniformly random
    integer vector ``w`` onto the orthogonal complement of ``u`` while
    staying in the integers::

        n = (u . u) * w - (u . w) * u

    which satisfies ``u . n = 0`` exactly.

    No encryption path calls this any more:
    :meth:`repro.crypto.scheme.Encryptor._draw` reads the generator in
    the same order with the per-``u`` work (``u . u``, the collinearity
    test, the fallback vector) done once per key.  It stays as the
    plain statement of the construction — the reference the tests hold
    that path to, draw for draw.

    Args:
        u: the secret direction (nonzero).
        rng: source of randomness (caller-owned for reproducibility).
        magnitude: components of ``w`` are drawn from
            ``[-magnitude, magnitude]``.
        max_attempts: resampling budget in case ``w`` lands collinear
            with ``u`` (which would project to the zero vector).

    Returns:
        A nonzero integer vector ``n`` with ``dot(u, n) == 0``.  For a
        length-1 ``u`` the only orthogonal vector is zero, in which case
        the zero vector *is* returned (the caller decides whether a
        degenerate noise subvector is acceptable; the default key sizes
        never hit this case).

    Raises:
        ValueError: if ``u`` is the zero vector.
    """
    if is_zero(u):
        raise ValueError("cannot sample a vector orthogonal to the zero vector")
    if len(u) == 1:
        # The orthogonal complement of a nonzero scalar is {0}.
        return (0,)
    uu = dot(u, u)
    for _ in range(max_attempts):
        w = tuple(rng.randint(-magnitude, magnitude) for _ in range(len(u)))
        uw = dot(u, w)
        n = tuple(uu * wi - uw * ui for wi, ui in zip(w, u))
        if not is_zero(n):
            return n
    # Deterministic fallback: swap two coordinates of u with a sign flip.
    # (u_j, -u_i) at positions (i, j) is orthogonal to (u_i, u_j).
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] != 0 or u[j] != 0:
                n_list = [0] * len(u)
                n_list[i] = u[j]
                n_list[j] = -u[i]
                if not is_zero(n_list):
                    return tuple(n_list)
    raise ValueError("failed to sample an orthogonal vector")  # pragma: no cover
