"""Exact integer/rational linear algebra substrate.

The paper's prototype relies on the GNU MP library for exact arithmetic
(Section 5); this package provides the equivalent on top of Python's
arbitrary-precision integers:

* :mod:`repro.linalg.vectors` — dot products, scaling, sampling of
  integer vectors orthogonal to a secret direction.
* :mod:`repro.linalg.intmat` — dense integer matrices, fraction-free
  determinants, and random unimodular matrix generation (so that the
  key matrix inverse is itself integral).
* :mod:`repro.linalg.structured` — the structured matrices of the
  paper's Table 1 (expansion, permutation, complementary permutation,
  and cyclic shift), used by the ambiguity layer.
* :mod:`repro.linalg.solve` — the fraction-free integer nullspace
  behind counterfeit steering and the known-plaintext attacks.
"""

from repro.linalg.vectors import (
    dot,
    is_zero,
    orthogonal_vector,
    scale,
    vec_add,
    vec_sub,
)
from repro.linalg.intmat import (
    identity,
    mat_mul,
    mat_vec,
    mat_transpose,
    random_unimodular,
    determinant,
)
from repro.linalg.structured import (
    expansion_matrix,
    permutation_matrix,
    complementary_permutation_matrix,
    shift_matrix,
    apply_matrix,
)

__all__ = [
    "dot",
    "is_zero",
    "orthogonal_vector",
    "scale",
    "vec_add",
    "vec_sub",
    "identity",
    "mat_mul",
    "mat_vec",
    "mat_transpose",
    "random_unimodular",
    "determinant",
    "expansion_matrix",
    "permutation_matrix",
    "complementary_permutation_matrix",
    "shift_matrix",
    "apply_matrix",
]
