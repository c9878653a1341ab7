"""Ciphertext containers.

Three ciphertext kinds exist in the system, plus the row-set container
every layer passes them around in:

* :class:`ValueCiphertext` — an attribute value encrypted in mode
  ``Ev`` (paper, Section 3.3): an integer vector of length ``l``
  together with a positive common denominator (1 except for rows
  derived from ambiguity vectors).  These are the rows the server
  stores, cracks, and returns.
* :class:`BoundCiphertext` — a query bound encrypted in mode ``Eb``;
  always integral.  Comparable against value ciphertexts only.
* :class:`AmbiguousCiphertext` — the length-``(l+1)`` vector of
  Section 4.2, whose ``l``-prefix and ``l``-suffix are *both* valid
  value rows; exactly one (secret) branch is real.
* :class:`RowBlock` — a *set* of value rows as what it is (paper §3.3,
  §4.2, §5.4): an ``n x l`` integer numerator matrix plus a denominator
  vector.  The server's column hands out blocks by one fancy index, the
  wire ships a block as one flat integer run, and the client opens one
  with a single matrix product; a :class:`ValueCiphertext` is the
  one-row view of it.

All containers are immutable.  Because denominators are positive, the
sign of a scalar product over the numerators equals the sign of the
exact rational product — the only fact cracking relies on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

import numpy as np

from repro.linalg.vectors import IntVector, dot


@dataclass(frozen=True)
class ValueCiphertext:
    """An ``Ev``-mode row: integer numerators over a positive denominator."""

    numerators: IntVector
    denominator: int = 1

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise ValueError("ciphertext denominator must be positive")

    @property
    def length(self) -> int:
        """Ciphertext length ``l``."""
        return len(self.numerators)


@dataclass(frozen=True)
class BoundCiphertext:
    """An ``Eb``-mode query bound; integral by construction."""

    vector: IntVector

    @property
    def length(self) -> int:
        """Ciphertext length ``l``."""
        return len(self.vector)

    def product_sign(self, value: ValueCiphertext) -> int:
        """Sign of ``Eb(b) . Ev(v)``, i.e. of ``xi(v) * (v - b)``.

        Returns -1, 0, or +1.  This is the only comparison primitive
        the server possesses (paper requirement 1-3): it never reveals
        the magnitude of ``v - b`` (Section 3.2) and cannot be applied
        between two values or two bounds.
        """
        product = dot(self.vector, value.numerators)
        if product > 0:
            return 1
        if product < 0:
            return -1
        return 0


@dataclass(frozen=True)
class AmbiguousCiphertext:
    """The length-``(l+1)`` two-interpretation vector of Section 4.2.

    The server derives both the prefix and the suffix interpretation and
    manages each as an independent row; only the key holder can tell
    which one is real (the branch whose decrypted multiplier ``xi`` is
    an odd positive integer).
    """

    numerators: IntVector
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise ValueError("ciphertext denominator must be positive")
        if len(self.numerators) < 4:
            raise ValueError("ambiguous ciphertexts have length l + 1 >= 4")

    @property
    def length(self) -> int:
        """Underlying ciphertext length ``l`` (stored vector is ``l + 1``)."""
        return len(self.numerators) - 1

    def interpretations(self) -> Tuple[ValueCiphertext, ValueCiphertext]:
        """Return the two possible rows: ``(l-prefix, l-suffix)``.

        Both pass the scheme's structural checks; the server cannot
        distinguish them (the owner randomises which end carries the
        real row at encryption time).
        """
        prefix = ValueCiphertext(self.numerators[:-1], self.denominator)
        suffix = ValueCiphertext(self.numerators[1:], self.denominator)
        return prefix, suffix


class RowBlock(Sequence):
    """A set of ``Ev``-mode rows: numerator matrix + denominator vector.

    ``numerators`` is an ``n x l`` object-dtype matrix of Python ints
    (row ``i`` is the numerator vector of row ``i``) and
    ``denominators`` the parallel length-``n`` vector of positive ints.
    The block behaves as a ``Sequence[ValueCiphertext]`` — ``len``,
    iteration, indexing and equality against any other row sequence —
    but builds a :class:`ValueCiphertext` only when a caller asks for
    one row, so the query path never does.  Immutable like the other
    containers: the block marks both arrays read-only.
    """

    __slots__ = ("numerators", "denominators")

    def __init__(self, numerators: np.ndarray, denominators: np.ndarray) -> None:
        if numerators.ndim != 2 or denominators.shape != numerators.shape[:1]:
            raise ValueError(
                "a row block is an n x l matrix with n denominators"
            )
        if len(denominators) and min(denominators.tolist()) <= 0:
            raise ValueError("ciphertext denominator must be positive")
        numerators.flags.writeable = False
        denominators.flags.writeable = False
        self.numerators = numerators
        self.denominators = denominators

    @classmethod
    def from_rows(cls, rows: Iterable[ValueCiphertext]) -> "RowBlock":
        """The block holding ``rows`` (itself when already a block).

        Raises:
            ValueError: rows of different ciphertext lengths, or
                something that is not a :class:`ValueCiphertext`.
        """
        if isinstance(rows, RowBlock):
            return rows
        rows = list(rows)
        if not all(type(row) is ValueCiphertext for row in rows):
            raise ValueError("a row block holds value ciphertexts only")
        length = rows[0].length if rows else 0
        if any(row.length != length for row in rows):
            raise ValueError("rows must share one ciphertext length")
        numerators = np.empty((len(rows), length), dtype=object)
        if rows and length:
            numerators[:] = [row.numerators for row in rows]
        denominators = np.empty(len(rows), dtype=object)
        denominators[:] = [row.denominator for row in rows]
        return cls(numerators, denominators)

    @classmethod
    def concatenate(cls, blocks: Iterable["RowBlock"]) -> "RowBlock":
        """One block of all the rows of ``blocks``, in order (empty
        blocks — whatever their width — contribute nothing)."""
        blocks = list(blocks)
        parts = [block for block in blocks if len(block)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return blocks[0] if blocks else cls.from_rows(())
        if len({block.length for block in parts}) > 1:
            raise ValueError("rows must share one ciphertext length")
        return cls(
            np.concatenate([block.numerators for block in parts]),
            np.concatenate([block.denominators for block in parts]),
        )

    @property
    def length(self) -> int:
        """Ciphertext length ``l`` (0 for a block that never held a row)."""
        return self.numerators.shape[1]

    def take(self, indices) -> "RowBlock":
        """The rows at ``indices`` (any numpy index: positions or a
        boolean mask), as a new block."""
        return RowBlock(self.numerators[indices], self.denominators[indices])

    def __len__(self) -> int:
        return self.numerators.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        return ValueCiphertext(
            tuple(self.numerators[index]), self.denominators[index]
        )

    def __iter__(self) -> Iterator[ValueCiphertext]:
        for numerators, denominator in zip(
            self.numerators.tolist(), self.denominators.tolist()
        ):
            yield ValueCiphertext(tuple(numerators), denominator)

    def __add__(self, other) -> "RowBlock":
        if not isinstance(other, (RowBlock, list, tuple)):
            return NotImplemented
        return RowBlock.concatenate((self, RowBlock.from_rows(other)))

    def __eq__(self, other) -> bool:
        if isinstance(other, RowBlock):
            return (
                len(self) == len(other)
                and self.numerators.tolist() == other.numerators.tolist()
                and self.denominators.tolist() == other.denominators.tolist()
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return "RowBlock(rows=%d, length=%d)" % (len(self), self.length)
