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
  §4.2, §5.4): one fixed-width word array, ``l`` numerators and a
  denominator per row, each a few ``uint64`` limbs.  The owner's
  encryption produces it, the server's column hands out blocks by one
  fancy index, the wire ships its bytes, and the client opens one with
  a single word-sized matrix product; a :class:`ValueCiphertext` is the
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

from repro.linalg.limbs import (
    bit_length,
    common_width,
    from_ints,
    limb_count,
    to_objects,
    widen,
)
from repro.linalg.vectors import IntVector, dot

_SIGN_SHIFT = np.uint64(63)


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


def flatten_rows(rows: Iterable[ValueCiphertext]):
    """``(length, numerators, denominators)`` of a sequence of value
    ciphertexts, in the Python ints they hold: the numerators as one
    flat row-major list, the denominators as another.

    Raises:
        ValueError: rows of different ciphertext lengths, or something
            that is not a :class:`ValueCiphertext`.
    """
    rows = list(rows)
    if not all(type(row) is ValueCiphertext for row in rows):
        raise ValueError("a row block holds value ciphertexts only")
    length = rows[0].length if rows else 0
    if any(row.length != length for row in rows):
        raise ValueError("rows must share one ciphertext length")
    return (
        length,
        [x for row in rows for x in row.numerators],
        [row.denominator for row in rows],
    )


class RowBlock(Sequence):
    """A set of ``Ev``-mode rows as one word array.

    ``limbs`` is an ``n x (l + 1) x k`` array of ``uint64`` limbs
    (:mod:`repro.linalg.limbs`: two's complement, least significant
    first, ``k`` read off the widest integer): row ``i`` is
    ``limbs[i]``, its ``l`` numerators followed by its positive
    denominator.  That array is the block — the owner's encryption
    produces it, the server's column stores, permutes and gathers it,
    a binary frame carries its bytes and the client opens it in words —
    so taking, concatenating and comparing blocks are fixed-width array
    operations.  The block behaves as a ``Sequence[ValueCiphertext]`` —
    ``len``, iteration, indexing and equality against any other row
    sequence — but makes Python ints only when a caller asks for a row,
    so the query path never does.  Immutable like the other containers:
    the block marks its array read-only.

    ``numerator_bits`` is the largest bit-length among the numerators
    where whoever built the block measured it (:meth:`stack`, the
    owner's encryption, does), else None — so the frame codec need not
    measure it again.
    """

    __slots__ = ("limbs", "numerator_bits")

    def __init__(self, limbs: np.ndarray) -> None:
        if limbs.ndim != 3 or limbs.dtype != np.uint64 or not limbs.shape[1]:
            raise ValueError(
                "a row block is an n x (l + 1) x k array of uint64 limbs"
            )
        denominators = limbs[:, -1]
        if (denominators[:, -1] >> _SIGN_SHIFT).any() or not (
            denominators.any(axis=1).all()
        ):
            raise ValueError("ciphertext denominator must be positive")
        limbs.flags.writeable = False
        self.limbs = limbs
        self.numerator_bits = None

    @classmethod
    def _of(cls, limbs: np.ndarray, numerator_bits: int = None) -> "RowBlock":
        """The block over ``limbs`` cut from blocks already checked (or
        built with denominators of one): nothing to validate again."""
        block = cls.__new__(cls)
        limbs.flags.writeable = False
        block.limbs = limbs
        block.numerator_bits = numerator_bits
        return block

    @classmethod
    def from_ints(
        cls, length: int, numerators: Sequence[int], denominators: Sequence[int]
    ) -> "RowBlock":
        """The block of ``len(denominators)`` rows whose numerators are
        the flat row-major run ``numerators`` (``length`` per row) —
        Python ints in, limbs out, in one conversion."""
        if len(denominators) and min(denominators) <= 0:
            raise ValueError("ciphertext denominator must be positive")
        rows = []
        for row, denominator in enumerate(denominators):
            rows += numerators[row * length:(row + 1) * length]
            rows.append(denominator)
        limbs = from_ints(rows)
        return cls._of(
            limbs.reshape(len(denominators), length + 1, limbs.shape[1])
        )

    @classmethod
    def from_limbs(
        cls, length: int, numerators: np.ndarray, denominators: np.ndarray = None
    ) -> "RowBlock":
        """The block of ``n x length x k`` numerator limbs over
        ``n x k'`` denominator limbs (all ones when omitted)."""
        rows = len(numerators)
        k = numerators.shape[-1]
        if denominators is not None:
            k = max(k, denominators.shape[-1])
        block = np.empty((rows, length + 1, k), dtype=np.uint64)
        block[:, :length] = widen(numerators, k)
        if denominators is None:
            block[:, length] = 0
            block[:, length, 0] = 1
            return cls._of(block)
        block[:, length] = widen(denominators, k)
        return cls(block)

    @classmethod
    def stack(cls, length: int, parts: Sequence[np.ndarray]) -> "RowBlock":
        """The block of the rows whose numerators are the limbs of
        ``parts`` (``n_i x length x k_i`` each, in order) over
        denominators of one, every integer in the fewest limbs that hold
        the widest as :func:`~repro.linalg.limbs.from_ints` counts them:
        one pass measures the parts, one writes the block."""
        if not parts:
            return cls.from_ints(length, (), ())
        bits = max(map(bit_length, parts))
        k = limb_count(bits)
        block = np.empty(
            (sum(map(len, parts)), length + 1, k), dtype=np.uint64
        )
        start = 0
        for part in parts:
            rows = block[start:start + len(part), :length]
            part = widen(part[..., :k], k)
            # Limb plane by limb plane: a part fresh from a digit
            # product is limb-major, and each plane is one copy.
            for j in range(k):
                rows[..., j] = part[..., j]
            start += len(part)
        block[:, length] = 0
        block[:, length, 0] = 1
        return cls._of(block, bits)

    @classmethod
    def from_rows(cls, rows: Iterable[ValueCiphertext]) -> "RowBlock":
        """The block holding ``rows`` (itself when already a block).

        Raises:
            ValueError: rows of different ciphertext lengths, or
                something that is not a :class:`ValueCiphertext`.
        """
        if isinstance(rows, RowBlock):
            return rows
        return cls.from_ints(*flatten_rows(rows))

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
        return cls._of(
            np.concatenate(common_width([block.limbs for block in parts]))
        )

    @property
    def length(self) -> int:
        """Ciphertext length ``l`` (0 for a block that never held a row)."""
        return self.limbs.shape[1] - 1

    def take(self, indices) -> "RowBlock":
        """The rows at ``indices`` (any numpy index: positions or a
        boolean mask), as a new block."""
        return RowBlock._of(self.limbs[indices])

    def __len__(self) -> int:
        return self.limbs.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        *numerators, denominator = to_objects(self.limbs[index]).tolist()
        return ValueCiphertext(tuple(numerators), denominator)

    def __iter__(self) -> Iterator[ValueCiphertext]:
        for *numerators, denominator in to_objects(self.limbs).tolist():
            yield ValueCiphertext(tuple(numerators), denominator)

    def __add__(self, other) -> "RowBlock":
        if not isinstance(other, (RowBlock, list, tuple)):
            return NotImplemented
        return RowBlock.concatenate((self, RowBlock.from_rows(other)))

    def __eq__(self, other) -> bool:
        if isinstance(other, RowBlock):
            if len(self) != len(other):
                return False
            if not len(self):
                return True
            return self.length == other.length and np.array_equal(
                *common_width((self.limbs, other.limbs))
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return "RowBlock(rows=%d, length=%d)" % (len(self), self.length)
