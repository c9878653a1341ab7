"""Big integers as fixed-width limbs: the store, the wire and the proof.

A ciphertext numerator needs 50 to ~130 bits, one Python object each.
A *set* of them — a row block, a column, the numerator run of a frame —
is held here as what the paper's GMP arrays are: an ``... x k`` array of
``uint64`` limbs, two's complement, least significant limb first, ``k``
read off the widest integer of the set.  Gathers, permutations,
concatenation and equality are then plain fixed-width array operations,
and Python ints are made only where one is asked for.

Five things rest on that layout:

* **The wire.**  :func:`to_wire` / :func:`from_wire` turn limbs into the
  fixed-width big-endian run of a frame's row block and back with
  numpy — the same bytes ``int.to_bytes`` per integer produces.
  :class:`PackedInts` is the value an envelope dict carries for such a
  run: the list of ints it stands for, stored as limbs.
* **The float plane.**  :func:`to_float` recombines limbs into one
  ``float64`` per integer: ``k`` conversions and ``k - 1`` additions.
* **The proof.**  :func:`proven_products` multiplies in wrapping 64-bit
  words — limb 0 *is* the low word — and accepts a product only where
  the float plane proves the word did not wrap, under
  :func:`rounding_bound`.
* **Exact digits.**  Where no word holds a product,
  :func:`exact_products` still multiplies without boxing or rounding:
  limbs viewed as 32-bit digits, one integer matmul, one carry pass.
* **One exact product.**  :func:`multiply` alone picks among those two
  and boxed ints (:func:`boxed_products`), per row, from bit-lengths and
  the row count.  The server's sign kernel
  (:mod:`repro.core.encrypted_column`) and the client's open
  (:meth:`repro.crypto.scheme.Encryptor.decrypt_block`) call it, each
  with what it reads of a product (last section of this module).

The rule.  For integer vectors ``a`` (rows, ``k`` limbs each, below
``2^abits``) and ``b`` (below ``2^bbits``) of length ``l`` with exact
product ``P``:

* ``w = low(a) @ low(b)`` in wrapping 64-bit arithmetic is ``P mod
  2^64`` exactly, i.e. ``P = w + j * 2^64`` for some integer ``j``;
* ``f = float(a) @ float(b)`` satisfies ``|P - f| <= E`` with ``E =
  gamma_s * l * 2^(abits + bbits)``, the standard dot-product rounding
  bound (``gamma_s = s u / (1 - s u)``, ``u = 2^-53``) over ``s``
  roundings per term: ``l`` in the accumulation (in any order, fused or
  not), one converting ``b``, and for ``a`` one when ``k = 1`` but
  ``3 k`` when it is recombined from limbs — the ``k`` conversions and
  ``k - 1`` additions are each relative to ``S = |top limb| 2^(64(k-1))
  + (lower limbs)``, not to ``|a|`` (a small negative number is a large
  cancellation), and ``S < |a| + 2 * 2^(64(k-1)) <= 3 * 2^abits`` once
  ``abits`` is taken no smaller than ``64 (k - 1)``;
* a row with ``|f - w| <= 2^63 - E`` has ``|P - w| <= |P - f| + |f - w|
  <= 2^63 < 2^64``, which forces ``j = 0``: ``P = w``.

At ``E >= 2^62`` (:data:`ROUNDING_LIMIT`) a product that fits is no
longer sure to pass, so nothing is attempted in words.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

#: Rounding bounds at or past this rule the word-sized product out.
ROUNDING_LIMIT = 1 << 62
#: Added to every rounding bound: the acceptance test itself runs in
#: float64 (``w`` converted, one subtraction, the threshold rounded),
#: which moves ``|f - w|`` by less than 2^12.
_TEST_SLACK = 1 << 14
_WORD_MASK = (1 << 64) - 1
_TWO_64 = float(1 << 64)


# -- Python ints <-> limbs ---------------------------------------------------------


def limb_count(bits: int) -> int:
    """Limbs a two's-complement integer of ``bits`` magnitude bits needs."""
    return bits // 64 + 1


def int_bit_length(integers: Iterable[int]) -> int:
    """The largest ``bit_length`` among Python ``integers`` (0 for none)."""
    return max(map(int.bit_length, integers), default=0)


def from_ints(values: Sequence[int]) -> np.ndarray:
    """``len(values) x k`` limbs of a sequence of Python ints, ``k`` the
    fewest that hold the widest (read-only: it views the packed bytes).

    Raises:
        TypeError: an element that is not an ``int``.
    """
    size = 8 * limb_count(int_bit_length(values))
    data = b"".join([v.to_bytes(size, "little", signed=True) for v in values])
    return np.frombuffer(data, dtype="<u8").reshape(len(values), size // 8)


def to_objects(limbs: np.ndarray) -> np.ndarray:
    """The Python ints of ``limbs`` (``... x k``) as an object array of
    shape ``...`` — the edge where integers are boxed."""
    k = limbs.shape[-1]
    total = limbs[..., k - 1].view(np.int64).astype(object)
    for j in range(k - 2, -1, -1):
        total = (total << 64) | limbs[..., j].astype(object)
    return total


def widen(limbs: np.ndarray, k: int) -> np.ndarray:
    """``limbs`` sign-extended to ``k`` limbs (itself when it has them)."""
    have = limbs.shape[-1]
    if have == k:
        return limbs
    wide = np.empty(limbs.shape[:-1] + (k,), dtype=np.uint64)
    wide[..., :have] = limbs
    # Arithmetic shift of the top limb: 0 or all ones.
    wide[..., have:] = (
        limbs[..., have - 1:].view(np.int64) >> np.int64(63)
    ).view(np.uint64)
    return wide


def common_width(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """``arrays`` sign-extended to the widest limb count among them."""
    k = max(array.shape[-1] for array in arrays)
    return [widen(array, k) for array in arrays]


def fits_word(limbs: np.ndarray) -> bool:
    """Whether every integer of ``limbs`` lies in int64: its higher
    limbs are the sign extension of limb 0."""
    if limbs.shape[-1] == 1:
        return True
    sign = (limbs[..., :1].view(np.int64) >> np.int64(63)).view(np.uint64)
    return bool((limbs[..., 1:] == sign).all())


def bit_length(limbs: np.ndarray) -> int:
    """The largest ``int.bit_length`` among the integers of ``limbs``
    (``... x k``; 0 for none) — of the magnitudes, as Python counts."""
    if not limbs.size:
        return 0
    k = limbs.shape[-1]
    # Folded on the sign: |x| for x >= 0, |x| - 1 for x < 0.  The widest
    # is in the highest limb whose folded plane is not all zero, so the
    # planes are folded from the top down, one at a time (nothing is
    # reshaped or copied whole).  The top one's largest fold is the
    # larger of its maximum and -1 - its minimum; where that is 0 every
    # top limb is 0 or -1, i.e. the sign itself, and a lower plane
    # folds by an xor with it.
    top = limbs[..., k - 1].view(np.int64)
    peak = max(int(top.max()), -1 - int(top.min()))
    j = k - 1
    while not peak and j:
        j -= 1
        peak = int((limbs[..., j] ^ limbs[..., k - 1]).max())
    bits = 64 * j + peak.bit_length()
    if peak & (peak + 1) == 0:
        # The widest fold may be 2^bits - 1: if it is, and folds a
        # negative number — limb j the complement of the fold, every
        # limb below it zero — that number is -2^bits, one bit more.
        power = limbs[..., j] == np.uint64(~peak & _WORD_MASK)
        power &= top < 0
        for lower in range(j):
            power &= limbs[..., lower] == 0
        bits += bool(power.any())
    return bits


def top_bits(limbs: np.ndarray) -> int:
    """An upper bound on :func:`bit_length` from the top limbs alone —
    two reductions instead of a pass over every limb: an integer with
    signed top limb ``t`` lies below ``(|t| + 1) * 2^(64(k-1))`` in
    magnitude.  At most two bits above the larger of the true
    bit-length and ``64 (k - 1)``, the floor :func:`rounding_bound`
    puts under ``abits`` anyway."""
    if not limbs.size:
        return 0
    k = limbs.shape[-1]
    top = limbs[..., k - 1].view(np.int64)
    peak = max(int(top.max()), -int(top.min()))
    return 64 * (k - 1) + (peak + 1).bit_length()


# -- the wire ----------------------------------------------------------------------


def to_wire(limbs: np.ndarray, width: int) -> bytes:
    """``limbs`` (``... x k``) as their integers' signed big-endian
    bytes, ``width`` each, back to back in row-major order —
    ``int.to_bytes(width, "big", signed=True)`` of each.  ``width`` must
    hold every one of them."""
    if width > 8 * limbs.shape[-1]:
        limbs = widen(limbs, (width + 7) // 8)
    # Each integer's little-endian bytes, its low ``width`` of them read
    # backwards: one strided pass straight into the bytes.
    octets = limbs.astype("<u8", copy=False).view(np.uint8)
    return octets[..., width - 1::-1].tobytes()


def from_wire(
    payload: bytes, width: int, out: np.ndarray = None
) -> np.ndarray:
    """The inverse of :func:`to_wire`: ``len(payload) // width`` rows of
    ``ceil(width / 8)`` limbs (or ``out``'s, little-endian, ``8 k >=
    width``), sign-extended — each integer's bytes written backwards
    into its limbs' bytes in one pass."""
    if out is None:
        out = np.empty((len(payload) // width, (width + 7) // 8), dtype="<u8")
    octets = np.frombuffer(payload, dtype=np.uint8).reshape(
        out.shape[:-1] + (width,)
    )
    little = out.view(np.uint8)
    little[..., :width] = octets[..., ::-1]
    # 0x00 or 0xFF by each integer's sign bit.
    little[..., width:] = (octets[..., :1].view(np.int8) >> 7).view(np.uint8)
    return out.astype(np.uint64, copy=False)


class PackedInts(list):
    """A run of integers as ``n x k`` limbs: what an envelope dict
    carries where it used to carry a list of Python ints.

    A ``list`` whose items live in :attr:`limbs` until someone asks for
    one (its own storage stays empty): length, indexing, iteration,
    membership and equality against any list of ints — either way
    round — read the limbs, so ``json`` writes it, the fuzz suites
    compare it and ``isinstance(x, list)`` checks pass it as the list
    it stands for, while a column's ids stay one array of words.  Every
    other reading ``list`` method (``+``, ``*``, ``reversed``,
    ordering, ``copy``, ``count``, ``index``) answers from
    :meth:`tolist`, and every mutating one raises ``TypeError`` —
    nothing inherited is left to act on the empty storage.
    """

    __slots__ = ("limbs",)

    def __init__(self, limbs: np.ndarray) -> None:
        super().__init__()
        self.limbs = limbs

    def __len__(self) -> int:
        return len(self.limbs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.tolist()[index]
        return int(to_objects(self.limbs[index]))

    def __iter__(self) -> Iterator[int]:
        return iter(self.tolist())

    def __contains__(self, value) -> bool:
        return value in self.tolist()

    def tolist(self) -> List[int]:
        """The integers as a plain list of Python ints."""
        return self.__array__().tolist()

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The integers as an array — the ``int64`` words themselves
        (read-only) when one limb holds each, boxed otherwise — so
        ``np.array(run, dtype=np.int64)`` is a copy of the words and
        not a walk over the items."""
        if self.limbs.shape[-1] == 1:
            words = self.limbs[:, 0].view(np.int64)
            words.flags.writeable = False
        else:
            words = to_objects(self.limbs)
        if dtype is not None:
            words = words.astype(dtype, copy=False)
        return words.copy() if copy else words

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedInts):
            return np.array_equal(*common_width((self.limbs, other.limbs)))
        if isinstance(other, list):
            return self.tolist() == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = None

    def __repr__(self) -> str:
        return "PackedInts(%r)" % self.tolist()

    def __radd__(self, other):
        return other + self.tolist()


def _plain(value):
    return value.tolist() if isinstance(value, PackedInts) else value


def _answers_as_list(name: str):
    def method(self, *args):
        return getattr(self.tolist(), name)(*map(_plain, args))
    method.__name__ = name
    return method


def _refuses(name: str):
    def method(self, *args, **kwargs):
        raise TypeError("PackedInts is read-only: %s is not supported" % name)
    method.__name__ = name
    return method


for _name in ("__add__", "__mul__", "__rmul__", "__reversed__", "__lt__",
              "__le__", "__gt__", "__ge__", "copy", "count", "index"):
    setattr(PackedInts, _name, _answers_as_list(_name))
for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append",
              "clear", "extend", "insert", "pop", "remove", "reverse", "sort"):
    setattr(PackedInts, _name, _refuses(_name))
del _name


# -- the float plane and the proven product ------------------------------------------


def to_float(limbs: np.ndarray) -> np.ndarray:
    """One ``float64`` per integer of ``limbs`` (``... x k``): the signed
    top limb and the unsigned lower ones recombined by Horner's rule
    (module docstring: ``3 k`` roundings' worth of error for ``k > 1``).
    Only for limbs :func:`rounding_bound` admits — ``2^1024`` has no
    ``float64``."""
    k = limbs.shape[-1]
    total = limbs[..., k - 1].view(np.int64).astype(np.float64)
    for j in range(k - 2, -1, -1):
        total *= _TWO_64
        total += limbs[..., j]
    return total


@lru_cache(maxsize=256)
def rounding_bound(length: int, abits: int, bbits: int, limbs: int = 1) -> int:
    """``E``: how far the float64 dot product of two length-``length``
    integer vectors below ``2^abits`` and ``2^bbits`` can lie from the
    exact one, the first recombined from ``limbs`` limbs by
    :func:`to_float` (module docstring; rounded up, test slack
    included)."""
    steps = length + 2
    if limbs > 1:
        steps = length + 1 + 3 * limbs
        abits = max(abits, 64 * (limbs - 1))
    return (
        (steps * length << (abits + bbits)) // ((1 << 53) - steps)
        + 1 + _TEST_SLACK
    )


def word_operand(integers) -> Tuple[np.ndarray, np.ndarray]:
    """The right-hand operand of a proven product — a vector of Python
    ints, or a matrix as a sequence of rows — as ``(low words,
    floats)``."""
    try:
        low = np.array(integers, dtype=np.int64).view(np.uint64)
    except OverflowError:
        low = (np.array(integers, dtype=object) & _WORD_MASK).astype(np.uint64)
    return low, np.array(integers, dtype=np.float64)


def proven_products(
    low: np.ndarray,
    floats: np.ndarray,
    operand: Tuple[np.ndarray, np.ndarray],
    bound: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(words, accepted)``: the wrapped 64-bit products ``low @
    operand`` as ``int64`` and, per product, whether the acceptance
    inequality under the rounding bound ``bound`` proves the word is
    the exact product (module docstring).  ``low`` is limb 0 of the
    rows, ``floats`` their float plane."""
    operand_low, operand_floats = operand
    # Unsigned: wrap-around is the arithmetic wanted here.
    words = (low @ operand_low).view(np.int64)
    approx = floats @ operand_floats
    return words, np.abs(approx - words) <= float((1 << 63) - bound)


# -- exact products in base-2^32 digits ------------------------------------------------
#
# Where no word holds a product (ambiguity rows: ~115-bit numerators,
# ~110-bit products), it is still computed without boxing an integer:
# every limb splits into two 32-bit digits, a digit times a small
# operand digit fits ``int64`` with room to add ``l`` of them, and the
# carries are propagated once, digit by digit, over whole columns.
# Nothing is rounded and nothing wraps, so there is nothing to prove
# per row — only the headroom, from bit-lengths, before starting.
#
# Digit arrays are digit-major (``J x ...``, least significant first).
# *Canonical* digits lie in ``[0, 2^32)`` except the last, a signed
# carry: the integer is ``sum(d[j] * 2^(32 j))``, its sign the sign of
# ``d[-1]`` (or, at 0, of anything below), and two integers are equal
# exactly when their canonical digits are.

_DIGIT_BITS = np.int64(32)
_DIGIT_MASK = np.int64(0xFFFFFFFF)
_OPERAND_DIGIT_BITS = 16
#: Largest factor :func:`digit_multiples` takes: times a digit, plus a
#: carry, it stays inside ``int64``.
DIGIT_FACTOR_LIMIT = (1 << 31) - 1
#: Most digits :func:`digits_to_float` weighs (``2^(32 * 31)`` is still
#: a ``float64``), and their weights.
FLOAT_DIGITS = 31
_DIGIT_WEIGHTS = np.ldexp(1.0, 32 * np.arange(FLOAT_DIGITS))


def to_digits(limbs: np.ndarray) -> np.ndarray:
    """The ``2k x ...`` canonical digits of ``limbs`` (``... x k``,
    contiguous along ``k``): its 32-bit halves, the top one signed."""
    halves = limbs.astype("<u8", copy=False).view("<u4")
    digits = np.empty(halves.shape[-1:] + halves.shape[:-1], dtype=np.int64)
    # Digit-major: the last axis first.
    digits[...] = halves.transpose(halves.ndim - 1, *range(halves.ndim - 1))
    digits[-1] = halves.view("<i4")[..., -1]
    return digits


def carry_digits(sums: np.ndarray) -> np.ndarray:
    """The ``(J + 1) x ...`` canonical digits of the integer whose
    digit *sums* — signed, each at most ``2^63 - 2^31`` in magnitude —
    are ``sums`` (``J x ...``)."""
    digits = np.empty((len(sums) + 1,) + sums.shape[1:], dtype=np.int64)
    carried = 0
    for j, plane in enumerate(sums):
        plane = plane + carried
        np.bitwise_and(plane, _DIGIT_MASK, out=digits[j])
        # Arithmetic shift: floor division, so the digit is >= 0.
        carried = plane >> _DIGIT_BITS
    digits[-1] = carried
    return digits


def digit_operand(integers):
    """The right-hand operand of :func:`exact_products` — a vector of
    ``l`` Python ints, or an ``l``-row matrix as a sequence of rows — as
    an ``l x m x d`` ``int64`` array of its entries' digits: the entry
    itself (``d = 1``) when a 32-bit digit times it, summed ``l``
    times, stays below ``2^62``; signed 16-bit digits otherwise.  None
    when even those leave no headroom."""
    if len(integers) and isinstance(integers[0], int):
        integers = [(x,) for x in integers]
    length = len(integers)
    bits = int_bit_length(x for row in integers for x in row)
    if 32 + bits + (length - 1).bit_length() <= 62:
        return np.array(integers, dtype=np.int64)[:, :, None]
    step = _OPERAND_DIGIT_BITS
    count = bits // step + 1
    if length * count >= 1 << 12:
        return None
    mask = (1 << step) - 1
    return np.array(
        [
            [
                [(x >> step * i) & mask for i in range(count - 1)]
                + [x >> step * (count - 1)]
                for x in row
            ]
            for row in integers
        ],
        dtype=np.int64,
    )


def exact_products(digits: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """``rows @ matrix`` exactly: the canonical digits (``J x n x m``)
    of the products of ``n`` rows of ``l`` integers, given by their
    :func:`to_digits` (``2k x n x l``), with the ``l x m`` integer
    matrix whose :func:`digit_operand` is ``operand``.

    With ``T[j, i]`` the row digits ``j`` times the operand digits
    ``i`` (one integer matmul; below ``l * 2^48`` each when the operand
    has several digits), the product is ``sum(T[j, i] * 2^(32 j + 16
    i))``: the even ``i`` land on digit boundaries and are summed in
    place, the odd ``i`` are summed the same way, carried, and added
    shifted by half a digit (``< 2^48``) — every partial sum stays
    below ``l * d * 2^47 + 2^49 < 2^62``.
    """
    length, columns, count = operand.shape
    partial = (digits @ operand.reshape(length, columns * count)).reshape(
        digits.shape[:2] + (columns, count)
    )
    if count == 1:
        return carry_digits(partial[..., 0])
    width = len(digits) + count // 2
    halves = []
    for parity in (0, 1):
        sums = np.zeros((width,) + partial.shape[1:3], dtype=np.int64)
        for offset, i in enumerate(range(parity, count, 2)):
            sums[offset:offset + len(digits)] += partial[..., i]
        halves.append(sums)
    even, odd = halves
    even += carry_digits(odd[:-1]) << np.int64(_OPERAND_DIGIT_BITS)
    return carry_digits(even)


def digits_to_limbs(digits: np.ndarray) -> np.ndarray:
    """Canonical ``digits`` (``J x ...``) as two's-complement limbs
    (``... x ceil(J / 2)``)."""
    if len(digits) % 2:
        # The signed top digit alone in the top limb: sign-extended.
        digits = np.concatenate((digits, digits[-1:] >> _DIGIT_BITS))
    limbs = digits[0::2] | (digits[1::2] << _DIGIT_BITS)
    return limbs.transpose(*range(1, limbs.ndim), 0).view(np.uint64)


def digits_sign(digits: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 per integer of canonical ``digits``, as ``int64``."""
    top = digits[-1]
    return np.sign(top) + ((top == 0) & digits[:-1].any(axis=0))


def digits_magnitude(digits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(|digits|, negative)``: canonical digits of the absolute
    values and which integers were below zero."""
    negative = digits[-1] < 0
    if negative.any():
        flipped = carry_digits(-digits[:-1])
        flipped[-1] -= digits[-1]
        digits = np.where(negative, flipped, digits)
    return digits, negative


def digits_to_float(digits: np.ndarray) -> np.ndarray:
    """One ``float64`` per integer of non-negative canonical ``digits``
    (:data:`FLOAT_DIGITS` of them at most): ``J`` exact terms of one
    sign, so within ``J u`` of it relatively."""
    weights = _DIGIT_WEIGHTS[:len(digits)]
    floats = weights @ digits.reshape(len(digits), -1).astype(np.float64)
    return floats.reshape(digits.shape[1:])


def digit_multiples(
    factors: np.ndarray, digits: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Per integer, whether ``factors * digits == targets``: ``factors``
    ``int64`` in ``[0, DIGIT_FACTOR_LIMIT]``, ``digits`` and ``targets``
    canonical, non-negative, with as many digits each.  Factor times
    digit plus a carry is below ``2^63``, so the product is carried
    exactly, and equal canonical digits are equal integers."""
    scaled = carry_digits(factors * digits)
    return (scaled[:-1] == targets).all(axis=0) & (scaled[-1] == 0)


# -- one exact product, three arithmetics -------------------------------------------


class Operand:
    """The right-hand side of an exact product — an ``l x m`` integer
    matrix, given by its ``m`` columns — prepared once in each form a
    stage of :func:`multiply` reads: its bit-length here, its word,
    digit and boxed forms when a stage first asks for them."""

    def __init__(self, columns: Sequence[Sequence[int]]) -> None:
        self.columns = columns
        self.length = len(columns[0])
        self.bits = max(map(int.bit_length, chain.from_iterable(columns)))
        self._words = None

    @property
    def words(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(low words, floats)``, each ``l x m``: :func:`word_operand`."""
        if self._words is None:
            low, floats = word_operand(self.columns)
            self._words = low.T, floats.T
        return self._words

    @cached_property
    def digits(self):
        """:func:`digit_operand`: ``l x m x d``, or None past its head-room."""
        return digit_operand(tuple(zip(*self.columns)))

    @cached_property
    def objects(self) -> np.ndarray:
        """The ``l x m`` object matrix of its Python ints."""
        return np.array(self.columns, dtype=object).T


def boxed_products(limbs: np.ndarray, operand: Operand) -> np.ndarray:
    """``rows @ matrix`` boxed: the big-int matmul of last resort."""
    return to_objects(limbs) @ operand.objects


#: Where the word stage repays itself, by whether the caller passes a
#: cached float plane: ``(fewest rows, least share proven)``.  A column
#: has its plane and tries every piece; a block opened once builds one
#: (~40 array calls, against microseconds a row boxed) from 32 rows,
#: and is the digits' whole where words prove under a quarter of it
#: (narrow ambiguity rows pass the bit-length test, then leave a word).
_WORD_STAGE = {True: (0, 0.0), False: (32, 0.25)}
#: Fewest rows the digit stage takes, by whether the operand has more
#: than two columns: ~50 array calls whatever the rows, against a boxed
#: dot product a row and column — from 96 rows against a column's one
#: or two bounds, from 64 against a block's opening matrix.
_DIGIT_ROWS = (96, 64)


#: The readers of a caller that wants the products themselves, and of
#: one that wants their signs (nothing boxed for digits).
PRODUCTS = (None, lambda digits: ((to_objects(digits_to_limbs(digits)),), None),
            None)
SIGNS = (None, lambda digits: ((digits_sign(digits),), None), None)


def multiply(limbs, operand: Operand, readers, floats=None, bits=None):
    """The exact products of the rows of ``limbs`` (``n x l x k``) with
    ``operand`` (``l x m``), each row in the cheapest arithmetic that
    holds it: proven 64-bit words (:func:`proven_products`) where the
    rounding bound of ``bits`` (default: :func:`top_bits`) allows it and
    the acceptance test proves all of the row's products; exact 32-bit
    digits (:func:`exact_products`) for the rows that leaves, when there
    are enough of them; boxed ints (:func:`boxed_products`) for the
    rest.  ``floats`` is a float plane the caller keeps (built here
    otherwise); whether it passes one, the row count and the operand's
    column count pick the crossovers (:data:`_WORD_STAGE`,
    :data:`_DIGIT_ROWS`).

    ``readers`` ``(words, digits, ints)`` turn one stage's products —
    ``int64`` ``r x m``, canonical digits ``J x r x m``, Python ints ``r
    x m`` — into a tuple of per-row arrays (None: the products
    themselves); the digit reader also returns a mask of the rows it
    leaves undecided (or None), which are boxed.  Returns those arrays
    spliced in row order and ``(proven, words, digits, boxed)``: the
    products the words proved, and the rows each stage settled.

    Raises:
        ValueError: rows of another length than the operand's.
    """
    count, length, k = limbs.shape
    if length != operand.length:
        raise ValueError(
            "rows of length %d against an operand of %d"
            % (length, operand.length)
        )
    read_words, read_digits, read_ints = readers
    parts, proven, settled, left = [], 0, [0, 0, 0], None
    fewest, share = _WORD_STAGE[floats is not None]
    if count >= fewest:
        bound = rounding_bound(
            length, top_bits(limbs) if bits is None else bits, operand.bits, k
        )
        if bound < ROUNDING_LIMIT:
            words, accepted = proven_products(
                limbs[..., 0],
                to_float(limbs) if floats is None else floats,
                operand.words,
                bound,
            )
            if accepted.all():
                outputs = (words,) if read_words is None else read_words(words)
                return outputs, (words.size, count, 0, 0)
            whole = accepted.all(axis=1)
            taken = whole.nonzero()[0]
            if len(taken) >= share * count:
                words = words[taken]
                outputs = (words,) if read_words is None else read_words(words)
                parts.append((taken, outputs))
                proven, settled[0] = np.count_nonzero(accepted), len(taken)
                left = (~whole).nonzero()[0]
    rest = count if left is None else len(left)
    if rest >= _DIGIT_ROWS[len(operand.columns) > 2] and (
        operand.digits is not None
    ):
        block = limbs if left is None else limbs[left]
        outputs, undecided = read_digits(
            exact_products(to_digits(block), operand.digits)
        )
        if outputs is not None:
            parts.append((left, outputs))
        settled[1], rest = rest, 0
        if undecided is not None:
            left = undecided.nonzero()[0] if left is None else left[undecided]
            rest = len(left)
            settled[1] -= rest
    if rest or not parts:
        products = boxed_products(limbs if left is None else limbs[left], operand)
        outputs = (products,) if read_ints is None else read_ints(products)
        parts.append((left, outputs))
        settled[2] = rest
    counts = proven, *settled
    if len(parts) == 1 and parts[0][0] is None:
        return parts[0][1], counts
    return _splice(count, parts), counts


def _splice(count: int, parts) -> tuple:
    """The per-row arrays of every stage's ``(rows, arrays)`` (rows None:
    all of them) in one tuple, a later stage written over an earlier."""
    spliced = []
    for arrays in zip(*[outputs for __, outputs in parts]):
        if arrays[0] is None:
            spliced.append(None)
            continue
        out = np.empty(
            (count,) + arrays[0].shape[1:], dtype=np.result_type(*arrays)
        )
        for (rows, __), array in zip(parts, arrays):
            out[slice(None) if rows is None else rows] = array
        spliced.append(out)
    return tuple(spliced)
