"""Encryption, decryption, and comparison (paper, Sections 3 and 4.2).

The scheme composes three obscurement layers:

1. *Noise addition* (3.1) — payloads ``(xi*v, -xi)`` / ``(1, b)`` are
   embedded at secret positions of a length-``l`` vector whose
   remaining slots carry noise: orthogonal to the secret direction
   ``u`` for values, collinear to ``u`` for bounds, so noise terms
   cancel in every bound-value scalar product.
2. *Scalar multiplication* (3.2) — a random positive multiplier
   ``xi(v)`` obscures the norm of ``v - b``; only the sign survives.
3. *Matrix multiplication* (3.3) — values are multiplied by ``M^-1``,
   bounds by ``M^T``, so products telescope:
   ``Eb(b) . Ev(v) = xi(v) * (v - b)``.

The ambiguity layer (4.2) optionally extends each value ciphertext to
length ``l + 1`` such that both the ``l``-prefix and the ``l``-suffix
are structurally valid rows; the real branch is identified only by the
key holder through the odd-integer convention on ``xi``.

Every random draw of an :class:`Encryptor` — ``xi`` and ``w`` of a value,
``lambda`` of a bound, the steering choices — comes from one keyed
SHAKE-256 stream (:func:`_shake_words`; ``docs/security.md``, "Owner
randomness").
"""

from __future__ import annotations

import hashlib
import os
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, combinations, count, repeat
from math import gcd
from operator import add, index, mul
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.ciphertext import (
    AmbiguousCiphertext,
    BoundCiphertext,
    RowBlock,
    ValueCiphertext,
)
from repro.crypto.key import SecretKey, generate_key
from repro.errors import (
    AmbiguityError,
    DecryptionError,
    EncryptionError,
    KeyGenerationError,
)
from repro.linalg.intmat import determinant, mat_vec, mat_transpose
from repro.linalg.limbs import (
    DIGIT_FACTOR_LIMIT,
    FLOAT_DIGITS,
    PRODUCTS,
    Operand,
    carry_digits,
    digit_multiples,
    digits_magnitude,
    digits_sign,
    digits_to_float,
    digits_to_limbs,
    exact_products,
    from_ints,
    multiply,
    to_digits,
    to_objects,
)
from repro.linalg.solve import integer_nullspace
from repro.linalg.vectors import IntVector, dot, scale

#: Uniform counterfeit targets a steering attempt draws before it falls
#: back to the root candidates of :meth:`Encryptor._pick_parameter`.
UNIFORM_TARGET_TRIES = 12

#: Values :meth:`Encryptor.encrypt_values` /
#: :meth:`Encryptor.encrypt_values_ambiguous` turn into limbs at a time.
_ENCRYPT_CHUNK = 4096

#: Words of the sequential stream one SHAKE-256 call yields
#: (:func:`_stream_words`).
_STREAM_WORDS = 256

#: One past the largest 64-bit word.
_WORD_RANGE = 1 << 64

#: Draws of ``w`` a value gets before its noise is the key's fixed
#: vector orthogonal to ``u`` (:meth:`Encryptor._draw`).
_NOISE_ATTEMPTS = 64

#: Entries a query-bound pool is refilled with (:meth:`Encryptor._query_bound`).
_POOL_ENTRIES = 128


def compare(bound: BoundCiphertext, value: ValueCiphertext) -> int:
    """Server-side comparison: sign of ``v - b`` (times ``sign(xi)``).

    For rows produced by :meth:`Encryptor.encrypt_value` the multiplier
    is positive, so the result is exactly ``sign(v - b)``.  Returns
    -1, 0, or +1.
    """
    return bound.product_sign(value)


@dataclass(frozen=True)
class DecryptedRow:
    """Outcome of decrypting one server row.

    Attributes:
        value: the recovered plaintext, or None for a fake (ambiguity)
            row.
        multiplier: the recovered ``xi`` as an exact rational; real rows
            always carry an odd positive integer.
        is_real: True when the odd-integer convention identifies the
            row as a real value (Section 4.2).
    """

    value: Optional[int]
    multiplier: Fraction
    is_real: bool


class Encryptor:
    """Key-holder operations: encrypt values/bounds, decrypt rows.

    Instances are owned by the data owner and trusted clients; the
    server never sees one.  Every draw comes from one keyed SHAKE-256
    stream whose 256-bit key is read once, at construction, from
    ``rng`` — so equal seeds give equal ciphertexts, and nothing else
    about the caller's generator matters.

    Args:
        key: the secret key.
        rng: where the stream's key is read from (one
            ``getrandbits(256)``); a fresh ``random.Random(seed)`` when
            only ``seed`` is given, ``os.urandom`` when neither is.
        seed: convenience seed, ignored when ``rng`` is passed.
        multiplier_bound: ``xi`` is drawn odd from ``[1, multiplier_bound]``
            and ``lambda`` nonzero from ``[-multiplier_bound, multiplier_bound]``;
            at most ``2^63``, so every draw is one 64-bit word.
        noise_magnitude: magnitude of the raw noise samples, below
            ``2^63``.
    """

    def __init__(
        self,
        key: SecretKey,
        rng: random.Random = None,
        seed: int = None,
        multiplier_bound: int = 1 << 16,
        noise_magnitude: int = 1 << 16,
    ) -> None:
        if not 1 <= multiplier_bound <= 1 << 63:
            raise EncryptionError("multiplier bound must be in [1, 2^63]")
        if not 0 <= noise_magnitude < 1 << 63:
            raise EncryptionError("noise magnitude must be in [0, 2^63)")
        self.key = key
        if rng is None and seed is not None:
            rng = random.Random(seed)
        if rng is None:
            self._stream_key = os.urandom(32)
        else:
            self._stream_key = rng.getrandbits(256).to_bytes(32, "little")
        #: The sequential stream, one 64-bit word a ``next``; and how
        #: many blocks :meth:`encrypt_values` has drawn.
        self._words = chain.from_iterable(
            map(partial(_stream_words, self._stream_key), count())
        )
        self._blocks = 0
        self._multiplier_bound = multiplier_bound
        self._noise_magnitude = noise_magnitude
        # What a value's draws (:meth:`_draw`) read of key and
        # parameters: xi = 2 r + 1 with r below ``_xi_span``, a noise
        # sample below ``_noise_span`` less the magnitude, each off a
        # word whose run of span values starts at most at its
        # ``_limit`` (:meth:`_below`'s rule); the test for "w collinear
        # with u" (the first nonzero ``u_p`` and the other ``(i,
        # u_i)``); how often w is redrawn — never at l = 3, where u's
        # complement is {0} and the "fixed vector" below is zero — and
        # what replaces it after that.
        u = key.u
        self._xi_span = (multiplier_bound + 1) // 2
        self._noise_span = 2 * noise_magnitude + 1
        self._xi_limit = _WORD_RANGE - self._xi_span
        self._noise_limit = _WORD_RANGE - self._noise_span
        pivot = next(i for i, u_i in enumerate(u) if u_i)
        self._collinearity = (
            pivot,
            u[pivot],
            tuple((i, u_i) for i, u_i in enumerate(u) if i != pivot),
        )
        self._noise_attempts = range(_NOISE_ATTEMPTS if len(u) > 1 else 0)
        self._spent_noise = _fixed_orthogonal(u)
        # And what a block's draws (:meth:`_block_draws`) read: per
        # value one word for xi and ``_width`` for w, their spans and
        # limits; and per component of w a divisor that every collinear
        # w's component is a multiple of: ``|u_i| / gcd(u)``, or where
        # that is 0 or past the magnitude (only w_i = 0 can then be a
        # multiple) 2^63 - 1, which a nonzero w_i is a multiple of only
        # at the largest magnitude — a row flagged for nothing is drawn
        # again exactly, to the same result.
        self._width = len(u) if self._noise_attempts else 0
        spans = [self._xi_span] + [self._noise_span] * self._width
        self._spans = np.array(spans, dtype=np.uint64)
        self._limits = np.array(
            [_WORD_RANGE - span for span in spans], dtype=np.uint64
        )
        common = gcd(*u)
        self._divisors = np.array([
            abs(u_i) // common
            if 0 < abs(u_i) // common <= noise_magnitude
            else (1 << 63) - 1
            for u_i in u
        ], dtype=np.int64)
        # And what the arithmetic after them reads (:meth:`_images`).
        self._u_squared = dot(u, u)
        self._noise_bound = max(1, noise_magnitude) * (
            self._u_squared + sum(map(abs, u)) * max(map(abs, u))
        )
        # Row sets are encrypted and opened as matrices (paper 3.3:
        # ``Ev`` multiplies by ``M^-1``, decryption by ``M``), each an
        # operand of :func:`repro.linalg.limbs.multiply`.  Opening a row
        # (numerators, then denominator) reads three projections of ``M
        # @ x`` — the payload slots, ``x[p1]`` negated to yield ``xi``'s
        # numerator, and ``u . noise(M @ x)``, the key's ambiguity row —
        # and a unit column carries the denominator along, so the checks
        # read it in the arithmetic of the products.
        p0, p1 = key.payload_positions
        self._inverse = Operand(key.matrix_inverse)
        self._opening = Operand((
            tuple(key.matrix[p0]) + (0,),
            tuple(-entry for entry in key.matrix[p1]) + (0,),
            tuple(key.ambiguity_row) + (0,),
            (0,) * key.length + (1,),
        ))
        self._checks = {
            flag: tuple(partial(check, flag) for check in (
                self._check_words, self._check_digits, self._check_ints
            ))
            for flag in (False, True)
        }
        # Query bounds: pooled entries and the slopes that map them to
        # a bound (:meth:`_query_bound`).
        self._value_pool, self._bound_pool, self._bound_draws = [], [], 0
        self._value_slope = tuple(row[p0] for row in key.matrix_inverse)
        self._bound_slope = key.matrix[p1]
        self._bound_rows = _object_matrix([key.matrix[p0], key.ambiguity_row])
        # Steering (Section 4.2) constrains the two length-l windows of
        # an (l+1)-vector: per window offset, the rows reading payload
        # slot 0, payload slot 1, its negation (which reads xi) and the
        # noise check ``r`` off the window — the three projections
        # ``_opening`` reads and one more, functions of the key alone,
        # so built here and not per value.
        self._windows = tuple(
            tuple(
                (0,) * offset + tuple(row) + (0,) * (1 - offset)
                for row in (
                    key.matrix[p0],
                    key.matrix[p1],
                    scale(key.matrix[p1], -1),
                    key.ambiguity_row,
                )
            )
            for offset in (0, 1)
        )
        #: Count of ambiguous encryptions that fell back to an
        #: unsteered counterfeit (see generate_steerable_key).
        self.steering_fallbacks = 0
        #: Rows :meth:`decrypt_block` opened in fixed-width arrays
        #: (proven 64-bit words, or exact digits) / one by one in
        #: big-int arithmetic.
        self.fast_rows = 0
        self.exact_rows = 0

    # -- mode Ev: values ------------------------------------------------

    def encrypt_value(self, value: int) -> ValueCiphertext:
        """Encrypt an attribute value in mode ``Ev`` (Section 3.3) —
        one row of :meth:`encrypt_values`, in Python ints throughout."""
        pre_image = self._pre_image(as_integer(value))
        return ValueCiphertext(tuple(
            [sum(map(mul, row, pre_image)) for row in self.key.matrix_inverse]
        ))

    def _pre_image(self, value: int) -> List[int]:
        """``xi * (payload(v) + noise_perp)``, ``xi`` and the noise
        freshly drawn: what ``M^-1`` turns into ``Ev(v)``."""
        return self._assemble(value, *self._draw(self._words))

    def _draw(self, words) -> Tuple[int, Optional[List[int]]]:
        """The random part of one value's encryption, read off the
        64-bit ``words``: ``(xi, w)`` — the multiplier ``xi`` (odd, in
        ``[1, multiplier_bound]``) and the ``l - 2`` components of
        ``w``, uniform in ``[-noise_magnitude, noise_magnitude]``, whose
        projection ``(u.u) w - (u.w) u`` is the noise orthogonal to
        ``u`` (paper 3.1: "any vector orthogonal to u will suffice").

        Each draw below a span is :meth:`_below`'s: the next word kept
        only where its run of ``span`` words fits below ``2^64``, and
        reduced modulo the span.  A ``w``
        collinear with ``u`` (zero included) projects to no noise at all
        and is drawn again, up to :data:`_NOISE_ATTEMPTS` times; a value
        that spends them all gets ``w`` None and takes the key's fixed
        orthogonal vector instead.

        The reference for a block: :meth:`_block_draws` gives each value
        what this reads off that value's block words followed by the
        sequential stream.
        """
        u = self.key.u
        pivot, u_pivot, others = self._collinearity
        half, span = self._xi_span, self._noise_span
        limit, magnitude = self._noise_limit, self._noise_magnitude
        r = next(words)
        while r - r % half > self._xi_limit:
            r = next(words)
        xi = 2 * (r % half) + 1
        for _ in self._noise_attempts:
            w = []
            for _ in u:
                r = next(words)
                while r - r % span > limit:
                    r = next(words)
                w.append(r % span - magnitude)
            # w = c u  <=>  w_i u_p == w_p u_i for all i (u_p != 0).
            w_pivot = w[pivot]
            for i, u_i in others:
                if w[i] * u_pivot != w_pivot * u_i:
                    return xi, w
        return xi, None

    def _assemble(self, value: int, xi: int, w: Optional[List[int]]) -> List[int]:
        """The pre-image ``xi * (payload(v) + noise)`` of one value in
        Python ints: noise the projection of ``w``, or the key's fixed
        orthogonal vector for a value whose draws were spent (``w`` is
        None)."""
        key = self.key
        if w is None:
            noise = self._spent_noise
        else:
            u, uu = key.u, self._u_squared
            uw = sum(map(mul, u, w))
            noise = [uu * w_i - uw * u_i for w_i, u_i in zip(w, u)]
        pre_image = [0] * key.length
        p0, p1 = key.payload_positions
        pre_image[p0] = xi * value
        pre_image[p1] = -xi
        for position, component in zip(key.noise_positions, noise):
            pre_image[position] = xi * component
        return pre_image

    def encrypt_values(self, values: Iterable[int]) -> RowBlock:
        """Encrypt attribute values in mode ``Ev``, as one row block.

        ``Ev(v) = M^-1 @ (xi * (payload(v) + noise_perp))`` with the
        multiplier ``xi`` odd and positive (the oddness carries the
        real/fake convention of Section 4.2 even for rows that are
        never wrapped in ambiguity).  The draws are one SHAKE-256 call
        per chunk (:meth:`_block_draws`); everything after them is
        arithmetic over the chunk's arrays (:meth:`_images`), or — where
        the owner cannot prove that arithmetic has head-room — the same
        pre-images boxed and sent through ``M^-1`` as one big-int matrix
        product.
        """
        return self._encrypt_values(as_integers(values))

    def _encrypt_values(self, values: List[int]) -> RowBlock:
        """:meth:`encrypt_values` of values :func:`as_integers` already
        checked."""
        self._blocks += 1
        # Chunk by chunk: the transients of one (boxed Python ints
        # included) are gone before the next one's are made.
        numerators = []
        for chunk_index, chunk in enumerate(_chunks(values)):
            drawn = self._block_draws(self._blocks, chunk_index, len(chunk))
            limbs = self._images(chunk, *drawn)
            if limbs is None:
                limbs = self._boxed_images(chunk, *drawn)
            numerators.append(limbs)
        return RowBlock.stack(self.key.length, numerators)

    def _block_draws(self, block: int, chunk: int, size: int):
        """The draws of a chunk of ``size`` values as arrays ``(xis, ws,
        spent)``: ``int64`` multipliers, the ``size x (l - 2)`` noise
        directions and a ``bool`` per value whose ``w`` was spent
        (:meth:`_draw`).

        One SHAKE-256 call (:func:`_shake_words`, labelled by ``block``
        and ``chunk``) gives each value ``1 + _width`` words, drawn as
        :meth:`_draw` draws them, in arrays.  A value with a word past
        its limit, or whose ``w`` may be collinear with ``u`` (every
        component a multiple of its divisor), is drawn again by
        :meth:`_draw` itself, off its block words followed by the
        sequential stream — exactly what it would read of them.
        """
        width = self._width
        words = _shake_words(
            self._stream_key,
            b"block" + struct.pack("<QQ", block, chunk),
            size * (1 + width),
        ).reshape(size, 1 + width)
        drawn = words % self._spans
        xis = drawn[:, 0].astype(np.int64)
        xis *= 2
        xis += 1
        redrawn = (words - drawn > self._limits).any(axis=1)
        if width:
            ws = drawn[:, 1:].astype(np.int64)
            ws -= self._noise_magnitude
            redrawn |= ~(ws % self._divisors).any(axis=1)
            spent = np.zeros(size, dtype=bool)
        else:
            # l = 3: no w is drawn, every value takes the fixed vector.
            ws = np.zeros((size, len(self.key.u)), dtype=np.int64)
            spent = np.ones(size, dtype=bool)
        for row in np.flatnonzero(redrawn).tolist():
            xis[row], w = self._draw(chain(words[row].tolist(), self._words))
            if w is None:
                spent[row] = True
            else:
                ws[row] = w
        return xis, ws, spent

    def _images(self, values, xis, ws, spent) -> Optional[np.ndarray]:
        """``n x l x k`` limbs of the ``Ev`` rows of a chunk, from its
        draws, without boxing an integer — or None where the bounds
        below do not prove every step exact.

        With ``B = noise_magnitude``, ``|w_i| <= B`` gives ``|u . w| <=
        B sum|u_i|`` and every term and result of ``n = (u.u) w - (u.w)
        u`` at most ``N = B (u.u + sum|u_i| max|u_i|)``
        (:attr:`_noise_bound`, which ``__init__`` also puts over ``u.u``
        and the fixed vector's ``|u_i|``): ``N < 2^63`` keeps the noise
        in ``int64``.  The payload slots hold ``v`` and ``-1``, so the
        unscaled pre-image is a word exactly when every ``v`` is —
        numpy refuses the conversion otherwise.  ``xi <=
        multiplier_bound``: where ``bits(multiplier_bound) + bits(max(N,
        |v|)) <= 63`` the scaled pre-image is a word too and is split
        into two 32-bit digits; past that (Figure 12's ``l = 32, 64``)
        each unscaled digit, below ``2^32`` in magnitude, times ``xi
        <= 2^31 - 1`` stays inside ``carry_digits``' ``2^63 - 2^31`` and
        the pre-image is carried in three.  The product with ``M^-1^T``
        is :func:`~repro.linalg.limbs.exact_products` with the prepared
        operand's digits, whose own head-room
        :func:`~repro.linalg.limbs.digit_operand` decided for this key.
        """
        operand = self._inverse.digits
        if (
            operand is None
            or self._noise_bound >> 63
            or self._multiplier_bound > DIGIT_FACTOR_LIMIT
        ):
            return None
        try:
            plain = np.array(values, dtype=np.int64)
        except OverflowError:
            return None
        key = self.key
        u = np.array(key.u, dtype=np.int64)
        xi = xis[:, None]
        noise = self._u_squared * ws - np.outer(ws @ u, u)
        noise[spent] = self._spent_noise
        pre_images = np.empty((len(plain), key.length), dtype=np.int64)
        pre_images[:, key.noise_positions] = noise
        pre_images[:, key.payload_positions[0]] = plain
        pre_images[:, key.payload_positions[1]] = -1
        widest = max(
            self._noise_bound, int(plain.max()), -int(plain.min())
        )
        if self._multiplier_bound.bit_length() + widest.bit_length() <= 63:
            pre_images *= xi
            digits = to_digits(pre_images.view(np.uint64)[..., None])
        else:
            digits = carry_digits(
                xi * to_digits(pre_images.view(np.uint64)[..., None])
            )
        # As many limbs as the digits fill: RowBlock.stack trims them.
        return digits_to_limbs(exact_products(digits, operand))

    def _boxed_images(self, values, xis, ws, spent) -> np.ndarray:
        """:meth:`_images` in Python ints — the pre-images assembled one
        by one and multiplied by ``M^-1`` as an object matrix: the
        reference the array path is pinned to, and the path of every
        chunk it declines (a value past a word, parameters or a key
        past its head-room)."""
        pre_images = [
            self._assemble(value, xi, None if is_spent else w)
            for value, xi, w, is_spent in zip(
                values, xis.tolist(), ws.tolist(), spent.tolist()
            )
        ]
        images = _object_matrix(pre_images) @ self._inverse.objects
        limbs = from_ints(images.ravel().tolist())
        return limbs.reshape(len(values), self.key.length, limbs.shape[1])

    def encrypt_value_ambiguous(
        self,
        value: int,
        fake_domain: Tuple[int, int] = None,
        fake_value: int = None,
        max_attempts: int = 64,
    ) -> AmbiguousCiphertext:
        """Encrypt with the deliberate-error layer of Section 4.2.

        Produces a length-``(l+1)`` vector whose prefix and suffix are
        both structurally valid rows; the variant (theta appended as
        prefix or suffix) is drawn uniformly so the server cannot learn
        which end is real.  The owner verifies that only the real
        branch decrypts to an odd positive integer multiplier and
        resamples otherwise, exactly as the paper prescribes ("the fact
        that only one decryption attempt delivers an odd integer ... is
        verified by the data owner during encryption").

        The fake branch can be *steered*: the paper likens the result
        to "adding counterfeit records in our database", and its
        client-side evaluation (Figure 13a) shows fakes qualifying for
        range queries about as often as real rows — i.e. counterfeit
        pseudo-values distributed like the data.  Passing
        ``fake_domain`` (half-open, not empty) draws a counterfeit
        uniformly from it and uses the owner's free encryption
        parameters (noise orientation and multipliers) to make the fake
        branch decode to exactly that counterfeit, with a positive (so
        comparison-consistent) but never odd-integral multiplier;
        ``fake_value`` pins the counterfeit instead.  With neither, the
        fake branch is left unsteered (structurally valid but decoding
        to an arbitrary huge pseudo-value, which no realistic range
        query ever matches).  Steering requires ``l >= 4`` — at
        ``l = 3`` value noise is identically zero and there is no free
        parameter to steer with.

        Raises:
            AmbiguityError: when no admissible ciphertext is found
                within ``max_attempts``, steering is requested at
                ``l = 3``, or ``fake_domain`` is empty or ``fake_domain``
                / ``fake_value`` is not made of integers.
        """
        value = as_integer(value)
        if fake_domain is not None:
            fake_domain = checked_domain(fake_domain)
        if fake_value is not None:
            fake_value = _counterfeit(fake_value)
            numerators, denominator = self._steered_vector(
                value, (fake_value, fake_value + 1), True, max_attempts
            )
        else:
            numerators, denominator = self._ambiguous_vector(
                value, fake_domain, max_attempts
            )
        return AmbiguousCiphertext(numerators, denominator)

    def encrypt_values_ambiguous(
        self, values: Iterable[int], fake_domain: Tuple[int, int] = None
    ) -> RowBlock:
        """Encrypt values with the Section 4.2 layer, as one row block.

        The sibling of :meth:`encrypt_values`: value ``i`` becomes rows
        ``2i`` (the ``l``-prefix of its ambiguity vector) and ``2i + 1``
        (the ``l``-suffix), counterfeits steered into ``fake_domain``
        when one is given (checked once, here).  Every random draw and
        the owner's verification stay per value, in order — a rejected
        draw retries before the next value draws — so the block is
        exactly what :meth:`encrypt_value_ambiguous` produces value by
        value.
        """
        if fake_domain is not None:
            fake_domain = checked_domain(fake_domain)
        return self._encrypt_values_ambiguous(as_integers(values), fake_domain)

    def _encrypt_values_ambiguous(
        self, values: List[int], fake_domain: Optional[Tuple[int, int]]
    ) -> RowBlock:
        """:meth:`encrypt_values_ambiguous` of values :func:`as_integers`
        already checked, into a domain :func:`checked_domain` did."""

        def encrypt(chunk):
            solved = [
                self._ambiguous_vector(value, fake_domain) for value in chunk
            ]
            return RowBlock.from_ints(
                self.key.length,
                [
                    x
                    for vector, _ in solved
                    for window in (vector[:-1], vector[1:])
                    for x in window
                ],
                [
                    denominator
                    for _, denominator in solved
                    for _ in range(2)
                ],
            )

        # Chunk by chunk, so the boxed transients stay bounded.
        blocks = [encrypt(chunk) for chunk in _chunks(values)]
        if not blocks:
            return RowBlock.from_ints(self.key.length, (), ())
        return RowBlock.concatenate(blocks)

    def _ambiguous_vector(
        self,
        value: int,
        fake_domain: Optional[Tuple[int, int]],
        max_attempts: int = 64,
    ) -> Tuple[IntVector, int]:
        """One ambiguity vector as ``(numerators, denominator)``, its
        counterfeit steered into ``fake_domain`` (already checked) when
        there is one."""
        if fake_domain is None:
            return self._unsteered_vector(value, max_attempts)
        return self._steered_vector(value, fake_domain, False, max_attempts)

    def _unsteered_vector(
        self, value: int, max_attempts: int
    ) -> Tuple[IntVector, int]:
        """Ambiguity vector whose fake branch decodes wherever theta
        puts it."""
        for _ in range(max_attempts):
            real = self.encrypt_value(value)
            theta_as_suffix = bool(next(self._words) & 1)
            ambiguous = self._attach_theta(real, theta_as_suffix)
            vector = ambiguous.numerators, ambiguous.denominator
            (real_value, _), (fake_value, _) = self._open_windows(
                *vector, 0 if theta_as_suffix else 1
            )
            if real_value is None:
                raise AmbiguityError("real branch failed the odd-xi check")
            if fake_value is None:
                return vector
        raise AmbiguityError(
            "fake branch kept decrypting like a real row after %d attempts"
            % max_attempts
        )

    def _open_windows(
        self, numerators: IntVector, denominator: int, real_offset: int
    ) -> List[Tuple[Optional[int], int]]:
        """The owner's check of Section 4.2: the real, then the fake
        window of an ambiguity vector opened as :meth:`_check_ints`
        opens a row, in straight-line Python ints — per window ``(value,
        xi)``, the plaintext (None unless the window passes all four
        checks of :meth:`decrypt_block`) and the numerator of its ``xi``
        over the positive ``denominator`` (0 where the noise check
        fails).  The window rows make the products with ``M`` that
        ``_opening`` makes, each shifted to its window."""
        opened = []
        for offset in (real_offset, 1 - real_offset):
            payload0, _, xi_row, noise = self._windows[offset]
            xi = 0
            if not sum(map(mul, noise, numerators)):
                xi = sum(map(mul, xi_row, numerators))
            scaled = sum(map(mul, payload0, numerators))
            real = (
                xi > 0
                and xi % denominator == 0
                and xi // denominator % 2 == 1
                and scaled % xi == 0
            )
            opened.append((scaled // xi if real else None, xi))
        return opened

    def _steered_vector(
        self,
        value: int,
        fake_domain: Tuple[int, int],
        strict: bool,
        max_attempts: int,
    ) -> Tuple[IntVector, int]:
        """Two-interpretation vector with a chosen counterfeit.

        Solves, exactly, for a length-``(l+1)`` vector ``a`` such that
        (with ``ro``/``fo`` the real/fake window offsets and ``r`` the
        key's ambiguity row):

        1. ``M @ a[ro:ro+l]`` carries payload ``(xi*v, -xi)``  (real);
        2. ``r . a[ro:ro+l] = 0``   (real noise orthogonal to ``u``);
        3. ``r . a[fo:fo+l] = 0``   (fake noise orthogonal — the theta
           condition of Section 4.2);
        4. ``M @ a[fo:fo+l]`` has payload ratio in ``fake_domain`` (the
           counterfeit).

        Free solution dimensions (``l > 4``) are randomised; attempts
        are rejected until the fake multiplier is positive (so the
        counterfeit row compares consistently, like a genuinely
        inserted record) and fails the odd-integer convention.
        ``strict`` (a pinned counterfeit) raises where a domain would
        fall back to the unsteered construction.
        """
        if self.key.length < 4:
            raise AmbiguityError(
                "steered counterfeits need ciphertext length >= 4"
            )
        for _ in range(max_attempts):
            first_offset = 0 if next(self._words) & 1 else 1
            for real_offset in (first_offset, 1 - first_offset):
                solved = self._solve_steered(value, fake_domain, real_offset)
                if solved is None:
                    continue
                (real, _), (fake, fake_xi) = self._open_windows(
                    *solved, real_offset
                )
                # The real window must decode to the value; the
                # counterfeit must fail the odd-integer convention yet
                # keep a positive multiplier (xi's numerator is over a
                # positive denominator).
                if real == value and fake is None and fake_xi > 0:
                    return solved
        if strict:
            raise AmbiguityError(
                "no admissible steered ciphertext in %d attempts" % max_attempts
            )
        # The achievable counterfeit range is key-dependent (see
        # generate_steerable_key); for keys that cannot reach this
        # domain, degrade to the unsteered construction rather than
        # fail — the row stays two-faced, the counterfeit just never
        # matches realistic queries.
        self.steering_fallbacks += 1
        return self._unsteered_vector(value, max_attempts)

    def _solve_steered(
        self,
        value: int,
        fake_domain: Tuple[int, int],
        real_offset: int,
    ) -> Optional[Tuple[IntVector, int]]:
        """One steering attempt; None when this draw is inadmissible.

        The *structural* constraints on the ambiguity vector ``a`` —
        the real window's payload ratio and both windows' noise
        orthogonality — are homogeneous, leaving a solution subspace of
        dimension ``l - 2 >= 2``.  A random 2-dimensional pencil
        ``a(t) = b1 + t * b2`` inside it is drawn; along the pencil the
        real and fake multipliers are linear in ``t`` and the fake
        pseudo-value is a fractional-linear function of ``t``, so
        :meth:`_pick_parameter` can aim ``t`` at a counterfeit.

        Everything is a Python int, and the basis is read off the key's
        plan (:attr:`_plans`): the constraint of the value is ``row0 +
        v * row1`` and the other two do not involve ``v``, so each
        nullspace vector, taken as Cramer cofactors over the plan's
        pivot columns, is a linear form ``beta0 + v * beta1`` and so are
        its products with the three rows the coefficients below read.
        Those cofactors are the RREF basis times the pivots' minor
        ``D(v) = d0 + v * d1`` — :func:`integer_nullspace`'s basis up to
        one common factor, which scales ``b1``, ``b2`` and all six
        coefficients alike and cancels from ``t`` (a ratio), from every
        sign test (a product of two) and from the reduced result.  The
        surviving vector is flipped positive and scaled so the real
        multiplier is a random odd integer — the scale freedom is
        exactly the paper's ``xi(v)`` — i.e. ``xi * (den*b1 + num*b2) /
        (p*den + q*num)`` at ``t = num/den``, reduced to lowest terms.
        """
        d0, d1, forms = self._plans[real_offset]
        # Why the guard is sound.  RREF pivots greedily: a column is a
        # pivot iff it is independent of the columns left of it, which
        # makes the pivot set of a rank-3 system the first column triple
        # in combinations order whose minor does not vanish.  Every
        # triple before the plan's has a minor vanishing for every v, so
        # wherever D(v) != 0 the plan's triple *is* that first one, and
        # its cofactors are the RREF basis scaled by D(v).  D(v) == 0 (at
        # most one integer v per key and window offset) is left to the
        # elimination, which pivots further right or finds rank 2.
        if d0 + value * d1:
            basis = [[c + value * s for c, s in form] for form in forms]
        else:
            basis = self._eliminated(value, real_offset)
        b1, b2 = self._random_pencil(basis)
        # mu_re(t) = p + q t, mu_fk(t) = c0 + c1 t, P0_fk(t) = a0 + a1 t.
        (p, c0, a0), (q, c1, a1) = b1[:3], b2[:3]
        parameter = self._pick_parameter(fake_domain, p, q, c0, c1, a0, a1)
        if parameter is None:
            return None
        num, den = parameter
        real_multiplier = p * den + q * num
        if real_multiplier == 0:
            return None
        xi = self._draw_odd_multiplier()
        if real_multiplier < 0:  # flip the vector, not the multiplier
            xi, real_multiplier = -xi, -real_multiplier
        vector = [xi * (den * x + num * y) for x, y in zip(b1[3:], b2[3:])]
        if not any(vector):
            return None
        common = gcd(real_multiplier, *vector)
        return (
            tuple([x // common for x in vector]),
            real_multiplier // common,
        )

    @cached_property
    def _plans(self) -> Tuple[tuple, tuple]:
        """Per real-window offset, the steering plan ``(d0, d1, forms)``
        of :func:`_steering_plan` — built on the first steered value,
        not with the encryptor, which may never steer."""
        return tuple(
            _steering_plan(*self._steering_rows(real_offset))
            for real_offset in (0, 1)
        )

    def _steering_rows(self, real_offset: int):
        """The steering system at a real-window offset: the two rows
        whose combination ``row0 + v * row1`` says the real window
        decodes to ``v`` (payload slot 0 plus ``v`` times slot 1 is
        zero), the two noise checks, and the rows read for ``mu_re``,
        ``mu_fk`` and ``P0_fk``."""
        payload0, payload1, real_xi, real_noise = self._windows[real_offset]
        fake_payload0, _, fake_xi, fake_noise = self._windows[1 - real_offset]
        return (
            (payload0, payload1),
            (real_noise, fake_noise),
            (real_xi, fake_xi, fake_payload0),
        )

    def _eliminated(self, value: int, real_offset: int) -> List[List[int]]:
        """:meth:`_solve_steered`'s basis where the plan's minor vanishes:
        the system at ``value`` eliminated exactly, each vector behind
        its three coefficients as the plan lays them out."""
        (row0, row1), noise, coefficient_rows = self._steering_rows(
            real_offset
        )
        basis, _ = integer_nullspace(
            ([a + value * b for a, b in zip(row0, row1)],) + noise
        )
        return [_with_coefficients(coefficient_rows, x) for x in basis]

    def _random_pencil(self, basis) -> Tuple[list, list]:
        """Two random independent combinations of the nullspace basis."""
        if len(basis) == 2:
            return basis[0], basis[1]
        while True:
            coeffs1 = [self._below(17) - 8 for _ in basis]
            coeffs2 = [self._below(17) - 8 for _ in basis]
            # Independence of the coefficient vectors implies
            # independence of the combinations (basis is independent).
            cross_ok = any(
                coeffs1[i] * coeffs2[j] != coeffs1[j] * coeffs2[i]
                for i in range(len(basis))
                for j in range(i + 1, len(basis))
            )
            if not cross_ok:
                continue
            b1 = [dot(coeffs1, column) for column in zip(*basis)]
            b2 = [dot(coeffs2, column) for column in zip(*basis)]
            if any(b1) and any(b2):
                return b1, b2

    def _pick_parameter(
        self,
        fake_domain: Tuple[int, int],
        p: int,
        q: int,
        c0: int,
        c1: int,
        a0: int,
        a1: int,
    ) -> Optional[Tuple[int, int]]:
        """Find ``t = num/den`` with sign(mu_re) == sign(mu_fk) and the
        counterfeit in the domain.

        Conditions on ``t``::

            f(t) = (p + q t)(c0 + c1 t) > 0          (consistent fake)
            g(t) = (P0 - lo*mu_fk)(P0 - hi*mu_fk) <= 0   (in-domain)

        with ``P0 = a0 + a1 t`` and ``mu_fk = c0 + c1 t`` (the domain
        condition is multiplied through by ``mu_fk^2``, so it is
        sign-safe).  Uniform counterfeit targets are tried first (their
        acceptance keeps the counterfeit distribution uniform over the
        feasible part of the domain), as integer sign tests with
        ``f(t)`` multiplied through by ``den^2``.  The rare fallback
        tests the O(1) rational candidate points defined by the roots
        of the four linear factors — the one place steering still
        builds :class:`~fractions.Fraction` objects; the roots are
        ratios of the (commonly scaled) coefficients, so the candidates
        are those of the unscaled system.
        """
        domain_lo, domain_hi = fake_domain[0], fake_domain[1] - 1
        span = fake_domain[1] - domain_lo
        # Accept-reject on uniform integer counterfeits: invert the
        # fractional-linear map c = P0 / mu_fk at the target.
        for _ in range(UNIFORM_TARGET_TRIES):
            target = domain_lo + self._below(span)
            den = a1 - target * c1
            if den == 0:
                continue
            num = target * c0 - a0
            if (p * den + q * num) * (c0 * den + c1 * num) > 0:
                return num, den

        def feasible(t: Fraction) -> bool:
            mu_fk = c0 + c1 * t
            if (p + q * t) * mu_fk <= 0:
                return False
            payload0 = a0 + a1 * t
            return (payload0 - domain_lo * mu_fk) * (
                payload0 - domain_hi * mu_fk
            ) <= 0

        # Fallback: candidate points around the roots of all factors.
        roots = sorted({
            Fraction(-constant, slope)
            for constant, slope in (
                (p, q),
                (c0, c1),
                (a0 - domain_lo * c0, a1 - domain_lo * c1),
                (a0 - domain_hi * c0, a1 - domain_hi * c1),
            )
            if slope != 0
        })
        candidates = []
        if roots:
            candidates.append(roots[0] - 1)
            for left, right in zip(roots, roots[1:]):
                candidates.append((left + right) / 2)
            candidates.append(roots[-1] + 1)
            candidates.extend(roots)
        else:
            candidates.append(Fraction(0))
        feasible_points = [t for t in candidates if feasible(t)]
        if not feasible_points:
            return None
        t = feasible_points[self._below(len(feasible_points))]
        return t.numerator, t.denominator

    def _attach_theta(
        self, real: ValueCiphertext, theta_as_suffix: bool
    ) -> AmbiguousCiphertext:
        """Compute theta and build the two-interpretation vector.

        theta is the unique rational making the *other* end's noise
        contents (after multiplying back by ``M``) orthogonal to ``u``:
        with the precomputed row ``r`` (``r . x == u . noise(M @ x)``),

        * suffix variant (``(Ev; theta)``): fake row is
          ``(Ev[1:], theta)`` and ``theta = -(sum r[i] Ev[i+1]) / r[-1]``;
        * prefix variant (``(theta; Ev)``): fake row is
          ``(theta, Ev[:-1])`` and ``theta = -(sum r[i] Ev[i-1]) / r[0]``.
        """
        r = self.key.ambiguity_row
        ev = real.numerators
        length = self.key.length
        if theta_as_suffix:
            shifted = sum(r[i] * ev[i + 1] for i in range(length - 1))
            theta = Fraction(-shifted, r[-1])
        else:
            shifted = sum(r[i] * ev[i - 1] for i in range(1, length))
            theta = Fraction(-shifted, r[0])
        denominator = theta.denominator
        scaled = tuple(e * denominator for e in ev)
        if theta_as_suffix:
            numerators = scaled + (theta.numerator,)
        else:
            numerators = (theta.numerator,) + scaled
        return AmbiguousCiphertext(numerators, denominator)

    # -- mode Eb: bounds -------------------------------------------------

    def encrypt_bound(self, bound: int) -> BoundCiphertext:
        """Encrypt a query bound in mode ``Eb`` (Section 3.3).

        ``Eb(b) = M^T @ (payload(1, b) + lambda * u)`` — by linearity
        row ``p0`` of ``M``, plus ``b`` times row ``p1``, plus
        ``lambda`` times the key's ambiguity row (``u`` at the noise
        positions, through ``M^T``).
        """
        bound = as_integer(bound)
        lam = self._draw_nonzero()
        p0, p1 = self.key.payload_positions
        matrix = self.key.matrix
        return BoundCiphertext(tuple([
            one + bound * slope + lam * noise
            for one, slope, noise
            in zip(matrix[p0], matrix[p1], self.key.ambiguity_row)
        ]))

    # -- query bounds: both modes off two pools ---------------------------

    def _query_bound(self, bound: int) -> Tuple[BoundCiphertext, ValueCiphertext]:
        """``(Eb(b), Ev(b))`` of an integer bound (Section 4.3) as affine
        maps of two pooled entries, each serving this bound alone:
        ``Ev(b) = r + (xi b) M^-1[:, p0]`` off an ``Ev(0)`` row ``r``,
        ``Eb(b) = e + b M[p1]`` off ``e = M[p0] + lambda *
        ambiguity_row`` (``docs/security.md``, "Owner randomness")."""
        if not self._value_pool:
            # One block of Ev(0) rows, xi = -(M r)[p1] off each.
            block = self._encrypt_values([0] * _POOL_ENTRIES)
            (opened,), __ = multiply(block.limbs, self._opening, PRODUCTS)
            rows = to_objects(block.limbs[:, :-1]).tolist()
            self._value_pool.extend(zip(map(tuple, rows), opened[:, 1].tolist()))
        while not self._bound_pool:
            # One call of their own for the lambdas: _below's rule, a
            # rejected word dropped, _draw_nonzero's map of the residue.
            self._bound_draws += 1
            label = b"bounds" + struct.pack("<Q", self._bound_draws)
            words = _shake_words(self._stream_key, label, _POOL_ENTRIES).tolist()
            top, span = self._multiplier_bound, 2 * self._multiplier_bound
            kept = [w % span for w in words if w - w % span <= _WORD_RANGE - span]
            lams = np.array(
                [[1, below - top + (below >= top)] for below in kept], dtype=object
            )
            offsets = lams.reshape(-1, 2) @ self._bound_rows
            self._bound_pool.extend(map(tuple, offsets.tolist()))
        row, xi = self._value_pool.pop()
        offset = self._bound_pool.pop()
        eb = map(add, offset, map(mul, self._bound_slope, repeat(bound)))
        ev = map(add, row, map(mul, self._value_slope, repeat(xi * bound)))
        return BoundCiphertext(tuple(eb)), ValueCiphertext(tuple(ev))

    # -- decryption -------------------------------------------------------

    def decrypt_block(
        self, rows: Iterable[ValueCiphertext]
    ) -> Tuple[List[bool], List[int], List[int]]:
        """Open a row set — a :class:`RowBlock` or any sequence of
        rows — with one matrix product, classifying real vs fake.

        Multiplies back by ``M``, reads the payload slots, and applies
        the odd-integer convention: a row is real iff the recovered
        ``xi`` is an odd positive integer; then ``v = x[p0] / xi``.
        After the product the checks are one pass of integer
        remainders over its three columns, so the counterfeit half of
        an ambiguity result costs a few comparisons per row, not a
        rational decrypt.

        Returns ``(is_real, values, xi_numerators)``: per row whether
        it is real; the plaintexts of the real rows, in row order; and
        per row the numerator of ``xi`` over the row's denominator —
        zero where the noise check failed.

        A row is real iff (a) its noise contents are orthogonal to the
        secret direction ``u`` — every honestly produced row (real or
        counterfeit branch) satisfies this exactly, while tampering
        with any ciphertext component breaks it with overwhelming
        probability, so the check doubles as integrity protection —
        (b) the recovered ``xi`` is an odd positive integer, and
        (c) the payload decodes to an integral plaintext (the client
        knows the column holds integers; a fake branch can, rarely,
        mimic the odd-xi convention alone, and the owner additionally
        resamples at encryption time whenever a fake passes all
        checks).
        """
        is_real, values, xi = self._open(RowBlock.from_rows(rows), True)
        return is_real.tolist(), values.tolist(), xi.tolist()

    def open_block(self, block: RowBlock) -> Tuple[np.ndarray, np.ndarray]:
        """``(is_real, values)`` of :meth:`decrypt_block` as arrays —
        a ``bool`` per row and the plaintexts of the real ones, ``int64``
        (``object`` when one of them needs more) — for a caller that
        goes on in arrays
        (:meth:`repro.core.client.TrustedClient.decrypt_results`)."""
        return self._open(block, False)[:2]

    def _open(self, block: RowBlock, multipliers: bool):
        """:meth:`decrypt_block` in arrays, the ``xi`` numerators only
        when ``multipliers`` asks for them (None otherwise).

        The block's rows are multiplied by the opening operand once, each
        in the arithmetic :func:`repro.linalg.limbs.multiply` picks for
        it, and checked in that arithmetic — :meth:`_check_words`,
        :meth:`_check_digits`, :meth:`_check_ints`.  Rows settled in
        words or digits count on :attr:`fast_rows`, boxed ones on
        :attr:`exact_rows`.

        Raises:
            DecryptionError: rows of another length than the key's.
        """
        limbs = block.limbs
        if not len(limbs):
            empty = np.zeros(0, dtype=np.int64)
            return np.zeros(0, dtype=bool), empty, empty
        if limbs.shape[1] != self._opening.length:
            raise DecryptionError(
                "rows of length %d under a key of length %d"
                % (limbs.shape[1] - 1, self.key.length)
            )
        (is_real, plaintexts, xi), (__, words, digits, boxed) = multiply(
            limbs, self._opening, self._checks[multipliers]
        )
        self.fast_rows += words + digits
        self.exact_rows += boxed
        values = plaintexts[is_real]
        if values.dtype.kind == "O":
            values = _int_array(values.tolist())
        return is_real, values, xi

    def _check_words(self, multipliers: bool, opened: np.ndarray):
        """The checks of :meth:`decrypt_block` on rows whose products —
        ``(payload0, xi, noise, denominator)`` per row — are proven
        64-bit words: ``(is_real, plaintexts, xi)`` per row, the
        plaintexts meaningful where ``is_real``.  Every operand is a
        word, and a divisor is never 0."""
        payload0, xi, noise, denominators = opened.T
        xi = np.where(noise == 0, xi, 0)
        positive = xi > 0
        divisor = np.where(positive, xi, 1)
        quotient, remainder = np.divmod(xi, denominators)
        is_real = (
            positive
            & (remainder == 0)
            & (quotient & 1 == 1)
            & (payload0 % divisor == 0)
        )
        return is_real, payload0 // divisor, xi if multipliers else None

    def _check_digits(self, multipliers: bool, opened: np.ndarray):
        """:meth:`_check_words` on exact base-2^32 digits (``J x n x
        4``), whatever the width of the rows, ``xi`` boxed only when
        ``multipliers`` asks; with the mask of rows it leaves undecided.

        The products are exact, so the noise test and ``xi > 0`` are
        read off their digits.  The two divisibility tests need no
        division: a real row has ``xi = q * denominator`` and
        ``|payload0| = |v| * xi`` for integers ``q`` and ``v``, and
        where those are below ``2^31`` the ``float64`` quotient of the
        operands (each within ``J u`` of its integer, ``J <= 31`` digits)
        rounds to them — so the rounded quotient is multiplied back in
        digits and compared, and a mismatch proves there is no integer
        quotient at all.  A quotient is tried when it rounds to at most
        ``DIGIT_FACTOR_LIMIT``, so an integer quotient is decided by its
        value alone, ``2^31 - 1`` included: rows whose quotient is
        ``2^31`` or more (no honest ``xi``; a plaintext past 31 bits)
        stay undecided, as does every row of products too wide for a
        ``float64``.
        """
        if len(opened) > FLOAT_DIGITS:
            return None, np.ones(opened.shape[1], dtype=bool)
        payload0, xi, noise, denominators = opened.transpose(2, 0, 1)
        clean = ~noise.any(axis=0)
        candidate = clean & (digits_sign(xi) > 0)
        magnitude, negative = digits_magnitude(payload0)
        # (|payload0|, xi, denominator) side by side, digit-major: the
        # first two are what the last two must divide.
        trio = np.empty((len(opened), 3, len(clean)), dtype=np.int64)
        trio[:, 0], trio[:, 1], trio[:, 2] = magnitude, xi, denominators
        floats = digits_to_float(trio)
        ratios = np.zeros((2, len(clean)))
        np.divide(floats[:2], floats[1:], out=ratios, where=candidate)
        small = (ratios < DIGIT_FACTOR_LIMIT + 0.5).all(axis=0)
        factors = np.rint(np.where(small, ratios, 0)).astype(np.int64)
        is_real = (
            candidate
            & small
            & (factors[1] & 1 == 1)
            & digit_multiples(factors, trio[:, 1:], trio[:, :2]).all(axis=0)
        )
        undecided = candidate & ~small
        if multipliers:
            xi = to_objects(digits_to_limbs(np.where(clean, xi, 0)))
        return (
            is_real,
            np.where(negative, -factors[0], factors[0]),
            xi if multipliers else None,
        ), (undecided if undecided.any() else None)

    def _check_ints(self, multipliers: bool, opened: np.ndarray):
        """:meth:`_check_words` in big-int arithmetic over an ``n x 4``
        object matrix of products: the reference every array result is
        proven equal to, and the check of every row they leave."""
        rows = opened.tolist()
        xi = [0 if noise else x for __, x, noise, __ in rows]
        is_real = [
            x > 0 and x % denominator == 0 and x // denominator % 2 == 1
            and payload0 % x == 0
            for (payload0, __, __, denominator), x in zip(rows, xi)
        ]
        plaintexts = [
            row[0] // x if real else 0 for row, x, real in zip(rows, xi, is_real)
        ]
        return (
            np.array(is_real, dtype=bool),
            _int_array(plaintexts),
            _int_array(xi) if multipliers else None,
        )

    def decrypt_row(self, row: ValueCiphertext) -> DecryptedRow:
        """Decrypt one server row — the one-row view of
        :meth:`decrypt_block`, with ``xi`` as an exact rational."""
        is_real, values, xi = self.decrypt_block((row,))
        return DecryptedRow(
            value=values[0] if is_real[0] else None,
            multiplier=Fraction(xi[0], row.denominator),
            is_real=is_real[0],
        )

    def decrypt_value(self, row: ValueCiphertext) -> int:
        """Decrypt a row known to be real; raise on fakes.

        Raises:
            DecryptionError: if the row is a fake interpretation.
        """
        decrypted = self.decrypt_row(row)
        if not decrypted.is_real:
            raise DecryptionError("row is a fake (ambiguity) interpretation")
        return decrypted.value

    # -- analysis hooks (key-holder only) ----------------------------------

    def pre_image(self, row: ValueCiphertext) -> Tuple[IntVector, int]:
        """Return the pre-matrix noisy vector of a row (numerators, den).

        This is what an adversary would observe *if* the matrix layer
        were absent — the starting point of the Section 3.5 noise-layer
        attack.  Requires the key; exposed for the attack simulations
        and tests.
        """
        return mat_vec(self.key.matrix, row.numerators), row.denominator

    def bound_pre_image(self, bound: BoundCiphertext) -> IntVector:
        """Return the pre-matrix noisy vector of a bound ciphertext."""
        inverse_t = mat_transpose(self.key.matrix_inverse)
        return mat_vec(inverse_t, bound.vector)

    # -- internals ---------------------------------------------------------

    def _draw_odd_multiplier(self) -> int:
        """Draw ``xi``: odd, positive, uniform over ``[1, bound]``."""
        return 2 * self._below(self._xi_span) + 1

    def _below(self, stop: int) -> int:
        """Uniform in ``[0, stop)``, off the sequential stream.

        A word ``r`` is kept only where its run of ``stop`` values, from
        ``r - r % stop``, fits below ``2^64`` — that is, where ``r`` is
        below the largest multiple of ``stop`` there — and is then
        reduced modulo ``stop``: every residue is hit by equally many
        kept words.  A ``stop`` past ``2^64`` takes as many words as it
        needs, as one number."""
        words = self._words
        while True:
            r, scale = next(words), _WORD_RANGE
            while scale < stop:
                r, scale = r << 64 | next(words), scale << 64
            below = r % stop
            if r - below <= scale - stop:
                return below

    def _draw_nonzero(self) -> int:
        """Draw ``lambda``: nonzero, uniform over ``[-bound, bound]``."""
        bound = self._multiplier_bound
        draw = self._below(2 * bound) + 1
        return draw - bound - 1 if draw <= bound else draw - bound


def as_integer(value) -> int:
    """``value`` as the Python int it is — the scheme is exact over the
    integers, so what :func:`operator.index` refuses (a float, a
    string, a ``Fraction``) is refused here rather than rounded.

    Raises:
        EncryptionError: ``value`` is not an integer.
    """
    try:
        return index(value)
    except TypeError:
        raise EncryptionError(
            "the scheme encrypts integers, got %r" % (value,)
        ) from None


def as_integers(values: Iterable) -> List[int]:
    """:func:`as_integer` of every element, as a list — ``values``
    itself when it already is a list of plain ints, so a column checked
    at one entry point costs the next one a scan, not a copy."""
    if type(values) is list and set(map(type, values)) <= {int}:
        return values
    if (
        isinstance(values, np.ndarray)
        and values.ndim == 1
        and values.dtype.kind in "iu"
    ):
        return values.tolist()
    try:
        return list(map(index, values))
    except TypeError as exc:
        raise EncryptionError(
            "the scheme encrypts integers: %s" % exc
        ) from None


def _chunks(values: List[int]) -> List[List[int]]:
    """``values`` in runs of :data:`_ENCRYPT_CHUNK`."""
    return [
        values[start:start + _ENCRYPT_CHUNK]
        for start in range(0, len(values), _ENCRYPT_CHUNK)
    ]


def _shake_words(key: bytes, label: bytes, size: int) -> np.ndarray:
    """``size`` 64-bit words (``uint64``, little-endian) of
    SHAKE-256(``key`` ‖ ``label``): the one source of an
    :class:`Encryptor`'s randomness.  ``label`` is ``"block"`` and two
    counters for a block's draws, ``"stream"`` and one counter for the
    sequential stream, so no two calls of one key read the same
    words."""
    digest = hashlib.shake_256(key + label).digest(8 * size)
    return np.frombuffer(digest, dtype="<u8")


def _stream_words(key: bytes, counter: int) -> List[int]:
    """The sequential stream's ``_STREAM_WORDS`` words from ``counter *
    _STREAM_WORDS`` on (counter mode), as Python ints."""
    return _shake_words(
        key, b"stream" + struct.pack("<Q", counter), _STREAM_WORDS
    ).tolist()


def _fixed_orthogonal(u: Sequence[int]) -> IntVector:
    """The vector orthogonal to ``u`` that needs no draw: ``(u_j,
    -u_i)`` at the first positions ``i < j`` where ``u`` does not
    vanish, zero elsewhere (all zero for a one-component ``u``)."""
    fixed = [0] * len(u)
    for i, j in combinations(range(len(u)), 2):
        if u[i] or u[j]:
            fixed[i], fixed[j] = u[j], -u[i]
            break
    return tuple(fixed)


def _object_matrix(rows) -> np.ndarray:
    """Equal-length int sequences as a 2-d object-dtype matrix (Python
    big ints flow through ``@`` exactly)."""
    matrix = np.empty((len(rows), len(rows[0])), dtype=object)
    matrix[:] = rows
    return matrix


def _int_array(integers: List[int]) -> np.ndarray:
    """``integers`` as an ``int64`` array — an ``object`` one when the
    scheme's arbitrary precision takes one of them past a word."""
    try:
        return np.array(integers, dtype=np.int64)
    except OverflowError:
        boxed = np.empty(len(integers), dtype=object)
        boxed[:] = integers
        return boxed


def checked_domain(fake_domain: Tuple[int, int]) -> Tuple[int, int]:
    """A counterfeit domain as the pair of ints it is: an end that
    :func:`operator.index` refuses is refused rather than rounded, and
    so is an empty domain (it is half-open, so ``lo`` itself would lie
    outside it).

    Raises:
        AmbiguityError: either end is not an integer, or the domain is
            empty.
    """
    low, high = map(_counterfeit, fake_domain)
    if high <= low:
        raise AmbiguityError(
            "fake_domain [%d, %d) is empty" % (low, high)
        )
    return low, high


def _counterfeit(value) -> int:
    """A counterfeit pseudo-value or domain end, :func:`as_integer`'s
    way but with the ambiguity layer's error."""
    try:
        return index(value)
    except TypeError:
        raise AmbiguityError(
            "counterfeits are integers, got %r" % (value,)
        ) from None


def _steering_plan(value_rows, noise_rows, coefficient_rows):
    """What steering at one window offset reads of the key: ``(d0, d1,
    forms)``.

    The system is ``row0 + v * row1`` (``value_rows``) over the two
    ``noise_rows``; by linearity in its first row, the minor over any
    column triple is ``d0 + v * d1``, the minor at ``row0`` plus ``v``
    times the minor at ``row1``.  The plan pivots on the first triple,
    in :func:`itertools.combinations` order, whose minor is not
    identically zero, and holds it as ``(d0, d1)``.  Each free column
    ``f``, ascending, gets the nullspace vector with ``D(v)`` at ``f``,
    0 at the other free columns and, at the pivot in slot ``m``, minus
    the minor with column ``m`` replaced by column ``f`` (Cramer): linear
    in ``v`` too, its products with ``coefficient_rows`` placed ahead of
    it (:func:`_with_coefficients`).  ``forms`` is that, per free column,
    as ``(constant, slope)`` pairs.  A system no triple spans for any
    ``v`` has the plan ``(0, 0, ())``, whose minor always vanishes.
    """
    systems = [(row,) + tuple(noise_rows) for row in value_rows]

    def minors(columns):
        return [
            determinant(tuple(tuple(row[c] for c in columns) for row in rows))
            for rows in systems
        ]

    width = len(noise_rows[0])
    for pivots in combinations(range(width), 3):
        leading = minors(pivots)
        if any(leading):
            break
    else:
        return 0, 0, ()
    forms = []
    for free in range(width):
        if free in pivots:
            continue
        parts = [[0] * width for _ in systems]
        for part, minor in zip(parts, leading):
            part[free] = minor
        for slot, column in enumerate(pivots):
            replaced = minors(pivots[:slot] + (free,) + pivots[slot + 1:])
            for part, minor in zip(parts, replaced):
                part[column] = -minor
        forms.append(tuple(zip(*(
            _with_coefficients(coefficient_rows, part) for part in parts
        ))))
    return leading[0], leading[1], tuple(forms)


def _with_coefficients(rows, vector) -> List[int]:
    """``vector`` behind its products with ``rows``."""
    return [dot(row, vector) for row in rows] + list(vector)


def probe_steerable(
    key: SecretKey,
    fake_domain: Tuple[int, int],
    seed: int = None,
    probes: int = 5,
) -> bool:
    """Whether counterfeits in ``fake_domain`` are reachable under ``key``.

    The achievable counterfeit range of the ambiguity layer is a
    key-dependent interval (the solution space of the structural
    constraints is finite-dimensional — at ``l = 4`` it is a plane, and
    the in-domain / sign-consistent conditions carve an interval out of
    its projective line).  Empirically the property is binary per key:
    either counterfeits across the whole domain are reachable or none
    are.  This probes a handful of values spread over the domain.

    Raises:
        AmbiguityError: if ``fake_domain`` is empty.
    """
    low, high = fake_domain = checked_domain(fake_domain)
    if key.length < 4:
        return False
    encryptor = Encryptor(key, seed=seed)
    span = max(1, high - low - 1)
    probe_values = [low + span * i // max(1, probes - 1) for i in range(probes)]
    for value in probe_values:
        try:
            encryptor._steered_vector(
                value, fake_domain, False, max_attempts=4
            )
        except AmbiguityError:
            return False
        if encryptor.steering_fallbacks:
            return False
    return True


def generate_steerable_key(
    length: int,
    fake_domain: Tuple[int, int],
    seed: int = None,
    max_attempts: int = 64,
) -> SecretKey:
    """Generate a key whose ambiguity layer can reach ``fake_domain``.

    Data owners enabling ambiguity should pick their key with this
    function (roughly 85% of random keys qualify, so the retry loop is
    short): it resamples :func:`repro.crypto.key.generate_key` until
    :func:`probe_steerable` passes.

    Raises:
        KeyGenerationError: if no steerable key is found within the
            attempt budget.
    """
    base = 0 if seed is None else seed
    for attempt in range(max_attempts):
        key = generate_key(length=length, seed=base + attempt if seed is not None else None)
        if probe_steerable(key, fake_domain, seed=base + attempt):
            return key
    raise KeyGenerationError(
        "no steerable key found in %d attempts" % max_attempts
    )
