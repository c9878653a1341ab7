"""Limbs: the fixed-width store under blocks, columns and frames.

``repro.linalg.limbs`` holds sets of big integers as ``uint64`` limb
arrays.  Everything above it assumes three things, each pinned here
against Python's own integers: the conversions are exact both ways
(bit-lengths, sign extension and wire bytes included), the float plane
stays within the error the rounding bound charges for it, and a
:class:`PackedInts` is the list of ints it stands for.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg import limbs as L
from repro.net.protocol import SECTIONS

#: Integers that sit on every edge the limb arithmetic has.
EDGES = sorted(
    {sign * (2 ** bits + delta)
     for bits in (0, 1, 7, 8, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192)
     for delta in (-1, 0, 1) for sign in (1, -1)}
)
INTS = st.one_of(st.sampled_from(EDGES), st.integers(-(2 ** 200), 2 ** 200))
RUNS = st.lists(INTS, min_size=1, max_size=12)


class TestConversions:
    @given(RUNS, st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_bit_length_and_sign_extension(self, values, extra):
        limbs = L.from_ints(values)
        bits = max(v.bit_length() for v in values)
        assert limbs.shape == (len(values), bits // 64 + 1)
        assert limbs.dtype == np.uint64
        wide = L.widen(limbs, limbs.shape[1] + extra)
        for array in (limbs, wide):
            assert L.to_objects(array).tolist() == values
            assert L.bit_length(array) == bits
            assert bits <= L.top_bits(array) <= max(
                bits, 64 * (array.shape[1] - 1)
            ) + 2
            assert L.fits_word(array) == all(
                -(2 ** 63) <= v < 2 ** 63 for v in values
            )
        assert L.bit_length(limbs[:0]) == 0

    @given(RUNS)
    @settings(max_examples=300, deadline=None)
    def test_wire_bytes_are_to_bytes_of_each_integer(self, values):
        limbs = L.from_ints(values)
        width = L.bit_length(limbs) // 8 + 1
        for width in (width, width + 1, width + 9):
            payload = L.to_wire(limbs, width)
            assert payload == b"".join(
                v.to_bytes(width, "big", signed=True) for v in values
            )
            back = L.from_wire(payload, width)
            assert back.shape == (len(values), (width + 7) // 8)
            assert L.to_objects(back).tolist() == values

    def test_the_most_negative_value_of_a_limb_count(self):
        # -2^63 in one limb: Python counts 64 bits, so the canonical
        # width is 9 bytes — one more than the limb holds.
        limbs = np.array([[1 << 63]], dtype=np.uint64)
        assert L.to_objects(limbs).tolist() == [-(2 ** 63)]
        assert L.bit_length(limbs) == 64
        assert L.to_wire(limbs, 9) == (-(2 ** 63)).to_bytes(9, "big", signed=True)


class TestPackedInts:
    VALUES = [0, -1, 2 ** 64, -(2 ** 100), 7]

    def test_it_is_the_list_it_stands_for(self):
        packed = L.PackedInts(L.from_ints(self.VALUES))
        assert isinstance(packed, list) and len(packed) == 5
        assert packed == self.VALUES and self.VALUES == packed
        assert not packed != self.VALUES and packed != self.VALUES[:-1]
        assert {"run": packed} == {"run": self.VALUES}
        assert list(packed) == self.VALUES and tuple(packed) == tuple(self.VALUES)
        assert packed[1] == -1 and packed[-1] == 7 and packed[1:3] == [-1, 2 ** 64]
        assert 2 ** 64 in packed and 5 not in packed
        assert json.dumps(packed) == json.dumps(self.VALUES)
        assert json.loads(json.dumps({"x": packed}, indent=1)) == {"x": self.VALUES}
        assert packed == L.PackedInts(L.widen(packed.limbs, 4))
        assert repr(packed) == "PackedInts(%r)" % self.VALUES
        with pytest.raises(TypeError):
            hash(packed)
        assert not L.PackedInts(L.from_ints([])) and L.PackedInts(
            L.from_ints([])
        ) == []

    def test_no_list_method_acts_on_the_empty_storage(self):
        values = self.VALUES
        packed = L.PackedInts(L.from_ints(values))
        twin = L.PackedInts(L.widen(packed.limbs, 3))
        assert list(reversed(packed)) == values[::-1]
        assert packed + [1] == values + [1] and [1] + packed == [1] + values
        assert packed + twin == values + values
        assert packed * 2 == values * 2 == 2 * packed
        assert packed.copy() == values and type(packed.copy()) is list
        assert packed.count(7) == 1 and packed.index(2 ** 64) == 2
        assert sorted(packed) == sorted(values) and max(packed) == 2 ** 64
        assert (packed < [1], packed <= twin, packed > twin, packed >= [0]) \
            == (values < [1], True, False, values >= [0])
        assert np.array(packed[:2] + [3]).tolist() == [0, -1, 3]
        for mutate in (
            lambda: packed.append(1), lambda: packed.extend([1]),
            lambda: packed.insert(0, 1), lambda: packed.pop(),
            lambda: packed.remove(7), lambda: packed.clear(),
            lambda: packed.sort(), lambda: packed.reverse(),
            lambda: packed.__setitem__(0, 1), lambda: packed.__delitem__(0),
            lambda: packed.__iadd__([1]), lambda: packed.__imul__(2),
        ):
            with pytest.raises(TypeError):
                mutate()
        assert packed == values
        # Every public method ``list`` has is either overridden here or
        # object's: a new one in a later Python fails this, not a user.
        inherited = {
            name for name in dir(list)
            if getattr(L.PackedInts, name) is getattr(list, name)
            and getattr(list, name) is not getattr(object, name, None)
        }
        assert inherited <= {"__class_getitem__", "__sizeof__", "__new__",
                             "__getattribute__", "__hash__"}, inherited

    @given(st.lists(INTS, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_json_fields_are_byte_identical_to_the_list_form(self, values):
        packed = L.PackedInts(L.from_ints(values))
        frame = b"".join(SECTIONS.parts({"run": packed}))
        assert frame == b"".join(SECTIONS.parts({"run": values}))
        decoded, end = SECTIONS.at(frame, 0)
        assert end == len(frame)
        assert decoded["run"] == values and isinstance(decoded["run"], list)


class TestFloatPlane:
    @given(RUNS, st.integers(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_to_float_stays_within_the_error_the_bound_charges(self, values, extra):
        limbs = L.from_ints(values)
        k = limbs.shape[1] + extra
        if k > 4:
            return
        floats = L.to_float(L.widen(limbs, k))
        # |a~ - a| <= gamma_k * S with S < |a| + 2 * 2^(64(k-1)).
        gamma = Fraction(k, 2 ** 53 - k)
        for value, approx in zip(values, floats.tolist()):
            slack = abs(value) + (2 * 2 ** (64 * (k - 1)) if k > 1 else 0)
            assert abs(Fraction(approx) - value) <= gamma * slack

    def test_rounding_bound_charges_the_recombination(self):
        one = L.rounding_bound(4, 60, 31)
        assert one == (6 * 4 << 91) // (2 ** 53 - 6) + 1 + (1 << 14)
        # Two limbs: 3k roundings for the row operand, abits >= 64.
        assert L.rounding_bound(4, 60, 31, 2) == L.rounding_bound(4, 64, 31, 2)
        assert L.rounding_bound(4, 66, 31, 2) == (
            (11 * 4 << 97) // (2 ** 53 - 11) + 1 + (1 << 14)
        )
        assert L.rounding_bound(4, 0, 17, 3) >= L.ROUNDING_LIMIT

    @given(
        st.lists(
            st.tuples(st.integers(-(2 ** 66), 2 ** 66),
                      st.integers(-(2 ** 66), 2 ** 66)),
            min_size=1, max_size=10,
        ),
        st.tuples(st.integers(-(2 ** 31), 2 ** 31),
                  st.integers(-(2 ** 31), 2 ** 31)),
    )
    @settings(max_examples=300, deadline=None)
    def test_an_accepted_word_is_the_exact_product(self, rows, vector):
        limbs = L.from_ints([x for row in rows for x in row]).reshape(
            len(rows), 2, -1
        )
        bound = L.rounding_bound(
            2, L.bit_length(limbs), L.int_bit_length(vector), limbs.shape[2]
        )
        assert bound < L.ROUNDING_LIMIT
        words, accepted = L.proven_products(
            limbs[:, :, 0], L.to_float(limbs), L.word_operand(vector), bound
        )
        exact = [a * vector[0] + b * vector[1] for a, b in rows]
        for word, ok, product in zip(words.tolist(), accepted.tolist(), exact):
            assert word == (product + 2 ** 63) % 2 ** 64 - 2 ** 63
            if ok:
                assert word == product
            if abs(product) < 2 ** 62:
                assert ok  # a product that fits with room is never refused


# -- exact products in digits ------------------------------------------------------------


def _canonical(value, count):
    """The ``count`` canonical base-2^32 digits of ``value``."""
    digits = [(value >> 32 * j) & 0xFFFFFFFF for j in range(count - 1)]
    return digits + [value >> 32 * (count - 1)]


class TestDigits:
    @given(RUNS, st.integers(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_digits_round_trip_and_carry(self, values, extra):
        limbs = L.from_ints(values)
        limbs = L.widen(limbs, limbs.shape[1] + extra)
        digits = L.to_digits(limbs)
        assert digits.dtype == np.int64 and digits.shape == (
            2 * limbs.shape[1], len(values),
        )
        assert digits.T.tolist() == [
            _canonical(v, len(digits)) for v in values
        ]
        assert L.to_objects(L.digits_to_limbs(digits)).tolist() == values
        assert L.digits_sign(digits).tolist() == [
            (v > 0) - (v < 0) for v in values
        ]
        magnitude, negative = L.digits_magnitude(digits)
        assert negative.tolist() == [v < 0 for v in values]
        assert L.to_objects(L.digits_to_limbs(magnitude)).tolist() == [
            abs(v) for v in values
        ]
        floats = L.digits_to_float(magnitude).tolist()
        for value, approx in zip(values, floats):
            assert abs(Fraction(approx) - abs(value)) * 2 ** 53 <= (
                len(digits) * abs(value)
            )
        # Any signed sums below 2^62 carry to the same canonical form.
        sums = digits * 3 - 5
        carried = L.carry_digits(sums)
        assert carried.T.tolist() == [
            _canonical(
                sum(int(d) * 2 ** (32 * j) for j, d in enumerate(column)),
                len(carried),
            )
            for column in sums.T.tolist()
        ]
        # An odd digit count packs the signed top digit on its own.
        assert L.to_objects(L.digits_to_limbs(carried)).tolist() == [
            3 * v - 5 * sum(2 ** (32 * j) for j in range(len(digits)))
            for v in values
        ]

    @given(
        st.integers(1, 6), st.integers(1, 3), st.integers(1, 3),
        st.sampled_from([3, 17, 28, 29, 37, 64, 90, 200]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_products_are_python_products(self, length, columns, k, bits, rng):
        rows = [
            [rng.choice(EDGES + [rng.randrange(-(2 ** (64 * k - 1)), 2 ** (64 * k - 1))])
             for _ in range(length)]
            for _ in range(5)
        ]
        rows = [[x if -(2 ** (64 * k - 1)) < x < 2 ** (64 * k - 1) else 1
                 for x in row] for row in rows]
        matrix = [
            tuple(rng.randrange(-(2 ** bits) + 1, 2 ** bits) for _ in range(columns))
            for _ in range(length)
        ]
        limbs = L.widen(L.from_ints([x for row in rows for x in row]), k)
        limbs = limbs.reshape(5, length, k)
        operand = L.digit_operand(matrix)
        assert (operand.shape[2] == 1) == (
            32 + L.int_bit_length(x for row in matrix for x in row)
            + (length - 1).bit_length() <= 62
        )
        digits = L.exact_products(L.to_digits(limbs), operand)
        assert digits.shape[1:] == (5, columns)
        assert ((digits[:-1] >= 0) & (digits[:-1] < 2 ** 32)).all()
        expected = [
            [sum(a * row[c] for a, row in zip(numerators, matrix))
             for c in range(columns)]
            for numerators in rows
        ]
        assert L.to_objects(L.digits_to_limbs(digits)).tolist() == expected
        assert L.digits_sign(digits).tolist() == [
            [(p > 0) - (p < 0) for p in row] for row in expected
        ]
        if columns == 1:
            vector = [row[0] for row in matrix]
            assert np.array_equal(
                L.exact_products(
                    L.to_digits(limbs), L.digit_operand(vector)
                ),
                digits,
            )

    def test_an_operand_past_the_headroom_is_refused(self):
        assert L.digit_operand([2 ** 2000] * 40) is None
        assert L.digit_operand([2 ** 2000] * 4).shape == (4, 1, 126)

    @given(
        st.lists(
            st.tuples(st.integers(0, 2 ** 31 - 1), st.integers(0, 2 ** 150),
                      st.integers(-3, 3)),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_digit_multiples_is_integer_equality(self, cases):
        factors = np.array([f for f, _, _ in cases], dtype=np.int64)
        count = 8  # 224 bits and the carry digit: room for every product
        digits = np.array([_canonical(x, count) for _, x, _ in cases]).T
        targets = np.array(
            [_canonical(max(f * x + off, 0), count) for f, x, off in cases]
        ).T
        assert L.digit_multiples(factors, digits, targets).tolist() == [
            f * x == max(f * x + off, 0) for f, x, off in cases
        ]
        # A product that outgrows the digits equals nothing they hold —
        # not even the digits it leaves behind.
        factor, value = 2 ** 31 - 1, 2 ** 185
        left = [(factor * value >> 32 * j) & 0xFFFFFFFF for j in range(6)]
        assert left[-1] and not L.digit_multiples(
            np.array([factor]),
            np.array([_canonical(value, 6)]).T,
            np.array([left]).T,
        ).any()
