"""Unit tests for the encryption scheme (paper, Section 3)."""

import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from repro.crypto import scheme
from repro.crypto.ciphertext import BoundCiphertext, ValueCiphertext
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor, compare
from repro.errors import DecryptionError, EncryptionError


class TestValueRoundTrip:
    @pytest.mark.parametrize(
        "value", [0, 1, -1, 42, -42, 2 ** 31 - 1, -(2 ** 31), 10 ** 18]
    )
    def test_round_trip(self, encryptor, value):
        assert encryptor.decrypt_value(encryptor.encrypt_value(value)) == value

    def test_ciphertexts_randomised(self, encryptor):
        first = encryptor.encrypt_value(7)
        second = encryptor.encrypt_value(7)
        assert first.numerators != second.numerators

    def test_ciphertext_is_integral(self, encryptor):
        ciphertext = encryptor.encrypt_value(123)
        assert all(isinstance(x, int) for x in ciphertext.numerators)
        assert ciphertext.denominator == 1

    def test_multiplier_is_odd_positive(self, encryptor):
        for value in (5, -5, 0):
            decrypted = encryptor.decrypt_row(encryptor.encrypt_value(value))
            assert decrypted.is_real
            assert decrypted.multiplier > 0
            assert decrypted.multiplier.denominator == 1
            assert decrypted.multiplier.numerator % 2 == 1


class TestComparisons:
    def test_sign_exact(self, encryptor):
        cases = [(5, 3, 1), (3, 5, -1), (5, 5, 0), (-2, -3, 1), (0, 0, 0)]
        for value, bound, expected in cases:
            sign = compare(
                encryptor.encrypt_bound(bound), encryptor.encrypt_value(value)
            )
            assert sign == expected, (value, bound)

    def test_adjacent_values_distinguished(self, encryptor):
        # Exactness guarantee: gaps of one are never misclassified.
        base = 2 ** 31 - 2
        value = encryptor.encrypt_value(base)
        assert compare(encryptor.encrypt_bound(base - 1), value) == 1
        assert compare(encryptor.encrypt_bound(base), value) == 0
        assert compare(encryptor.encrypt_bound(base + 1), value) == -1

    def test_randomised_exhaustive(self, encryptor, rng):
        for _ in range(200):
            value = rng.randrange(-(2 ** 33), 2 ** 33)
            bound = rng.randrange(-(2 ** 33), 2 ** 33)
            sign = compare(
                encryptor.encrypt_bound(bound), encryptor.encrypt_value(value)
            )
            assert sign == (value > bound) - (value < bound)

    def test_norm_is_obscured(self, encryptor):
        # The product equals xi * (v - b); since xi is secret and
        # random, equal differences yield different products.
        bound = encryptor.encrypt_bound(0)
        products = {
            bound.product_sign(encryptor.encrypt_value(10)) for _ in range(4)
        }
        assert products == {1}
        raw = {
            sum(
                a * b
                for a, b in zip(bound.vector, encryptor.encrypt_value(10).numerators)
            )
            for _ in range(8)
        }
        assert len(raw) > 1

    @pytest.mark.parametrize("length", [3, 4, 5, 8, 16])
    def test_all_key_lengths(self, length):
        encryptor = Encryptor(generate_key(length=length, seed=length), seed=1)
        for value, bound in [(10, 3), (3, 10), (7, 7)]:
            sign = compare(
                encryptor.encrypt_bound(bound), encryptor.encrypt_value(value)
            )
            assert sign == (value > bound) - (value < bound)


class TestDecryption:
    def test_decrypt_value_on_fake_raises(self, encryptor):
        ambiguous = encryptor.encrypt_value_ambiguous(9)
        prefix, suffix = ambiguous.interpretations()
        fake = prefix if not encryptor.decrypt_row(prefix).is_real else suffix
        with pytest.raises(DecryptionError):
            encryptor.decrypt_value(fake)

    def test_wrong_key_misdecrypts(self, encryptor):
        other = Encryptor(generate_key(length=4, seed=999), seed=1)
        ciphertext = encryptor.encrypt_value(1234)
        decrypted = other.decrypt_row(ciphertext)
        # Wrong key: either flagged fake or decodes to a wrong value.
        assert not decrypted.is_real or decrypted.value != 1234

    def test_pre_image_round_trip(self, encryptor):
        ciphertext = encryptor.encrypt_value(77)
        pre_image, denominator = encryptor.pre_image(ciphertext)
        payload0, payload1 = encryptor.key.payload_projection(pre_image)
        assert payload0 == -77 * payload1
        assert denominator == 1

    def test_bound_pre_image_round_trip(self, encryptor):
        ciphertext = encryptor.encrypt_bound(55)
        pre_image = encryptor.bound_pre_image(ciphertext)
        payload0, payload1 = encryptor.key.payload_projection(pre_image)
        assert (payload0, payload1) == (1, 55)


class TestCiphertextContainers:
    def test_value_ciphertext_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            ValueCiphertext((1, 2, 3, 4), 0)
        with pytest.raises(ValueError):
            ValueCiphertext((1, 2, 3, 4), -2)

    def test_lengths(self, encryptor):
        assert encryptor.encrypt_value(1).length == encryptor.key.length
        assert encryptor.encrypt_bound(1).length == encryptor.key.length

    def test_product_sign_values(self, encryptor):
        bound = encryptor.encrypt_bound(10)
        assert bound.product_sign(encryptor.encrypt_value(11)) == 1
        assert bound.product_sign(encryptor.encrypt_value(10)) == 0
        assert bound.product_sign(encryptor.encrypt_value(9)) == -1


class TestEncryptorConfiguration:
    def test_invalid_multiplier_bound(self, key4):
        with pytest.raises(EncryptionError):
            Encryptor(key4, multiplier_bound=0)

    def test_deterministic_with_seed(self, key4):
        a = Encryptor(key4, seed=5).encrypt_value(3)
        b = Encryptor(key4, seed=5).encrypt_value(3)
        assert a == b

    def test_shared_rng(self, key4):
        rng = random.Random(9)
        encryptor = Encryptor(key4, rng=rng)
        encryptor.encrypt_value(1)  # consumes from the caller's rng
        assert rng.random() != random.Random(9).random()

    def test_lambda_never_zero(self, key4):
        encryptor = Encryptor(key4, seed=0, multiplier_bound=1)
        draws = {encryptor._draw_nonzero() for _ in range(50)}
        assert draws <= {-1, 1}
        assert 0 not in draws

    def test_odd_multiplier_distribution(self, key4):
        encryptor = Encryptor(key4, seed=0, multiplier_bound=8)
        draws = {encryptor._draw_odd_multiplier() for _ in range(200)}
        assert draws == {1, 3, 5, 7}


# -- query bounds off the encryptor's pools --------------------------------------------


def _pooled(encryptor, bound):
    return encryptor._query_bound(bound)


class TestPooledQueryBounds:
    """``Encryptor._query_bound``: both forms of a bound as affine maps of
    pooled entries (``make_query``'s path), against the scalar
    ``encrypt_bound`` / ``encrypt_value``."""

    @pytest.mark.parametrize("bound", [0, -1, -(10 ** 9), 2 ** 31 - 1, 2 ** 70])
    def test_both_forms_open_to_the_bound(self, encryptor, bound):
        key = encryptor.key
        p0, p1 = key.payload_positions
        for _ in range(3):
            eb, ev = _pooled(encryptor, bound)
            assert encryptor.decrypt_value(ev) == bound
            pre_image, denominator = encryptor.pre_image(ev)
            xi = -pre_image[p1]
            assert denominator == 1 and xi > 0 and xi % 2 == 1
            assert pre_image[p0] == xi * bound
            noise = [pre_image[i] for i in key.noise_positions]
            assert sum(n * u for n, u in zip(noise, key.u)) == 0
            bound_pre_image = encryptor.bound_pre_image(eb)
            assert (bound_pre_image[p0], bound_pre_image[p1]) == (1, bound)
            # The bound's noise is lambda * u, lambda nonzero.
            lam = {
                Fraction(bound_pre_image[i], u)
                for i, u in zip(key.noise_positions, key.u) if u
            }
            assert len(lam) == 1 and lam != {0}

    def test_signs_against_scalar_rows_are_the_plaintext_order(self, encryptor):
        rng = random.Random(5)
        rows = {v: encryptor.encrypt_value(v) for v in range(-40, 41, 3)}
        for _ in range(60):
            bound = rng.randrange(-45, 46)
            eb, ev = _pooled(encryptor, bound)
            for value, row in rows.items():
                assert compare(eb, row) == (value > bound) - (value < bound)
                # And the Ev form orders against a scalar Eb as a tree key.
                scalar = encryptor.encrypt_bound(value)
                product = sum(map(mul, scalar.vector, ev.numerators))
                assert (product > 0) - (product < 0) == (
                    (bound > value) - (bound < value)
                )

    def test_no_entry_serves_two_bounds(self, key4):
        # A wide multiplier bound: two lambdas or rows alike would be
        # one entry served twice, not chance.
        encryptor = Encryptor(key4, seed=9, multiplier_bound=1 << 40)
        bounds = [_pooled(encryptor, 0) for _ in range(10_000)]
        assert len({eb.vector for eb, __ in bounds}) == 10_000
        assert len({ev.numerators for __, ev in bounds}) == 10_000

    def test_a_pool_is_one_block_draw_at_a_time(self, encryptor):
        _pooled(encryptor, 1)
        assert encryptor._blocks == 1 and encryptor._bound_draws == 1
        for _ in range(scheme._POOL_ENTRIES - 1):
            _pooled(encryptor, 1)
        assert encryptor._blocks == 1
        _pooled(encryptor, 1)
        assert encryptor._blocks == 2

    def test_rejected_lambda_words_are_drawn_again(self, key4, monkeypatch):
        calls = []
        shake_words = scheme._shake_words

        def rigged(key, label, size):
            words = shake_words(key, label, size)
            if label.startswith(b"bounds"):
                calls.append(label)
                if len(calls) == 1:
                    # Every word past the last whole run of the span.
                    return np.arange(size, dtype=np.uint64)[::-1] + np.uint64(
                        (1 << 64) - size
                    )
            return words

        monkeypatch.setattr(scheme, "_shake_words", rigged)
        encryptor = Encryptor(key4, seed=3, multiplier_bound=(1 << 62) + 1)
        eb, ev = _pooled(encryptor, 77)
        assert len(calls) == 2
        assert encryptor.decrypt_value(ev) == 77
        assert compare(eb, encryptor.encrypt_value(78)) == 1
        assert compare(eb, encryptor.encrypt_value(77)) == 0

    def test_tiny_parameters_take_the_redraw_paths(self, key4):
        # xi = 1 and lambda = +-1 only; w in {-1, 0, 1}^2 is zero (and
        # drawn again off the sequential stream) one time in nine.
        encryptor = Encryptor(key4, seed=4, multiplier_bound=1,
                              noise_magnitude=1)
        draw = encryptor._draw
        redrawn = []

        def watched(words):
            redrawn.append(1)
            return draw(words)

        encryptor._draw = watched
        for bound in range(-300, 300):
            eb, ev = _pooled(encryptor, bound)
            assert encryptor.decrypt_row(ev).multiplier == 1
            assert encryptor.decrypt_value(ev) == bound
            assert compare(eb, encryptor.encrypt_value(bound - 1)) == -1
        assert redrawn

    def test_a_rotated_session_serves_no_entry_of_the_old_key(self):
        from repro.core.session import OutsourcedDatabase

        db = OutsourcedDatabase(list(range(0, 3_000, 3)), seed=8)
        assert len(db.query(300, 330).values) == 11
        old = db.client.encryptor
        old_rows = {row for row, __ in old._value_pool}
        old_offsets = set(old._bound_pool)
        assert old_rows and old_offsets
        db.rotate_key(new_seed=21)
        new = db.client.encryptor
        assert new is not old and new.key != old.key
        sent = []
        make_query = db.client.make_query

        def recorded(*args, **kwargs):
            sent.append(make_query(*args, **kwargs))
            return sent[-1]

        db.client.make_query = recorded
        for low in range(0, 3_000, 300):
            assert len(db.query(low, low + 30).values) == 11
        assert not old_rows & {row for row, __ in new._value_pool}
        assert not old_offsets & set(new._bound_pool)
        for query in sent:
            for bound in (query.low, query.high):
                assert new.decrypt_row(bound.ev).is_real
                assert not old.decrypt_row(bound.ev).is_real
