"""Unit tests for the OPES baseline (paper, Section 2.1)."""

import random

import numpy as np
import pytest

from repro.core.opes_index import OpesOutsourcedDatabase
from repro.crypto.opes import OpesCipher, generate_opes_key
from repro.errors import DecryptionError, EncryptionError, KeyGenerationError, QueryError

from conftest import reference_positions

DOMAIN = (0, 10000)


@pytest.fixture(scope="module")
def cipher():
    return OpesCipher(generate_opes_key(DOMAIN, seed=5))


class TestCipher:
    def test_round_trip(self, cipher):
        for value in (0, 1, 42, 9999, 5000):
            assert cipher.decrypt(cipher.encrypt(value)) == value

    def test_strictly_monotone(self, cipher):
        rng = random.Random(0)
        values = sorted(rng.sample(range(*DOMAIN), 200))
        ciphertexts = [cipher.encrypt(v) for v in values]
        assert all(a < b for a, b in zip(ciphertexts, ciphertexts[1:]))

    def test_deterministic(self, cipher):
        assert cipher.encrypt(123) == cipher.encrypt(123)

    def test_different_keys_differ(self):
        a = OpesCipher(generate_opes_key(DOMAIN, seed=1))
        b = OpesCipher(generate_opes_key(DOMAIN, seed=2))
        samples = [a.encrypt(v) == b.encrypt(v) for v in range(0, 10000, 997)]
        assert not all(samples)

    def test_out_of_domain_rejected(self, cipher):
        with pytest.raises(EncryptionError):
            cipher.encrypt(-1)
        with pytest.raises(EncryptionError):
            cipher.encrypt(DOMAIN[1])

    def test_bound_clamps(self, cipher):
        assert cipher.encrypt_bound(-100) == cipher.encrypt(0)
        assert cipher.encrypt_bound(10 ** 9) == cipher.encrypt(DOMAIN[1] - 1)

    def test_invalid_ciphertext_rejected(self, cipher):
        valid = cipher.encrypt(5)
        with pytest.raises(DecryptionError):
            cipher.decrypt(valid + 1)
        with pytest.raises(DecryptionError):
            cipher.decrypt(-1)

    def test_negative_domain(self):
        cipher = OpesCipher(generate_opes_key((-500, 500), seed=3))
        for value in (-500, -1, 0, 499):
            assert cipher.decrypt(cipher.encrypt(value)) == value
        assert cipher.encrypt(-500) < cipher.encrypt(0) < cipher.encrypt(499)

    def test_key_validation(self):
        with pytest.raises(KeyGenerationError):
            generate_opes_key((5, 5))

    def test_order_leaks_to_anyone(self, cipher):
        # The point of the paper's critique: no key needed to sort.
        values = [7, 9999, 0, 512]
        ciphertexts = [cipher.encrypt(v) for v in values]
        recovered_order = np.argsort(ciphertexts)
        true_order = np.argsort(values)
        assert np.array_equal(recovered_order, true_order)


class TestOpesDatabase:
    @pytest.fixture(scope="class")
    def db_and_values(self):
        values = np.random.default_rng(4).permutation(3000)
        return OpesOutsourcedDatabase(values, seed=6), values

    def test_matches_reference(self, db_and_values):
        db, values = db_and_values
        rng = random.Random(1)
        for _ in range(60):
            low = rng.randrange(0, 2900)
            high = low + rng.randrange(0, 400)
            low_inclusive = rng.random() < 0.5
            high_inclusive = rng.random() < 0.5
            result = db.query(low, high, low_inclusive, high_inclusive)
            expected = reference_positions(
                values, low, high, low_inclusive, high_inclusive
            )
            assert np.array_equal(np.sort(result.logical_ids), expected)

    def test_out_of_domain_queries(self, db_and_values):
        db, values = db_and_values
        assert len(db.query(-100, -1).values) == 0
        assert len(db.query(5000, 6000).values) == 0
        all_rows = db.query(-100, 10 ** 6)
        assert len(all_rows.values) == len(values)

    def test_no_false_positives(self, db_and_values):
        db, __ = db_and_values
        assert db.query(0, 500).false_positives == 0

    def test_total_order_leaks_immediately(self, db_and_values):
        db, __ = db_and_values
        from repro.analysis.leakage import resolved_order_fraction

        boundaries = db.server.piece_boundaries()
        assert resolved_order_fraction(boundaries, len(db)) == 1.0

    def test_inverted_range_rejected(self, db_and_values):
        db, __ = db_and_values
        with pytest.raises(QueryError):
            db.query(10, 5)

    def test_queries_stay_cheap(self, db_and_values):
        db, __ = db_and_values
        db.query(0, 100)
        stats = db.server.stats_log[-1]
        # Two binary searches and nothing else, in counts: the order
        # was public from the load on, so no query ever cracks.
        assert (stats.cracks, stats.cracked_rows, stats.crack_seconds) == (0, 0, 0)
        assert 0 < stats.comparisons <= 2 * len(db).bit_length()
