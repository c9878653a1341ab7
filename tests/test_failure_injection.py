"""Failure-injection tests: corrupted state must be detected, not
silently mis-answered."""

import numpy as np
import pytest

from repro.core.client import TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.secure_index import SecureAdaptiveIndex
from repro.crypto.ciphertext import ValueCiphertext
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor
from repro.errors import IndexStateError

VALUES = list(np.random.default_rng(33).permutation(200))


class TestCorruptedCiphertexts:
    def test_flipped_component_detected_or_fake(self, encryptor):
        ciphertext = encryptor.encrypt_value(777)
        tampered = ValueCiphertext(
            ciphertext.numerators[:-1] + (ciphertext.numerators[-1] + 1,),
            ciphertext.denominator,
        )
        decrypted = encryptor.decrypt_row(tampered)
        # A flipped component breaks the noise-orthogonality and/or the
        # odd-integer structure: the row reads as fake (or at minimum
        # decodes to a different value).
        assert not decrypted.is_real or decrypted.value != 777

    def test_many_corruptions_rarely_pass_as_real(self, encryptor, rng):
        passed_as_real = 0
        trials = 50
        for _ in range(trials):
            ciphertext = encryptor.encrypt_value(rng.randrange(10 ** 6))
            index = rng.randrange(len(ciphertext.numerators))
            delta = rng.choice([-3, -1, 1, 2, 7])
            numerators = list(ciphertext.numerators)
            numerators[index] += delta
            decrypted = encryptor.decrypt_row(
                ValueCiphertext(tuple(numerators), ciphertext.denominator)
            )
            if decrypted.is_real:
                passed_as_real += 1
        assert passed_as_real <= trials // 10

    def test_cross_key_rows_filtered(self, rng):
        # Rows encrypted under another tenant's key must not decrypt as
        # real values under ours (the odd-xi + integrality check).
        ours = Encryptor(generate_key(4, seed=101), seed=1)
        theirs = Encryptor(generate_key(4, seed=202), seed=2)
        misreads = 0
        for _ in range(30):
            foreign = theirs.encrypt_value(rng.randrange(10 ** 6))
            if ours.decrypt_row(foreign).is_real:
                misreads += 1
        assert misreads <= 3


class TestCorruptedIndexState:
    def make_engine(self):
        client = TrustedClient(seed=7)
        rows, row_ids = client.encrypt_dataset(VALUES)
        engine = SecureAdaptiveIndex(
            EncryptedColumn(rows, row_ids), min_piece_size=1
        )
        for low in (20, 80, 140):
            engine.query(client.make_query(low, low + 30))
        return client, engine

    def test_tampered_node_position_caught(self):
        __, engine = self.make_engine()
        engine.cracks.positions[0] += 3
        with pytest.raises(AssertionError):
            engine.check_invariants()

    def test_tampered_row_order_caught(self):
        client, engine = self.make_engine()
        column = engine.column
        # Swap the first and last physical rows behind the index's back.
        column._apply_order(
            0, len(column), np.concatenate((
                [len(column) - 1],
                np.arange(1, len(column) - 1),
                [0],
            ))
        )
        with pytest.raises(AssertionError):
            engine.check_invariants()

    def test_duplicate_row_ids_rejected(self, encryptor):
        rows = [encryptor.encrypt_value(v) for v in (1, 2)]
        with pytest.raises(IndexStateError):
            EncryptedColumn(rows, row_ids=[5, 5])

    def test_duplicate_insert_id_rejected(self, encryptor):
        column = EncryptedColumn([encryptor.encrypt_value(1)], row_ids=[0])
        with pytest.raises(IndexStateError):
            column.insert_at(0, encryptor.encrypt_value(2), row_id=0)


class TestClientRobustness:
    def test_garbage_rows_in_response_are_dropped(self):
        client = TrustedClient(seed=8)
        rows, row_ids = client.encrypt_dataset([10, 20, 30])
        garbage = ValueCiphertext((1, 2, 3, 4), 1)
        result = client.decrypt_results(
            list(row_ids) + [99], rows + [garbage]
        )
        assert sorted(result.values.tolist()) == [10, 20, 30]
        assert result.false_positives == 1
