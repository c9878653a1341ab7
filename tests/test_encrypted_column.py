"""Unit tests for the encrypted cracker column."""

import numpy as np
import pytest

from repro.core.encrypted_column import EncryptedColumn
from repro.crypto.ciphertext import RowBlock
from repro.errors import IndexStateError

VALUES = [13, 16, 4, 9, 2, 12, 7, 1, 19, 3]


@pytest.fixture()
def column(encryptor):
    rows = [encryptor.encrypt_value(v) for v in VALUES]
    return EncryptedColumn(rows)


def decrypted_values(encryptor, column):
    return [
        encryptor.decrypt_value(column.row(i)) for i in range(len(column))
    ]


class TestConstruction:
    def test_length_and_ids(self, column):
        assert len(column) == len(VALUES)
        assert column.row_ids.tolist() == list(range(len(VALUES)))

    def test_custom_ids(self, encryptor):
        rows = [encryptor.encrypt_value(v) for v in (1, 2)]
        column = EncryptedColumn(rows, row_ids=[7, 9])
        assert column.row_ids.tolist() == [7, 9]

    def test_id_length_mismatch_rejected(self, encryptor):
        rows = [encryptor.encrypt_value(1)]
        with pytest.raises(IndexStateError):
            EncryptedColumn(rows, row_ids=[1, 2])

    def test_mixed_lengths_rejected(self, encryptor, encryptor8):
        with pytest.raises(IndexStateError):
            EncryptedColumn(
                [encryptor.encrypt_value(1), encryptor8.encrypt_value(2)]
            )

    def test_empty_column(self):
        column = EncryptedColumn([])
        assert len(column) == 0


class TestProducts:
    def test_signs_match_plaintext(self, column, encryptor):
        bound = encryptor.encrypt_bound(9)
        products = column.products(0, len(column), bound)
        for value, product in zip(VALUES, products):
            expected = (value > 9) - (value < 9)
            got = (int(product) > 0) - (int(product) < 0)
            assert got == expected

    def test_piece_slice(self, column, encryptor):
        bound = encryptor.encrypt_bound(9)
        products = column.products(2, 5, bound)
        assert len(products) == 3


class TestCrack:
    def test_crack_partitions(self, column, encryptor):
        bound = encryptor.encrypt_bound(10)
        split = column.crack(0, len(column), bound, inclusive=False)
        values = decrypted_values(encryptor, column)
        assert split == sum(1 for v in VALUES if v < 10)
        assert all(v < 10 for v in values[:split])
        assert all(v >= 10 for v in values[split:])

    def test_crack_inclusive_ties(self, encryptor):
        rows = [encryptor.encrypt_value(v) for v in (5, 10, 15, 10)]
        column = EncryptedColumn(rows)
        bound = encryptor.encrypt_bound(10)
        split = column.crack(0, 4, bound, inclusive=True)
        assert split == 3

    def test_row_ids_follow_rows(self, column, encryptor):
        bound = encryptor.encrypt_bound(10)
        column.crack(0, len(column), bound, inclusive=False)
        for i in range(len(column)):
            row_id = int(column.row_ids[i])
            assert encryptor.decrypt_value(column.row(i)) == VALUES[row_id]

    def test_inplace_algorithm_equivalent(self, encryptor):
        rows = [encryptor.encrypt_value(v) for v in VALUES]
        fast = EncryptedColumn(rows)
        slow = EncryptedColumn(rows, use_inplace_algorithm=True)
        bound = encryptor.encrypt_bound(9)
        assert fast.crack(0, len(VALUES), bound, False) == slow.crack(
            0, len(VALUES), bound, False
        )

    def test_crack_three(self, column, encryptor):
        low = encryptor.encrypt_bound(4)
        high = encryptor.encrypt_bound(12)
        split0, split1 = column.crack_three(
            0, len(column), low, True, high, True
        )
        values = decrypted_values(encryptor, column)
        assert all(v < 4 for v in values[:split0])
        assert all(4 <= v <= 12 for v in values[split0:split1])
        assert all(v > 12 for v in values[split1:])

    def test_out_of_range_rejected(self, column, encryptor):
        with pytest.raises(IndexStateError):
            column.crack(0, len(column) + 1, encryptor.encrypt_bound(1), False)


class TestScanQualifying:
    def test_matches_plaintext_filter(self, column, encryptor):
        low = encryptor.encrypt_bound(4)
        high = encryptor.encrypt_bound(12)
        indices = column.scan_qualifying(0, len(column), low, True, high, True)
        expected = [i for i, v in enumerate(VALUES) if 4 <= v <= 12]
        assert indices.tolist() == expected

    def test_exclusive_bounds(self, column, encryptor):
        low = encryptor.encrypt_bound(4)
        high = encryptor.encrypt_bound(12)
        indices = column.scan_qualifying(
            0, len(column), low, False, high, False
        )
        expected = [i for i, v in enumerate(VALUES) if 4 < v < 12]
        assert indices.tolist() == expected


class TestUpdates:
    def test_insert_one_row(self, column, encryptor):
        row = encryptor.encrypt_value(999)
        column.insert_block([3], RowBlock.from_rows([row]), [100])
        assert len(column) == len(VALUES) + 1
        assert encryptor.decrypt_value(column.row(3)) == 999
        assert int(column.row_ids[3]) == 100

    def test_delete_one_position(self, column, encryptor):
        column.delete_positions([0])
        assert len(column) == len(VALUES) - 1
        assert encryptor.decrypt_value(column.row(0)) == VALUES[1]

    def test_positions_of_one_id(self, column):
        assert column.positions_of([4]).tolist() == [4]
        with pytest.raises(IndexStateError):
            column.positions_of([999])

    def test_insert_bounds_checked(self, column, encryptor):
        with pytest.raises(IndexStateError):
            column.insert_block(
                [len(column) + 1], RowBlock.from_rows([encryptor.encrypt_value(1)]), [0]
            )

    def test_insert_into_empty(self, encryptor):
        column = EncryptedColumn([])
        column.insert_block([0], RowBlock.from_rows([encryptor.encrypt_value(5)]), [0])
        assert len(column) == 1
        assert encryptor.decrypt_value(column.row(0)) == 5
