"""Behaviour pin for the choice of arithmetic behind every exact product.

A product is computed in proven 64-bit words, in exact 32-bit digits or
in boxed Python ints, and which one is chosen per row shows in the
counters: the client's ``fast_rows`` / ``exact_rows`` and the server's
``kernel.fast_products`` / ``kernel.exact_products``.  Blocks and pieces
of 1 to 150 rows — on both sides of every row crossover — are opened
and classified under several keys and row kinds, and each result and
counter delta is hashed.  The hashes were computed before the choice
moved behind one entry point; a change that moves a row to another
stage, or any result, moves them.
"""

import hashlib
import json
import random

import numpy as np

from repro.core.client import TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.query import EncryptedBound
from repro.crypto.ciphertext import BoundCiphertext, RowBlock, ValueCiphertext
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor
from repro.linalg.limbs import widen

#: Block and piece sizes: one row, and each side of 32, 64 and 96.
SIZES = (1, 31, 32, 33, 63, 64, 65, 95, 96, 97, 150)

#: sha256 of ``open_trace()``.
OPEN_SHA256 = (
    "e1f2e802e44309cc95075b26ee529c5b5fc23fdae0ee113f3007caa9f1278c63"
)

#: sha256 of ``classify_trace()``.
CLASSIFY_SHA256 = (
    "2cc4dfd9e3ecf76953b8de59e84528ad7a1fb70f5651b7a03d89278ae278d9e2"
)


def _sha256(records):
    encoded = json.dumps(records, separators=(",", ":"), default=int)
    return hashlib.sha256(encoded.encode()).hexdigest()


def _flipped(block):
    """``block`` with one bit flipped in a high limb, a low limb and a
    denominator, over two limbs (as ``test_rowblock`` tampers)."""
    store = widen(block.limbs, max(2, block.limbs.shape[2])).copy()
    store[3, 1, -1] ^= np.uint64(1 << 9)
    store[5, 0, 0] ^= np.uint64(1 << 3)
    store[7, -1, 0] ^= np.uint64(1 << 1)
    return RowBlock(store)


def _blocks(encryptor, rng):
    """Per row kind, a block of at least ``max(SIZES)`` rows."""
    count = max(SIZES)
    plain = [rng.randrange(0, 2 ** 31) for _ in range(count)]
    wide = [rng.choice((1, -1)) * (2 ** 62 + rng.randrange(2 ** 20))
            for _ in range(count)]
    narrow = [rng.randrange(0, 300_000) for _ in range(count // 2 + 1)]
    mixed = plain[:count // 2] + wide[:count - count // 2]
    return {
        "plain": encryptor.encrypt_values(plain),
        "wide": encryptor.encrypt_values(wide),
        "mixed": encryptor.encrypt_values(rng.sample(mixed, count)),
        "ambiguity": encryptor.encrypt_values_ambiguous(plain[:count // 2 + 1]),
        "narrow_ambiguity": encryptor.encrypt_values_ambiguous(narrow),
        "flipped": _flipped(encryptor.encrypt_values(plain)),
    }


def open_trace():
    """Per key length, row kind and size: the ``decrypt_block`` triple,
    ``open_block``'s arrays and the ``fast_rows`` / ``exact_rows``
    deltas of each."""
    records = []
    for length in (3, 4, 8):
        encryptor = Encryptor(generate_key(length, seed=40 + length), seed=7)
        rng = random.Random("open:%d" % length)
        for kind, block in _blocks(encryptor, rng).items():
            for size in SIZES:
                rows = block.take(np.arange(size))
                before = encryptor.fast_rows, encryptor.exact_rows
                triple = encryptor.decrypt_block(rows)
                middle = encryptor.fast_rows, encryptor.exact_rows
                is_real, values = encryptor.open_block(rows)
                after = encryptor.fast_rows, encryptor.exact_rows
                records.append([
                    length, kind, size, triple,
                    is_real.tolist(), values.tolist(),
                    [middle[0] - before[0], middle[1] - before[1]],
                    [after[0] - middle[0], after[1] - middle[1]],
                ])
    return records


def _columns():
    """Per column kind, ``(client, column, bound values)``: 150 rows
    each, bounds inside the column's domain."""
    rng = random.Random("classify")
    columns = {}
    for kind, ambiguity, domain in (
        ("plain", False, 2 ** 31),
        ("ambiguity", True, 2 ** 31),
        ("narrow_ambiguity", True, 2_000),
    ):
        client = TrustedClient(seed=11, ambiguity=ambiguity)
        values = [rng.randrange(domain) for _ in range(max(SIZES))]
        if ambiguity:
            values = values[:max(SIZES) // 2 + 1]
        rows, row_ids = client.encrypt_dataset(values)
        bounds = [rng.randrange(domain) for _ in range(3)]
        columns[kind] = client, EncryptedColumn(rows, row_ids), bounds
    client = TrustedClient(seed=11)
    values = [rng.randrange(2 ** 31) for _ in range(max(SIZES))]
    values[::3] = [2 ** 62 + v for v in values[::3]]
    rows, row_ids = client.encrypt_dataset(values)
    columns["mixed"] = client, EncryptedColumn(rows, row_ids), [2 ** 30, 7]
    columns["boundary"] = _boundary_column(rng)
    return columns


class _Bounds:
    """Stands in for a client that hands out raw bound vectors."""

    def __init__(self, vectors):
        self.vectors = vectors

    def encrypt_query_bound(self, number):
        return EncryptedBound(eb=BoundCiphertext(self.vectors[number]), ev=None)


def _boundary_column(rng):
    """Rows whose products against the first bound sit near either end
    of int64, most of them past it, under operands narrow enough for
    the word proof: the words take some products of a piece and refuse
    the others — against one bound and not the other, and more than 96
    of them in the longest piece."""
    first = (1,) + tuple(rng.randrange(-2 ** 20, 2 ** 20) for _ in range(3))
    second = first[:3] + (first[3] + 1,)
    rows = []
    for _ in range(max(SIZES)):
        tail = [rng.randrange(-2 ** 40, 2 ** 40) for _ in range(3)]
        target = rng.choice((1, -1)) * (2 ** 63 + rng.randrange(-2 ** 30, 2 ** 32))
        if rng.random() < 0.1:
            target = rng.randrange(-2 ** 30, 2 ** 30)
        head = target - sum(x * y for x, y in zip(tail, first[1:]))
        rows.append(ValueCiphertext(tuple([head] + tail), 1))
    return _Bounds([first, second]), EncryptedColumn(rows), [0, 1]


def classify_trace():
    """Per column kind, piece size and bound: ``below`` both ways, the
    products themselves and ``below_each`` on two bounds, with each
    call's product-counter deltas."""
    records = []
    for kind, (client, column, bounds) in _columns().items():
        ebs = [client.encrypt_query_bound(b).eb for b in bounds]
        for size in SIZES:
            size = min(size, len(column))
            for eb in ebs:
                for inclusive in (False, True):
                    before = column.product_counts()
                    mask = column.below(0, size, eb, inclusive)
                    after = column.product_counts()
                    records.append([
                        kind, size, inclusive, mask.tolist(),
                        [after[0] - before[0], after[1] - before[1]],
                    ])
                before = column.product_counts()
                products = column.products(0, size, eb)
                after = column.product_counts()
                records.append([
                    kind, size, str(products.dtype), products.tolist(),
                    [after[0] - before[0], after[1] - before[1]],
                ])
            before = column.product_counts()
            masks = column.below_each(0, size, [(ebs[0], True), (ebs[-1], False)])
            after = column.product_counts()
            records.append([
                kind, size, "each", [mask.tolist() for mask in masks],
                [after[0] - before[0], after[1] - before[1]],
            ])
        column.check_invariants()
    return records


def test_opened_blocks_match_the_pre_dispatch_pin():
    records = open_trace()
    # The pin reaches every stage: rows opened in arrays and boxed.
    assert any(record[6][0] for record in records)
    assert any(record[6][1] for record in records)
    assert _sha256(records) == OPEN_SHA256


def test_classified_pieces_match_the_pre_dispatch_pin():
    records = classify_trace()
    assert any(record[-1][0] for record in records)
    assert any(record[-1][1] for record in records)
    assert _sha256(records) == CLASSIFY_SHA256
