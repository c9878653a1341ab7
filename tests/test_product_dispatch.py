"""The one exact-product entry point, :func:`repro.linalg.limbs.multiply`,
as its two callers meet it.

* Count gates CI runs by name: the Python calls of the client's open of
  a reply shaped like each workload's, and of the server's ``below`` on
  a piece the words prove — so the layer that picks the arithmetic adds
  no overhead of its own; and those of a second decrypt of the same
  ambiguity reply, which the client answers from its memory of opened
  rows without a product.
* A reply whose rows have another ciphertext length than the key's is
  refused with a typed :class:`~repro.errors.DecryptionError` before any
  product, at every block size and through a session: the server is
  outside the client's trust boundary.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core.client import TrustedClient
from repro.core.server import SecureServer
from repro.core.session import OutsourcedDatabase
from repro.crypto.ciphertext import RowBlock
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor
from repro.errors import DecryptionError
from repro.net import ColumnCatalog
from repro.net.protocol import QueryResponse, decode, encode
from repro.net.transport import LoopbackTransport


def _median_calls(step, arguments):
    """The median, over ``arguments``, of the Python calls ``cProfile``
    counts in ``step(*each)``, after one call to warm it up."""
    import cProfile
    import pstats
    import statistics

    step(*arguments[0])
    counts = []
    for each in arguments:
        profile = cProfile.Profile()
        profile.enable()
        step(*each)
        profile.disable()
        counts.append(pstats.Stats(profile).total_calls)
    return statistics.median(counts), counts


@pytest.fixture(scope="module")
def served_column():
    """A 15k-row column under the benchmark's key (``seed=11``: 64-bit
    numerators, two limbs each), its client and its sorted values."""
    client = TrustedClient(seed=11)
    rows, row_ids = client.encrypt_dataset(
        random.Random(3).sample(range(2 ** 31), 15_000)
    )
    everything = sorted(client.decrypt_results(row_ids, rows).values.tolist())
    return client, SecureServer(rows, row_ids), everything


def _replies(served_column, count):
    client, server, everything = served_column
    blocks = []
    for start in range(700, 700 + 9 * 1_000, 1_000):
        response = server.execute(
            client.make_query(everything[start], everything[start + count - 1])
        )
        assert len(response.rows) == count
        blocks.append((response.rows,))
    return blocks


@pytest.mark.parametrize("count, most", [(10, 54), (150, 45)])
def test_opening_a_reply_makes_few_python_calls(served_column, count, most):
    """A 10-row reply (``crack_cold``: boxed) and a 150-row one
    (``range_tcp``: proven words): at most 54 and 45 calls in the
    median of nine (22 and 27 in fact; 53 and 44 when the client picked
    its arithmetic through its own chain of stages)."""
    encryptor = served_column[0].encryptor
    replies = _replies(served_column, count)
    median, counts = _median_calls(encryptor.open_block, replies)
    assert median <= most, counts


def test_opening_an_ambiguity_reply_makes_few_python_calls():
    """A 109-row reply of an ``ambiguity_range``-shaped session (6 000
    values over a 300 000-wide domain, steered counterfeits): tried in
    words, opened in digits, at most 85 calls in the median of nine (77
    in fact; 86 through the client's own chain of stages)."""
    rng = np.random.default_rng(1)
    values = rng.permutation(np.unique(rng.integers(0, 300_000, 12_000)))[:6_000]
    db = OutsourcedDatabase(values.tolist(), ambiguity=True, seed=11)
    ordered = np.sort(values)
    blocks = []
    for start in rng.integers(0, len(values) - 60, 1_000):
        low, high = int(ordered[start]), int(ordered[start + 59])
        # No session token: every reply comes whole.
        query = replace(db.client.make_query(low, high), token=0)
        rows = db.remote.query(query).rows
        if len(rows) == 109:
            blocks.append((rows,))
        if len(blocks) == 9:
            break
    assert len(blocks) == 9
    median, counts = _median_calls(db.client.encryptor.open_block, blocks)
    assert median <= 85, counts


def _decrypted(client, reply):
    result = client.decrypt_results(*reply)
    return (
        result.values.tolist(),
        result.logical_ids.tolist(),
        result.false_positives,
    )


def test_a_repeated_reply_is_not_opened_again():
    """Nine 120-row queries of an ``ambiguity_range``-shaped session
    (6 000 values over a 300 000-wide domain, steered counterfeits),
    each sent twice: the second reply names its 120 rows by id alone
    and ships no row, and its decrypt opens no row, answers all 120
    from memory and makes at most 45 Python calls in the median of nine
    (30 in fact; 40 when the reply shipped its rows again and the client
    compared them limb for limb, 86 when it opened them again in exact
    digits)."""
    rng = np.random.default_rng(1)
    values = rng.permutation(np.unique(rng.integers(0, 300_000, 12_000)))[:6_000]
    db = OutsourcedDatabase(values.tolist(), ambiguity=True, seed=11)
    ordered = np.sort(values)
    client = db.client
    queries = []
    for start in rng.integers(0, len(values) - 70, 2_000):
        low, high = int(ordered[start]), int(ordered[start + 64])
        query = client.make_query(low, high)
        response = db.remote.query(query)
        values, logical_ids, fakes = _decrypted(
            client, (response.row_ids, response.rows))
        expected = (sorted(zip(values, logical_ids)), fakes)
        if len(response.row_ids) == 120:
            queries.append((query, response.row_ids, expected))
        if len(queries) == 9:
            break
    assert len(queries) == 9
    encryptor = client.encryptor
    replies = []
    for query, ids, expected in queries:
        again = db.remote.query(query)
        assert len(again.rows) == 0
        # The same rows, in the order the first query's cracks left.
        assert sorted(~again.row_ids) == sorted(np.maximum(ids, ~ids))
        opened = encryptor.fast_rows, encryptor.exact_rows
        cached = client.cached_rows
        values, logical_ids, fakes = _decrypted(
            client, (again.row_ids, again.rows))
        assert (sorted(zip(values, logical_ids)), fakes) == expected
        assert (encryptor.fast_rows, encryptor.exact_rows) == opened
        assert client.cached_rows - cached == 120
        replies.append((again.row_ids, again.rows))
    median, counts = _median_calls(client.decrypt_results, replies)
    assert median <= 45, counts


def test_below_on_a_word_proven_piece_makes_few_python_calls(served_column):
    """``EncryptedColumn.below`` over a 100-row piece the words prove:
    at most 31 calls in the median of nine (27 in fact; 30 when the
    column picked its arithmetic itself)."""
    client, server, everything = served_column
    column = server.engine.column
    bound = client.encrypt_query_bound(everything[7_000]).eb
    pieces = [(lo, lo + 100, bound, True) for lo in range(0, 9_000, 1_000)]
    before = column.product_counts()
    median, counts = _median_calls(column.below, pieces)
    assert median <= 31, counts
    assert column.product_counts() == (before[0] + 10 * 100, before[1])


# -- a reply of another ciphertext length ------------------------------------------


@pytest.mark.parametrize("rows", [1, 10, 40, 70, 150])
@pytest.mark.parametrize("length", [3, 5])
def test_rows_of_another_length_are_a_decryption_error(rows, length):
    ours = Encryptor(generate_key(4, seed=5), seed=1)
    theirs = Encryptor(generate_key(length, seed=5), seed=1)
    block = theirs.encrypt_values(range(rows))
    for open_ in (ours.open_block, ours.decrypt_block):
        with pytest.raises(DecryptionError, match="length %d" % length):
            open_(block)
    assert (ours.fast_rows, ours.exact_rows) == (0, 0)


class _Tampering(LoopbackTransport):
    """A loopback endpoint whose query replies come back with rows of
    another ciphertext length."""

    def __init__(self, catalog, rows):
        super().__init__(catalog)
        self.rows = rows

    def exchange(self, frame, retryable=False):
        reply = decode(super().exchange(frame, retryable))
        if isinstance(reply, QueryResponse):
            response = reply.response
            count = len(response.rows)
            forged = RowBlock.from_rows(list(self.rows)[:count])
            reply = QueryResponse(response=type(response)(
                row_ids=response.row_ids[:len(forged)], rows=forged
            ))
        return encode(reply)


def test_a_tampered_reply_is_refused_through_a_session():
    forged = Encryptor(generate_key(5, seed=2), seed=3).encrypt_values(range(50))
    transport = _Tampering(ColumnCatalog(), forged)
    db = OutsourcedDatabase(list(range(0, 2_000, 2)), seed=4, transport=transport)
    with pytest.raises(DecryptionError):
        db.query(100, 160)
