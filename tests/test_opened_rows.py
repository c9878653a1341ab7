"""The client's memory of the rows it opened (:class:`OpenedRows`).

A reply of 32 rows or more is answered row by row from what the key
made of each row before, where the row comes back under the same id
limb for limb; every other row is opened.  These tests hold it to that:

* a server that changes one limb under a known id — a numerator's low
  limb, its high limb, the denominator — gets the open a fresh
  ``open_block`` makes of the tampered rows, and the next honest reply
  the original values;
* ids the client never uploaded (-1, 2^60, a row inserted later) and
  ids of other rows size nothing and are opened as before;
* a key rotation's new client starts empty, plaintexts past a word are
  opened as before, and replies under the word stage's floor never
  reach the memory;
* a session's ``client.fast_rows`` + ``client.exact_rows`` +
  ``client.cached_rows`` is the number of rows returned.
"""

import numpy as np
import pytest

from repro.core.client import OpenedRows, TrustedClient
from repro.core.session import OutsourcedDatabase
from repro.crypto.ciphertext import RowBlock
from repro.linalg.limbs import _WORD_STAGE, widen
from repro.net import ColumnCatalog
from repro.net.protocol import QueryResponse, decode, encode
from repro.net.transport import LoopbackTransport

FLOOR = _WORD_STAGE[False][0]
VALUES = list(range(5, 30_000, 7))
RANGE = (698, 1_111)  # 60 values


class _Tampering(LoopbackTransport):
    """A loopback endpoint that flips one bit of one limb of the query
    reply's row ``row`` while :attr:`flip` is set: ``(row, slot, limb,
    bit)``, slot -1 the denominator."""

    def __init__(self, catalog):
        super().__init__(catalog)
        self.flip = None
        self.shipped = None

    def exchange(self, frame, retryable=False):
        reply = decode(super().exchange(frame, retryable))
        if isinstance(reply, QueryResponse) and self.flip is not None:
            row, slot, limb, bit = self.flip
            response = reply.response
            limbs = response.rows.limbs.copy()
            limbs[row, slot, limb] ^= np.uint64(1 << bit)
            reply = QueryResponse(response=type(response)(
                row_ids=response.row_ids, rows=RowBlock(limbs)
            ))
        if isinstance(reply, QueryResponse):
            self.shipped = reply.response
        return encode(reply)


def _opened_as_today(db, response):
    """What the session's result would be without the memory: a fresh
    ``open_block`` of the reply, its real rows' logical ids."""
    is_real, values = db.client.encryptor.open_block(response.rows)
    ids = np.asarray(response.row_ids, dtype=np.int64)[is_real]
    return values.tolist(), db._map_physical_ids(ids).tolist(), int(
        (~is_real).sum()
    )


def _as_tuple(result):
    return (
        result.values.tolist(),
        result.logical_ids.tolist(),
        result.false_positives,
    )


@pytest.mark.parametrize("ambiguity", [False, True])
@pytest.mark.parametrize(
    "slot, limb, bit",
    [(0, 0, 3), (1, 1, 9), (-1, 0, 1)],
    ids=["numerator-low-limb", "numerator-high-limb", "denominator"],
)
def test_a_tampered_limb_under_a_known_id_is_opened(ambiguity, slot, limb, bit):
    transport = _Tampering(ColumnCatalog())
    db = OutsourcedDatabase(
        VALUES, ambiguity=ambiguity, seed=11, transport=transport
    )
    honest = _as_tuple(db.query(*RANGE))
    assert transport.shipped.rows.limbs.shape[2] >= 2  # a high limb
    assert len(transport.shipped.rows) >= FLOOR
    before = db.client.cached_rows
    assert _as_tuple(db.query(*RANGE)) == honest
    returned = len(transport.shipped.rows)
    assert db.client.cached_rows - before == returned

    encryptor = db.client.encryptor
    for row in (0, 17, returned - 1):
        transport.flip = (row, slot, limb, bit)
        opened = encryptor.fast_rows + encryptor.exact_rows
        tampered = db.query(*RANGE)
        # The tampered row, and only it, was opened again ...
        assert encryptor.fast_rows + encryptor.exact_rows - opened == 1
        # ... into what a fresh open of the whole reply makes of it.
        assert _as_tuple(tampered) == _opened_as_today(db, transport.shipped)
        transport.flip = None
        assert _as_tuple(db.query(*RANGE)) == honest


def test_a_tampered_row_is_opened_again_however_often_it_comes():
    transport = _Tampering(ColumnCatalog())
    db = OutsourcedDatabase(VALUES, seed=11, transport=transport)
    honest = _as_tuple(db.query(*RANGE))
    transport.flip = (5, 2, 0, 40)
    tampered = [_as_tuple(db.query(*RANGE)) for _ in range(3)]
    assert tampered[0] != honest
    assert tampered == [_opened_as_today(db, transport.shipped)] * 3
    transport.flip = None
    assert _as_tuple(db.query(*RANGE)) == honest


def _client_and_rows():
    """A client, the 80 rows it uploaded and their ids."""
    client = TrustedClient(seed=11)
    rows, row_ids = client.encrypt_dataset(range(1_000, 1_240, 3))
    return client, rows, np.asarray(row_ids, dtype=np.int64)


def _expected(client, ids, rows):
    is_real, values = client.encryptor.open_block(rows)
    return values.tolist(), ids[is_real].tolist(), int((~is_real).sum())


HOSTILE = pytest.mark.parametrize(
    "hostile",
    [
        lambda ids: np.full(len(ids), -1),
        lambda ids: np.full(len(ids), 2 ** 60),
        lambda ids: ids[::-1].copy(),
        lambda ids: np.where(ids % 2 == 0, -1, ids),
        lambda ids: np.full(len(ids), 7),
        lambda ids: np.where(ids == 3, 2 ** 60, ids),
    ],
    ids=[
        "minus-one",
        "two-to-the-sixty",
        "another-rows-id",
        "mixed",
        "one-id",
        "one-outside",
    ],
)


@HOSTILE
def test_hostile_ids_size_nothing_and_are_opened_as_before(hostile):
    client, rows, ids = _client_and_rows()
    space = len(rows)
    honest = _expected(client, ids, rows)
    assert _as_tuple(client.decrypt_results(ids, rows)) == honest
    opened = client._opened
    for _ in range(2):
        forged = hostile(ids)
        assert _as_tuple(client.decrypt_results(forged, rows)) == _expected(
            client, forged, rows
        )
        assert opened.space == space
        assert len(opened._slots) == space + 1
        assert len(opened._rows) == space
        assert opened._count <= space
    # The honest reply again: every answer is the key's.
    assert _as_tuple(client.decrypt_results(ids, rows)) == honest


@HOSTILE
def test_hostile_ids_of_a_first_reply_take_a_slot_an_id_at_most(hostile):
    client, rows, ids = _client_and_rows()
    forged = hostile(ids)
    assert _as_tuple(client.decrypt_results(forged, rows)) == _expected(
        client, forged, rows
    )
    opened = client._opened
    inside = forged[(forged >= 0) & (forged < opened.space)]
    assert opened._count == len(np.unique(inside))
    assert opened._slots[opened.space] == -1
    for _ in range(2):
        assert _as_tuple(client.decrypt_results(ids, rows)) == _expected(
            client, ids, rows
        )
    assert opened._count == opened.space


def test_ids_of_the_client_are_remembered_and_no_others():
    client, rows, ids = _client_and_rows()
    outside = ids + len(ids)
    client.decrypt_results(outside, rows)
    client.decrypt_results(outside, rows)
    assert client.cached_rows == 0
    client.decrypt_results(ids, rows)
    client.decrypt_results(ids, rows)
    assert client.cached_rows == len(rows)


def test_nothing_is_allocated_before_a_reply_of_the_floor():
    client, rows, ids = _client_and_rows()
    for count in (1, 10, FLOOR - 1):
        client.decrypt_results(ids[:count], rows[:count])
    assert client._opened._slots is None and client._opened._rows is None
    client.decrypt_results(ids[:FLOOR], rows[:FLOOR])
    assert client._opened._slots is not None


def test_replies_under_the_floor_never_reach_the_memory(monkeypatch):
    calls = []
    real_open = OpenedRows.open

    def spy(self, ids, block):
        calls.append(len(block))
        return real_open(self, ids, block)

    monkeypatch.setattr(OpenedRows, "open", spy)
    db = OutsourcedDatabase(VALUES, seed=11)
    for count in (1, 10, FLOOR - 1, FLOOR, 60):
        for _ in range(2):
            result = db.query(VALUES[100], VALUES[100 + count - 1])
            assert result.returned_rows == count
    assert calls == [FLOOR, FLOOR, 60, 60]
    metrics = db.obs.metrics
    # The first 32-row reply opened and remembered its rows, the
    # second was answered from memory, as were 32 of the 60-row one's.
    assert metrics.counter_value("client.cached_rows") == FLOOR + FLOOR + 60


def test_opened_and_remembered_add_up_to_the_rows_returned():
    db = OutsourcedDatabase(VALUES, ambiguity=True, seed=11)
    returned = 0
    for low in range(500, 20_000, 1_500):
        for high in (low + 100, low + 400, low + 1_200):
            returned += db.query(low, high).returned_rows
            returned += db.query(low, high).returned_rows
    count = db.obs.metrics.counter_value
    opened = count("client.fast_rows") + count("client.exact_rows")
    assert opened + count("client.cached_rows") == returned
    assert count("client.cached_rows") > returned / 2


def test_a_key_rotation_starts_an_empty_memory():
    db = OutsourcedDatabase(VALUES, seed=11)
    first = _as_tuple(db.query(*RANGE))
    db.query(*RANGE)
    cached = db.obs.metrics.counter_value("client.cached_rows")
    assert cached == 60
    old = db.client._opened
    remembered = old._count
    mapping = db.rotate_key(new_seed=5)
    # The fetch of every row was opened by the key alone: the old
    # client, dropped with its memory, remembered none of it.
    assert (old._count, old.cached_rows) == (remembered, 60)
    assert db.client.cached_rows == 0
    assert db.client._opened._slots is None
    again = db.query(*RANGE)
    assert db.obs.metrics.counter_value("client.cached_rows") == cached
    assert sorted(again.values.tolist()) == sorted(first[0])
    assert sorted(again.logical_ids.tolist()) == sorted(
        mapping[i] for i in first[1]
    )


def test_plaintexts_past_a_word_are_opened_as_before():
    values = [2 ** 64 + 5 * i for i in range(100)] + list(range(100))
    db = OutsourcedDatabase(values, seed=11)
    for low, high in ((2 ** 64, 2 ** 64 + 300), (-1, 2 ** 64 + 100), (10, 60)):
        for _ in range(2):
            result = db.query(low, high)
            assert sorted(result.values.tolist()) == sorted(
                v for v in values if low <= v <= high
            )
    wide = db.query(-1, 2 ** 64 + 100)
    assert wide.values.dtype == object
    response = db.remote.query(db.client.make_query(-1, 2 ** 64 + 100))
    is_real, values = db.client.encryptor.open_block(response.rows)
    again = db.client.decrypt_results(response.row_ids, response.rows)
    assert again.values.dtype == object
    assert again.values.tolist() == values.tolist()
    assert again.false_positives == 0 and is_real.all()
    # Only the block of word-sized plaintexts (51 rows) was remembered;
    # the 121-row one holding them opened only its 70 other rows.
    assert db.client._opened._count == 51


def test_inserted_rows_are_opened_every_time():
    db = OutsourcedDatabase(VALUES, seed=11)
    logical = [db.insert(RANGE[0] + 1 + 7 * i) for i in range(3)]
    results = [db.query(*RANGE) for _ in range(2)]
    for result in results:
        assert set(logical) <= set(result.logical_ids.tolist())
    assert _as_tuple(results[0]) == _as_tuple(results[1])
    # The 60 uploaded rows were remembered, the 3 inserted ones opened.
    assert db.client.cached_rows == 60
    assert db.client._opened._count == 60


def test_a_reply_of_another_width_is_compared_at_a_common_width():
    client, rows, ids = _client_and_rows()
    k = rows.limbs.shape[2]
    wide = RowBlock(widen(rows.limbs, k + 1))
    honest = _as_tuple(client.decrypt_results(ids, rows))
    assert _as_tuple(client.decrypt_results(ids, wide)) == honest
    assert client.cached_rows == len(rows)
    assert client._opened._rows.shape[2] == k + 1
    assert _as_tuple(client.decrypt_results(ids, rows)) == honest
    assert client.cached_rows == 2 * len(rows)

