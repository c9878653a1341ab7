"""A ciphertext crosses the wire to a session once.

Each client stamps its session token on every query; the server ships
a row whole the first time a reply of 32 rows or more carries it to
the token, and by id alone (the id's complement ``-1 - id``) after
that; the client's memory (:class:`OpenedRows`) answers an id-only row
from what the key made of it when it came whole.  These tests hold the
two sides to that:

* a repeated reply ships no ciphertext and opens no row, and its
  results are the first reply's;
* a whole row is always opened, even under an id the memory holds, and
  must open to the value held: another (a swapped ciphertext, another
  column's row) is a ``DecryptionError`` and drops the entry;
* an id-only row the memory lacks — an id past the upload, 2^60, an id
  never shipped, any id-only row in a reply under the floor — is a
  typed :class:`RowNotHeldError`, never a wrong value; a session sends
  the query once more under a fresh token, so a lost reply and two
  clients under one token end in exact results, and a hostile server
  in the typed error;
* an evicted token, a key rotation, a re-created column and a WAL
  recovery each ship the next reply whole; a restored snapshot and a
  recovered checkpoint keep the upload's row count, so after that reply
  uploaded rows go by id alone again and merged inserts still whole;
* an uploaded id names one ciphertext for the column's life: no
  sequence of updates, restores and recoveries gives a new row an id
  below the upload;
* a session's ``client.fast_rows`` + ``client.exact_rows`` +
  ``client.cached_rows`` is the number of rows returned.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.client import OpenedRows, TrustedClient
from repro.core.persistence import (
    checkpoint_catalog,
    recover_catalog,
    restore_server,
    snapshot_server,
)
from repro.core.server import SENT_TOKENS, SecureServer
from repro.core.session import OutsourcedDatabase
from repro.core.wal import WalWriter
from repro.crypto.ciphertext import RowBlock
from repro.errors import DecryptionError, RowNotHeldError
from repro.linalg.limbs import _WORD_STAGE
from repro.net import ColumnCatalog
from repro.net.client import RemoteColumn
from repro.net.protocol import QueryResponse, decode, encode
from repro.net.transport import LoopbackTransport

VALUES = list(range(5, 30_000, 7))
RANGE = (698, 1_111)  # 60 values
EXPECTED = [v for v in VALUES if RANGE[0] <= v <= RANGE[1]]
REPLY_FLOOR = _WORD_STAGE[False][0]


def _as_tuple(result):
    """A result in an order the physical order does not move."""
    return sorted(zip(result.values.tolist(), result.logical_ids.tolist())), (
        result.false_positives
    )


class _Recording(LoopbackTransport):
    """A loopback endpoint that keeps the last query reply and can
    rewrite it (``forge``: a function of the reply's ids and rows)."""

    def __init__(self, catalog):
        super().__init__(catalog)
        self.forge = None
        self.shipped = None

    def exchange(self, frame, retryable=False):
        reply = decode(super().exchange(frame, retryable))
        if isinstance(reply, QueryResponse):
            if self.forge is not None:
                response = reply.response
                reply = QueryResponse(response=type(response)(
                    *self.forge(response.row_ids, response.rows)))
            self.shipped = reply.response
        return encode(reply)


@pytest.mark.parametrize("ambiguity", [False, True])
def test_a_repeated_reply_names_its_rows_by_id_alone(ambiguity):
    transport = _Recording(ColumnCatalog())
    db = OutsourcedDatabase(VALUES, ambiguity=ambiguity, seed=11,
                            transport=transport)
    first = db.query(*RANGE)
    returned = first.returned_rows
    assert len(transport.shipped.rows) == returned >= REPLY_FLOOR
    whole = db.bytes_received
    encryptor = db.client.encryptor
    opened = encryptor.fast_rows, encryptor.exact_rows
    again = db.query(*RANGE)
    assert len(transport.shipped.rows) == 0
    assert (transport.shipped.row_ids < 0).all()
    assert db.bytes_received - whole < whole / 4
    assert (encryptor.fast_rows, encryptor.exact_rows) == opened
    assert db.client.cached_rows == again.returned_rows == returned
    assert _as_tuple(again) == _as_tuple(first)
    assert sorted(again.values.tolist()) == EXPECTED
    # A wider range ships only the rows the session was not sent.
    wider = db.query(RANGE[0] - 70, RANGE[1] + 70)
    assert len(transport.shipped.rows) == wider.returned_rows - returned
    assert sorted(wider.values.tolist()) == [
        v for v in VALUES if RANGE[0] - 70 <= v <= RANGE[1] + 70]


def test_a_whole_row_under_a_held_id_is_opened_and_must_open_alike():
    client = TrustedClient(seed=11)
    rows, ids = client.encrypt_dataset(range(1_000, 1_240, 3))
    ids = np.asarray(ids, dtype=np.int64)
    other, _ = TrustedClient(seed=11).encrypt_dataset(range(2_000, 2_240, 3))
    first = client.decrypt_results(ids, rows).values.tolist()
    # The same rows whole again (an evicted or renewed token): opened.
    opened = client.encryptor.fast_rows
    assert client.decrypt_results(ids, rows).values.tolist() == first
    assert client.encryptor.fast_rows - opened == len(ids)
    assert client.cached_rows == 0
    # Other rows under the held ids: refused, and the ids dropped.
    with pytest.raises(DecryptionError, match="another value"):
        client.decrypt_results(ids, other)
    with pytest.raises(RowNotHeldError):
        client.decrypt_results(~ids, RowBlock.from_rows(()))
    client.decrypt_results(ids, rows)
    held = client.decrypt_results(~ids, RowBlock.from_rows(()))
    assert held.values.tolist() == first
    assert client.cached_rows == len(ids)


def test_a_client_shared_by_two_columns_never_answers_a_wrong_value():
    catalog = ColumnCatalog()
    client = TrustedClient(seed=11)
    columns = {}
    for name, values in (("a", range(0, 1_000)), ("b", range(5_000, 6_000))):
        rows, ids = client.encrypt_dataset(values)
        columns[name] = RemoteColumn(LoopbackTransport(catalog), name)
        columns[name].create(rows, ids)

    def query(name, low, high):
        response = columns[name].query(client.make_query(low, high))
        return sorted(client.decrypt_results(
            response.row_ids, response.rows).values.tolist())

    assert query("b", 5_100, 5_200) == list(range(5_100, 5_201))
    # Column a's rows come whole under the ids holding column b's.
    with pytest.raises(DecryptionError, match="another value"):
        query("a", 100, 200)
    # b names its rows by id alone; they were dropped: a typed error.
    with pytest.raises(RowNotHeldError):
        query("b", 5_100, 5_200)


def _client_and_rows():
    """A client, the 80 rows it uploaded and their ids, with the first
    40 opened once as a whole reply."""
    client = TrustedClient(seed=11)
    rows, row_ids = client.encrypt_dataset(range(1_000, 1_240, 3))
    ids = np.asarray(row_ids, dtype=np.int64)
    client.decrypt_results(ids[:40], rows.take(slice(0, 40)))
    return client, rows, ids


HOSTILE = pytest.mark.parametrize(
    "forged",
    [
        lambda ids: np.where(ids == 7, 80, ids),            # past the upload
        lambda ids: np.where(ids == 7, 2 ** 60, ids),
        lambda ids: np.where(ids == 7, 55, ids),            # never shipped
        lambda ids: ids[:REPLY_FLOOR - 2],                  # under the floor
    ],
    ids=["past-the-upload", "two-to-the-sixty", "never-shipped",
         "under-the-floor"],
)


@HOSTILE
def test_a_hostile_id_only_row_is_a_typed_error(forged):
    client, rows, ids = _client_and_rows()
    honest = _as_tuple(client.decrypt_results(~ids[:40], rows.take(
        slice(0, 0))))
    assert honest[0] == list(zip(range(1_000, 1_120, 3), range(40)))
    with pytest.raises(RowNotHeldError):
        client.decrypt_results(~forged(ids[:40]), rows.take(slice(0, 0)))
    # A mixed reply too: the forged id-only rows, and one whole.
    with pytest.raises(RowNotHeldError):
        client.decrypt_results(
            np.concatenate((~forged(ids[:40]), ids[40:41])),
            rows.take(slice(40, 41)),
        )
    assert _as_tuple(client.decrypt_results(~ids[:40], rows.take(
        slice(0, 0)))) == honest


def test_a_whole_id_in_a_reply_of_no_rows_is_a_count_mismatch():
    """An all-id-only reply that slips in one non-negative id — of a row
    held or not — names a whole row it does not carry: the counts differ,
    a ``DecryptionError`` that is not a miss (no re-send helps)."""
    client, rows, ids = _client_and_rows()
    honest = _as_tuple(client.decrypt_results(~ids[:40], rows.take(
        slice(0, 0))))
    for whole in (5, 39, 60, 2 ** 60):
        reply = np.concatenate((~ids[:39], [whole]))
        with pytest.raises(DecryptionError, match="differ") as err:
            client.decrypt_results(reply, rows.take(slice(0, 0)))
        assert not isinstance(err.value, RowNotHeldError)
    assert _as_tuple(client.decrypt_results(~ids[:40], rows.take(
        slice(0, 0)))) == honest


def test_a_client_that_opened_nothing_holds_nothing():
    client = TrustedClient(seed=11)
    rows, ids = client.encrypt_dataset(range(1_000, 1_240, 3))
    ids = np.asarray(ids, dtype=np.int64)
    with pytest.raises(RowNotHeldError):
        client.decrypt_results(~ids, rows.take(slice(0, 0)))
    with pytest.raises(RowNotHeldError):
        TrustedClient(seed=11).decrypt_results(~ids, rows.take(slice(0, 0)))


def test_a_session_refuses_a_hostile_server_with_a_typed_error():
    transport = _Recording(ColumnCatalog())
    db = OutsourcedDatabase(VALUES, seed=11, transport=transport)
    db.query(*RANGE)
    # Every reply names one row by id alone that was never shipped.
    transport.forge = lambda ids, rows: (
        np.concatenate(([~4_000], ids)), rows)
    trips = db.round_trips
    with pytest.raises(RowNotHeldError):
        db.query(*RANGE)
    assert db.round_trips - trips == 2  # sent once more, then refused
    transport.forge = None
    assert sorted(db.query(*RANGE).values.tolist()) == EXPECTED


class _DropsOneReply(LoopbackTransport):
    """An endpoint whose next query reply is lost after the server sent
    it (and marked its rows): the transport sends the query again, as
    a retrying transport does, and hands back that second reply."""

    def __init__(self, catalog):
        super().__init__(catalog)
        self.drop = False

    def exchange(self, frame, retryable=False):
        reply = super().exchange(frame, retryable)
        if self.drop and retryable:
            self.drop = False
            reply = super().exchange(frame, retryable)
        return reply


@pytest.mark.parametrize("ambiguity", [False, True])
def test_a_lost_reply_ends_in_an_exact_result(ambiguity):
    transport = _DropsOneReply(ColumnCatalog())
    db = OutsourcedDatabase(VALUES, ambiguity=ambiguity, seed=11,
                            transport=transport)
    token = db.client.token
    transport.drop = True
    trips = db.round_trips
    result = db.query(*RANGE)
    assert sorted(result.values.tolist()) == EXPECTED
    assert db.round_trips - trips == 2
    assert db.client.token != token
    # Under the fresh token the session goes on as before.
    assert _as_tuple(db.query(*RANGE)) == _as_tuple(result)
    assert db.client.cached_rows == result.returned_rows


def test_two_clients_of_one_seed_part_after_one_miss():
    catalog = ColumnCatalog()
    db = OutsourcedDatabase(VALUES, seed=11,
                            transport=LoopbackTransport(catalog))
    twin = TrustedClient(seed=11)
    twin.encrypt_dataset(VALUES)  # the same key, rows and ids
    assert twin.token == db.client.token
    db.query(*RANGE)
    remote = RemoteColumn(LoopbackTransport(catalog), db.column_name)
    response = remote.query(twin.make_query(*RANGE))
    with pytest.raises(RowNotHeldError):
        twin.decrypt_results(response.row_ids, response.rows)
    twin.renew_token()
    assert twin.token != db.client.token
    response = remote.query(twin.make_query(*RANGE))
    assert sorted(twin.decrypt_results(
        response.row_ids, response.rows).values.tolist()) == EXPECTED
    # Both go on answering from their own memories.
    for client in (twin, db.client):
        response = remote.query(client.make_query(*RANGE))
        assert len(response.rows) == 0
        assert sorted(client.decrypt_results(
            response.row_ids, response.rows).values.tolist()) == EXPECTED


# -- what empties the server's store -------------------------------------------


def _shipped_whole(server, query):
    """How many of the reply's rows came whole."""
    return int((server.execute(query).row_ids >= 0).sum())


def test_an_evicted_token_gets_every_row_whole():
    client = TrustedClient(seed=11)
    server = SecureServer(*client.encrypt_dataset(VALUES))
    query = client.make_query(*RANGE)
    assert _shipped_whole(server, query) == 60
    assert _shipped_whole(server, query) == 0
    for token in range(1, SENT_TOKENS):
        assert _shipped_whole(server, replace(query, token=token)) == 60
    assert _shipped_whole(server, query) == 0  # still held, and now fresh
    assert _shipped_whole(server, replace(query, token=SENT_TOKENS)) == 60
    assert _shipped_whole(server, replace(query, token=1)) == 60  # evicted
    assert _shipped_whole(server, replace(query, token=0)) == 60  # no token


@pytest.mark.parametrize("seed", range(3))
def test_the_token_store_evicts_the_least_recently_used(seed):
    """Tokens used in a seeded order, some again: the store keeps the
    :data:`SENT_TOKENS` used last, and a reply to one it dropped comes
    whole."""
    rng = random.Random(seed)
    client = TrustedClient(seed=11)
    server = SecureServer(*client.encrypt_dataset(VALUES))
    query = client.make_query(*RANGE)
    used = []  # least recent first
    for _ in range(60):
        token = rng.randrange(1, 2 * SENT_TOKENS)
        expected = 0 if token in used else 60
        assert _shipped_whole(server, replace(query, token=token)) == expected
        if token in used:
            used.remove(token)
        used = (used + [token])[-SENT_TOKENS:]
        assert list(server._sent) == used


def test_a_key_rotation_ships_every_row_whole_again():
    transport = _Recording(ColumnCatalog())
    db = OutsourcedDatabase(VALUES, seed=11, transport=transport)
    first = db.query(*RANGE)
    db.query(*RANGE)
    old = db.client._opened
    mapping = db.rotate_key(new_seed=5)
    # The fetch of every row was opened by the key alone.
    assert old.cached_rows == 60 and db.client.cached_rows == 0
    assert db.client._opened._state is None
    again = db.query(*RANGE)
    assert len(transport.shipped.rows) == 60
    assert sorted(again.values.tolist()) == EXPECTED
    assert sorted(again.logical_ids.tolist()) == sorted(
        mapping[i] for i in first.logical_ids.tolist())
    db.query(*RANGE)
    assert len(transport.shipped.rows) == 0


def test_a_recreated_column_ships_every_row_whole_again():
    transport = _Recording(ColumnCatalog())
    db = OutsourcedDatabase(VALUES, seed=11, transport=transport)
    db.query(*RANGE)
    db.query(*RANGE)
    assert len(transport.shipped.rows) == 0
    rows, ids = TrustedClient(seed=11).encrypt_dataset(VALUES)
    catalog = transport.catalog
    catalog.replace_server(db.column_name, SecureServer(rows, ids))
    assert sorted(db.query(*RANGE).values.tolist()) == EXPECTED
    assert len(transport.shipped.rows) == 60
    # A restored server knows the upload's row count: it ships the
    # first reply whole to the token, and the repeat by id alone.
    catalog.replace_server(db.column_name, restore_server(
        snapshot_server(catalog.server(db.column_name))))
    for whole in (60, 0):
        assert sorted(db.query(*RANGE).values.tolist()) == EXPECTED
        assert len(transport.shipped.rows) == whole


def test_a_recovered_column_ships_every_row_whole_again(tmp_path):
    catalog = ColumnCatalog()
    catalog.bind_wal(WalWriter(str(tmp_path), fsync="never"))
    db = OutsourcedDatabase(VALUES, seed=11, column="t",
                            transport=LoopbackTransport(catalog))
    db.query(*RANGE)
    db.insert(RANGE[0] + 1)
    recovered, _ = recover_catalog(str(tmp_path))
    remote = RemoteColumn(LoopbackTransport(recovered), "t")
    for whole in (61, 1):  # the inserted row comes whole every time
        response = remote.query(db.client.make_query(*RANGE))
        assert len(response.rows) == whole
        result = db.client.decrypt_results(
            response.row_ids, response.rows, id_mapper=db._map_physical_ids)
        assert sorted(result.values.tolist()) == sorted(
            EXPECTED + [RANGE[0] + 1])


def test_a_checkpointed_column_ships_uploaded_rows_once_and_inserts_always(
        tmp_path):
    """A catalog recovered from a checkpoint keeps the upload's row
    count: its first reply goes whole, the repeat names the uploaded
    rows by id alone, and an insert merged before the checkpoint comes
    whole every time."""
    catalog = ColumnCatalog()
    catalog.bind_wal(WalWriter(str(tmp_path), fsync="never"))
    db = OutsourcedDatabase(VALUES, seed=11, column="t",
                            transport=LoopbackTransport(catalog))
    db.insert(RANGE[0] + 1)
    db.merge()
    db.query(*RANGE)
    checkpoint_catalog(catalog, str(tmp_path), catalog.wal)
    recovered, info = recover_catalog(str(tmp_path))
    assert info["snapshot"] and info["replayed"] == 0
    assert recovered.server("t").uploaded == len(VALUES)
    remote = RemoteColumn(LoopbackTransport(recovered), "t")
    for whole in (61, 1):
        response = remote.query(db.client.make_query(*RANGE))
        assert len(response.rows) == whole
        result = db.client.decrypt_results(
            response.row_ids, response.rows, id_mapper=db._map_physical_ids)
        assert sorted(result.values.tolist()) == sorted(
            EXPECTED + [RANGE[0] + 1])


# -- the invariant the id-only rows rest on ----------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_no_update_gives_a_new_row_an_id_below_the_upload(seed, tmp_path):
    """Deletes (of the top ids too), merges, inserts, a snapshot restore
    and a WAL recovery, in a seeded order: every id assigned after the
    upload is at or above the upload's row count, and so is every
    ``next_row_id``, live and persisted."""
    rng = random.Random(seed)
    values = rng.sample(range(10_000), 200)
    catalog = ColumnCatalog()
    catalog.bind_wal(WalWriter(str(tmp_path), fsync="never"))
    db = OutsourcedDatabase(values, seed=11, ambiguity=seed % 2 == 1,
                            column="t", auto_merge_threshold=8,
                            transport=LoopbackTransport(catalog))
    upload = len(catalog.server("t").engine.column)
    logical = list(range(len(values)))
    assigned = []

    def check(server):
        assert server.updates.next_row_id >= upload
        assert snapshot_server(server).next_row_id >= upload
        ids = np.concatenate((server.engine.column.row_ids,
                              server.pending.row_ids))
        assert len(np.unique(ids)) == len(ids)

    for step in range(60):
        kind = rng.random()
        if kind < 0.4 and logical:
            # The top logical ids first: their physical ids are the
            # upload's highest.
            victim = logical.pop(-1 if rng.random() < 0.5 else
                                 rng.randrange(len(logical)))
            db.delete(victim)
        elif kind < 0.8:
            before = catalog.server("t").updates.next_row_id
            logical.append(db.insert(rng.randrange(10_000)))
            assigned += range(before, catalog.server("t").updates.next_row_id)
        else:
            db.merge()
        check(catalog.server("t"))
    assert assigned and min(assigned) >= upload
    check(restore_server(snapshot_server(catalog.server("t"))))
    recovered, _ = recover_catalog(str(tmp_path))
    server = recovered.server("t")
    check(server)
    fresh = server.insert(db.client.encrypt_value(5))
    assert min(fresh) >= max(assigned) + 1 > upload


# -- the memory's bookkeeping --------------------------------------------------


def test_nothing_is_allocated_before_a_reply_of_the_floor():
    client = TrustedClient(seed=11)
    rows, ids = client.encrypt_dataset(range(1_000, 1_240, 3))
    for count in (1, 10, REPLY_FLOOR - 1):
        client.decrypt_results(ids[:count], rows[:count])
    assert client._opened._state is None
    client.decrypt_results(ids[:REPLY_FLOOR], rows[:REPLY_FLOOR])
    state = client._opened._state
    assert len(state) == len(rows) + 1
    assert (state[:REPLY_FLOOR] > 0).all() and not state[REPLY_FLOOR:].any()


def test_replies_under_the_floor_never_reach_the_memory(monkeypatch):
    calls = []
    real_open = OpenedRows.open

    def spy(self, ids, block):
        calls.append((len(ids), len(block)))
        return real_open(self, ids, block)

    monkeypatch.setattr(OpenedRows, "open", spy)
    db = OutsourcedDatabase(VALUES, seed=11)
    for count in (1, 10, REPLY_FLOOR - 1, REPLY_FLOOR, 60):
        for _ in range(2):
            result = db.query(VALUES[100], VALUES[100 + count - 1])
            assert result.returned_rows == count
    # The first 32-row reply shipped and opened its rows, the second
    # named them by id alone, as did the 60-row one 32 of its own.
    assert calls == [(REPLY_FLOOR, REPLY_FLOOR), (REPLY_FLOOR, 0),
                     (60, 60 - REPLY_FLOOR), (60, 0)]
    metrics = db.obs.metrics
    assert metrics.counter_value("client.cached_rows") == (
        REPLY_FLOOR + REPLY_FLOOR + 60)


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


def test_plaintexts_past_a_word_are_remembered_as_ints():
    values = [2 ** 64 + 5 * i for i in range(100)] + list(range(100))
    transport = _Recording(ColumnCatalog())
    db = OutsourcedDatabase(values, seed=11, transport=transport)
    for low, high in ((2 ** 64, 2 ** 64 + 300), (-1, 2 ** 64 + 100), (10, 60)):
        for _ in range(2):
            result = db.query(low, high)
            assert sorted(result.values.tolist()) == sorted(
                v for v in values if low <= v <= high)
    assert len(transport.shipped.rows) == 0
    wide = db.query(-1, 2 ** 64 + 100)
    assert len(transport.shipped.rows) == 0
    assert wide.values.dtype == object
    assert db.client._opened._plain.dtype == object


def test_inserted_rows_are_shipped_and_opened_every_time():
    transport = _Recording(ColumnCatalog())
    db = OutsourcedDatabase(VALUES, seed=11, transport=transport)
    logical = [db.insert(RANGE[0] + 1 + 7 * i) for i in range(3)]
    results = [db.query(*RANGE) for _ in range(2)]
    for result in results:
        assert set(logical) <= set(result.logical_ids.tolist())
    assert _as_tuple(results[0]) == _as_tuple(results[1])
    # The 60 uploaded rows came whole once, the 3 inserted ones twice.
    assert len(transport.shipped.rows) == 3
    assert db.client.cached_rows == 60
    db.merge()
    db.query(*RANGE)
    assert len(transport.shipped.rows) == 3


# -- a reply with a token answers as one without ------------------------------


#: Query ranges over ``SPARSE`` (every value is 5 modulo 7): ``7 * start +
#: 6`` up to ``7 * width`` beyond it holds ``width`` values, none at 0.
SPARSE = list(range(5, 7_000, 7))
STARTS = (0, 30, 60, 130)
WIDTHS = (0, 5, 40, 70, 150)


def _reply_kind(shipped):
    """What a reply shipped: no rows, all whole, all by id, or mixed."""
    named = int((shipped.row_ids < 0).sum())
    if not len(shipped.row_ids):
        return "empty"
    return {0: "none held", len(shipped.row_ids): "all held"}.get(
        named, "mixed")


def _steps():
    query = st.tuples(st.just("query"), st.sampled_from(STARTS),
                      st.sampled_from(WIDTHS))
    insert = st.tuples(st.just("insert"), st.integers(0, 300))
    return st.lists(st.one_of(query, query, insert, st.just(("merge",)),
                              st.tuples(st.just("delete"),
                                        st.integers(0, 2_000))),
                    min_size=1, max_size=14)


def _answer_with_and_without_a_token(ambiguity, steps):
    """Run ``steps`` on a session over ``SPARSE``, comparing each query's
    answer with the answer to the same query sent with no token; returns
    what each query's reply shipped (:func:`_reply_kind`)."""
    transport = _Recording(ColumnCatalog())
    db = OutsourcedDatabase(SPARSE, ambiguity=ambiguity, seed=11,
                            transport=transport)
    kinds = []
    returned = 0
    model = dict(enumerate(SPARSE))  # logical id -> value
    for step in steps:
        if step[0] == "insert":
            model[db.insert(7 * step[1] + 5)] = 7 * step[1] + 5
        elif step[0] == "merge":
            db.merge()
        elif step[0] == "delete":
            victim = sorted(model)[step[1] % len(model)]
            db.delete(victim)
            del model[victim]
        else:
            low = 7 * step[1] + 6
            high = low + 7 * step[2]
            result = db.query(low, high)
            kinds.append(_reply_kind(transport.shipped))
            returned += result.returned_rows
            message = replace(db.client.make_query(low, high), token=0)
            reply = db.remote.query(message)
            assert (reply.row_ids >= 0).all()
            whole = db.client.decrypt_results(
                reply.row_ids, reply.rows, id_mapper=db._map_physical_ids)
            assert result.values.tolist() == whole.values.tolist()
            assert result.logical_ids.tolist() == whole.logical_ids.tolist()
            assert (result.returned_rows, result.false_positives) == (
                whole.returned_rows, whole.false_positives)
            assert sorted(zip(result.values.tolist(),
                              result.logical_ids.tolist())) == sorted(
                (v, i) for i, v in model.items() if low <= v <= high)
    count = db.obs.metrics.counter_value
    assert count("client.fast_rows") + count("client.exact_rows") + count(
        "client.cached_rows") == returned
    return kinds


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ambiguity=st.booleans(), steps=_steps())
def test_a_reply_with_a_token_answers_as_one_without(ambiguity, steps):
    """Over replies all held, none held, mixed and empty, with inserted
    rows and without: the session's answer equals its client's answer to
    the same query sent with no token (every row whole) — the values and
    logical ids, in order — and ``client.fast_rows`` + ``exact_rows`` +
    ``cached_rows`` add up to the rows returned."""
    _answer_with_and_without_a_token(ambiguity, steps)


@pytest.mark.parametrize("ambiguity", [False, True])
def test_replies_of_every_kind_answer_as_without_a_token(ambiguity):
    """The property above on a sequence that ships a reply of each kind,
    inserted, merged and deleted rows among them."""
    kinds = _answer_with_and_without_a_token(ambiguity, [
        ("query", 30, 70), ("query", 30, 70), ("query", 0, 150),
        ("query", 0, 0), ("insert", 40), ("query", 30, 70), ("merge",),
        ("query", 30, 70), ("delete", 45), ("query", 0, 150)])
    assert kinds == ["none held", "all held", "mixed", "empty", "mixed",
                     "mixed", "mixed"]  # an inserted row comes whole
