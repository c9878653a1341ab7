"""Micro-benchmarks of the scheme's primitive operations.

Not a paper figure — the per-operation grounding for all of them:
encryption in both modes, ambiguous encryption (unsteered per value;
steered as the 6 000-value set-up of the e2e ``ambiguity_range``
workload), decryption, the scalar-product comparison and a full-column
vectorised comparison sweep.
Run across key sizes to see the O(l) comparison cost of Figure 12 at
the operation level.

Two cases at the default key time the column's bookkeeping rather than
its arithmetic: one crack of a fresh 100k-row column (the shape of the
e2e ``crack_cold`` workload) and one merge of 256 pending rows + 32
tombstones into a 12k-row column holding ~1k cracks (``mixed_wal``).
Three time what the owner pays before any of that: the ``Ev``
encryption of those 100k values under the e2e harness's key, its draws
alone (one SHAKE-256 call per 4 096-value chunk), and the upload of the
100k-row block over a loopback endpoint (``RemoteColumn.create``: the
frame both ways and the catalog building the column).
Three time what every query pays before the engine sees it: the
client's ``make_query`` (both bounds in both modes) and its request
encode, and the server's decode (envelope to frame and back, as
``RemoteColumn`` and ``serve_frame`` run them).  One times what the
server does with a converged ``crack_cold`` query: the catalog's
``dispatch`` of its decoded request over a 100k-row column that 1 991
such queries have cracked.  Three more time what a
reply costs after the engine is done with it — the server's frame
encode, the client's frame decode and its decrypt of a reply it has not
seen before (its memory of opened rows emptied before each round) — at
150 rows (``range_tcp``; the decrypt asserting that every row opened in
proven 64-bit words) and at 10 (``crack_cold``, where the per-frame and
per-block fixed costs are all there is) — and one the decrypt of a
120-row ambiguity reply not seen before (``ambiguity_range``), which no
word holds: every row must open in exact digits, none boxed.  Beside
each decrypt, the key's open of the same rows alone (``open_block``).
One times the decrypt of a 120-row reply of an
``ambiguity_range``-shaped session, the same reply again and again, as
a range workload returns the same rows again and again (answered from
the client's memory of opened rows).  Three time a repeated 150-row
reply of a ``range_tcp``-shaped column, every row named by id alone:
the server's encode of its frame, the client's decode and its answer
from memory.  Two time the server's twin of the
open: ``below`` over an ``ambiguity_range``-shaped piece of 64 rows
(boxed) and of 200 (exact digits).
Three time a mutation's server-side costs besides its fsync, at the
shapes of ``mixed_wal``: a one-row insert into a pending column of 200
rows, the WAL append of that insert's record (encode included) under
``fsync="never"``, and the recovery of a log of 1 000 such mutations.
Four more time a one-row insert's and a one-id delete's codec steps:
the request's encode and decode, the reply's encode and decode.
"""

import itertools
import random

import numpy as np
import pytest

from repro.core.client import OpenedRows, TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.persistence import recover_catalog
from repro.core.server import SecureServer
from repro.core.session import OutsourcedDatabase
from repro.core.wal import WalWriter
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor, _chunks
from repro.net.catalog import ColumnCatalog
from repro.net.client import RemoteColumn
from repro.net.protocol import (
    DeleteRequest,
    InsertRequest,
    QueryRequest,
    QueryResponse,
    decode,
    decode_request,
    encode,
)
from repro.net.transport import LoopbackTransport, serve_frame

KEY_LENGTHS = (4, 16, 64)


@pytest.fixture(scope="module", params=KEY_LENGTHS)
def sized_encryptor(request):
    length = request.param
    return Encryptor(generate_key(length, seed=length), seed=length + 1)


def test_encrypt_value(sized_encryptor, benchmark):
    benchmark(lambda: sized_encryptor.encrypt_value(123456789))


def test_encrypt_bound(sized_encryptor, benchmark):
    benchmark(lambda: sized_encryptor.encrypt_bound(123456789))


def test_decrypt_value(sized_encryptor, benchmark):
    ciphertext = sized_encryptor.encrypt_value(987654321)
    benchmark(lambda: sized_encryptor.decrypt_value(ciphertext))


def test_scalar_product_comparison(sized_encryptor, benchmark):
    bound = sized_encryptor.encrypt_bound(5)
    value = sized_encryptor.encrypt_value(9)
    benchmark(lambda: bound.product_sign(value))


def test_column_comparison_sweep(sized_encryptor, benchmark):
    rows = [sized_encryptor.encrypt_value(v) for v in range(2000)]
    column = EncryptedColumn(rows)
    bound = sized_encryptor.encrypt_bound(1000)
    benchmark(lambda: column.products(0, len(column), bound))


def test_encrypt_ambiguous_steered(benchmark):
    """The set-up of the e2e ``ambiguity_range`` workload: 6 000 values
    steered into their own domain under the harness's key."""
    values = random.Random(3).sample(range(300_000), 6_000)
    domain = (min(values), max(values) + 1)
    client = TrustedClient(seed=11, ambiguity=True, fake_domain=domain)
    block = benchmark.pedantic(
        lambda: client.encryptor.encrypt_values_ambiguous(values, domain),
        rounds=3,
    )
    assert len(block) == 2 * len(values)
    assert client.encryptor.steering_fallbacks == 0


def test_encrypt_ambiguous_unsteered(benchmark):
    encryptor = Encryptor(generate_key(4, seed=2), seed=3)
    benchmark(lambda: encryptor.encrypt_value_ambiguous(123456))


@pytest.fixture(scope="module")
def client():
    return TrustedClient(seed=4)


def test_crack_100k_rows_once(client, benchmark):
    rows, row_ids = client.encrypt_dataset(
        random.Random(1).sample(range(10**6), 100_000)
    )
    bound = client.encryptor.encrypt_bound(500_000)

    def crack(column):
        split = column.crack(0, len(column), bound, False)
        assert 0 < split < len(column)

    benchmark.pedantic(
        crack, setup=lambda: ((EncryptedColumn(rows, row_ids),), {}), rounds=3
    )


def test_encrypt_values_100k(benchmark):
    client = TrustedClient(seed=11)  # the e2e harness's KEY_SEED
    values = random.Random(1).sample(range(10**7), 100_000)
    block = benchmark.pedantic(
        lambda: client.encryptor.encrypt_values(values), rounds=3
    )
    assert (len(block), block.length) == (100_000, 4)
    assert client.decrypt_results(range(5), block[:5]).values.tolist() == (
        values[:5]
    )


def test_draws_100k(benchmark):
    """The draws alone of ``test_encrypt_values_100k``: ``xi`` and ``w``
    of 100k values, one keyed block draw per chunk."""
    encryptor = TrustedClient(seed=11).encryptor
    sizes = [len(chunk) for chunk in _chunks([0] * 100_000)]
    drawn = benchmark.pedantic(
        lambda: [
            encryptor._block_draws(1, chunk, size)
            for chunk, size in enumerate(sizes)
        ],
        rounds=3,
    )
    assert sum(len(xis) for xis, _, _ in drawn) == 100_000


def test_create_100k_rows_over_loopback(benchmark):
    """The upload half of a set-up: a 100k-row block under the e2e
    harness's key through ``RemoteColumn.create`` — frame, decode, the
    catalog building the column, and the reply — onto a fresh
    in-process endpoint each round."""
    rows, row_ids = TrustedClient(seed=11).encrypt_dataset(
        random.Random(1).sample(range(10**7), 100_000)
    )

    def endpoint():
        transport = LoopbackTransport(ColumnCatalog())
        return (RemoteColumn(transport, "values"),), {}

    def create(remote):
        assert remote.create(rows, row_ids) == 100_000

    benchmark.pedantic(create, setup=endpoint, rounds=3)


def test_merge_256_pending_into_1k_cracks(client, benchmark):
    rng = random.Random(2)
    rows, row_ids = client.encrypt_dataset(rng.sample(range(10**6), 12_000))

    def cracked_server_with_pending():
        server = SecureServer(rows, row_ids, min_piece_size=1)
        for _ in range(700):
            low = rng.randrange(10**6)
            server.execute(client.make_query(low, low + 100))
        for _ in range(256):
            server.insert(client.encrypt_value(rng.randrange(10**6)))
        server.delete(rng.sample(range(12_000), 32))
        return (server,), {}

    def merge(server):
        cracks = len(server.engine.cracks)
        assert server.merge_pending() == 256 - 32
        assert len(server.engine.cracks) == cracks >= 1000
        assert server.pending_count == 0

    benchmark.pedantic(merge, setup=cracked_server_with_pending, rounds=3)


@pytest.fixture(scope="module")
def served_column():
    """A 15k-row column under the e2e harness's key (``KEY_SEED`` 11:
    64-bit numerators, two limbs each), its client and its values."""
    client = TrustedClient(seed=11)
    rows, row_ids = client.encrypt_dataset(
        random.Random(3).sample(range(2 ** 31), 15_000)
    )
    everything = sorted(client.decrypt_results(row_ids, rows).values.tolist())
    return client, SecureServer(rows, row_ids), everything


@pytest.fixture(scope="module")
def query_request(served_column):
    """A two-sided query request and its frame."""
    client, _, everything = served_column
    request = QueryRequest(
        column="values",
        query=client.make_query(everything[700], everything[849]),
    )
    return request, encode(request)


def test_make_query(benchmark):
    """A two-sided query under the e2e harness's key, as the session
    builds one: both bounds in both modes."""
    client = TrustedClient(seed=11)
    query = benchmark(lambda: client.make_query(1_000_000, 1_000_450))
    assert client.decrypt_results(
        [0, 1], [query.low.ev, query.high.ev]
    ).values.tolist() == [1_000_000, 1_000_450]


@pytest.fixture(scope="module")
def converged_crack_cold():
    """A ``crack_cold``-shaped session after 1 991 ten-row queries over
    its 100k rows, and the decoded requests of nine more."""
    rng = np.random.default_rng(20160626)
    values = np.unique(rng.integers(0, 5_000_000, size=200_000))
    values = rng.permutation(values)[:100_000]
    ordered = np.sort(values)
    starts = rng.integers(0, len(values) - 10, size=2_000)
    queries = [(int(ordered[s]), int(ordered[s + 9])) for s in starts]
    db = OutsourcedDatabase(values.tolist(), seed=11)
    for low, high in queries[:1_991]:
        db.query(low, high)
    requests = [
        QueryRequest(column="values", query=db.client.make_query(low, high))
        for low, high in queries[1_991:]
    ]
    return db, requests


def test_dispatch_converged_crack_cold_query(converged_crack_cold, benchmark):
    db, requests = converged_crack_cold
    catalog = db._catalog
    cycle = itertools.cycle(requests)
    reply = benchmark(lambda: catalog.dispatch(next(cycle)))
    assert len(reply.response.rows) == 10


def test_query_request_encode(query_request, benchmark):
    request, frame = query_request
    assert benchmark(lambda: encode(request, None)) == frame


def test_query_request_decode(query_request, benchmark):
    request, frame = query_request
    assert benchmark(lambda: decode_request(frame)) == (request, None)


@pytest.fixture(scope="module", params=(10, 150), ids="{}_rows".format)
def reply(request, served_column):
    """A query reply of that many rows and its frame."""
    client, server, everything = served_column
    count = request.param
    message = client.make_query(everything[700], everything[700 + count - 1])
    reply = QueryResponse(response=server.execute(message))
    assert len(reply.response.rows) == count
    return client, reply, encode(reply)


def test_response_encode(reply, benchmark):
    _, reply, frame = reply
    assert benchmark(lambda: encode(reply)) == frame


def test_response_decode(reply, benchmark):
    _, reply, frame = reply
    decoded = benchmark(lambda: decode(frame))
    assert decoded.response.rows == reply.response.rows


#: Rounds of a probe whose every round starts from an empty memory.
FIRST_SEEN_ROUNDS = 300


def _forget(client):
    """A round's setup that empties ``client``'s memory of opened rows,
    so the round decrypts a reply it has not seen before."""
    space = client._opened.space
    return lambda: setattr(
        client, "_opened", OpenedRows(client.encryptor, space)
    )


def _first_seen_decrypt(benchmark, client, row_ids, rows):
    """``decrypt_results`` of a reply the client has not seen before:
    the open of every row, plus the remembering of them from the word
    stage's floor of rows up."""
    result = benchmark.pedantic(
        lambda: client.decrypt_results(row_ids, rows),
        setup=_forget(client),
        rounds=FIRST_SEEN_ROUNDS,
    )
    assert client.cached_rows == 0
    return result


def _assert_opened_in_words(encryptor, opened, count):
    fast = encryptor.fast_rows - opened[0]
    exact = encryptor.exact_rows - opened[1]
    if count >= 32:
        assert fast / (fast + exact) >= 0.99, (fast, exact)
    else:
        # A short block goes down the big-int loop, row by row.
        assert fast == 0 < exact


def test_decrypt(reply, benchmark):
    client, reply, _ = reply
    response = reply.response
    encryptor = client.encryptor
    opened = encryptor.fast_rows, encryptor.exact_rows
    result = _first_seen_decrypt(
        benchmark, client, response.row_ids, response.rows
    )
    assert len(result.values) == len(response.rows)
    _assert_opened_in_words(encryptor, opened, len(response.rows))


def test_open_block(reply, benchmark):
    """The open of a reply's rows by the key alone, without the
    client's memory of opened rows."""
    client, reply, _ = reply
    response = reply.response
    encryptor = client.encryptor
    opened = encryptor.fast_rows, encryptor.exact_rows
    is_real, values = benchmark(lambda: encryptor.open_block(response.rows))
    assert len(values) == len(response.rows) == is_real.sum()
    _assert_opened_in_words(encryptor, opened, len(response.rows))


@pytest.fixture(scope="module")
def ambiguous_120_rows():
    """A client and the 120 rows (60 values) it uploaded with ambiguity."""
    client = TrustedClient(seed=11, ambiguity=True)
    values = random.Random(3).sample(range(300_000), 60)
    rows, row_ids = client.encrypt_dataset(values)
    assert len(rows) == 120
    return client, values, rows, row_ids


def test_decrypt_120_ambiguous_rows(ambiguous_120_rows, benchmark):
    client, values, rows, row_ids = ambiguous_120_rows
    encryptor = client.encryptor
    result = _first_seen_decrypt(benchmark, client, row_ids, rows)
    assert sorted(result.values.tolist()) == sorted(values)
    assert result.false_positives == 60
    assert (encryptor.exact_rows, encryptor.fast_rows % 120) == (0, 0)


def test_open_block_120_ambiguous_rows(ambiguous_120_rows, benchmark):
    client, values, rows, _ = ambiguous_120_rows
    encryptor = client.encryptor
    is_real, plain = benchmark(lambda: encryptor.open_block(rows))
    assert sorted(plain.tolist()) == sorted(values)
    assert (~is_real).sum() == 60
    assert (encryptor.exact_rows, encryptor.fast_rows % 120) == (0, 0)


@pytest.fixture(scope="module")
def repeated_ambiguity_reply():
    """An ``ambiguity_range``-shaped session (6 000 values over a
    300 000-wide domain, the e2e harness's key) and the reply to a
    120-row query it sent twice, decoded as the session receives it:
    every row named by id alone."""
    rng = np.random.default_rng(1)
    values = rng.permutation(np.unique(rng.integers(0, 300_000, 12_000)))[:6_000]
    db = OutsourcedDatabase(values.tolist(), ambiguity=True, seed=11)
    ordered = np.sort(values)
    for start in rng.integers(0, len(values) - 70, 1_000):
        low, high = int(ordered[start]), int(ordered[start + 64])
        query = db.client.make_query(low, high)
        response = db.remote.query(query)
        # Decrypted as a session does: what the server marked shipped,
        # the client holds.
        db.client.decrypt_results(response.row_ids, response.rows)
        if len(response.row_ids) == 120:
            again = db.remote.query(query)
            assert len(again.rows) == 0
            return db.client, again
    raise AssertionError("no 120-row reply")


def test_decrypt_results_of_a_repeated_ambiguity_reply(
    repeated_ambiguity_reply, benchmark
):
    """The reply to a 120-row ambiguity query sent again decrypted
    again and again, as a range workload returns its rows again and
    again: every row answered from memory."""
    client, response = repeated_ambiguity_reply
    first = client.decrypt_results(response.row_ids, response.rows)
    result = benchmark(
        lambda: client.decrypt_results(response.row_ids, response.rows)
    )
    assert result.values.tolist() == first.values.tolist()
    assert result.logical_ids.tolist() == first.logical_ids.tolist()
    assert result.false_positives == first.false_positives


@pytest.fixture(scope="module")
def repeated_150_row_reply():
    """A ``range_tcp``-shaped column (15k rows under the e2e harness's
    key) served to a client of its own, and the reply to a 150-row query
    it sent twice — every row named by id alone — with its frame."""
    values = random.Random(3).sample(range(2 ** 31), 15_000)
    client = TrustedClient(seed=11)
    server = SecureServer(*client.encrypt_dataset(values))
    ordered = sorted(values)
    query = client.make_query(ordered[3_000], ordered[3_149])
    first = server.execute(query)
    client.decrypt_results(first.row_ids, first.rows)
    reply = QueryResponse(response=server.execute(query))
    assert len(reply.response.row_ids) == 150
    assert len(reply.response.rows) == 0
    return client, reply, encode(reply), ordered[3_000:3_150]


def test_repeated_reply_encode(repeated_150_row_reply, benchmark):
    """The server's encode of a reply of 150 ids and no row."""
    _, reply, frame, _ = repeated_150_row_reply
    assert benchmark(lambda: encode(reply)) == frame


def test_repeated_reply_decode(repeated_150_row_reply, benchmark):
    """The client's decode of that frame."""
    _, reply, frame, _ = repeated_150_row_reply
    decoded = benchmark(lambda: decode(frame))
    assert decoded.response.row_ids.tolist() == (
        reply.response.row_ids.tolist())


def test_decrypt_results_of_a_repeated_reply(
    repeated_150_row_reply, benchmark
):
    """The client's answer to that reply: every row from memory."""
    client, reply, _, expected = repeated_150_row_reply
    response = reply.response
    result = benchmark(
        lambda: client.decrypt_results(response.row_ids, response.rows)
    )
    assert sorted(result.values.tolist()) == expected


@pytest.fixture(scope="module", params=(64, 200), ids="{}_rows".format)
def ambiguity_piece(request):
    """A piece of an ``ambiguity_range``-shaped column — values steered
    into their own 300 000-wide domain under the harness's key — that
    long, and a bound inside the domain: no word holds these products,
    and 96 rows is where the server turns from boxing to digits."""
    count = request.param
    values = random.Random(5).sample(range(300_000), count // 2)
    domain = (min(values), max(values) + 1)
    client = TrustedClient(seed=11, ambiguity=True, fake_domain=domain)
    column = EncryptedColumn(*client.encrypt_dataset(values))
    assert len(column) == count
    return column, client.encrypt_query_bound(150_000).eb


def test_below_on_an_ambiguity_column(ambiguity_piece, benchmark):
    column, bound = ambiguity_piece
    before = column.product_counts()
    below = benchmark(lambda: column.below(0, len(column), bound, True))
    assert len(below) == len(column)
    fast, exact = column.product_counts()
    assert fast == before[0] and exact > before[1]


@pytest.fixture(scope="module")
def one_row_inserts():
    """The e2e harness's key, a 2 000-row column and 201 one-row insert
    requests as the endpoint decodes them."""
    client = TrustedClient(seed=11)
    rng = random.Random(6)
    rows, row_ids = client.encrypt_dataset(rng.sample(range(10**6), 2_000))
    requests = [
        decode(encode(InsertRequest(
            column="bench",
            rows=client.encryptor.encrypt_values([rng.randrange(10**6)]),
        )))
        for _ in range(201)
    ]
    return client, rows, row_ids, requests


def test_insert_one_row_into_200_pending(one_row_inserts, benchmark):
    client, rows, row_ids, requests = one_row_inserts

    def server_with_200_pending():
        server = SecureServer(rows, row_ids)
        for index, request in enumerate(requests[:200]):
            if index == 100:  # queries scan the pending rows
                server.execute(client.make_query(0, 5_000))
            server.insert(request.rows)
        return (server,), {}

    def insert(server):
        assert server.insert(requests[200].rows) == [2_200]

    benchmark.pedantic(insert, setup=server_with_200_pending, rounds=100)


@pytest.fixture(scope="module", params=("insert", "delete"))
def mutation(request, one_row_inserts):
    """A one-row insert or a one-id delete request, the reply the
    catalog answers it with, and both frames."""
    client, rows, row_ids, inserts = one_row_inserts
    catalog = ColumnCatalog()
    RemoteColumn(LoopbackTransport(catalog), "bench").create(rows, row_ids)
    message = {
        "insert": InsertRequest(
            column="bench", rows=client.encryptor.encrypt_values([17])),
        "delete": DeleteRequest(column="bench", row_ids=(7,)),
    }[request.param]
    frame = encode(message)
    reply_frame = serve_frame(catalog, frame)
    return message, frame, decode(reply_frame), reply_frame


def test_mutation_request_encode(mutation, benchmark):
    message, frame, _, _ = mutation
    assert benchmark(lambda: encode(message)) == frame


def test_mutation_request_decode(mutation, benchmark):
    message, frame, _, _ = mutation
    assert benchmark(lambda: decode_request(frame)) == (message, None)


def test_mutation_reply_encode(mutation, benchmark):
    _, _, reply, reply_frame = mutation
    assert benchmark(lambda: encode(reply)) == reply_frame


def test_mutation_reply_decode(mutation, benchmark):
    _, _, reply, reply_frame = mutation
    assert benchmark(lambda: decode(reply_frame)) == reply


def test_wal_append_insert_record(one_row_inserts, tmp_path, benchmark):
    request = one_row_inserts[3][0]
    epochs = itertools.count(1)
    with WalWriter(str(tmp_path), fsync="never") as writer:
        benchmark(lambda: writer.append("bench", next(epochs), encode(request)))


@pytest.fixture(scope="module")
def mixed_log(tmp_path_factory):
    """A WAL of 1 000 mutations after the upload, ``mixed_wal``'s way:
    five inserts to a delete, merged past 256 pending rows."""
    directory = str(tmp_path_factory.mktemp("mixed-log"))
    with WalWriter(directory, fsync="never") as writer:
        catalog = ColumnCatalog()
        catalog.bind_wal(writer)
        db = OutsourcedDatabase(
            random.Random(7).sample(range(10**6), 2_000), seed=11,
            auto_merge_threshold=256, transport=LoopbackTransport(catalog),
            column="bench",
        )
        for step in range(1_000):
            if step % 6 == 5:
                db.delete(step)
            else:
                db.insert(step * 997 % 10**6)
    return directory


def test_replay_1000_records(mixed_log, benchmark):
    __, info = benchmark.pedantic(
        lambda: recover_catalog(mixed_log), rounds=5
    )
    assert info["replayed"] == 1_001  # the upload too
