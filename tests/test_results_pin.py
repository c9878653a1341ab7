"""The decrypted results of fixed sessions, pinned by sha256.

Seven seeded sessions — ambiguity off and on at key lengths 3, 4 and 8
over a loopback endpoint, and one ambiguity session over TCP — run one
fixed list of operations: range queries whose answers hold 8, 40 and
150 values, the same three as one ``query_many``, inserts into those
ranges, deletes, the queries again, a merge, the queries again, a key
rotation and the queries once more.  Every result's ``(values,
logical_ids, false_positives, returned_rows)`` goes into one sha256 per
session.  A change to how the client opens a reply must leave every
digest as it is.
"""

import hashlib
import threading

import numpy as np
import pytest

from repro.core.session import OutsourcedDatabase
from repro.net import serve
from repro.net.transport import TcpTransport

VALUES = (np.random.default_rng(45).permutation(3_000) * 7 + 3).tolist()
ORDERED = sorted(VALUES)
#: Ranges over ``VALUES`` holding 8, 40 and 150 of them.
RANGES = [
    (ORDERED[start], ORDERED[start + count - 1])
    for start, count in ((100, 8), (900, 40), (2_000, 150))
]
#: Inserted values, each inside one of ``RANGES`` and not in ``VALUES``.
INSERTS = [
    ORDERED[103] + 1, ORDERED[910] + 2, ORDERED[2_050] + 4, ORDERED[2_100] + 5
]

#: One digest per ``(ambiguity, key length, transport)``.  Without
#: ambiguity the plaintext results do not depend on the key; at key
#: length 3 the counterfeits are not steered into the column's domain,
#: so none falls in a range and those sessions read as plain ones.
EXPECTED = {
    (False, 3, "loopback"): (
        "54a286775e91aa57a50e57af9f70a86c31d2026eab0998afe0d4a8c0a18c332b"
    ),
    (False, 4, "loopback"): (
        "54a286775e91aa57a50e57af9f70a86c31d2026eab0998afe0d4a8c0a18c332b"
    ),
    (False, 8, "loopback"): (
        "54a286775e91aa57a50e57af9f70a86c31d2026eab0998afe0d4a8c0a18c332b"
    ),
    (True, 3, "loopback"): (
        "54a286775e91aa57a50e57af9f70a86c31d2026eab0998afe0d4a8c0a18c332b"
    ),
    (True, 4, "loopback"): (
        "f4c19d5796460f945471e9cb7e114e22efd199eda3b7972bfb33d5bd558b916e"
    ),
    (True, 8, "loopback"): (
        "3e8aa55ab10a0b6f26799178631055df294aeea3a10a353e92f8e0c9c33315e5"
    ),
    (True, 4, "tcp"): (
        "f4c19d5796460f945471e9cb7e114e22efd199eda3b7972bfb33d5bd558b916e"
    ),
}


def _session_digest(db):
    digest = hashlib.sha256()

    def record(result):
        digest.update(repr((
            result.values.tolist(),
            result.logical_ids.tolist(),
            result.false_positives,
            result.returned_rows,
        )).encode())

    def queries():
        for low, high in RANGES:
            record(db.query(low, high))

    queries()
    for result in db.query_many(RANGES):
        record(result)
    for value in INSERTS:
        db.insert(value)
    # Two uploaded values and the second inserted one.
    for logical_id in (
        VALUES.index(ORDERED[101]), VALUES.index(ORDERED[2_010]), 3_001
    ):
        db.delete(logical_id)
    queries()
    db.merge()
    queries()
    db.rotate_key(new_seed=12)
    queries()
    for result in db.query_many(RANGES):
        record(result)
    return digest.hexdigest()


@pytest.fixture()
def endpoint():
    server = serve()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.stop()
        thread.join(timeout=5)


@pytest.mark.parametrize("ambiguity", [False, True])
@pytest.mark.parametrize("length", [3, 4, 8])
def test_loopback_session_results(ambiguity, length):
    db = OutsourcedDatabase(
        VALUES, ambiguity=ambiguity, seed=11, key_length=length
    )
    assert _session_digest(db) == EXPECTED[ambiguity, length, "loopback"]


def test_tcp_session_results(endpoint):
    with TcpTransport(*endpoint.server_address) as transport:
        db = OutsourcedDatabase(
            VALUES, ambiguity=True, seed=11, transport=transport
        )
        assert _session_digest(db) == EXPECTED[True, 4, "tcp"]
