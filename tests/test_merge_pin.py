"""Where merged rows land, pinned by sha256.

``tests/test_results_pin.py`` pins what a session decrypts, not the
physical order a merge leaves behind.  Here a seeded session inserts,
deletes, merges and queries over two columns (plaintext-valued rows
that always crack, and an ambiguity column), and after every merge the
column's physical row-id order and its piece boundaries are recorded;
the whole record is hashed.  Any change to how a merged row is routed
between the cracks, or how the cracks move, moves the hash.
"""

import hashlib
import json
import random

import pytest

from repro.core.session import OutsourcedDatabase

#: sha256 of :func:`merge_record` per configuration.
MERGE_PIN_SHA256 = {
    "always-crack": (
        "2fdfccfe2722a1a7e9eb59777a47a92d4519438fd4deeb53f0307c15e36ef3e0"
    ),
    "ambiguity": (
        "2b062e7050efd6505f4be0b82a5c22857ef67e5c2dfdde4c7a5ea0fd796b4741"
    ),
}

CONFIGS = {
    "always-crack": dict(seed=17, min_piece_size=1),
    "ambiguity": dict(seed=18, ambiguity=True, fake_domain=(0, 1000)),
}

ROUNDS = 6


def merge_record(name):
    """Per merge: the column's row ids in physical order and its piece
    boundaries, over a seeded insert / delete / merge / query session."""
    rng = random.Random("merge-pin:%s" % name)
    values = [rng.randrange(0, 1000) for _ in range(240)]
    db = OutsourcedDatabase(values, **CONFIGS[name])
    logical = list(range(len(values)))
    record = []
    for _ in range(ROUNDS):
        for _ in range(8):
            low = rng.randrange(-20, 1000)
            db.query(low, low + rng.randrange(0, 120))
        for _ in range(12):
            logical.append(db.insert(rng.randrange(0, 1000)))
        for _ in range(7):
            db.delete(logical.pop(rng.randrange(len(logical))))
        db.merge()
        engine = db.server.engine
        record.append([engine.column.row_ids.tolist(), engine.piece_boundaries()])
        engine.check_invariants()
    return record


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_merged_rows_land_where_they_did(name):
    record = merge_record(name)
    # The session exercises what it pins: cracks, and merges that move them.
    assert all(len(boundaries) > 4 for __, boundaries in record)
    encoded = json.dumps(record, separators=(",", ":"))
    assert hashlib.sha256(encoded.encode()).hexdigest() == MERGE_PIN_SHA256[name]
