"""The columnar update path, pinned against the per-row path it replaced.

A merge used to delete and ripple-insert one row at a time
(``delete_at`` / ``insert_at`` rebuilding the column per row, one walk
over every crack per row) and the column kept an id -> position dict
beside ``row_ids``.  Those per-row bodies live on here, verbatim but for
the column's bookkeeping (the id memo and ceiling, the spare rows) and
the cracker index (a tree then, the sorted crack lists now), as the
reference the one-pass merge is checked against: same final physical
order, same crack positions, same products spent on routing, same
counters, same audit events.

Also here: the id -> position lookups against a dict rebuilt from
``row_ids``, appends into spare rows against the splice, the snapshot
pin (sha256 computed at the parent commit), and the regressions for the
refused-mutation and mid-merge-failure bugs.
"""

import collections
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.client import TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.persistence import (
    SNAPSHOT_VERSION,
    recover_catalog,
    snapshot_server,
)
from repro.core.server import SecureServer
from repro.core.session import OutsourcedDatabase
from repro.core.wal import WalWriter
from repro.crypto.ciphertext import RowBlock, ValueCiphertext
from repro.errors import IndexStateError, UpdateError
from repro.linalg.limbs import ROUNDING_LIMIT, widen
from repro.net.catalog import ColumnCatalog
from repro.net.client import RemoteColumn
from repro.net.protocol import encode
from repro.net.transport import LoopbackTransport
from repro.obs import Observability

# -- the parent's per-row update path (the reference) -------------------------


def ref_limbs(value, k):
    """``value`` as ``k`` two's-complement ``uint64`` limbs, least
    significant first — from the definition, one Python int at a time."""
    return [(value >> (64 * j)) % 2**64 for j in range(k)]


def ref_float(value, k):
    """The float plane's entry for ``value`` in a ``k``-limb store, from
    its definition: the signed top limb and the unsigned lower ones
    recombined by Horner's rule, in IEEE doubles."""
    *lower, top = ref_limbs(value, k)
    total = float(top - 2**64 if top >= 2**63 else top)
    for limb in reversed(lower):
        total = total * 2.0**64 + float(limb)
    return total


def ref_insert_at(column, position, row, row_id):
    """``EncryptedColumn.insert_at`` as it was: one concatenate per
    parallel array, the one row's limbs — and, once the column derives
    a float plane from them, its plane entries — written out from their
    definition."""
    width = max([column._bits] + [x.bit_length() for x in row.numerators])
    k = max(
        column._limbs.shape[2],
        max(x.bit_length() for x in row.numerators + (row.denominator,)) // 64 + 1,
    )
    if k != column._limbs.shape[2]:  # a wider store recombines anew
        column._limbs = widen(column._limbs, k)
        column._floats = None
    column._bits = width
    if column._floats is not None:
        ref_plane_insert(column, position, row, k)
    new_row = np.array(
        [[ref_limbs(x, k) for x in row.numerators + (row.denominator,)]],
        dtype=np.uint64,
    )
    column._limbs = np.concatenate(
        (column._limbs[:position], new_row, column._limbs[position:])
    )
    column._row_ids = np.concatenate(
        (
            column._row_ids[:position],
            np.array([row_id], dtype=np.int64),
            column._row_ids[position:],
        )
    )
    column._id_ceiling = max(column._id_ceiling, row_id)
    column._id_order = column._spare = None


def ref_plane_insert(column, position, row, k):
    if column._rounding_bound(column._bits) >= ROUNDING_LIMIT:
        column._floats = None  # the arrival is too wide for any proof
        return
    new = np.array([[ref_float(x, k) for x in row.numerators]])
    column._floats = np.concatenate(
        (column._floats[:position], new, column._floats[position:])
    )


def ref_delete_at(column, position):
    """``EncryptedColumn.delete_at`` as it was."""
    if column._floats is not None:
        column._floats = np.delete(column._floats, position, axis=0)
    column._limbs = np.delete(column._limbs, position, axis=0)
    column._row_ids = np.delete(column._row_ids, position)
    column._id_order = column._spare = None


def ref_route_row(engine, row):
    """Bisect the cracks for the first one right of ``row`` (its rank,
    ``len(keys)`` at the far right), one product per probe."""
    keys, positions = engine.cracks.keys, engine.cracks.positions
    low, high = 0, len(keys)
    while low < high:
        middle = (low + high) // 2
        engine._column.exact_products.add()
        sign = keys[middle].bound.eb.product_sign(row)
        if sign < 0 or (sign == 0 and keys[middle].inclusive):
            high = middle
        else:
            low = middle + 1
    piece_hi = positions[low] if low < len(keys) else len(engine._column)
    return piece_hi, low


def ref_insert_row(engine, row, row_id):
    """``SecureAdaptiveIndex.insert_row`` as it was: route, insert at the
    piece's upper edge, walk every crack to bump what sorts above."""
    piece_hi, successor = ref_route_row(engine, row)
    ref_insert_at(engine._column, piece_hi, row, row_id)
    positions = engine.cracks.positions
    for rank in range(successor, len(positions)):
        positions[rank] += 1
    engine._obs.metrics.add("index.ripple_inserts")
    audit = engine._obs.audit
    if audit.enabled:
        audit.record("ripple-insert", row_id=row_id, position=piece_hi)
    return piece_hi


def ref_delete_row(engine, row_id):
    """``SecureAdaptiveIndex.delete_row`` as it was."""
    position = int(engine._column.positions_of([row_id])[0])
    ref_delete_at(engine._column, position)
    positions = engine.cracks.positions
    for rank, crack in enumerate(positions):
        if crack > position:
            positions[rank] = crack - 1
    engine._obs.metrics.add("index.row_deletes")
    audit = engine._obs.audit
    if audit.enabled:
        audit.record("row-delete", row_id=row_id, position=position)
    return position


def ref_merge_pending(server):
    """``SecureServer.merge_pending`` as it was for the adaptive engine:
    reclaim tombstoned rows in id order, then ripple the live pending
    rows in arrival order."""
    engine, pending, tombstones = server.engine, server.pending, server.updates.tombstones
    arrivals = [
        (int(row_id), pending.row(index))
        for index, row_id in enumerate(pending.row_ids)
        if int(row_id) not in tombstones
    ]
    for row_id in sorted(i for i in tombstones if i in engine.column):
        ref_delete_row(engine, row_id)
    for row_id, row in arrivals:
        ref_insert_row(engine, row, row_id)
    pending.delete_positions(np.arange(len(pending)))
    server.updates.drain()


# -- block merge == per-row reference -----------------------------------------

CLIENTS = {}


def client_for(ambiguity):
    if ambiguity not in CLIENTS:
        CLIENTS[ambiguity] = TrustedClient(seed=5, ambiguity=ambiguity)
    return CLIENTS[ambiguity]


def node_positions(server):
    return list(server.engine.cracks.positions)


def structural_events(server):
    return collections.Counter(
        (event.kind, event.data["row_id"])
        for event in server.obs.audit.events
        if event.kind in ("ripple-insert", "row-delete")
    )


def counters(server):
    return server.obs.metrics.counter_values(
        ("kernel.fast_products", "kernel.exact_products",
         "index.ripple_inserts", "index.row_deletes")
    )


VALUE = st.integers(0, 60)
RANGE = st.tuples(VALUE, st.integers(0, 12))
OP = st.one_of(
    st.tuples(st.just("insert"), VALUE),
    st.tuples(
        st.sampled_from(["delete-base", "delete-pending", "empty-piece", "empty-piece"]),
        st.integers(0, 10**6),
    ),
)


class TestBlockMergeMatchesPerRowReference:
    @settings(max_examples=150, deadline=None)
    @given(
        ambiguity=st.booleans(),
        min_piece_size=st.sampled_from([1, 8]),
        values=st.lists(VALUE, min_size=4, max_size=30),
        cracks=st.lists(RANGE, min_size=2, max_size=10),
        batches=st.lists(
            st.tuples(st.lists(OP, min_size=2, max_size=16),
                      st.lists(RANGE, max_size=3)),
            min_size=1, max_size=4,
        ),
    )
    def test_differential(self, ambiguity, min_piece_size, values, cracks, batches):
        client = client_for(ambiguity)
        rows, row_ids = client.encrypt_dataset(values)
        block, reference = (
            SecureServer(rows, row_ids, min_piece_size=min_piece_size,
                         obs=Observability(audit=True))
            for _ in range(2)
        )

        def run_queries(ranges):
            for low, width in ranges:
                query = client.make_query(low, low + width)
                answers = [
                    sorted(server.execute(query).row_ids.tolist())
                    for server in (block, reference)
                ]
                assert answers[0] == answers[1]

        run_queries(cracks)
        for ops, more_cracks in batches:
            for kind, draw in ops:
                column, pending = block.engine.column, block.pending
                if kind == "insert":
                    new_rows = client.encrypt_value(draw)
                    assert block.insert(new_rows) == reference.insert(new_rows)
                    continue
                if kind == "delete-base" and len(column):
                    doomed = [int(column.row_ids[draw % len(column)])]
                elif kind == "delete-pending" and len(pending):
                    doomed = [int(pending.row_ids[draw % len(pending)])]
                elif kind == "empty-piece":
                    edges = block.engine.piece_boundaries()
                    piece = draw % (len(edges) - 1)
                    doomed = column.row_ids[edges[piece]:edges[piece + 1]].tolist()
                else:
                    continue
                block.delete(doomed)
                reference.delete(doomed)

            before_ids = block.engine.column.row_ids.tolist()
            for server in (block, reference):
                server.obs.audit.clear()
            spent = [counters(block), counters(reference)]
            block.merge_pending()
            ref_merge_pending(reference)
            spent = [
                {name: after[name] - before[name] for name in after}
                for before, after in zip(spent, (counters(block), counters(reference)))
            ]

            merged_ids = block.engine.column.row_ids.tolist()
            assert merged_ids == reference.engine.column.row_ids.tolist()
            assert block.engine.column.rows_at(range(len(merged_ids))) == (
                reference.engine.column.rows_at(range(len(merged_ids)))
            )
            assert block.engine.piece_boundaries() == (
                reference.engine.piece_boundaries()
            )
            assert node_positions(block) == node_positions(reference)
            # ... which includes "float plane == recomputed plane" on both.
            block.engine.check_invariants()
            reference.engine.check_invariants()
            block.pending.check_invariants()
            assert spent[0] == spent[1]
            assert structural_events(block) == structural_events(reference)
            assert block.pending_count == 0 and block.updates.tombstones == set()
            # ``position``: a reclaimed row's index in the column before
            # the merge, a new row's index in the merged column.
            for event in block.obs.audit.events:
                if event.kind == "row-delete":
                    assert before_ids[event.data["position"]] == event.data["row_id"]
                elif event.kind == "ripple-insert":
                    assert merged_ids[event.data["position"]] == event.data["row_id"]
            run_queries(more_cracks)


class TestMergeIsOnePass:
    def test_column_arrays_rebuilt_once_per_merge(self, monkeypatch):
        client = TrustedClient(seed=9)
        server = SecureServer(*client.encrypt_dataset(list(range(0, 600, 3))),
                              min_piece_size=1)
        for low in range(20, 580, 40):
            server.execute(client.make_query(low, low + 15))
        for value in range(1, 600, 10):  # 60 arrivals
            server.insert(client.encrypt_value(value))
        server.execute(client.make_query(0, 10))  # the pending column scanned
        server.delete([5, 50, 100, 150])
        calls = collections.Counter()
        for name in ("insert", "delete", "concatenate"):
            original = getattr(np, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        assert server.merge_pending() == 56
        monkeypatch.undo()
        # One call per parallel array (limbs, ids and the float plane),
        # for the main column's insert and delete and for emptying the
        # pending column — whatever the number of rows.
        assert calls["insert"] == 3
        assert calls["delete"] == 6
        assert calls["concatenate"] == 1  # the ids, for the uniqueness check
        server.engine.check_invariants()


# -- positions are derived from row_ids -----------------------------------------

COLUMN_OP = st.one_of(
    st.tuples(st.just("crack"), VALUE, st.booleans()),
    st.tuples(st.just("crack-three"), VALUE, st.integers(0, 15)),
    st.tuples(st.just("insert"), VALUE, st.integers(0, 10**6)),
    st.tuples(st.just("insert-block"), st.lists(VALUE, min_size=1, max_size=4),
              st.integers(0, 10**6)),
    st.tuples(st.just("delete"), st.lists(st.integers(0, 10**6), max_size=3)),
)


class TestPositionsDerivedFromRowIds:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(VALUE, min_size=1, max_size=25),
        inplace=st.booleans(),
        ops=st.lists(COLUMN_OP, max_size=12),
    )
    def test_lookups_agree_with_a_rebuilt_dict(self, values, inplace, ops):
        encryptor = client_for(False).encryptor
        column = EncryptedColumn(
            [encryptor.encrypt_value(v) for v in values],
            row_ids=[3 * i + 1 for i in range(len(values))],
            use_inplace_algorithm=inplace,  # cracks go through ``_swap``
        )
        next_id = 3 * len(values) + 1

        def check():
            column.check_invariants()
            expected = {int(r): i for i, r in enumerate(column.row_ids)}
            ids = list(expected)[::-1]
            assert column.positions_of(ids).tolist() == [expected[i] for i in ids]
            for row_id in ids[:3]:
                assert row_id in column
                assert column.positions_of([row_id]).tolist() == [expected[row_id]]
            for absent in (0, next_id, -4, 2**70):
                assert absent not in column
                with pytest.raises(IndexStateError):
                    column.positions_of([absent])
                with pytest.raises(IndexStateError):
                    column.positions_of(ids + [absent])

        check()
        for op in ops:
            size = len(column)
            if op[0] == "crack" and size:
                column.crack(0, size, encryptor.encrypt_bound(op[1]), op[2])
            elif op[0] == "crack-three" and size:
                column.crack_three(
                    0, size, encryptor.encrypt_bound(op[1]), True,
                    encryptor.encrypt_bound(op[1] + op[2]), True,
                )
            elif op[0] == "insert":
                column.insert_block(
                    [op[2] % (size + 1)],
                    RowBlock.from_rows([encryptor.encrypt_value(op[1])]), [next_id],
                )
                next_id += 3
            elif op[0] == "insert-block":
                rows = [encryptor.encrypt_value(v) for v in op[1]]
                new_ids = [next_id + 3 * k for k in range(len(rows))]
                positions = [(op[2] + 7 * k) % (size + 1) for k in range(len(rows))]
                before = column.row_ids.tolist()
                column.insert_block(positions, RowBlock.from_rows(rows), new_ids)
                # np.insert semantics, stated without np.insert: row k
                # sits before what was at positions[k], ties in order.
                merged = []
                for index in range(size + 1):
                    merged += [i for p, i in zip(positions, new_ids) if p == index]
                    merged += before[index:index + 1]
                assert column.row_ids.tolist() == merged
                next_id += 3 * len(rows)
            elif op[0] == "delete" and size:
                column.delete_positions(sorted({d % size for d in op[1]}))
            check()

    def test_refusals_change_nothing(self):
        column = EncryptedColumn(
            [ValueCiphertext((1, 2, 3)), ValueCiphertext((4, 5, 6))], row_ids=[7, 9]
        )
        block = column.rows_at([0, 1])
        for positions, rows, ids in (
            ([0, 3], block, [1, 2]),  # position out of range
            ([0, -1], block, [1, 2]),
            ([0, 0], block, [1, 7]),  # id already present
            ([0, 0], block, [1, 1]),  # ids repeat
            ([0], block, [1, 2]),  # lengths differ
            ([0], [ValueCiphertext((1, 2))], [1]),  # wrong width
        ):
            with pytest.raises(IndexStateError):
                column.insert_block(positions, RowBlock.from_rows(rows), ids)
        for positions in ([2], [-1], [0, 5]):
            with pytest.raises(IndexStateError):
                column.delete_positions(positions)
        assert column.row_ids.tolist() == [7, 9]
        assert column.rows_at([0, 1]) == block


# -- an append into spare rows == the splice ------------------------------------


class SplicedColumn(EncryptedColumn):
    """The column with no append path: no id is ever above its ceiling,
    so every insert takes the explicit-position splice."""

    _id_ceiling = property(lambda self: float("inf"), lambda self, value: None)


APPEND_OP = st.one_of(
    st.tuples(st.just("append"), st.lists(VALUE, min_size=1, max_size=3),
              st.sampled_from(["as-sent", "one-limb", "two-limb"])),
    st.tuples(st.just("unordered"), st.lists(VALUE, min_size=2, max_size=3),
              st.sampled_from(["descending", "below"])),
    st.tuples(st.just("query"), VALUE, st.integers(0, 20)),
    st.tuples(st.just("delete"), st.integers(0, 10**6)),
    st.tuples(st.just("merge")),
)


class TestAppendMatchesSplice:
    """Rows appended into spare rows leave every array, the float plane,
    ``_bits`` and every answer exactly as the splice leaves them."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.sampled_from([3, 11]),  # numerators of 58 / 64 bits
        values=st.lists(VALUE, max_size=12),
        ops=st.lists(APPEND_OP, min_size=1, max_size=24),
    )
    def test_differential(self, seed, values, ops):
        from repro.linalg.limbs import fits_word
        from repro.net.protocol import InsertRequest, decode, encode

        client = TrustedClient(seed=seed)
        rows, row_ids = client.encrypt_dataset(values)
        if not values:  # a column that has held no row yet
            rows = client.encryptor.encrypt_values([0])[:0]
        appended, spliced = (cls(rows, row_ids)
                             for cls in (EncryptedColumn, SplicedColumn))
        next_id = len(values)

        def block_of(draws, shape):
            block = client.encryptor.encrypt_values(draws)
            if shape == "as-sent":  # the narrowest width, as decoded
                sent = encode(InsertRequest(column="c", rows=block))
                return decode(sent).rows
            if shape == "one-limb" and fits_word(block.limbs):
                return RowBlock._of(block.limbs[..., :1].copy())
            return RowBlock._of(widen(block.limbs, 2))

        for op in ops:
            if op[0] == "append":
                block = block_of(op[1], op[2])
                ids = list(range(next_id, next_id + len(block)))
            elif op[0] == "unordered":
                block = block_of(op[1], "as-sent")
                ids = list(range(next_id, next_id + len(block)))[::-1]
                if op[2] == "below":  # unique, yet under the ceiling
                    ids = [-1 - i for i in ids]
            if op[0] in ("append", "unordered"):
                next_id += len(block)
                fits = block.limbs.shape[2] <= appended._limbs.shape[2]
                for column in (appended, spliced):
                    column.insert_block([len(column)] * len(block), block, ids)
                # The append path took it, or the splice (and so dropped
                # the spare rows): ids out of order, a wider block.
                assert (appended._spare is not None) == (
                    op[0] == "append" and fits
                )
            elif op[0] == "query":
                query = client.make_query(op[1], op[1] + op[2])
                assert (appended.row_ids_at(appended.scan_query(query)).tolist()
                        == spliced.row_ids_at(spliced.scan_query(query)).tolist())
            elif op[0] == "delete" and len(appended):
                for column in (appended, spliced):
                    column.delete_positions([op[1] % len(column)])
            elif op[0] == "merge":
                for column in (appended, spliced):
                    column.delete_positions(np.arange(len(column)))
            for column in (appended, spliced):
                column.check_invariants()
            assert np.array_equal(appended._limbs, spliced._limbs)
            assert appended.row_ids.tolist() == spliced.row_ids.tolist()
            assert appended._bits == spliced._bits
            if spliced._floats is None:
                assert appended._floats is None
            else:
                assert np.array_equal(appended._floats, spliced._floats)
        assert spliced._spare is None

    def test_the_pending_column_grows_by_doubling(self):
        """Row after row, the pending column grows in place: the spare
        rows are made twice what the column then holds, once they run
        out or a float plane appears that they have no room for."""
        client = TrustedClient(seed=11)
        server = SecureServer(*client.encrypt_dataset(list(range(50))))
        blocks = [client.encryptor.encrypt_values([v]) for v in range(40)]
        server.insert(blocks[0])
        server.execute(client.make_query(0, 10))  # a float plane to keep
        capacities = []
        for block in blocks[1:]:
            server.insert(block)
            capacities.append(len(server.pending._spare[0]))
        assert capacities[:5] == [4, 4, 4, 10, 10]
        assert capacities[-1] == 46
        server.pending.check_invariants()
        assert server.pending._floats is not None
        assert server.merge_pending() == 40
        assert server.pending_count == 0


def test_a_one_row_insert_makes_at_most_60_python_calls():
    """The count-based gate CI runs by name for the pending append: one
    ``mixed_wal``-shaped insert (the benchmark's key, a one-row block as
    a frame decodes it, a pending column of 100-300 rows that queries
    keep scanning, so it has a float plane), counted by ``cProfile`` —
    the median of nine.  Spliced in with ``np.insert`` per parallel
    array and ``np.unique`` over every pending id, these nine made a
    median of 123 calls; appended into spare rows, 54 (51-54).  Going
    back only reads slower, so it fails here instead."""
    import cProfile
    import pstats
    import random
    import statistics

    from repro.net.protocol import InsertRequest, decode, encode

    client = TrustedClient(seed=11)
    rng = random.Random(32)
    server = SecureServer(*client.encrypt_dataset(rng.sample(range(10**6), 3000)))
    blocks = [
        decode(encode(InsertRequest(
            column="bench",
            rows=client.encryptor.encrypt_values([rng.randrange(10**6)]),
        ))).rows
        for _ in range(301)
    ]
    counts = []
    for index, block in enumerate(blocks):
        if index % 10 == 0:
            low = rng.randrange(10**6)
            server.execute(client.make_query(low, low + 1000))
        if index % 25 == 0 and index >= 100:
            profile = cProfile.Profile()
            profile.enable()
            server.insert(block)
            profile.disable()
            counts.append(pstats.Stats(profile).total_calls)
        else:
            server.insert(block)
    assert server.pending._floats is not None
    assert len(counts) == 9 and statistics.median(counts) <= 60, counts


# -- snapshot bytes ---------------------------------------------------------------


def pinned_server():
    client = TrustedClient(seed=77)
    rows, row_ids = client.encrypt_dataset(list(range(0, 400, 5)))
    server = SecureServer(rows, row_ids, min_piece_size=4)
    for low in (30, 120, 250, 310):
        server.execute(client.make_query(low, low + 40))
    for value in (33, 121, 121, 399):
        server.insert(client.encrypt_value(value))
    server.delete([3, 17, 81, 40])
    return client, server


def snapshot_digest(server):
    return hashlib.sha256(encode(snapshot_server(server))).hexdigest()


class TestSnapshotBytesPinned:
    """sha256 of ``snapshot_server``'s frame.  The first pins were
    derived from the output of the commit before snapshot version 4:
    that commit's dict with its ``queries_served`` / ``rows_shipped`` /
    ``bytes_shipped`` / ``record_stats`` keys deleted, its four
    engine-configuration keys gathered under ``config`` (``engine_kind``
    as ``engine``) and ``version`` 3 read 4 — nothing else may have
    moved.  Re-pinned once since, when the owner's draws moved to a
    keyed SHAKE-256 stream: the snapshot holds ciphertexts, and every
    one moved; and once more when query bounds came to be drawn from the
    encryptor's pools: the index's keys are query ciphertexts.

    Re-pinned over the frame when snapshot version 5 made a snapshot one
    ``column_snapshot`` envelope instead of a JSON dict.  Before the
    re-pin, the decoded envelope laid out as version 4's dict — its rows
    (limbs), ids, cracks (keys, positions, inclusive), pending block,
    tombstones and ``next_row_id`` — hashed to version 4's pins at all
    three states: only the encoding moved, and the upload's row count
    was added.

    Re-pinned by snapshot version 6 (protocol version 6), whose frame
    writes the config as JSON text: at all three states the decoded
    envelope is attribute for attribute the one version 5's frame
    decoded to, and each frame is 14 bytes longer (3 343 / 3 223 /
    3 309 against 3 329 / 3 209 / 3 295).

    Re-pinned by snapshot version 7 (protocol version 7): at all three
    states the frame equals version 6's but for its version byte."""

    def test_cracks_pending_rows_and_tombstones(self):
        client, server = pinned_server()
        assert SNAPSHOT_VERSION == 7
        assert snapshot_digest(server) == (
            "8971988f53e5db742136015d06fca3756aee7b1200172ec754fcbe9e9866c0cd"
        )
        server.merge_pending()  # empty pending block, merged physical order
        assert snapshot_digest(server) == (
            "7c71fbfa3df0cf988f0ffbc111411d253e3124f0aaf8169a697665aafa483a98"
        )
        server.insert(client.encrypt_value(7))
        server.execute(client.make_query(0, 50))
        assert snapshot_digest(server) == (
            "fac847aebc0ee4529bb921baa2717a7d5afc7cb7d7e293834e1e9b401d8cd476"
        )


# -- a refused mutation leaves no trace ---------------------------------------------


def answers(server, client):
    """The ids each of three queries names, a row named by id alone
    (its complement on the reply) included."""
    return [
        sorted(np.maximum(ids, ~ids).tolist())
        for ids in (server.execute(client.make_query(low, high)).row_ids
                    for low, high in ((0, 1000), (10, 40), (55, 55)))
    ]


class TestRefusedMutationLeavesNoTrace:
    def make_server(self, **kwargs):
        client = TrustedClient(seed=31)
        server = SecureServer(*client.encrypt_dataset([50, 10, 80, 30, 60]), **kwargs)
        server.execute(client.make_query(20, 70))
        return client, server

    @pytest.mark.parametrize("engine", ["adaptive", "scan"])
    def test_wrong_width_insert_refused(self, engine):
        client, server = self.make_server(engine=engine)
        server.insert(client.encrypt_value(55))
        narrow = TrustedClient(seed=32, key_length=3).encrypt_value(56)
        before = answers(server, client)
        for rows in (narrow, client.encrypt_value(57) + narrow):
            with pytest.raises(UpdateError):
                server.insert(rows)
        assert server.pending_count == 1
        assert server.updates.next_row_id == 6
        assert answers(server, client) == before
        # The rows behind the refused one still merge.
        server.insert(client.encrypt_value(58))
        assert server.merge_pending() == 2
        assert len(answers(server, client)[0]) == 7

    def test_delete_validates_every_id_first(self):
        client, server = self.make_server()
        before = answers(server, client)
        for doomed in ([0, 10**9], [0, -1], [0, 5]):
            with pytest.raises(UpdateError):
                server.delete(doomed)
        assert server.updates.tombstones == set()
        assert answers(server, client) == before

    def test_refused_over_the_wire_with_a_wal(self, tmp_path):
        catalog = ColumnCatalog()
        catalog.bind_wal(WalWriter(str(tmp_path), fsync="never"))
        db = OutsourcedDatabase(
            list(range(0, 100)), seed=23, column="t",
            transport=LoopbackTransport(catalog),
        )
        db.insert(42)
        remote = RemoteColumn(LoopbackTransport(catalog), "t")
        server, client = catalog.server("t"), db.client
        before = answers(server, client)
        epoch, journaled = catalog.epoch("t"), catalog.wal.last_seq
        with pytest.raises(UpdateError):
            remote.insert(TrustedClient(seed=32, key_length=3).encrypt_value(7))
        with pytest.raises(UpdateError):
            remote.delete([0, 10**9])
        assert len(before[0]) == 101
        assert answers(server, client) == before
        assert (catalog.epoch("t"), catalog.wal.last_seq) == (epoch, journaled)
        remote.merge()
        recovered, __ = recover_catalog(str(tmp_path))
        assert recovered.epochs() == catalog.epochs()
        assert answers(recovered.server("t"), client) == answers(server, client)


class TestMergeIsAllOrNothing:
    @pytest.mark.parametrize("engine", ["adaptive", "scan"])
    def test_failed_merge_keeps_buffer_ledger_and_index(self, engine, monkeypatch):
        client = TrustedClient(seed=31)
        server = SecureServer(
            *client.encrypt_dataset(list(range(0, 200, 4))), engine=engine
        )
        for low in (20, 90, 150):
            server.execute(client.make_query(low, low + 25))
        for value in (33, 91, 199):
            server.insert(client.encrypt_value(value))
        server.delete([2, 11, 51])  # two base rows, one pending row
        before = answers(server, client)
        pieces = (
            server.engine.piece_boundaries() if engine == "adaptive" else None
        )

        def refuse(self, *args, **kwargs):
            raise IndexStateError("injected")

        with monkeypatch.context() as patch:
            patch.setattr(EncryptedColumn, "insert_block", refuse)
            with pytest.raises(IndexStateError, match="injected"):
                server.merge_pending()
        assert server.pending_count == 3
        assert server.updates.tombstones == {2, 11, 51}
        assert answers(server, client) == before
        if engine == "adaptive":
            assert server.engine.piece_boundaries() == pieces
            server.engine.check_invariants()
        # ... and the same merge then lands.
        assert server.merge_pending() == 2 - 2
        assert server.pending_count == 0 and server.updates.tombstones == set()
        assert answers(server, client) == before
