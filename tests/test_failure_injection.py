"""Failure-injection tests: corrupted state must be detected, not
silently mis-answered, and a mutation whose WAL append fails must be
applied nowhere."""

import errno
import os
import stat

import numpy as np
import pytest

from repro.core.client import TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.persistence import checkpoint_catalog, recover_catalog
from repro.core.query import EncryptedQuery
from repro.core.secure_index import SecureAdaptiveIndex
from repro.core.session import OutsourcedDatabase
from repro.core.wal import FSYNC_POLICIES, WalWriter
from repro.crypto.ciphertext import RowBlock, ValueCiphertext
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor
from repro.errors import IndexStateError, PersistenceError
from repro.linalg.limbs import to_objects
from repro.net.catalog import ColumnCatalog
from repro.net.transport import LoopbackTransport

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
            column.insert_block([0], RowBlock.from_rows([encryptor.encrypt_value(2)]), [0])


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


# -- a failed WAL append ---------------------------------------------------------


class TornWrites:
    """A WAL segment handle whose next write lands half its bytes, then
    fails as a full disk does."""

    def __init__(self, handle):
        self.handle = handle

    def write(self, data):
        self.handle.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.handle, name)


def failing_fsync(fd):
    raise OSError(errno.EIO, "Input/output error")


def live_rows(server):
    """Every live row of ``server`` by id, however it is cracked or
    merged: what an unbounded query answers."""
    response = server.execute(EncryptedQuery(low=None, high=None))
    rows = [tuple(row) for row in to_objects(response.rows.limbs).tolist()]
    return dict(zip(response.row_ids.tolist(), rows))


def column_state(catalog, name="values"):
    server = catalog.server(name)
    return live_rows(server), catalog.epoch(name), server.updates.next_row_id


def durable_session(directory, fsync, values):
    """A session on a journaled loopback catalog: its create is append
    1, an acknowledged insert append 2; under ``"batch"`` append 3 is
    the one that fsyncs."""
    writer = WalWriter(directory, fsync=fsync, batch_every=3)
    catalog = ColumnCatalog()
    catalog.bind_wal(writer)
    db = OutsourcedDatabase(
        values, seed=11, column="values", transport=LoopbackTransport(catalog)
    )
    return catalog, writer, db


MUTATIONS = {
    "create": lambda db, catalog: OutsourcedDatabase(
        [4, 5, 6], seed=12, column="more", transport=LoopbackTransport(catalog)
    ),
    "insert": lambda db, catalog: db.insert(77),
    "delete": lambda db, catalog: db.delete(3),
    "merge": lambda db, catalog: db.merge(),
    "rotate_apply": lambda db, catalog: db.rotate_key(new_seed=13),
}

#: Every journaled mutation kind x fsync policy x a failing write, and a
#: failing fsync on the policies whose append fsyncs (25 cases).
APPEND_FAULTS = [
    (kind, fsync, fault)
    for kind in MUTATIONS
    for fsync in FSYNC_POLICIES
    for fault in ("write", "fsync")
    if fault == "write" or fsync != "never"
]


class TestAFailedAppendAppliesNothing:
    """A mutation whose WAL append fails is answered with a typed
    error and applied nowhere: the column keeps its rows, epoch and
    next row id and keeps answering.  After a failed write the record
    is truncated away and the next mutation is acknowledged; after a
    failed fsync the writer refuses every later mutation while queries
    still answer.  Recovery returns exactly the acknowledged state."""

    VALUES = list(range(0, 400, 2))

    @pytest.mark.parametrize("kind, fsync, fault", APPEND_FAULTS)
    def test_case(self, tmp_path, monkeypatch, kind, fsync, fault):
        catalog, writer, db = durable_session(str(tmp_path), fsync, self.VALUES)
        db.insert(101)
        before, journaled = column_state(catalog), writer.last_seq
        server = catalog.server("values")
        if fault == "write":
            writer._handle = TornWrites(writer._handle)
        else:
            monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(PersistenceError, match=fault):
            MUTATIONS[kind](db, catalog)
        monkeypatch.undo()
        if fault == "write":
            writer._handle = writer._handle.handle
        assert catalog.column_names == ["values"]
        assert catalog.server("values") is server
        assert column_state(catalog) == before
        assert writer.last_seq == journaled
        assert sorted(db.query(99, 104).values) == [100, 101, 102, 104]
        if fault == "write":
            db.insert(103)
            assert catalog.epoch("values") == before[1] + 1
        else:
            with pytest.raises(PersistenceError, match="refuses appends"):
                db.insert(103)
            assert column_state(catalog) == before
        assert sorted(db.query(100, 104).values) == (
            [100, 101, 102, 103, 104] if fault == "write" else [100, 101, 102, 104]
        )
        writer.close()
        recovered, __ = recover_catalog(str(tmp_path))
        assert recovered.epochs() == catalog.epochs()
        assert column_state(recovered) == column_state(catalog)


def test_a_failed_write_under_fsync_never_keeps_no_row(tmp_path):
    """A write that fails under ``"never"``: the insert used to be
    applied after its append failed, so the server kept a row the
    session never learned the id of (every query covering it failed
    with "unknown row id 1000"), the next insert was acknowledged two
    epochs on, and recovery refused the log as gapped."""
    catalog, writer, db = durable_session(str(tmp_path), "never", range(1000))
    writer._handle = TornWrites(writer._handle)
    with pytest.raises(PersistenceError):
        db.insert(2000)
    writer._handle = writer._handle.handle
    assert len(catalog.server("values")) == 1000
    assert catalog.epoch("values") == 0
    assert len(db.query(990, 2010).values) == 10
    db.insert(3000)
    assert catalog.epoch("values") == 1
    assert sorted(db.query(990, 3010).values) == list(range(990, 1000)) + [3000]
    writer.close()
    recovered, __ = recover_catalog(str(tmp_path))
    assert recovered.epochs() == {"values": 1}
    assert column_state(recovered) == column_state(catalog)


def test_a_failed_fsync_under_always_keeps_no_row(tmp_path, monkeypatch):
    """A failed fsync under ``"always"``: the live server used to keep
    the refused row and fail its queries the same way."""
    catalog, writer, db = durable_session(str(tmp_path), "always", range(1000))
    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(PersistenceError):
        db.insert(2000)
    monkeypatch.undo()
    assert len(catalog.server("values")) == 1000
    assert catalog.epoch("values") == 0
    assert len(db.query(990, 2010).values) == 10
    with pytest.raises(PersistenceError):
        db.insert(3000)
    assert len(db.query(990, 3010).values) == 10
    writer.close()
    recovered, __ = recover_catalog(str(tmp_path))
    assert recovered.epochs() == {"values": 0}
    assert column_state(recovered) == column_state(catalog)


def failing_directory_fsync(real):
    """``os.fsync`` failing on a directory's descriptor, ``real`` on a
    file's."""

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EIO, "Input/output error")
        real(fd)

    return fsync


def wal_segments(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.startswith("wal-"))


@pytest.mark.parametrize("fsync", ["always", "batch"])
def test_a_failed_directory_fsync_refuses_a_new_segments_append(
        tmp_path, monkeypatch, fsync):
    """The append that opens a new segment, whose directory fsync
    fails: the segment's entry may not survive power loss, so the
    append is refused with nothing applied, and so is every later one,
    as after a failed record fsync.  It used to be acknowledged."""
    catalog, writer, db = durable_session(str(tmp_path), fsync, range(100))
    db.insert(500)
    before, journaled = column_state(catalog), writer.last_seq
    writer.segment_bytes = 1  # the next record opens a segment
    monkeypatch.setattr(os, "fsync", failing_directory_fsync(os.fsync))
    with pytest.raises(PersistenceError, match="directory"):
        db.insert(501)
    monkeypatch.undo()
    assert column_state(catalog) == before
    assert writer.last_seq == journaled
    with pytest.raises(PersistenceError, match="refuses appends"):
        db.insert(502)
    assert column_state(catalog) == before
    assert sorted(db.query(99, 600).values) == [99, 500]
    writer.close()
    recovered, __ = recover_catalog(str(tmp_path))
    assert recovered.epochs() == catalog.epochs()
    assert column_state(recovered) == column_state(catalog)


def test_a_failed_directory_fsync_fails_the_checkpoint_and_keeps_the_log(
        tmp_path, monkeypatch):
    """A checkpoint whose rename cannot be made durable fails, and the
    segments it would have compacted stay: the log still holds every
    acknowledged mutation, and appends go on.  It used to compact them
    under a snapshot that might not survive power loss."""
    catalog, writer, db = durable_session(str(tmp_path), "always", range(100))
    writer.segment_bytes = 1  # a segment a record
    for value in (500, 501, 502):
        db.insert(value)
    segments = wal_segments(str(tmp_path))
    assert len(segments) == 4
    monkeypatch.setattr(os, "fsync", failing_directory_fsync(os.fsync))
    with pytest.raises(PersistenceError, match="directory"):
        checkpoint_catalog(catalog, str(tmp_path), writer)
    monkeypatch.undo()
    assert wal_segments(str(tmp_path)) == segments
    db.insert(503)
    writer.close()
    recovered, __ = recover_catalog(str(tmp_path))
    assert recovered.epochs() == catalog.epochs() == {"values": 4}
    assert column_state(recovered) == column_state(catalog)


def test_racing_creates_and_inserts_are_journaled_in_the_order_they_apply(tmp_path):
    """Per column name, four threads create it from different uploads
    while two more insert into it as soon as it exists, with the switch
    interval shortened: exactly one create wins, and recovery rebuilds
    the winner's rows plus every acknowledged insert — the log holds
    only the winner's create, and holds it before any mutation of its
    column."""
    import sys
    import threading

    from repro.errors import QueryError, UpdateError
    from repro.net.protocol import CreateColumnRequest, InsertRequest, request_ids

    client = TrustedClient(seed=3)
    uploads = [client.encrypt_dataset(range(100 * k, 100 * k + 20)) for k in range(4)]
    row = client.encrypt_value(7)
    writer = WalWriter(str(tmp_path), fsync="never")
    catalog = ColumnCatalog()
    catalog.bind_wal(writer)
    names = ["c%d" % k for k in range(4)]
    created = {name: [] for name in names}
    inserted = {name: [] for name in names}

    def create(name, rows, ids):
        try:
            created[name].append(catalog.handle(CreateColumnRequest(
                column=name, rows=rows, row_ids=request_ids(ids), config={})))
        except UpdateError:
            pass

    def insert(name):
        for __ in range(2000):
            try:
                inserted[name].append(catalog.handle(InsertRequest(column=name, rows=row)))
            except QueryError:
                continue
            if len(inserted[name]) >= 10:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name in names:
            threads = [threading.Thread(target=insert, args=(name,)) for __ in range(2)]
            threads += [threading.Thread(target=create, args=(name,) + upload)
                        for upload in uploads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    writer.close()
    recovered, __ = recover_catalog(str(tmp_path))
    assert recovered.epochs() == catalog.epochs()
    for name in names:
        assert len(created[name]) == 1 and len(inserted[name]) >= 10
        assert catalog.epoch(name) == len(inserted[name])
        assert column_state(recovered, name) == column_state(catalog, name)
