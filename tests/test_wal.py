"""Unit tests for the mutation write-ahead log (repro.core.wal).

Covers the positional record format and its refusals (an entry-dict
record from before it included), what replay accepts as a record's
frame, segment rotation, reopen continuity, fsync policies and a
failing fsync, torn-tail crash tolerance, snapshot-then-truncate
compaction, and the atomic file writer — plus a seeded file-level fuzz pass asserting that
truncated and bit-flipped WAL bytes only ever surface as typed
:class:`~repro.errors.PersistenceError` (or are silently dropped when
they form the torn tail of the last segment), never as raw
``KeyError`` / ``struct.error``.
"""

import os
import random
import re
import struct
import zlib

import pytest

from repro.core import wal
from repro.core.persistence import load_snapshot, recover_catalog
from repro.core.wal import (
    DEFAULT_SEGMENT_BYTES,
    FSYNC_POLICIES,
    RECORD_FORMAT,
    RECORD_HEADER,
    SEGMENT_PATTERN,
    WalReader,
    WalRecord,
    WalWriter,
    write_atomic,
)
from repro.errors import PersistenceError, ReproError
from repro.net.catalog import ColumnCatalog
from repro.net.protocol import (
    MergeRequest,
    QueryRequest,
    encode,
)


REQUEST = encode(MergeRequest(column="values"))

#: A record as the log was written before records held frames: a
#: header (magic, layout version 1, codec id 1), then the entry dict
#: ``{"column": "values", "epoch": 1, "request": <merge_request's dict
#: form>, "seq": 1}`` in that log's tagged binary value grammar.
LEGACY_ENTRY = (
    b"\xae\x01\x01\t\x04\x06\x06column\x06\x06values\x06\x05epoch\x03\x02"
    b"\x06\x07request\t\x03\x07\x00\x07\x01\x06\x04kind"
    b"\x06\rmerge_request\x06\x07version\x03\x06\x06\x03seq\x03\x02"
)


def append_n(writer, count, start=0):
    for index in range(count):
        writer.append("values", start + index + 1, REQUEST)


def read_records(directory, after_seq=0):
    return list(WalReader(directory).entries(after_seq))


def retained_start(directory):
    """The first seq compaction kept, as the reader's refusal to read
    from before it names it."""
    with pytest.raises(PersistenceError, match="compacted away") as err:
        read_records(directory)
    return int(re.search(r"log starts at (\d+)", str(err.value)).group(1))


class TestWriterReader:
    def test_append_then_read_round_trips(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            seqs = [writer.append("values", e, REQUEST) for e in (1, 2, 3)]
        assert seqs == [1, 2, 3]
        assert read_records(str(tmp_path)) == [
            WalRecord(seq, seq, "values", REQUEST) for seq in (1, 2, 3)
        ]

    def test_reopen_continues_the_sequence(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            append_n(writer, 3)
        with WalWriter(str(tmp_path), fsync="never") as writer:
            assert writer.last_seq == 3
            assert writer.append("values", 4, REQUEST) == 4
        assert [r.seq for r in read_records(str(tmp_path))] == [1, 2, 3, 4]

    def test_segment_rotation(self, tmp_path):
        with WalWriter(str(tmp_path), segment_bytes=256,
                       fsync="never") as writer:
            append_n(writer, 20)
            assert writer.segment_count() > 1
        records = read_records(str(tmp_path))
        assert [r.seq for r in records] == list(range(1, 21))

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_fsync_policies_accepted(self, tmp_path, policy):
        with WalWriter(str(tmp_path), fsync=policy) as writer:
            append_n(writer, 2)
        assert [r.seq for r in read_records(str(tmp_path))] == [1, 2]

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            WalWriter(str(tmp_path), fsync="sometimes")

    def test_after_seq(self, tmp_path):
        with WalWriter(str(tmp_path), segment_bytes=256,
                       fsync="never") as writer:
            append_n(writer, 12)
        assert [r.seq for r in read_records(str(tmp_path),
                                            after_seq=9)] == [10, 11, 12]
        assert read_records(str(tmp_path), after_seq=12) == []

    def test_stats_shape(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            append_n(writer, 2)
            stats = writer.stats()
        assert stats["seq"] == 2
        assert stats["segments"] == 1
        assert stats["bytes"] > 0
        assert stats["fsync"] == "never"

    def test_default_segment_bytes_is_sane(self):
        assert DEFAULT_SEGMENT_BYTES >= 1 << 20


def record_bytes(payload):
    """One record around ``payload``, its CRC right: never a torn tail."""
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def head(seq=1, epoch=1, column=b"values"):
    """A positional payload's head, before its frame."""
    return bytes((RECORD_FORMAT, seq, epoch, len(column))) + column


class TestRecordFormat:
    """A record is ``0x01, seq, epoch, column, frame``; the log reader
    refuses every other payload with a typed error, and the catalog
    refuses every frame it would not have journaled."""

    def write_log(self, directory, *payloads):
        with open(os.path.join(directory, SEGMENT_PATTERN % 1), "wb") as f:
            for payload in payloads:
                f.write(record_bytes(payload))

    def test_a_record_is_its_head_then_the_frame(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            writer.append("values", 1, REQUEST)
        with open(os.path.join(str(tmp_path), SEGMENT_PATTERN % 1), "rb") as f:
            assert f.read() == record_bytes(head() + REQUEST)

    def test_an_entry_dict_record_is_refused(self, tmp_path):
        """The layout every record had before this one: no fallback."""
        self.write_log(str(tmp_path), LEGACY_ENTRY)
        with pytest.raises(PersistenceError, match="entry dict"):
            read_records(str(tmp_path))
        with pytest.raises(PersistenceError, match="entry dict"):
            WalWriter(str(tmp_path), fsync="never")

    @pytest.mark.parametrize("payload", [
        b"",  # no format byte
        b"\x02" + head()[1:] + REQUEST,  # an unknown format
        head()[:1] + b"\x81",  # seq's varint cut short
        head()[:2] + b"\x81\x80",  # epoch's varint cut short
        head()[:3] + b"\x09valu",  # a column past the payload
        head(column=b"") + REQUEST,  # an empty column
        head(column=b"\xff\xfe") + REQUEST,  # a column that is not UTF-8
    ], ids=["empty", "format", "seq", "epoch", "column-cut", "column-empty",
            "column-utf8"])
    def test_a_malformed_head_is_a_typed_error(self, tmp_path, payload):
        self.write_log(str(tmp_path), payload, head(seq=2) + REQUEST)
        with pytest.raises(PersistenceError):
            read_records(str(tmp_path))

    def test_seq_numbers_start_at_one(self, tmp_path):
        """Even in a segment named for seq 0, where the numbering is
        contiguous."""
        with open(os.path.join(str(tmp_path), SEGMENT_PATTERN % 0), "wb") as f:
            f.write(record_bytes(head(seq=0) + REQUEST))
        with pytest.raises(PersistenceError, match="seq 0"):
            read_records(str(tmp_path))

    def test_frames_are_checked_on_replay(self, tmp_path):
        from repro.core.client import TrustedClient

        query = QueryRequest(column="values",
                             query=TrustedClient(seed=3).make_query(1, 5))
        refusals = [
            (encode(query), "query_request frame"),  # not journaled
            (REQUEST + b"\x00", "trailing bytes"),
            (encode(MergeRequest(column="other")), "merge_request frame"),
            (b"\xae\x03" + REQUEST[2:], "unsupported protocol version"),
        ]
        for frame, match in refusals:
            with pytest.raises(PersistenceError, match=match):
                ColumnCatalog.logged_request(
                    WalRecord(1, 1, "values", frame)
                )
        assert ColumnCatalog.logged_request(
            WalRecord(1, 1, "values", REQUEST)
        ) == MergeRequest(column="values")
        # Recovery reads the same refusal off a log.
        self.write_log(str(tmp_path), head() + encode(query))
        with pytest.raises(PersistenceError, match="query_request frame"):
            recover_catalog(str(tmp_path))

    def test_a_record_needs_a_column_and_an_epoch(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            for column, epoch in (("", 1), ("values", -1)):
                with pytest.raises(PersistenceError):
                    writer.append(column, epoch, REQUEST)
            assert writer.last_seq == 0


def journaled_requests():
    """One request of every journaled kind, on the column ``values``."""
    from repro.core.client import TrustedClient
    from repro.net import protocol

    rows, ids = TrustedClient(seed=3).encrypt_dataset([4, 8, 15])
    return {
        "create_column": protocol.CreateColumnRequest(
            column="values", rows=rows, row_ids=ids,
            config={"engine": "scan"}),
        "insert_request": protocol.InsertRequest(column="values", rows=rows),
        "delete_request": protocol.DeleteRequest(column="values",
                                                 row_ids=(0, 2)),
        "merge_request": MergeRequest(column="values"),
        "rotate_apply": protocol.RotateApplyRequest(
            column="values", rows=rows, row_ids=ids, fence=4),
    }


class TestLoggedRequest:
    """What replay accepts as a record's frame: a request of a kind the
    registry marks ``journaled``, on the record's column, and nothing
    else (:meth:`ColumnCatalog.logged_request`)."""

    JOURNALED = sorted(journaled_requests())

    @staticmethod
    def logged(frame):
        return ColumnCatalog.logged_request(WalRecord(1, 1, "values", frame))

    @pytest.mark.parametrize("kind", JOURNALED)
    def test_every_journaled_kind_is_accepted(self, kind):
        from repro.net.protocol import spec_of

        frame = encode(journaled_requests()[kind])
        request = self.logged(frame)
        assert spec_of(request).kind == kind
        assert encode(request) == frame

    @pytest.mark.parametrize("kind", [
        "hello", "batch_request", "telemetry_request", "query_request",
        "rotate_begin",
    ])
    def test_unjournaled_kinds_are_refused(self, kind):
        from repro.core.client import TrustedClient
        from repro.net import protocol

        request = {
            "hello": protocol.HelloRequest(),
            "batch_request": protocol.BatchRequest(
                requests=(MergeRequest(column="values"),)),
            "telemetry_request": protocol.TelemetryRequest(),
            "query_request": QueryRequest(
                column="values",
                query=TrustedClient(seed=3).make_query(1, 5)),
            "rotate_begin": protocol.RotateBeginRequest(column="values"),
        }[kind]
        with pytest.raises(PersistenceError, match="a %s frame" % kind):
            self.logged(encode(request))

    @pytest.mark.parametrize("kind", JOURNALED)
    def test_a_journaled_kinds_reply_is_refused(self, kind):
        from repro.net import protocol

        reply = {
            "create_column": protocol.CreateColumnResponse(
                column="values", rows_stored=3),
            "insert_request": protocol.InsertResponse(row_ids=(3, 4, 5)),
            "delete_request": protocol.DeleteResponse(deleted=2),
            "merge_request": protocol.MergeResponse(delta=1),
            "rotate_apply": protocol.RotateApplyResponse(rows_stored=3),
        }[kind]
        assert protocol.spec_of(journaled_requests()[kind]).reply is type(
            reply)
        with pytest.raises(PersistenceError, match="malformed frame"):
            self.logged(encode(reply))

    @pytest.mark.parametrize("code", [6, 12, 13, 14])
    def test_a_retired_request_kind_is_refused(self, code):
        """The deleted ``fetch_request`` and ``replicate_*`` requests'
        codes are unknown kinds on replay as on the wire."""
        frame = REQUEST[:2] + bytes((code,)) + REQUEST[3:]
        with pytest.raises(PersistenceError, match="kind code: %d" % code):
            self.logged(frame)


class TestFailingFsync:
    """An fsync the writer owes (``"batch"``: up to ``batch_every - 1``
    acknowledged appends) that fails on close or rotation raises."""

    @pytest.fixture()
    def failing_fsync(self, monkeypatch):
        def fail(fd):
            raise OSError(5, "simulated EIO")

        return lambda: monkeypatch.setattr(os, "fsync", fail)

    def test_close_raises(self, tmp_path, failing_fsync):
        writer = WalWriter(str(tmp_path), fsync="batch", batch_every=64)
        append_n(writer, 3)
        failing_fsync()
        with pytest.raises(PersistenceError, match="3 appends"):
            writer.close()
        assert writer._handle is None

    def test_rotation_raises_before_the_next_segment_opens(
        self, tmp_path, failing_fsync, monkeypatch
    ):
        size = len(record_bytes(head() + REQUEST))
        writer = WalWriter(str(tmp_path), segment_bytes=size + 1,
                           fsync="batch", batch_every=64)
        append_n(writer, 1)
        failing_fsync()
        with pytest.raises(PersistenceError, match="1 appends"):
            writer.append("values", 2, REQUEST)
        assert os.listdir(str(tmp_path)) == [SEGMENT_PATTERN % 1]
        assert writer.last_seq == 1
        monkeypatch.undo()
        # The next append goes on in the segment rotation could not close.
        assert writer.append("values", 2, REQUEST) == 2
        writer.close()
        assert [r.seq for r in read_records(str(tmp_path))] == [1, 2]


class TestDirectoryEntries:
    """A segment's directory entry, and a WAL directory's own, are made
    durable when the writer creates them — before the segment's first
    append returns under ``"always"`` — except under ``"never"``."""

    @pytest.fixture()
    def synced(self, monkeypatch):
        """The fsyncs made from here on, each ``"dir"`` or ``"file"``."""
        import stat

        calls = []
        real = os.fsync

        def spy(fd):
            directory = stat.S_ISDIR(os.fstat(fd).st_mode)
            calls.append("dir" if directory else "file")
            real(fd)

        monkeypatch.setattr(wal.os, "fsync", spy)
        return calls

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_a_created_directory_and_each_new_segment_are_synced(
        self, tmp_path, synced, policy
    ):
        size = len(record_bytes(head() + REQUEST))
        writer = WalWriter(str(tmp_path / "wal"), segment_bytes=size,
                           fsync=policy, batch_every=2)
        assert synced == ([] if policy == "never" else ["dir"])
        del synced[:]
        for epoch in (1, 2, 3):  # one record a segment
            writer.append("values", epoch, REQUEST)
            synced.append("ack")
        writer.close()
        assert writer.segment_count() == 3
        # A segment's entry is synced before its first append returns;
        # closing a segment syncs what it owes.
        assert synced == {
            "always": ["dir", "file", "ack", "file"] * 3,
            "batch": ["dir", "ack", "file"] * 3,
            "never": ["ack"] * 3,
        }[policy]

    def test_an_existing_directory_is_not_synced_again(self, tmp_path, synced):
        WalWriter(str(tmp_path), fsync="always").close()
        assert synced == []

    def test_a_reopened_segment_is_not_a_new_entry(self, tmp_path, synced):
        with WalWriter(str(tmp_path), fsync="always") as writer:
            append_n(writer, 1)
        del synced[:]
        with WalWriter(str(tmp_path), fsync="always") as writer:
            append_n(writer, 1, start=1)
        assert synced == ["file", "file"]  # the append's and the close's


class TestTornTail:
    def _segment_paths(self, tmp_path):
        return sorted(
            os.path.join(str(tmp_path), name)
            for name in os.listdir(str(tmp_path))
            if name.startswith("wal-")
        )

    def test_truncated_final_record_is_dropped(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            append_n(writer, 3)
        path = self._segment_paths(tmp_path)[-1]
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)  # torn mid-payload
        assert [r.seq for r in read_records(str(tmp_path))] == [1, 2]
        # A reopened writer truncates the torn tail and continues.
        with WalWriter(str(tmp_path), fsync="never") as writer:
            assert writer.last_seq == 2
            assert writer.append("values", 3, REQUEST) == 3
        assert [r.seq for r in read_records(str(tmp_path))] == [1, 2, 3]

    def test_corrupt_crc_at_tail_is_dropped(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            append_n(writer, 2)
        path = self._segment_paths(tmp_path)[-1]
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
        assert [r.seq for r in read_records(str(tmp_path))] == [1]

    def test_mid_file_corruption_is_a_typed_error(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            append_n(writer, 3)
        path = self._segment_paths(tmp_path)[-1]
        # Flip a byte inside the FIRST record's payload: the damage is
        # followed by valid records, so it cannot be a torn tail.
        with open(path, "r+b") as handle:
            handle.seek(RECORD_HEADER.size + 2)
            byte = handle.read(1)
            handle.seek(RECORD_HEADER.size + 2)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(PersistenceError):
            read_records(str(tmp_path))

    def test_oversized_length_header_is_a_typed_error(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            append_n(writer, 1)
        path = self._segment_paths(tmp_path)[-1]
        with open(path, "ab") as handle:
            handle.write(RECORD_HEADER.pack(1 << 31, 0))
            handle.write(b"x" * 64)
        with pytest.raises(PersistenceError):
            read_records(str(tmp_path))

    def test_unrecognized_segment_name_is_a_typed_error(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            append_n(writer, 1)
        with open(os.path.join(str(tmp_path), "wal-garbage.seg"), "wb") as f:
            f.write(b"junk")
        with pytest.raises(PersistenceError):
            read_records(str(tmp_path))


class TestCompaction:
    def test_compact_removes_covered_segments(self, tmp_path):
        with WalWriter(str(tmp_path), segment_bytes=256,
                       fsync="never") as writer:
            append_n(writer, 20)
            before = writer.segment_count()
            writer.compact(writer.last_seq)
            after = writer.segment_count()
        assert after < before
        assert after >= 1  # the live tail segment always survives

    def test_reading_compacted_range_is_a_typed_error(self, tmp_path):
        with WalWriter(str(tmp_path), segment_bytes=256,
                       fsync="never") as writer:
            append_n(writer, 20)
            writer.compact(writer.last_seq)
        start = retained_start(str(tmp_path))  # refuses after_seq=0
        assert start > 1
        # Positions at or after the retained start still read fine.
        assert read_records(str(tmp_path),
                            after_seq=start - 1)[0].seq == start
        with pytest.raises(PersistenceError):
            read_records(str(tmp_path), after_seq=start - 2)

    def test_appends_continue_after_compaction(self, tmp_path):
        with WalWriter(str(tmp_path), segment_bytes=256,
                       fsync="never") as writer:
            append_n(writer, 20)
            writer.compact(writer.last_seq)
            assert writer.append("values", 21, REQUEST) == 21
        records = read_records(
            str(tmp_path), after_seq=retained_start(str(tmp_path)) - 1
        )
        assert records[-1].seq == 21


class TestAtomicFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "snapshot-v7.wal")
        write_atomic(path, b"generation 1")
        with open(path, "rb") as handle:
            assert handle.read() == b"generation 1"
        assert not [n for n in os.listdir(str(tmp_path)) if ".tmp" in n]

    def test_crash_mid_write_preserves_original(self, tmp_path, monkeypatch):
        path = str(tmp_path / "snapshot-v7.wal")
        write_atomic(path, b"generation 1")

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(PersistenceError):
            write_atomic(path, b"generation 2")
        monkeypatch.undo()
        with open(path, "rb") as handle:
            assert handle.read() == b"generation 1"
        assert not [n for n in os.listdir(str(tmp_path)) if ".tmp" in n]

    def test_missing_file_is_a_typed_error(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read"):
            load_snapshot(str(tmp_path / "absent.wal"))

    def test_garbage_bytes_are_a_typed_error(self, tmp_path):
        path = str(tmp_path / "snapshot-v7.wal")
        with open(path, "w") as handle:
            handle.write('{"version": ')
        with pytest.raises(PersistenceError):
            load_snapshot(path)


class TestWalFileFuzz:
    """Seeded byte-level fuzz: damaged WAL files never escape the
    typed-error contract (torn tails may be silently dropped)."""

    def _write_log(self, directory, records=8):
        with WalWriter(directory, segment_bytes=512,
                       fsync="never") as writer:
            append_n(writer, records)
        return read_records(directory)

    def test_bit_flips_and_truncations_stay_typed(self, tmp_path, fuzz_cases):
        rng = random.Random("wal-file-fuzz")
        baseline = self._write_log(str(tmp_path))
        segments = sorted(
            name for name in os.listdir(str(tmp_path))
            if name.startswith("wal-")
        )
        originals = {}
        for name in segments:
            with open(os.path.join(str(tmp_path), name), "rb") as handle:
                originals[name] = handle.read()
        for _ in range(max(50, fuzz_cases)):
            name = rng.choice(segments)
            blob = bytearray(originals[name])
            if rng.random() < 0.5 and len(blob) > 1:
                blob = blob[:rng.randrange(1, len(blob))]  # truncate
            else:
                index = rng.randrange(len(blob))
                blob[index] ^= rng.randint(1, 255)  # bit flip
            path = os.path.join(str(tmp_path), name)
            with open(path, "wb") as handle:
                handle.write(bytes(blob))
            try:
                recovered = read_records(str(tmp_path))
                # Tolerated damage must be a dropped tail, never a
                # silently altered or reordered prefix.
                assert recovered == baseline[:len(recovered)]
            except PersistenceError:
                pass  # the typed contract
            except ReproError as exc:  # pragma: no cover - regression trap
                raise AssertionError(
                    "non-persistence error escaped: %r" % exc
                )
            finally:
                with open(path, "wb") as handle:
                    handle.write(originals[name])

    def test_random_garbage_files_stay_typed(self, tmp_path, fuzz_cases):
        rng = random.Random("wal-garbage")
        directory = str(tmp_path / "garbage")
        os.makedirs(directory)
        path = os.path.join(directory, "wal-%020d.seg" % 1)
        for _ in range(max(50, fuzz_cases)):
            blob = bytes(
                rng.randint(0, 255) for _ in range(rng.randrange(0, 200))
            )
            with open(path, "wb") as handle:
                handle.write(blob)
            try:
                records = read_records(directory)
                assert records == []  # nothing valid to recover
            except PersistenceError:
                pass

    def test_header_struct_errors_never_escape(self, tmp_path):
        directory = str(tmp_path)
        path = os.path.join(directory, "wal-%020d.seg" % 1)
        for blob in (b"\x00", b"\x00" * 7, struct.pack(">I", 10)):
            with open(path, "wb") as handle:
                handle.write(blob)
            try:
                read_records(directory)
            except PersistenceError:
                pass


def test_a_one_row_insert_journals_at_most_64_bytes():
    """The count-based gate CI runs by name for the record format: under
    the benchmark's key and column name, a session's one-row insert
    journals a record of at most 64 bytes and its one-id delete one of
    at most 32, header included.  As entry dicts in the generic grammar
    they were 157 and 105 bytes; as the request's own frame behind a
    positional head, 63 and 30.  Going back only reads slower, so it
    fails here instead."""
    import tempfile

    from repro.core.session import OutsourcedDatabase
    from repro.net.transport import LoopbackTransport

    with tempfile.TemporaryDirectory() as directory:
        writer = WalWriter(directory, fsync="never")
        catalog = ColumnCatalog()
        catalog.bind_wal(writer)
        db = OutsourcedDatabase(
            list(range(0, 3000, 3)), seed=11,
            transport=LoopbackTransport(catalog), column="bench",
        )
        sizes = []
        for mutate in (lambda: db.insert(1234), lambda: db.delete(7)):
            before = writer.stats()["bytes"]
            mutate()
            sizes.append(writer.stats()["bytes"] - before)
        writer.close()
    assert sizes[0] <= 64 and sizes[1] <= 32, sizes
