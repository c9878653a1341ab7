"""Unit tests for the mutation write-ahead log (repro.core.wal).

Covers the record codec's validation, segment rotation, reopen
continuity, fsync policies, torn-tail crash tolerance, snapshot-then-
truncate compaction, and the atomic JSON file helpers — plus a seeded
file-level fuzz pass asserting that truncated and bit-flipped WAL
bytes only ever surface as typed :class:`~repro.errors.PersistenceError`
(or are silently dropped when they form the torn tail of the last
segment), never as raw ``KeyError`` / ``struct.error``.
"""

import json
import os
import random
import struct

import pytest

from repro.core.wal import (
    DEFAULT_SEGMENT_BYTES,
    FSYNC_POLICIES,
    RECORD_HEADER,
    WalReader,
    WalWriter,
    entry_from_wire,
    read_json_file,
    read_wal_entries,
    wal_start_seq,
    write_json_atomic,
)
from repro.errors import PersistenceError, ReproError

REQUEST = {"kind": "insert_request", "column": "values", "rows": []}


def append_n(writer, count, start=0):
    for index in range(count):
        writer.append("values", start + index + 1, REQUEST)


class TestEntryFromWire:
    def test_valid_entry_round_trips(self):
        entry = {"seq": 1, "column": "c", "epoch": 0,
                 "request": {"kind": "create_column"}}
        assert entry_from_wire(entry) == entry

    @pytest.mark.parametrize("bad", [
        None, [], "entry", 7,
        {},  # missing everything
        {"seq": 1, "column": "c", "epoch": 0},  # no request
        {"seq": 0, "column": "c", "epoch": 0, "request": {"kind": "merge_request"}},
        {"seq": True, "column": "c", "epoch": 0, "request": {"kind": "merge_request"}},
        {"seq": 1, "column": "", "epoch": 0, "request": {"kind": "merge_request"}},
        {"seq": 1, "column": "c", "epoch": -1, "request": {"kind": "merge_request"}},
        {"seq": 1, "column": "c", "epoch": 0, "request": {"kind": "query_request"}},
        {"seq": 1, "column": "c", "epoch": 0, "request": {"kind": "merge_request"}, "extra": 1},
    ])
    def test_malformed_entries_raise_typed_error(self, bad):
        with pytest.raises(PersistenceError):
            entry_from_wire(bad)

    @pytest.mark.parametrize("kind", [
        "create_column", "insert_request", "delete_request",
        "merge_request", "rotate_apply",
    ])
    def test_every_journaled_kind_is_accepted(self, kind):
        entry = {"seq": 1, "column": "c", "epoch": 1,
                 "request": {"kind": kind}}
        assert entry_from_wire(entry) == entry

    @pytest.mark.parametrize("kind", [
        "rotate_begin", "hello", "create_column_response", None, ["x"],
    ])
    def test_unjournaled_kinds_are_refused(self, kind):
        with pytest.raises(PersistenceError, match="non-mutation"):
            entry_from_wire({"seq": 1, "column": "c", "epoch": 1,
                             "request": {"kind": kind}})


class TestWriterReader:
    def test_append_then_read_round_trips(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            seqs = [writer.append("values", e, REQUEST) for e in (1, 2, 3)]
        assert seqs == [1, 2, 3]
        entries = read_wal_entries(str(tmp_path))
        assert [e["seq"] for e in entries] == [1, 2, 3]
        assert [e["epoch"] for e in entries] == [1, 2, 3]
        assert all(e["request"] == REQUEST for e in entries)

    def test_reopen_continues_the_sequence(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            append_n(writer, 3)
        with WalWriter(str(tmp_path), fsync="never") as writer:
            assert writer.last_seq == 3
            assert writer.append("values", 4, REQUEST) == 4
        assert WalReader(str(tmp_path)).last_seq() == 4

    def test_segment_rotation(self, tmp_path):
        with WalWriter(str(tmp_path), segment_bytes=256,
                       fsync="never") as writer:
            append_n(writer, 20)
            assert writer.segment_count() > 1
        entries = read_wal_entries(str(tmp_path))
        assert [e["seq"] for e in entries] == list(range(1, 21))

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_fsync_policies_accepted(self, tmp_path, policy):
        with WalWriter(str(tmp_path), fsync=policy) as writer:
            append_n(writer, 2)
        assert [e["seq"] for e in read_wal_entries(str(tmp_path))] == [1, 2]

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            WalWriter(str(tmp_path), fsync="sometimes")

    def test_after_seq_and_limit(self, tmp_path):
        with WalWriter(str(tmp_path), segment_bytes=256,
                       fsync="never") as writer:
            append_n(writer, 12)
        assert [e["seq"] for e in read_wal_entries(str(tmp_path),
                                                   after_seq=9)] == [10, 11, 12]
        assert [e["seq"] for e in read_wal_entries(str(tmp_path),
                                                   after_seq=2, limit=3)] == [3, 4, 5]
        assert read_wal_entries(str(tmp_path), after_seq=12) == []

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
        assert [e["seq"] for e in read_wal_entries(str(tmp_path))] == [1, 2]
        # A reopened writer truncates the torn tail and continues.
        with WalWriter(str(tmp_path), fsync="never") as writer:
            assert writer.last_seq == 2
            assert writer.append("values", 3, REQUEST) == 3
        assert [e["seq"] for e in read_wal_entries(str(tmp_path))] == [1, 2, 3]

    def test_corrupt_crc_at_tail_is_dropped(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            append_n(writer, 2)
        path = self._segment_paths(tmp_path)[-1]
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
        assert [e["seq"] for e in read_wal_entries(str(tmp_path))] == [1]

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
            read_wal_entries(str(tmp_path))

    def test_oversized_length_header_is_a_typed_error(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            append_n(writer, 1)
        path = self._segment_paths(tmp_path)[-1]
        with open(path, "ab") as handle:
            handle.write(RECORD_HEADER.pack(1 << 31, 0))
            handle.write(b"x" * 64)
        with pytest.raises(PersistenceError):
            read_wal_entries(str(tmp_path))

    def test_unrecognized_segment_name_is_a_typed_error(self, tmp_path):
        with WalWriter(str(tmp_path), fsync="never") as writer:
            append_n(writer, 1)
        with open(os.path.join(str(tmp_path), "wal-garbage.seg"), "wb") as f:
            f.write(b"junk")
        with pytest.raises(PersistenceError):
            read_wal_entries(str(tmp_path))


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
        start = wal_start_seq(str(tmp_path))
        assert start > 1
        # Positions at or after the retained start still read fine.
        assert [e["seq"] for e in read_wal_entries(str(tmp_path),
                                                   after_seq=start - 1)]
        with pytest.raises(PersistenceError):
            read_wal_entries(str(tmp_path), after_seq=0)

    def test_appends_continue_after_compaction(self, tmp_path):
        with WalWriter(str(tmp_path), segment_bytes=256,
                       fsync="never") as writer:
            append_n(writer, 20)
            writer.compact(writer.last_seq)
            assert writer.append("values", 21, REQUEST) == 21
        entries = read_wal_entries(
            str(tmp_path), after_seq=wal_start_seq(str(tmp_path)) - 1
        )
        assert entries[-1]["seq"] == 21


class TestAtomicJson:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "snap.json")
        write_json_atomic(path, {"version": 3, "epochs": {"c": 2}})
        assert read_json_file(path) == {"version": 3, "epochs": {"c": 2}}
        assert not [n for n in os.listdir(str(tmp_path)) if ".tmp" in n]

    def test_crash_mid_write_preserves_original(self, tmp_path, monkeypatch):
        path = str(tmp_path / "snap.json")
        write_json_atomic(path, {"generation": 1})

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(PersistenceError):
            write_json_atomic(path, {"generation": 2})
        monkeypatch.undo()
        assert read_json_file(path) == {"generation": 1}
        assert not [n for n in os.listdir(str(tmp_path)) if ".tmp" in n]

    def test_missing_file_is_a_typed_error(self, tmp_path):
        with pytest.raises(PersistenceError):
            read_json_file(str(tmp_path / "absent.json"))

    def test_invalid_json_is_a_typed_error(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            handle.write('{"version": ')
        with pytest.raises(PersistenceError):
            read_json_file(path)


class TestWalFileFuzz:
    """Seeded byte-level fuzz: damaged WAL files never escape the
    typed-error contract (torn tails may be silently dropped)."""

    def _write_log(self, directory, records=8):
        with WalWriter(directory, segment_bytes=512,
                       fsync="never") as writer:
            append_n(writer, records)
        return read_wal_entries(directory)

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
                recovered = read_wal_entries(str(tmp_path))
                # Tolerated damage must be a dropped tail, never a
                # silently altered or reordered prefix.
                assert [e["seq"] for e in recovered] == [
                    e["seq"] for e in baseline[:len(recovered)]
                ]
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
                entries = read_wal_entries(directory)
                assert entries == []  # nothing valid to recover
            except PersistenceError:
                pass

    def test_header_struct_errors_never_escape(self, tmp_path):
        directory = str(tmp_path)
        path = os.path.join(directory, "wal-%020d.seg" % 1)
        for blob in (b"\x00", b"\x00" * 7, struct.pack(">I", 10)):
            with open(path, "wb") as handle:
                handle.write(blob)
            try:
                read_wal_entries(directory)
            except PersistenceError:
                pass
