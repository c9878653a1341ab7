"""Append-only write-ahead log of protocol mutation frames.

The server's durability story before this module was a manual snapshot:
a crash lost every crack, insert, and rotation since the last save.
The WAL closes that gap by reusing what the wire protocol already
guarantees — every mutation (the request kinds the protocol registry
marks ``journaled``: ``create_column`` / ``insert_request`` /
``delete_request`` / ``merge_request`` / ``rotate_apply``) is a
deterministic, versioned request frame — and journaling exactly those
frames to disk as they commit.  Restart = restore the last snapshot,
then re-dispatch the logged requests after it.

This module handles records and bytes only: the catalog encodes the
request it journals (:func:`repro.net.protocol.encode`, untraced) and
decodes it again on replay.

Record format (one mutation)::

    record  := length(4B, big-endian)  crc32(4B, big-endian)  payload
    payload := 0x01  varint(seq)  varint(epoch)
               varint(len(column))  column (UTF-8)  frame

``seq`` is the log-global sequence number (1-based, contiguous within
the retained segments); ``epoch`` is the column's per-column mutation
epoch *after* the mutation (the PR 5 rotation-fence counter), which is
the idempotence fence on replay: an entry whose epoch the restored
column has already reached is skipped, an entry that would skip ahead
is a gap, i.e. corruption.  ``frame`` is the request's protocol frame,
to the record's last byte.  A payload whose first byte is not the
format byte — a record holding an entry dict, as the log was written
before this format — is refused: there is no fallback reader.

Segments: records append to ``wal-<first-seq>.seg`` files; a segment
exceeding ``segment_bytes`` is closed and a new one started.
Compaction is snapshot-then-truncate: after a snapshot captured
``seq = s`` is durably saved, every segment whose records are *all*
``<= s`` is deleted.

Crash tolerance: a torn final record (the process died mid-append — a
short header, a short payload, or a CRC mismatch on the very last
record of the newest segment) is silently dropped, and the writer
truncates it away before appending again.  Any other malformation —
a CRC mismatch mid-file, a sequence gap, garbage where a header should
be — raises a typed :class:`~repro.errors.PersistenceError`.

Fsync policy (the durability/latency dial, measured by
``benchmarks/bench_transport.py``):

* ``"always"`` — fsync after every append; an acknowledged mutation
  survives power loss (a new segment's directory entry is fsynced
  before its first append, as is a WAL directory the writer creates).
* ``"batch"``  — fsync every ``batch_every`` appends (and on close /
  explicit :meth:`WalWriter.sync`); bounded loss window, much cheaper.
* ``"never"``  — flush to the OS only; survives process crashes
  (kill -9) but not power loss.

Every append writes its record to the OS in one unbuffered write
regardless of policy, so a concurrent :class:`WalReader` always sees
complete records, and a SIGKILL'd process loses nothing it
acknowledged under ``"never"`` either.

A refused append leaves no record behind: a failed (or short) write
or a failed fsync of the record truncates the segment back to the
record's start, and there is no buffer to hold its bytes for a later
write.  After a failed fsync — of a record, or of the directory a new
segment was created in — or a failed truncate the log's tail is
unknown, so the writer then refuses every later append with a
:class:`~repro.errors.PersistenceError`: no acknowledged record ever
follows a refused one.  A flush or fsync a closing segment owes that
fails raises, with no record of the append that rolled it written.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import PersistenceError, SerializationError
from repro.net.binframe import read_varint, text_at, text_bytes, varints

#: Record header: payload length then CRC32 of the payload bytes.
RECORD_HEADER = struct.Struct(">II")

#: First byte of every record payload: the layout above.
RECORD_FORMAT = 0x01

#: Upper bound on one record's payload; larger announcements are
#: corruption, not data (a rotate_apply of a huge column stays far
#: below this).
MAX_RECORD_BYTES = 1 << 30

#: Segment file name pattern: the number is the first seq it holds.
SEGMENT_PATTERN = "wal-%020d.seg"

#: Default segment rotation threshold.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Accepted fsync policies.
FSYNC_POLICIES = ("always", "batch", "never")


class WalRecord(NamedTuple):
    """One journaled mutation, as the log holds it."""

    seq: int
    epoch: int
    column: str
    #: The request's protocol frame.
    frame: bytes


def _encode_record(seq: int, epoch: int, column: str, frame: bytes) -> bytes:
    payload = b"".join((bytes((RECORD_FORMAT,)), varints(seq, epoch),
                        text_bytes(column), frame))
    return RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_record(payload: bytes) -> WalRecord:
    """The record a CRC-checked payload holds.

    Raises:
        PersistenceError: a format byte other than :data:`RECORD_FORMAT`
            (an entry-dict record from before it included), a truncated
            varint, a ``seq`` below 1, an empty or non-UTF-8 column.
    """
    if not payload or payload[0] != RECORD_FORMAT:
        raise PersistenceError(
            "unknown WAL record format %r (a record holding an entry dict "
            "predates the positional format and is not read)" % payload[:1]
        )
    try:
        seq, pos = read_varint(payload, 1)
        epoch, pos = read_varint(payload, pos)
        column, pos = text_at(payload, pos)
    except SerializationError as exc:
        raise PersistenceError("malformed WAL record head: %s" % exc) from exc
    if seq < 1 or not column:
        raise PersistenceError(
            "malformed WAL record head: seq %d, column %r" % (seq, column)
        )
    return WalRecord(seq, epoch, column, payload[pos:])


def _segment_files(directory: str) -> List[Tuple[int, str]]:
    """``(first_seq, path)`` of every segment, ordered by first seq."""
    segments = []
    try:
        names = os.listdir(directory)
    except OSError as exc:
        raise PersistenceError("cannot list WAL directory %r: %s"
                               % (directory, exc)) from exc
    for name in names:
        if not (name.startswith("wal-") and name.endswith(".seg")):
            continue
        stem = name[len("wal-"):-len(".seg")]
        if not stem.isdigit():
            raise PersistenceError("unrecognized WAL segment name: %r" % name)
        segments.append((int(stem), os.path.join(directory, name)))
    segments.sort()
    return segments


def _scan_segment(path: str, last: bool) -> Tuple[List[WalRecord], int]:
    """Decode one segment (or a checkpoint file, which holds records
    too); returns ``(records, valid_byte_length)``.

    ``last`` marks the newest segment, where a torn final record is
    tolerated (dropped); anywhere else the same damage is an error.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise PersistenceError("cannot read %r: %s"
                               % (path, exc)) from exc
    records: List[WalRecord] = []
    offset = 0
    while offset < len(blob):
        torn = "torn" if last else None
        header = blob[offset:offset + RECORD_HEADER.size]
        if len(header) < RECORD_HEADER.size:
            if torn and offset + len(header) == len(blob):
                return records, offset  # torn header at the tail
            raise PersistenceError(
                "%s: truncated record header at byte %d" % (path, offset)
            )
        length, crc = RECORD_HEADER.unpack(header)
        if length > MAX_RECORD_BYTES:
            raise PersistenceError(
                "%s: implausible record length %d at byte %d"
                % (path, length, offset)
            )
        start = offset + RECORD_HEADER.size
        payload = blob[start:start + length]
        if len(payload) < length:
            if torn and start + len(payload) == len(blob):
                return records, offset  # torn payload at the tail
            raise PersistenceError(
                "%s: truncated record payload at byte %d" % (path, offset)
            )
        if zlib.crc32(payload) != crc:
            if torn and start + length == len(blob):
                return records, offset  # torn/corrupt final record
            raise PersistenceError(
                "%s: CRC mismatch at byte %d" % (path, offset)
            )
        try:
            records.append(_decode_record(payload))
        except PersistenceError as exc:
            raise PersistenceError(
                "%s: record at byte %d: %s" % (path, offset, exc)
            ) from exc
        offset = start + length
    return records, offset


def _check_sequence(path: str, first_seq: int,
                    records: List[WalRecord]) -> None:
    """Raise unless a segment's ``records`` number on from ``first_seq``."""
    for expected, record in enumerate(records, first_seq):
        if record.seq != expected:
            raise PersistenceError(
                "%s: sequence gap (expected %d, found %d)"
                % (path, expected, record.seq)
            )


class WalWriter:
    """Appends mutation entries to the segmented log in a directory.

    Opening a writer recovers the log's tail: existing segments are
    scanned, a torn final record is truncated away, and new appends
    continue the sequence.  Thread-safe — the catalog appends from many
    worker threads.

    Args:
        directory: the WAL directory (created if missing).
        segment_bytes: rotation threshold per segment file.
        fsync: one of :data:`FSYNC_POLICIES`.
        batch_every: under the ``"batch"`` policy, fsync every this
            many appends.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            feeds ``wal.appends`` / ``wal.bytes`` / ``wal.fsyncs``.
    """

    def __init__(
        self,
        directory: str,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: str = "always",
        batch_every: int = 64,
        metrics=None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise PersistenceError(
                "unknown fsync policy %r (expected one of %s)"
                % (fsync, ", ".join(FSYNC_POLICIES))
            )
        self.directory = directory
        self.segment_bytes = max(1, int(segment_bytes))
        self.fsync = fsync
        self.batch_every = max(1, int(batch_every))
        self.metrics = metrics
        self._lock = threading.Lock()
        self._handle = None
        self._segment_first_seq = None
        self._segment_length = 0
        self._segments = 0
        self._unsynced = 0
        self._refused: Optional[str] = None  # why appends are refused
        if not os.path.isdir(directory):
            os.makedirs(directory, exist_ok=True)
            if fsync != "never":  # the new directory's entry
                _sync_directory(os.path.dirname(os.path.abspath(directory)))
        self._recover_tail()

    def _recover_tail(self) -> None:
        """Position after the last valid record, truncating a torn one."""
        segments = _segment_files(self.directory)
        self.last_seq = 0
        self._segments = len(segments)
        if not segments:
            return
        for index, (first_seq, path) in enumerate(segments):
            last = index == len(segments) - 1
            records, valid_length = _scan_segment(path, last=last)
            if records:
                _check_sequence(path, first_seq, records)
                if self.last_seq and first_seq != self.last_seq + 1:
                    raise PersistenceError(
                        "%s: segment starts at %d but the log ends at %d"
                        % (path, first_seq, self.last_seq)
                    )
                self.last_seq = records[-1].seq
            if last:
                size = os.path.getsize(path)
                if valid_length < size:
                    with open(path, "r+b") as handle:
                        handle.truncate(valid_length)
                if not records:
                    # A segment holding nothing valid carries no state.
                    os.remove(path)
                    self._segments -= 1
                    return
                self._segment_first_seq = first_seq
                self._segment_length = valid_length

    # -- appending ---------------------------------------------------------------

    def append(self, column: str, epoch: int, frame: bytes) -> int:
        """Journal one mutation — ``column``, its epoch after it and its
        request frame; returns the record's sequence number.

        The record is written to the OS before returning (readers see
        it immediately) and fsynced per the policy.

        Raises:
            PersistenceError: the write or fsync failed (the record is
                truncated away), or the writer refuses appends since a
                failed fsync or truncate.
        """
        if not column or epoch < 0:
            raise PersistenceError(
                "a WAL record needs a column name and an epoch >= 0, "
                "not %r / %r" % (column, epoch)
            )
        with self._lock:
            if self._refused is not None:
                raise PersistenceError(
                    "WAL in %r refuses appends since %s"
                    % (self.directory, self._refused)
                )
            seq = self.last_seq + 1
            record = _encode_record(seq, epoch, column, frame)
            handle = self._current_handle(seq, len(record))
            sync = self.fsync == "always" or (
                self.fsync == "batch" and self._unsynced + 1 >= self.batch_every
            )
            step = "write"
            try:
                if handle.write(record) != len(record):
                    raise OSError("short write")
                step = "fsync"
                if sync:
                    os.fsync(handle.fileno())
            except OSError as exc:
                # Back to the record's start: no refused record stays.
                try:
                    handle.truncate(self._segment_length)
                except OSError:
                    step += " and truncate"
                if step != "write":  # the log's tail is now unknown
                    self._refused = "a failed %s: %s" % (step, exc)
                raise PersistenceError(
                    "WAL %s failed in %r: %s" % (step, self.directory, exc)
                ) from exc
            self.last_seq = seq
            self._segment_length += len(record)
            self._unsynced = 0 if sync else self._unsynced + 1
            if self.metrics is not None:
                if sync:
                    self.metrics.add("wal.fsyncs")
                self.metrics.add("wal.appends")
                self.metrics.add("wal.bytes", len(record))
            return seq

    def _current_handle(self, seq: int, incoming: int):
        """The open segment, rotated when the next record won't fit."""
        if (
            self._handle is not None
            and self._segment_length + incoming > self.segment_bytes
            and self._segment_length > 0
        ):
            self._close_handle_locked()
            self._segment_first_seq = None
        if self._handle is None:
            fresh = self._segment_first_seq is None
            path = os.path.join(
                self.directory,
                SEGMENT_PATTERN % (seq if fresh else self._segment_first_seq),
            )
            try:
                self._handle = open(path, "ab", buffering=0)
            except OSError as exc:
                raise PersistenceError(
                    "cannot open WAL segment %r: %s" % (path, exc)
                ) from exc
            if fresh:
                self._segment_first_seq = seq
                self._segment_length = 0
                self._segments += 1
                if self.fsync != "never":  # the new segment's entry
                    try:
                        _sync_directory(self.directory)
                    except PersistenceError as exc:
                        # Whether the segment survives power loss is unknown.
                        self._refused = "a failed directory fsync: %s" % exc
                        raise
        return self._handle

    def sync(self) -> None:
        """Force outstanding appends to stable storage (any policy)."""
        with self._lock:
            if self._handle is not None:
                try:
                    os.fsync(self._handle.fileno())
                except OSError as exc:  # pragma: no cover - fs-dependent
                    raise PersistenceError(
                        "WAL fsync failed in %r: %s"
                        % (self.directory, exc)
                    ) from exc
                self._unsynced = 0
                if self.metrics is not None:
                    self.metrics.add("wal.fsyncs")

    # -- compaction --------------------------------------------------------------

    def compact(self, upto_seq: int) -> int:
        """Drop whole segments whose records are all ``<= upto_seq``.

        Call *after* a snapshot capturing ``upto_seq`` is durably
        saved (snapshot-then-truncate).  Returns the number of segment
        files removed.  Only entire segments are dropped — the segment
        containing ``upto_seq + 1`` stays, so replay after the snapshot
        always finds a contiguous tail.
        """
        removed = 0
        with self._lock:
            segments = _segment_files(self.directory)
            for index, (first_seq, path) in enumerate(segments):
                next_first = (
                    segments[index + 1][0] if index + 1 < len(segments)
                    else self.last_seq + 1
                )
                # The segment's records span [first_seq, next_first).
                if next_first - 1 > upto_seq:
                    break
                if path == self._open_path_locked():
                    break  # never delete the live tail segment
                os.remove(path)
                removed += 1
            self._segments -= removed
        return removed

    def _open_path_locked(self) -> Optional[str]:
        if self._segment_first_seq is None:
            return None
        return os.path.join(
            self.directory, SEGMENT_PATTERN % self._segment_first_seq
        )

    def segment_count(self) -> int:
        """Number of segment files on disk, as the writer — which
        creates, rolls, compacts and recovers them — has counted;
        :meth:`stats` lists the directory."""
        return self._segments

    def stats(self) -> Dict[str, Any]:
        """JSON-compatible writer state for telemetry."""
        with self._lock:
            segments = _segment_files(self.directory)
            return {
                "seq": self.last_seq,
                "segments": len(segments),
                "bytes": sum(
                    os.path.getsize(path) for __, path in segments
                ),
                "fsync": self.fsync,
            }

    def _close_handle_locked(self) -> None:
        """fsync the open segment unless the policy is ``"never"``, and
        close it.  Under ``"batch"`` it may hold acknowledged appends,
        so a failure raises."""
        handle, self._handle = self._handle, None
        if handle is None:
            return
        try:
            try:
                if self.fsync != "never":
                    os.fsync(handle.fileno())
            finally:
                handle.close()
        except OSError as exc:
            raise PersistenceError(
                "closing WAL segment %r failed, %d appends may not be "
                "durable: %s" % (handle.name, self._unsynced, exc)
            ) from exc
        self._unsynced = 0

    def close(self) -> None:
        """Flush, sync (unless policy ``never``), and close."""
        with self._lock:
            self._close_handle_locked()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class WalReader:
    """Reads records back out of a WAL directory.

    A reader is a point-in-time scan over the segment files; it holds
    no file handles between calls, so it can run concurrently with a
    live writer (appends flush whole records, and a half-written tail
    reads as torn, i.e. not yet visible).
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def entries(self, after_seq: int = 0) -> Iterator[WalRecord]:
        """Yield records with ``seq > after_seq`` in sequence order.

        Raises:
            PersistenceError: on non-tail corruption, sequence gaps
                between retained segments, or — when ``after_seq``
                predates the oldest retained record (compacted away) —
                an explicit "compacted" error, so callers know to
                restart from a snapshot instead of silently skipping.
        """
        if not os.path.isdir(self.directory):
            return
        segments = _segment_files(self.directory)
        previous_seq = None
        for index, (first_seq, path) in enumerate(segments):
            if previous_seq is not None and first_seq != previous_seq + 1:
                raise PersistenceError(
                    "WAL gap: segment %r starts at %d after %d"
                    % (path, first_seq, previous_seq)
                )
            if index == 0 and after_seq + 1 < first_seq:
                raise PersistenceError(
                    "WAL entries after %d were compacted away "
                    "(log starts at %d); restart from a snapshot"
                    % (after_seq, first_seq)
                )
            if (index + 1 < len(segments)
                    and segments[index + 1][0] <= after_seq + 1):
                # Every record here is <= after_seq: skip the scan.
                previous_seq = segments[index + 1][0] - 1
                continue
            records, __ = _scan_segment(
                path, last=index == len(segments) - 1
            )
            if records:
                _check_sequence(path, first_seq, records)
                previous_seq = records[-1].seq
            for record in records:
                if record.seq > after_seq:
                    yield record


# -- atomic files --------------------------------------------------------------


def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so a crash can never corrupt it.

    The bytes go to ``path + ".tmp"`` first, are fsynced, and only then
    renamed over ``path`` (``os.replace`` is atomic on POSIX and
    Windows).  The directory entry is fsynced too, so the rename itself
    survives power loss; a failed directory fsync raises, the file then
    in place but perhaps not durable.  On any other failure the
    original file is intact and the temporary is cleaned up.
    """
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError as exc:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise PersistenceError(
            "cannot write %r atomically: %s" % (path, exc)
        ) from exc
    _sync_directory(os.path.dirname(os.path.abspath(path)))


def _sync_directory(directory: str) -> None:
    """fsync ``directory``, so the entries created or renamed in it
    survive power loss (where the platform lets one open it).

    Raises:
        PersistenceError: the directory opened but its fsync failed.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError as exc:
        raise PersistenceError(
            "fsync of directory %r failed: %s" % (directory, exc)
        ) from exc
    finally:
        os.close(fd)
