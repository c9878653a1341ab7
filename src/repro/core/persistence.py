"""Server-state persistence: snapshot and restore encrypted servers.

A cloud server restarts; the adaptive index it cracked into existence
must not evaporate with it (the entire point of adaptive indexing is
that past queries already paid for it).  This module snapshots a
:class:`~repro.core.server.SecureServer` — ciphertext rows in their
current cracked order, the cracker index (each crack's double-
encrypted bound and position, in key order), the pending-update
buffer — into one protocol envelope,
:class:`~repro.net.protocol.ColumnSnapshot`, and restores an
equivalent server from it.  :func:`snapshot_catalog` /
:func:`restore_catalog` do the same for a whole endpoint: every named
column of a :class:`~repro.net.catalog.ColumnCatalog`, so a ``repro
serve`` process can come back exactly where it crashed.

Everything in a snapshot is ciphertext or public structure; snapshots
are exactly as confidential as the server's RAM (i.e. safe to hold at
the honest-but-curious server, revealing nothing beyond what query
processing already revealed).

There is one byte format on disk: the WAL's.  A checkpoint file
(:data:`SNAPSHOT_FILENAME`, next to the ``wal-*.seg`` segments) is one
CRC-checked WAL record per column, in name order: the record's column
is the column's, its frame the column's ``ColumnSnapshot`` frame (its
epoch included), its sequence number the ``wal_seq`` watermark plus
one — the first logged mutation the checkpoint does not hold — and its
epoch field the number of records in the file, so a file cut at a
record boundary is refused too.  Counts live
in the metrics registry, not in snapshots.  The frame decoder refuses
malformed rows, ids and configuration values; restoring checks the
crack list (:meth:`~repro.cracking.cracks.CrackIndex.check_invariants`)
and the pending block.  A data directory holding a snapshot of any
other format (``snapshot.json``) is refused, never recovered from its
WAL alone: the segments under that snapshot's watermark are gone.

The file layer (:func:`save_snapshot` / :func:`load_snapshot` /
:func:`recover_catalog` / :func:`checkpoint_catalog`) adds durability:
the file is written atomically (temp file + fsync + ``os.replace``),
malformed persisted bytes surface as typed
:class:`~repro.errors.PersistenceError`\\ s, and a server data
directory recovers to exactly the state whose mutations were
acknowledged.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.query import EncryptedBoundKey, EncryptedQuery
from repro.core.server import SecureServer
from repro.core.wal import (
    WalReader,
    WalWriter,
    _encode_record,
    _scan_segment,
    write_atomic,
)
from repro.errors import PersistenceError, ReproError, SerializationError
from repro.net.catalog import ColumnCatalog
from repro.net.protocol import ColumnSnapshot, decode, encode
from repro.obs import Observability

#: Format of a server snapshot: 7, a protocol-7 ``ColumnSnapshot``
#: frame (6: protocol 6, its config as JSON text; 5: in the generic
#: binary grammar; 4: a JSON dict).
SNAPSHOT_VERSION = 7

#: Format of a catalog checkpoint: 8, one WAL record per column holding
#: its protocol-7 ``ColumnSnapshot`` frame (7: a protocol-6 frame; 6: a
#: protocol-5 frame; 5: a JSON dict in ``snapshot.json``).
CATALOG_SNAPSHOT_VERSION = 8

#: File name of the catalog checkpoint inside a server data directory
#: (next to the ``wal-*.seg`` segments); it names its format.
SNAPSHOT_FILENAME = "snapshot-v%d.wal" % CATALOG_SNAPSHOT_VERSION


def snapshot_server(
    server: SecureServer, column: str = "values", epoch: int = 0
) -> ColumnSnapshot:
    """A server's full state, as the snapshot of column ``column`` at
    mutation epoch ``epoch`` (a session's column and a fresh one by
    default)."""
    engine = server.engine
    cracks = getattr(engine, "cracks", None)
    keys = cracks.keys if cracks is not None else []
    positions = cracks.positions if cracks is not None else []
    rows, pending = engine.column, server.pending
    return ColumnSnapshot(
        column=column,
        epoch=epoch,
        config=server.config,
        rows=rows.rows_at(np.arange(len(rows))),
        row_ids=rows.row_ids.copy(),
        cracks=EncryptedQuery(
            low=None, high=None, pivots=tuple(key.bound for key in keys)
        ),
        crack_slots=tuple(
            2 * position + key.inclusive
            for key, position in zip(keys, positions)
        ),
        pending_rows=pending.rows_at(np.arange(len(pending))),
        pending_ids=pending.row_ids.copy(),
        tombstones=tuple(sorted(server.updates.tombstones)),
        next_row_id=server.updates.next_row_id,
        uploaded=server.uploaded,
    )


def restore_server(
    snapshot: ColumnSnapshot, obs: Observability = None
) -> SecureServer:
    """Rebuild an equivalent server from a snapshot.

    The restored server answers every query with the original's rows
    and ids (it has shipped nothing to any token yet, so its first
    reply to one goes whole): the column keeps its cracked physical
    order and the cracker index its bounds and positions, loaded in
    snapshot order and checked in one pass (keys strictly increasing,
    positions non-decreasing within the column).

    Raises:
        SerializationError: on anything but a snapshot, or one the
            engine refuses (its configuration, crack list, pending
            block or ids).
    """
    if type(snapshot) is not ColumnSnapshot:
        raise SerializationError(
            "expected a column snapshot, got %s" % type(snapshot).__name__
        )
    try:
        server = SecureServer(
            snapshot.rows, snapshot.row_ids, obs=obs, **snapshot.config
        )
        bounds, slots = snapshot.cracks.pivots, snapshot.crack_slots
        if len(slots) != len(bounds):
            raise SerializationError(
                "%d crack slots for %d crack keys" % (len(slots), len(bounds))
            )
        if bounds:
            # The index's search is written for the column's length.
            snapshot.cracks.check_length(server.engine.column.ciphertext_length)
            server.engine.cracks.load(
                [EncryptedBoundKey(bound, inclusive=bool(slot & 1))
                 for bound, slot in zip(bounds, slots)],
                [slot >> 1 for slot in slots],
                len(server.engine.column),
            )
        if len(snapshot.pending_ids) != len(snapshot.pending_rows):
            raise SerializationError("pending row ids and rows differ in length")
        server.restore_updates(
            snapshot.next_row_id,
            snapshot.pending_rows,
            snapshot.pending_ids,
            snapshot.tombstones,
            snapshot.uploaded,
        )
        return server
    except SerializationError:
        raise
    except (AttributeError, TypeError, ValueError, ReproError) as exc:
        # ReproError: the engine refusing a configuration value, a
        # crack list or an update ledger; AttributeError: cracks for
        # an engine that keeps none.
        raise SerializationError("malformed snapshot: %s" % exc) from exc


def snapshot_catalog(catalog: ColumnCatalog) -> List[ColumnSnapshot]:
    """Every column of an endpoint's catalog, in name order, each at
    its mutation epoch."""
    epochs = catalog.epochs()
    return [
        snapshot_server(catalog.server(name), name, epochs[name])
        for name in catalog.column_names
    ]


def restore_catalog(
    snapshots: Sequence[ColumnSnapshot], obs: Observability = None,
    **catalog_kwargs
) -> ColumnCatalog:
    """Rebuild a whole endpoint from its columns' snapshots.

    ``catalog_kwargs`` pass through to the
    :class:`~repro.net.catalog.ColumnCatalog` constructor (the
    slow-query knobs), so a recovered serving endpoint keeps its
    configuration.

    Raises:
        SerializationError: on a malformed snapshot.
        UpdateError: on two snapshots of one column.
    """
    catalog = ColumnCatalog(obs=obs, **catalog_kwargs)
    for snapshot in snapshots:
        server = restore_server(snapshot, obs=catalog.obs)
        catalog.adopt_column(snapshot.column, server, epoch=snapshot.epoch)
    return catalog


# -- durable files and recovery --------------------------------------------------


def save_snapshot(
    path: str, snapshots: Sequence[ColumnSnapshot], wal_seq: int = 0
) -> None:
    """Write a catalog checkpoint atomically: one record per column,
    each carrying the ``wal_seq`` watermark (every logged mutation
    with ``seq <= wal_seq`` is in the snapshots) and the number of
    records in the file.

    Temp file + fsync + ``os.replace``: a crash at any instant leaves
    either the previous complete file or the new complete file at
    ``path`` — never a torn mix.

    Raises:
        PersistenceError: when the bytes cannot be written.
    """
    write_atomic(path, b"".join(
        _encode_record(wal_seq + 1, len(snapshots), snapshot.column,
                       encode(snapshot))
        for snapshot in snapshots
    ))


def load_snapshot(path: str) -> Tuple[List[ColumnSnapshot], int]:
    """``(snapshots, wal_seq)`` of a checkpoint file.

    Raises:
        PersistenceError: unreadable bytes, a record that fails its CRC
            or holds no column snapshot (of its own column), records
            that disagree on the watermark, a file of another number of
            records than they state (one cut at a record boundary).
    """
    records, __ = _scan_segment(path, last=False)
    snapshots = []
    for record in records:
        if record.seq != records[0].seq:
            raise PersistenceError(
                "%s: records disagree on the WAL watermark (%d, %d)"
                % (path, records[0].seq - 1, record.seq - 1)
            )
        if record.epoch != len(records):
            raise PersistenceError(
                "%s: %d records where a record counts %d (a file cut short)"
                % (path, len(records), record.epoch)
            )
        try:
            snapshot = decode(record.frame)
        except SerializationError as exc:
            raise PersistenceError(
                "%s: malformed snapshot of %r: %s" % (path, record.column, exc)
            ) from exc
        if (type(snapshot) is not ColumnSnapshot
                or snapshot.column != record.column):
            raise PersistenceError(
                "%s: the record of %r holds no snapshot of it"
                % (path, record.column)
            )
        snapshots.append(snapshot)
    return snapshots, records[0].seq - 1 if records else 0


def _refuse_other_formats(directory: str) -> None:
    """Raise if ``directory`` holds a snapshot of another format: the
    WAL segments under its watermark were compacted away, so
    recovering from the log alone would lose them."""
    if not os.path.isdir(directory):
        return
    for name in sorted(os.listdir(directory)):
        if (name.startswith("snapshot") and name != SNAPSHOT_FILENAME
                and not name.endswith(".tmp")):
            raise PersistenceError(
                "%r is a snapshot of another format; this build reads %s "
                "only, and the log alone lacks what that snapshot holds"
                % (os.path.join(directory, name), SNAPSHOT_FILENAME)
            )


def recover_catalog(
    directory: str, obs: Observability = None, **catalog_kwargs
) -> Tuple[ColumnCatalog, Dict[str, Any]]:
    """Rebuild a catalog from a server data directory.

    The directory holds an optional checkpoint (:data:`SNAPSHOT_FILENAME`)
    plus ``wal-*.seg`` segments.  Recovery restores the checkpoint (or
    starts empty), then replays every WAL entry after its ``wal_seq``
    watermark through the per-column epoch fence — so a checkpoint
    written with a lower watermark still recovers correctly, with
    already-contained entries skipped individually.

    Returns ``(catalog, info)`` where ``info`` reports what happened:
    ``{"snapshot": bool, "wal_seq": int, "replayed": int,
    "skipped": int, "last_seq": int}``.

    Raises:
        PersistenceError: a snapshot of another format, malformed
            checkpoint bytes, malformed WAL bytes beyond the tolerated
            torn tail, or an entry that cannot apply (gap, unknown
            column, engine failure).
    """
    _refuse_other_formats(directory)
    snapshot_path = os.path.join(directory, SNAPSHOT_FILENAME)
    wal_seq = 0
    have_snapshot = os.path.exists(snapshot_path)
    if have_snapshot:
        snapshots, wal_seq = load_snapshot(snapshot_path)
        try:
            catalog = restore_catalog(snapshots, obs=obs, **catalog_kwargs)
        except ReproError as exc:
            # Corrupt *persisted* state is always a PersistenceError,
            # whatever layer caught it.
            raise PersistenceError(
                "malformed snapshot %r: %s" % (snapshot_path, exc)
            ) from exc
    else:
        catalog = ColumnCatalog(obs=obs, **catalog_kwargs)
    replayed = skipped = 0
    last_seq = wal_seq
    for record in WalReader(directory).entries(after_seq=wal_seq):
        if catalog.apply_record(record):
            replayed += 1
        else:
            skipped += 1
        last_seq = record.seq
    return catalog, {
        "snapshot": have_snapshot,
        "wal_seq": wal_seq,
        "replayed": replayed,
        "skipped": skipped,
        "last_seq": last_seq,
    }


def checkpoint_catalog(
    catalog: ColumnCatalog, directory: str, wal: WalWriter
) -> int:
    """Snapshot-then-truncate: durably save the catalog, then drop the
    WAL segments the snapshot covers.

    The snapshots are cut under :meth:`ColumnCatalog.quiesced` (no
    mutation can commit while the cut is taken), written atomically,
    and only *after* they are safely on disk are whole segments at or
    below the watermark compacted away — a crash between the two steps
    merely leaves extra (idempotently skipped) entries in the log.

    Returns the WAL sequence number the checkpoint captures.
    """
    with catalog.quiesced():
        seq = wal.last_seq
        snapshots = snapshot_catalog(catalog)
    save_snapshot(os.path.join(directory, SNAPSHOT_FILENAME), snapshots, seq)
    wal.compact(seq)
    return seq
