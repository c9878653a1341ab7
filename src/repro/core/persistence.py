"""Server-state persistence: snapshot and restore encrypted servers.

A cloud server restarts; the adaptive index it cracked into existence
must not evaporate with it (the entire point of adaptive indexing is
that past queries already paid for it).  This module snapshots a
:class:`~repro.core.server.SecureServer` — ciphertext rows in their
current cracked order, the cracker index (each crack's double-
encrypted bound and position, in key order), the pending-update
buffer — into a JSON-compatible dictionary, and restores an
equivalent server from it.  :func:`snapshot_catalog` / :func:`restore_catalog` do the same for a
whole endpoint: every named column of a
:class:`~repro.net.catalog.ColumnCatalog`, so a ``repro serve`` process
can come back exactly where it crashed.

Everything in a snapshot is ciphertext or public structure; snapshots
are exactly as confidential as the server's RAM (i.e. safe to hold at
the honest-but-curious server, revealing nothing beyond what query
processing already revealed).

Formats: a server snapshot (``SNAPSHOT_VERSION``) carries the engine
configuration (``config``, keyed like
:data:`~repro.net.protocol.CONFIG_DEFAULTS`), rows, cracks (``tree``)
and pending buffer — the column's rows and the pending rows each as
one row block, the same value the wire carries
(:func:`repro.crypto.serialization.rows_to_dict`).  Counts live in the
metrics registry, not in snapshots.  A catalog snapshot
(``CATALOG_SNAPSHOT_VERSION``, versioned independently) carries the
column map (name to server snapshot), the per-column mutation
``epochs`` — the fence WAL replay uses to skip entries the snapshot
already contains — and the optional ``wal_seq`` watermark.  Only the
current version of each is read, and anything else is rejected with a
typed error: no fallback reader.

The file layer (:func:`save_snapshot` / :func:`load_snapshot` /
:func:`recover_catalog` / :func:`checkpoint_catalog`) adds durability:
snapshot files are written atomically (temp file + fsync +
``os.replace``), malformed persisted bytes surface as typed
:class:`~repro.errors.PersistenceError`\\ s, and a server data
directory — ``snapshot.json`` plus ``wal-*.seg`` segments — recovers
to exactly the state whose mutations were acknowledged.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from repro.core.query import EncryptedBound, EncryptedBoundKey
from repro.core.server import SecureServer
from repro.core.wal import (
    WalReader,
    WalWriter,
    read_json_file,
    write_json_atomic,
)
from repro.crypto.ciphertext import BoundCiphertext, ValueCiphertext
from repro.crypto.serialization import (
    ciphertext_from_dict,
    ciphertext_to_dict,
    ints_from_wire,
    rows_from_dict,
    rows_to_dict,
)
from repro.errors import (
    PersistenceError,
    ReproError,
    SerializationError,
)
from repro.net.catalog import ColumnCatalog
from repro.obs import Observability

SNAPSHOT_VERSION = 4
CATALOG_SNAPSHOT_VERSION = 5

#: File name of the catalog snapshot inside a server data directory
#: (next to the ``wal-*.seg`` segments).
SNAPSHOT_FILENAME = "snapshot.json"


def snapshot_server(server: SecureServer) -> Dict[str, Any]:
    """Serialize a server's full state to a JSON-compatible dict."""
    engine = server.engine
    column = engine.column
    tree_nodes = []
    if hasattr(engine, "cracks"):
        for key, position in zip(engine.cracks.keys, engine.cracks.positions):
            tree_nodes.append(
                {
                    "eb": ciphertext_to_dict(key.bound.eb),
                    "ev": ciphertext_to_dict(key.bound.ev),
                    "inclusive": key.inclusive,
                    "position": position,
                }
            )
    pending = server.pending
    return {
        "kind": "secure_server",
        "version": SNAPSHOT_VERSION,
        "config": server.config,
        "rows": rows_to_dict(column.rows_at(range(len(column)))),
        "row_ids": column.row_ids.tolist(),
        "tree": tree_nodes,
        "pending": {
            "row_ids": pending.row_ids.tolist(),
            # An empty buffer is written as the width-less empty block.
            "rows": rows_to_dict(
                pending.rows_at(range(len(pending))) if len(pending) else ()
            ),
        },
        "tombstones": sorted(server.updates.tombstones),
        "next_row_id": server.updates.next_row_id,
    }


def restore_server(
    snapshot: Dict[str, Any], obs: Observability = None
) -> SecureServer:
    """Rebuild an equivalent server from a snapshot.

    The restored server answers every query identically to the
    original: the column keeps its cracked physical order and the
    cracker index its bounds and positions, loaded in snapshot order
    and checked in one pass (keys strictly increasing, positions
    non-decreasing within the column).

    Raises:
        SerializationError: on a malformed or wrong-kind snapshot,
            crack list included.
        PersistenceError: on a snapshot of any other format version
            (there is no second reader).
    """
    if snapshot.get("kind") != "secure_server":
        raise SerializationError(
            "expected a secure_server snapshot, got %r" % snapshot.get("kind")
        )
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise PersistenceError(
            "unsupported snapshot version: %r" % snapshot.get("version")
        )
    try:
        server = SecureServer(
            rows_from_dict(snapshot["rows"]),
            ints_from_wire(snapshot["row_ids"], "row ids"),
            obs=obs,
            **snapshot["config"],
        )
        keys, positions = [], []
        for node_data in snapshot["tree"]:
            eb = ciphertext_from_dict(node_data["eb"])
            ev = ciphertext_from_dict(node_data["ev"])
            if not isinstance(eb, BoundCiphertext) or not isinstance(
                ev, ValueCiphertext
            ):
                raise SerializationError("malformed tree node ciphertexts")
            keys.append(EncryptedBoundKey(
                EncryptedBound(eb=eb, ev=ev),
                inclusive=bool(node_data["inclusive"]),
            ))
            positions.append(int(node_data["position"]))
        if keys:
            cracks = server.engine.cracks
            cracks.keys, cracks.positions = keys, positions
            cracks.check_invariants(len(server.engine.column))
        pending_ids = ints_from_wire(
            snapshot["pending"]["row_ids"], "pending row ids"
        )
        pending_rows = rows_from_dict(snapshot["pending"]["rows"])
        if len(pending_ids) != len(pending_rows):
            raise SerializationError("pending row ids and rows differ in length")
        server.restore_updates(
            int(snapshot["next_row_id"]),
            pending_rows,
            pending_ids,
            snapshot["tombstones"],
        )
        return server
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        # ReproError: the engine refusing a corrupted configuration
        # value (unknown engine kind, non-positive merge threshold);
        # TypeError also covers a configuration key it does not take.
        raise SerializationError("malformed snapshot: %s" % exc) from exc


def snapshot_catalog(
    catalog: ColumnCatalog, wal_seq: Optional[int] = None
) -> Dict[str, Any]:
    """Serialize every column of an endpoint's catalog, plus each
    column's mutation epoch.

    ``wal_seq`` records the WAL position this snapshot captures (every
    logged entry with ``seq <= wal_seq`` is reflected in it); recovery
    replays only entries after it.  Pass it when snapshotting inside
    :meth:`~repro.net.catalog.ColumnCatalog.quiesced` — for a
    crash-consistent cut — as :func:`checkpoint_catalog` does.
    """
    snapshot = {
        "kind": "column_catalog",
        "version": CATALOG_SNAPSHOT_VERSION,
        "columns": {
            name: snapshot_server(catalog.server(name))
            for name in catalog.column_names
        },
        "epochs": catalog.epochs(),
    }
    if wal_seq is not None:
        snapshot["wal_seq"] = int(wal_seq)
    return snapshot


def restore_catalog(
    snapshot: Dict[str, Any], obs: Observability = None, **catalog_kwargs
) -> ColumnCatalog:
    """Rebuild a whole endpoint from a catalog snapshot.

    ``catalog_kwargs`` pass through to the
    :class:`~repro.net.catalog.ColumnCatalog` constructor (the
    slow-query knobs), so a recovered serving endpoint keeps its
    configuration.

    Raises:
        SerializationError: on a malformed or wrong-kind snapshot.
    """
    if snapshot.get("kind") != "column_catalog":
        raise SerializationError(
            "expected a column_catalog snapshot, got %r" % snapshot.get("kind")
        )
    if snapshot.get("version") != CATALOG_SNAPSHOT_VERSION:
        raise SerializationError(
            "unsupported catalog snapshot version: %r"
            % snapshot.get("version")
        )
    catalog = ColumnCatalog(obs=obs, **catalog_kwargs)
    try:
        columns = snapshot["columns"]
        items = sorted(columns.items())
        epochs = snapshot["epochs"]
    except (AttributeError, KeyError, TypeError) as exc:
        raise SerializationError("malformed catalog snapshot: %s" % exc) from exc
    if not isinstance(epochs, dict):
        raise SerializationError("catalog snapshot epochs must be an object")
    for name, epoch in epochs.items():
        if (not isinstance(epoch, int) or isinstance(epoch, bool)
                or epoch < 0):
            raise SerializationError(
                "catalog snapshot epoch for %r must be an int >= 0" % name
            )
        if name not in columns:
            raise SerializationError(
                "catalog snapshot epoch for missing column %r" % name
            )
    for name, server_snapshot in items:
        if name not in epochs or not isinstance(server_snapshot, dict):
            raise SerializationError(
                "malformed catalog snapshot column %r" % name
            )
        catalog.adopt_column(
            name,
            restore_server(server_snapshot, obs=catalog.obs),
            epoch=epochs[name],
        )
    return catalog


# -- durable files and recovery --------------------------------------------------


def save_snapshot(path: str, snapshot: Dict[str, Any]) -> None:
    """Write a snapshot dict to disk atomically.

    Temp file + fsync + ``os.replace``: a crash at any instant leaves
    either the previous complete snapshot or the new complete snapshot
    at ``path`` — never a torn mix.

    Raises:
        PersistenceError: when the bytes cannot be written.
    """
    write_json_atomic(path, snapshot)


def load_snapshot(path: str) -> Dict[str, Any]:
    """Read a snapshot dict back from disk.

    Raises:
        PersistenceError: unreadable, non-JSON, or non-object bytes
            (never a raw ``json`` or ``OSError`` leak).
    """
    data = read_json_file(path)
    if not isinstance(data, dict):
        raise PersistenceError(
            "snapshot file %r must hold a JSON object, got %s"
            % (path, type(data).__name__)
        )
    return data


def recover_catalog(
    directory: str, obs: Observability = None, **catalog_kwargs
) -> Tuple[ColumnCatalog, Dict[str, Any]]:
    """Rebuild a catalog from a server data directory.

    The directory holds an optional ``snapshot.json`` plus ``wal-*.seg``
    segments.  Recovery restores the snapshot (or starts empty), then
    replays every WAL entry after the snapshot's ``wal_seq`` watermark
    through the per-column epoch fence — so a snapshot taken without a
    watermark (a manual save) still recovers correctly, with already-
    contained entries skipped individually.

    Returns ``(catalog, info)`` where ``info`` reports what happened:
    ``{"snapshot": bool, "wal_seq": int, "replayed": int,
    "skipped": int, "last_seq": int}``.

    Raises:
        PersistenceError: malformed snapshot bytes, malformed WAL
            bytes beyond the tolerated torn tail, or an entry that
            cannot apply (gap, unknown column, engine failure).
    """
    snapshot_path = os.path.join(directory, SNAPSHOT_FILENAME)
    wal_seq = 0
    have_snapshot = os.path.exists(snapshot_path)
    if have_snapshot:
        data = load_snapshot(snapshot_path)
        try:
            catalog = restore_catalog(data, obs=obs, **catalog_kwargs)
        except PersistenceError:
            raise
        except SerializationError as exc:
            # The file satellite's contract: corrupt *persisted* state
            # is always a PersistenceError, whatever layer caught it.
            raise PersistenceError(
                "malformed snapshot %r: %s" % (snapshot_path, exc)
            ) from exc
        raw_seq = data.get("wal_seq", 0)
        if (not isinstance(raw_seq, int) or isinstance(raw_seq, bool)
                or raw_seq < 0):
            raise PersistenceError(
                "snapshot %r wal_seq must be an int >= 0" % snapshot_path
            )
        wal_seq = raw_seq
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

    The snapshot is cut under :meth:`ColumnCatalog.quiesced` (no
    mutation can commit while the cut is taken), written atomically,
    and only *after* it is safely on disk are whole segments at or
    below its watermark compacted away — a crash between the two steps
    merely leaves extra (idempotently skipped) entries in the log.

    Returns the WAL sequence number the snapshot captures.
    """
    with catalog.quiesced():
        seq = wal.last_seq
        snapshot = snapshot_catalog(catalog, wal_seq=seq)
    save_snapshot(os.path.join(directory, SNAPSHOT_FILENAME), snapshot)
    wal.compact(seq)
    return seq
