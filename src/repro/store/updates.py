"""Pending-update buffer: graceful inserts and deletes.

The scheme must "gracefully accommodate newly arriving data values and
support updates in the encrypted data" (paper requirement 6).  The
adaptive-indexing literature handles updates with pending buffers that
are merged into the cracked column lazily (Idreos et al., *Updating a
cracked database*); this module provides the generic buffer shared by
the engines:

* inserts land in an append-only pending area, scanned per query until
  merged;
* deletes are tombstones on row ids, filtered from every result and
  physically reclaimed on merge.

The buffer is payload-agnostic: the plain engine stores integers, the
secure server stores ciphertext rows.
"""

from __future__ import annotations

from typing import Generic, List, Set, Tuple, TypeVar

import numpy as np

from repro.errors import UpdateError

Payload = TypeVar("Payload")


class PendingUpdates(Generic[Payload]):
    """Append-only insert buffer plus a tombstone set.

    Row ids for inserted rows continue the base column's id space, so
    positional results remain unambiguous across merges.

    Args:
        next_row_id: first id to assign (the base column size).
    """

    def __init__(self, next_row_id: int) -> None:
        if next_row_id < 0:
            raise UpdateError("row ids must be non-negative")
        self._next_row_id = next_row_id
        self._pending: List[Tuple[int, Payload]] = []
        self._tombstones: Set[int] = set()

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> List[Tuple[int, Payload]]:
        """Snapshot of pending ``(row_id, payload)`` inserts."""
        return list(self._pending)

    @property
    def tombstones(self) -> Set[int]:
        """Snapshot of deleted row ids."""
        return set(self._tombstones)

    @property
    def next_row_id(self) -> int:
        """The id the next insert will receive."""
        return self._next_row_id

    def insert(self, payload: Payload) -> int:
        """Buffer one new row; returns its assigned row id."""
        row_id = self._next_row_id
        self._next_row_id += 1
        self._pending.append((row_id, payload))
        return row_id

    def delete(self, row_id: int) -> None:
        """Tombstone a row id (base or pending).

        Deleting an id that was never assigned is an error; deleting
        twice is idempotent.
        """
        if row_id < 0 or row_id >= self._next_row_id:
            raise UpdateError("row id %d was never assigned" % row_id)
        self._tombstones.add(row_id)

    def is_deleted(self, row_id: int) -> bool:
        """Whether a row id is tombstoned."""
        return row_id in self._tombstones

    def deleted_mask(self, row_ids: np.ndarray) -> np.ndarray:
        """Boolean mask over ``row_ids``: which of them are tombstoned."""
        if not self._tombstones:
            return np.zeros(len(row_ids), dtype=bool)
        return np.fromiter(
            map(self._tombstones.__contains__, row_ids.tolist()),
            dtype=bool,
            count=len(row_ids),
        )

    @classmethod
    def restore(
        cls,
        next_row_id: int,
        pending: List[Tuple[int, Payload]],
        tombstones: Set[int],
    ) -> "PendingUpdates[Payload]":
        """Rebuild a buffer from persisted state (see
        :mod:`repro.core.persistence`)."""
        buffer: PendingUpdates[Payload] = cls(next_row_id)
        buffer._pending = [(int(row_id), payload) for row_id, payload in pending]
        buffer._tombstones = {int(row_id) for row_id in tombstones}
        return buffer

    def drain(self) -> Tuple[List[Tuple[int, Payload]], Set[int]]:
        """Hand over and clear the buffered state (called by merges).

        Returns:
            ``(pending_inserts, tombstones)`` — pending inserts exclude
            rows that were inserted and deleted before any merge.
        """
        live = [
            (row_id, payload)
            for row_id, payload in self._pending
            if row_id not in self._tombstones
        ]
        tombstones = self._tombstones
        self._pending = []
        self._tombstones = set()
        return live, tombstones
