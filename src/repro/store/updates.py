"""Update ledger: row-id assignment and tombstones.

The scheme must "gracefully accommodate newly arriving data values and
support updates in the encrypted data" (paper requirement 6).  As in
the adaptive-indexing literature (Idreos et al., *Updating a cracked
database*), inserts land in a pending area scanned per query until a
lazy merge, and deletes are tombstones on row ids, filtered from every
result and physically reclaimed on merge.

The pending *rows* are the secure server's (a second, never-cracked
encrypted column); this module keeps the two facts about updates that
are not rows: which id the next arrival gets, and which ids are dead.
"""

from __future__ import annotations

from typing import Iterable, List, Set

import numpy as np

from repro.errors import UpdateError


class PendingUpdates:
    """The id counter plus the tombstone set.

    Row ids for inserted rows continue the base column's id space, so
    positional results remain unambiguous across merges.

    Args:
        next_row_id: first id to assign (the base column size).
    """

    def __init__(self, next_row_id: int) -> None:
        if next_row_id < 0:
            raise UpdateError("row ids must be non-negative")
        self._next_row_id = next_row_id
        self._tombstones: Set[int] = set()

    @property
    def tombstones(self) -> Set[int]:
        """Snapshot of deleted row ids."""
        return set(self._tombstones)

    @property
    def has_tombstones(self) -> bool:
        """Whether any row id is tombstoned (without copying the set)."""
        return bool(self._tombstones)

    @property
    def next_row_id(self) -> int:
        """The id the next insert will receive."""
        return self._next_row_id

    def assign(self, count: int) -> np.ndarray:
        """Ids for ``count`` newly arriving rows, in arrival order."""
        first = self._next_row_id
        self._next_row_id += count
        return np.arange(first, self._next_row_id, dtype=np.int64)

    def assigned(self, row_ids: Iterable[int]) -> List[int]:
        """``row_ids`` as ints, or an :class:`UpdateError` for one this
        ledger never assigned."""
        row_ids = [int(row_id) for row_id in row_ids]
        for row_id in row_ids:
            if not 0 <= row_id < self._next_row_id:
                raise UpdateError("row id %d was never assigned" % row_id)
        return row_ids

    def delete(self, row_ids: Iterable[int]) -> None:
        """Tombstone row ids (base or pending), all of them or none
        (:meth:`assigned`); deleting twice is idempotent."""
        self._tombstones.update(self.assigned(row_ids))

    def deleted_mask(self, row_ids: np.ndarray) -> np.ndarray:
        """Boolean mask over ``row_ids``: which of them are tombstoned."""
        if not self._tombstones:
            return np.zeros(len(row_ids), dtype=bool)
        return np.fromiter(
            map(self._tombstones.__contains__, row_ids.tolist()),
            dtype=bool,
            count=len(row_ids),
        )

    def drain(self) -> Set[int]:
        """Hand over and clear the tombstones (called once a merge has
        landed; the id counter runs on)."""
        tombstones, self._tombstones = self._tombstones, set()
        return tombstones
