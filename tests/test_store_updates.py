"""Unit tests for the update ledger (id assignment + tombstones) and
for what the secure server builds on it."""

import numpy as np
import pytest

from repro.core.client import TrustedClient
from repro.core.server import SecureServer
from repro.errors import UpdateError
from repro.store.updates import PendingUpdates


def ids(*values):
    return np.array(values, dtype=np.int64)


class TestInsert:
    def test_ids_are_sequential(self):
        ledger = PendingUpdates(10)
        assert ledger.assign(1).tolist() == [10]
        assert ledger.assign(2).tolist() == [11, 12]
        assert ledger.next_row_id == 13

    def test_pending_snapshot_is_copy(self):
        # The rows live in the server's pending column; what its
        # accessor hands out cannot be used to alter the buffer.
        client = TrustedClient(seed=21)
        server = SecureServer(*client.encrypt_dataset([5, 6, 7]))
        server.insert(client.encrypt_value(8))
        with pytest.raises(ValueError):
            server.pending.row_ids[0] = 99
        block = server.pending.rows_at([0])
        with pytest.raises(ValueError):
            block.limbs[0, 0, 0] = 0
        server.updates.tombstones.add(0)
        assert server.updates.tombstones == set()
        assert server.pending_count == 1

    def test_negative_start_rejected(self):
        with pytest.raises(UpdateError):
            PendingUpdates(-1)


class TestDelete:
    def test_tombstones_recorded(self):
        ledger = PendingUpdates(5)
        ledger.delete([3])
        assert ledger.deleted_mask(ids(3, 2)).tolist() == [True, False]

    def test_delete_pending_row(self):
        ledger = PendingUpdates(0)
        (row_id,) = ledger.assign(1).tolist()
        ledger.delete([row_id])
        assert ledger.deleted_mask(ids(row_id)).tolist() == [True]

    def test_unassigned_id_rejected(self):
        ledger = PendingUpdates(5)
        with pytest.raises(UpdateError):
            ledger.delete([5])
        with pytest.raises(UpdateError):
            ledger.delete([-1])

    def test_refused_delete_tombstones_nothing(self):
        ledger = PendingUpdates(5)
        with pytest.raises(UpdateError):
            ledger.delete([0, 1, 10**9])
        assert ledger.tombstones == set()

    def test_double_delete_idempotent(self):
        ledger = PendingUpdates(5)
        ledger.delete([1])
        ledger.delete([1, 1])
        assert ledger.tombstones == {1}
        ledger.tombstones.add(2)  # a snapshot, not the ledger's set
        assert ledger.tombstones == {1}


class TestDrain:
    def test_drain_clears_state(self):
        ledger = PendingUpdates(0)
        ledger.assign(1)
        ledger.delete([0])
        assert ledger.drain() == {0}
        assert ledger.tombstones == set()
        assert ledger.deleted_mask(ids(0)).tolist() == [False]

    def test_drain_excludes_deleted_pending(self):
        ledger = PendingUpdates(10)
        keep, drop = ledger.assign(2).tolist()
        ledger.delete([drop])
        # What a merge takes over: the pending ids still alive, and the
        # tombstones (which name the dropped one).
        assert ledger.deleted_mask(ids(keep, drop)).tolist() == [False, True]
        assert drop in ledger.drain()

    def test_ids_continue_after_drain(self):
        ledger = PendingUpdates(0)
        ledger.assign(1)
        ledger.drain()
        assert ledger.assign(1).tolist() == [1]
