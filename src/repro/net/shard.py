"""Client-side sharding: one logical column over N catalog columns.

A hot column is the scaling wall of the single-column design: every
query serializes on one per-column lock, no matter how many serving
threads the endpoint runs.  :class:`ShardedRemoteColumn` removes the
wall the way Enc2DB routes one logical query across several physical
encrypted stores and HardIDX partitions its secure index (PAPERS.md):
rows are partitioned across ``N`` ordinary catalog columns (shards
``column#0 .. column#N-1``), each with its own encrypted AVL, lock,
and mutation epoch, and every logical operation fans out as *one*
``batch_request`` whose sub-requests the catalog executes concurrently
(see ``ColumnCatalog._serve_batch``).  Each shard cracks independently
and adapts to exactly the traffic routed to it.

Row placement is deterministic round-robin on the logical row id —
ids arrive pre-mixed (sequential upload order carries no value
information), so round-robin *is* the hash partition, and being
formulaic it keeps the global <-> local id translation stateless:

* ``P`` physical rows per value (2 under ambiguity — the pair stays on
  one shard, a per-shard key rotation must re-encrypt whole pairs).
* global id ``g``: pair ``g // P`` lives on shard ``(g // P) % N`` as
  local pair ``(g // P) // N``, i.e. local id
  ``((g // P) // N) * P + g % P``.
* shard ``s``, local id ``l``: global id
  ``((l // P) * N + s) * P + l % P``.

With ``N == 1`` the translation is the identity, so a 1-shard column
returns byte-identical results to an unsharded one (pinned by tests).
Server-assigned insert ids compose with the same formula: a shard
assigns dense local ids, and distinct shards map them to disjoint
global ids, so inserts routed to any shard can never collide.

The handle speaks through one carrier :class:`RemoteColumn` — batch
sub-requests each name their own column, so a single transport serves
every shard.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.query import EncryptedQuery
from repro.core.server import ServerResponse
from repro.crypto.ciphertext import RowBlock
from repro.errors import RotationConflictError, UpdateError
from repro.net.client import RemoteColumn
from repro.net.protocol import (
    CreateColumnRequest,
    DeleteRequest,
    ErrorResponse,
    FetchRequest,
    InsertRequest,
    MergeRequest,
    QueryRequest,
    RotateApplyRequest,
    RotateBeginRequest,
    raise_error_response,
)
from repro.net.transport import Transport
from repro.obs import Observability

#: Knuth's multiplicative hash constant, used to mix insert key hints
#: into a shard choice (2654435761 = 2**32 / golden ratio).
_MIX = 2654435761

#: Default per-shard retry budget for fenced rotation conflicts.
DEFAULT_ROTATE_RETRIES = 2


def shard_column_names(column: str, count: int) -> List[str]:
    """The catalog column names backing a logical sharded column."""
    return ["%s#%d" % (column, index) for index in range(count)]


class ShardedRemoteColumn:
    """Scatter-gather protocol calls for one logical sharded column.

    Drop-in for :class:`RemoteColumn` at the session seam: the same
    typed operations, but every one fans out over the shards in a
    single pipelined ``batch_request`` and merges the per-shard
    results, translating between global and per-shard local row ids.

    Args:
        transport: the channel to the endpoint (shared by all shards).
        column: the *logical* column name; shards register under
            ``column#i``.
        shards: number of shards (>= 1).
        physical_per_value: physical rows per logical value (2 under
            ambiguity); an ambiguity pair always lands on one shard.
        obs: observability bundle (``net.shard_fanout`` histogram and
            the carrier's ``net.*`` counters report into it).
    """

    def __init__(
        self,
        transport: Transport,
        column: str,
        shards: int,
        physical_per_value: int = 1,
        obs: Observability = None,
    ) -> None:
        if shards < 1:
            raise UpdateError("shard count must be >= 1, got %r" % (shards,))
        if physical_per_value not in (1, 2):
            raise UpdateError("physical_per_value must be 1 or 2")
        self.column = column
        self.shard_count = int(shards)
        self.physical_per_value = int(physical_per_value)
        self.shard_names = shard_column_names(column, self.shard_count)
        self._obs = obs if obs is not None else Observability()
        self._fanout = self._obs.metrics.histogram("net.shard_fanout")
        self._carrier = RemoteColumn(
            transport, self.shard_names[0], obs=self._obs
        )
        self._next_insert_shard = 0

    # -- id translation ----------------------------------------------------------

    def shard_of(self, global_id: int) -> int:
        """The shard a global physical id lives on."""
        return (int(global_id) // self.physical_per_value) % self.shard_count

    def to_local(self, global_id):
        """``(shard, local id)`` for one global physical id (or, given
        an id array, the two parallel arrays)."""
        pair, offset = divmod(global_id, self.physical_per_value)
        shard, local_pair = pair % self.shard_count, pair // self.shard_count
        return shard, local_pair * self.physical_per_value + offset

    def to_global(self, shard: int, local_id: int) -> int:
        """Global physical id of ``local_id`` on ``shard``."""
        local_pair, offset = divmod(int(local_id), self.physical_per_value)
        return (
            local_pair * self.shard_count + shard
        ) * self.physical_per_value + offset

    def _to_global_array(self, shard: int, local_ids) -> np.ndarray:
        """Vectorized :meth:`to_global` for a response id array."""
        ids = np.asarray(local_ids, dtype=np.int64)
        per = self.physical_per_value
        return (ids // per * self.shard_count + shard) * per + ids % per

    # -- carrier delegation ------------------------------------------------------

    @property
    def transport(self) -> Transport:
        """The shared underlying transport."""
        return self._carrier.transport

    @property
    def last_sent_bytes(self) -> int:
        """Request-frame length of the most recent fan-out exchange."""
        return self._carrier.last_sent_bytes

    @property
    def last_received_bytes(self) -> int:
        """Response-frame length of the most recent fan-out exchange."""
        return self._carrier.last_received_bytes

    def close(self) -> None:
        """Close the underlying transport."""
        self._carrier.close()

    # -- batching helpers --------------------------------------------------------

    def _call_many(self, requests: Sequence, fanout: int) -> List:
        """One scatter-gather round trip; re-raises the first slot error.

        The ``shard-fanout`` span parents the carrier's ``rpc`` span,
        so a distributed trace shows which fan-out caused each batched
        round trip (the trace context rides the batch envelope and its
        sub-envelopes).
        """
        self._fanout.observe(fanout)
        with self._obs.span("shard-fanout", column=self.column,
                            shards=self.shard_count, fanout=fanout):
            responses = self._carrier.call_many(requests)
        for response in responses:
            if isinstance(response, ErrorResponse):
                raise_error_response(response)
        return responses

    # -- typed operations --------------------------------------------------------

    def create(
        self,
        rows: Sequence,
        row_ids: Sequence[int],
        config: Dict[str, Any] = None,
    ) -> int:
        """Partition and upload the column; returns total rows stored.

        Every shard is created even when its partition is empty, so the
        geometry at the catalog always matches the routing table here.
        """
        rows = RowBlock.from_rows(rows)
        shard_of, local_ids = self.to_local(
            np.asarray(row_ids, dtype=np.int64)
        )
        config = dict(config or {})
        requests = []
        for index, name in enumerate(self.shard_names):
            mine = np.flatnonzero(shard_of == index)
            requests.append(
                CreateColumnRequest(
                    column=name,
                    rows=rows.take(mine),
                    row_ids=tuple(local_ids[mine].tolist()),
                    config=config,
                    shard={
                        "of": self.column,
                        "index": index,
                        "count": self.shard_count,
                        "physical_per_value": self.physical_per_value,
                    },
                )
            )
        responses = self._call_many(requests, fanout=self.shard_count)
        return sum(r.rows_stored for r in responses)

    def query(self, query: EncryptedQuery) -> ServerResponse:
        """Fan one encrypted query out to every shard; merge results."""
        responses = self._call_many(
            [QueryRequest(column=name, query=query) for name in self.shard_names],
            fanout=self.shard_count,
        )
        return self._merge_query_responses(responses)

    def query_many(
        self, queries: Sequence[EncryptedQuery]
    ) -> List[ServerResponse]:
        """Pipeline many queries, each fanned over every shard, in one
        round trip (``len(queries) * shards`` sub-requests)."""
        queries = list(queries)
        if not queries:
            return []
        requests = [
            QueryRequest(column=name, query=query)
            for query in queries
            for name in self.shard_names
        ]
        responses = self._call_many(requests, fanout=self.shard_count)
        n = self.shard_count
        return [
            self._merge_query_responses(responses[i * n:(i + 1) * n])
            for i in range(len(queries))
        ]

    def _merge_query_responses(self, responses: Sequence) -> ServerResponse:
        """Concatenate per-shard responses in shard order, mapping each
        shard's local row ids back to global ids."""
        return ServerResponse(
            row_ids=np.concatenate([
                self._to_global_array(shard, response.response.row_ids)
                for shard, response in enumerate(responses)
            ]),
            rows=RowBlock.concatenate(
                [response.response.rows for response in responses]
            ),
        )

    def _group_by_shard(
        self, global_ids: Sequence[int]
    ) -> Dict[int, Tuple[List[int], List[int]]]:
        """``shard -> (positions in the input, local ids)``."""
        groups: Dict[int, Tuple[List[int], List[int]]] = {}
        for position, global_id in enumerate(global_ids):
            shard, local_id = self.to_local(int(global_id))
            positions, locals_ = groups.setdefault(shard, ([], []))
            positions.append(position)
            locals_.append(local_id)
        return groups

    def fetch(self, row_ids: Sequence[int]) -> RowBlock:
        """Materialise rows by global id, preserving input order."""
        row_ids = [int(i) for i in row_ids]
        if not row_ids:
            return RowBlock.from_rows(())
        groups = self._group_by_shard(row_ids)
        shards = sorted(groups)
        responses = self._call_many(
            [
                FetchRequest(
                    column=self.shard_names[shard],
                    row_ids=tuple(groups[shard][1]),
                )
                for shard in shards
            ],
            fanout=len(shards),
        )
        # The gathered block is in shard order; each group remembers
        # the input positions its rows came from.
        positions = [p for shard in shards for p in groups[shard][0]]
        return RowBlock.concatenate(
            [response.rows for response in responses]
        ).take(np.argsort(positions))

    def insert(self, rows: Sequence, key_hint: int = None) -> List[int]:
        """Insert one value's physical rows on one shard.

        ``key_hint`` (the plaintext value, when the caller holds it)
        picks the shard by multiplicative hash so repeated inserts of
        one hot value pile onto a single shard's pending buffer instead
        of all of them; without a hint shards are used round-robin.
        Returns the assigned *global* physical ids.

        An ambiguity pair must stay together, so ``rows`` must be a
        multiple of ``physical_per_value``.
        """
        rows = list(rows)
        if len(rows) % self.physical_per_value:
            raise UpdateError(
                "insert of %d rows is not a whole number of values "
                "(%d physical rows per value)"
                % (len(rows), self.physical_per_value)
            )
        if key_hint is not None:
            shard = ((int(key_hint) * _MIX) & 0xFFFFFFFF) % self.shard_count
        else:
            shard = self._next_insert_shard
            self._next_insert_shard = (shard + 1) % self.shard_count
        self._fanout.observe(1)
        response = self._carrier.call(
            InsertRequest(column=self.shard_names[shard], rows=tuple(rows))
        )
        local_ids = response.row_ids
        return [self.to_global(shard, local_id) for local_id in local_ids]

    def delete(self, row_ids: Sequence[int]) -> int:
        """Tombstone rows by global id; returns the count processed."""
        row_ids = [int(i) for i in row_ids]
        if not row_ids:
            return 0
        groups = self._group_by_shard(row_ids)
        shards = sorted(groups)
        responses = self._call_many(
            [
                DeleteRequest(
                    column=self.shard_names[shard],
                    row_ids=tuple(groups[shard][1]),
                )
                for shard in shards
            ],
            fanout=len(shards),
        )
        return sum(r.deleted for r in responses)

    def merge(self) -> int:
        """Merge every shard's pending buffer; returns the summed delta."""
        responses = self._call_many(
            [MergeRequest(column=name) for name in self.shard_names],
            fanout=self.shard_count,
        )
        return sum(r.delta for r in responses)

    # -- rotation ----------------------------------------------------------------

    def rotate_shards(
        self,
        reencrypt: Callable[[List[int], Sequence], Tuple[Sequence, Sequence[int]]],
        retries: int = DEFAULT_ROTATE_RETRIES,
    ) -> int:
        """Rotate shard by shard, each under its own mutation fence.

        ``reencrypt(global_ids, rows)`` receives one shard's live rows
        (ids already translated to global) and returns ``(new_rows,
        new_global_ids)`` — re-encrypted rows that must stay on the
        same shard (ids are translated back and checked).  Because the
        fence is per shard, a concurrent write conflicts with *its*
        shard only: that shard is re-begun and re-encrypted up to
        ``retries`` more times while every other shard's rotation
        stands.  Returns the total rows stored across shards.

        Rotation is not atomic across shards: until the last shard
        applies, earlier shards already hold rows under the new key.
        Callers must not run queries against the logical column while a
        rotation is in flight (the session enforces this by rotating
        synchronously), and a rotation that exhausts its retries raises
        with the column split across keys — re-running it is not safe;
        restore from a snapshot instead.
        """
        total = 0
        for shard, name in enumerate(self.shard_names):
            attempts_left = max(0, int(retries))
            while True:
                begin = self._carrier.call(RotateBeginRequest(column=name))
                local_ids = [int(i) for i in begin.response.row_ids]
                global_ids = [self.to_global(shard, l) for l in local_ids]
                new_rows, new_global_ids = reencrypt(
                    global_ids, begin.response.rows
                )
                new_local_ids = []
                for global_id in new_global_ids:
                    owner, local_id = self.to_local(int(global_id))
                    if owner != shard:
                        raise UpdateError(
                            "re-encrypted row %d routes to shard %d, "
                            "not the shard %d being rotated"
                            % (global_id, owner, shard)
                        )
                    new_local_ids.append(local_id)
                try:
                    response = self._carrier.call(
                        RotateApplyRequest(
                            column=name,
                            rows=tuple(new_rows),
                            row_ids=tuple(new_local_ids),
                            fence=begin.fence,
                        )
                    )
                    total += response.rows_stored
                    break
                except RotationConflictError:
                    if attempts_left <= 0:
                        raise
                    attempts_left -= 1
        return total
