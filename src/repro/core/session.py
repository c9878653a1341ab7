"""End-to-end outsourced database session.

:class:`OutsourcedDatabase` wires a :class:`~repro.core.client.TrustedClient`
to a named column on a server endpoint and exposes the plaintext
interface the data owner actually uses: load a column, run range and
point queries, insert and delete values.  Each query is exactly one
round trip (paper requirement 5) — the session counts them so tests can
enforce it.

The session never holds a server reference.  It speaks only protocol
messages through a :class:`~repro.net.client.RemoteColumn` handle over
a pluggable transport: the default is an in-process loopback onto a
private :class:`~repro.net.catalog.ColumnCatalog` (still encoding and
decoding every frame), and passing ``transport=TcpTransport(...)``
moves the whole session onto a remote ``repro serve`` endpoint without
any other change.  :attr:`bytes_sent` / :attr:`bytes_received` are the
summed lengths of the actually-encoded frames, not estimates.

The session also implements the client-assisted stochastic-cracking
extension: with ``jitter_pivots > 0`` the client attaches that many
random encrypted pivot bounds to every query, giving the server
robustness pivots it could never generate itself (Section 5.5: data
"can be sorted only in a query-triggered manner, relying on encrypted
pivot values provided by the client").
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.client import ClientResult, TrustedClient
from repro.crypto.key import SecretKey
from repro.crypto.scheme import as_integer, as_integers
from repro.errors import ProtocolError, QueryError, RowNotHeldError, UpdateError
from repro.net.catalog import ColumnCatalog
from repro.net.client import RemoteColumn
from repro.net.protocol import check_codec
from repro.net.transport import LoopbackTransport, Transport
from repro.obs import Observability

#: Most recent query results :attr:`OutsourcedDatabase.client_stats`
#: keeps (each holds its decrypted arrays, so an unbounded log grows
#: with throughput).
CLIENT_STATS_KEPT = 4096


class OutsourcedDatabase:
    """One encrypted column outsourced to a (possibly remote) server.

    Args:
        values: the plaintext column to outsource.
        ambiguity: enable the Section 4.2 two-branch encryption.
        engine: ``"adaptive"`` (secure cracking) or ``"scan"``
            (SecureScan baseline).
        key: reuse an existing secret key; generated when omitted.
        seed: reproducibility seed for key generation, encryption
            randomness, and jitter pivots.
        key_length: ciphertext length ``l`` when generating a key.
        jitter_pivots: number of random client-supplied pivots attached
            to each query (0 disables; requires the adaptive engine).
        pivot_domain: half-open plaintext interval pivots are drawn
            from; defaults to the column's observed min/max.
        transport: channel to the server endpoint.  ``None`` (default)
            creates a private in-process catalog behind a loopback
            transport; a :class:`~repro.net.transport.TcpTransport`
            points the session at a ``repro serve`` endpoint.
        column: the name this session's column is registered under at
            the endpoint (sessions sharing one endpoint pick distinct
            names).
        codec: ``"auto"`` or ``"binary"``, accepted for older callers:
            there is one frame codec, and this selects nothing.
        min_piece_size / use_three_way: forwarded to the server
            engine; ``min_piece_size`` None (default) lets it derive
            the scan-or-crack threshold from the column's arithmetic.
    """

    def __init__(
        self,
        values: Sequence[int],
        ambiguity: bool = False,
        engine: str = "adaptive",
        key: SecretKey = None,
        seed: int = None,
        key_length: int = 4,
        fake_domain: Tuple[int, int] = None,
        jitter_pivots: int = 0,
        pivot_domain: Tuple[int, int] = None,
        auto_merge_threshold: int = None,
        min_piece_size: Optional[int] = None,
        use_three_way: bool = False,
        obs: Observability = None,
        transport: Transport = None,
        column: str = "values",
        codec: str = "auto",
    ) -> None:
        check_codec(codec)
        values = as_integers(values)
        if jitter_pivots and engine != "adaptive":
            raise QueryError("jitter pivots require the adaptive engine")
        self._obs = obs if obs is not None else Observability()
        metrics = self._obs.metrics
        # Protocol counters exist from the start so a metrics snapshot
        # always shows them, even before the first query.
        self._round_trips = metrics.counter("protocol.round_trips")
        self._bytes_sent = metrics.counter("protocol.bytes_sent")
        self._bytes_received = metrics.counter("protocol.bytes_received")
        self._decrypt_seconds = metrics.counter("client.decrypt_seconds")
        self._fast_rows = metrics.counter("client.fast_rows")
        self._exact_rows = metrics.counter("client.exact_rows")
        self._cached_rows = metrics.counter("client.cached_rows")
        self.client = TrustedClient(
            key=key,
            seed=seed,
            ambiguity=ambiguity,
            key_length=key_length,
            fake_domain=fake_domain,
        )
        # Checked above: the client encrypts the list as it is.
        rows, row_ids = self.client._encrypt_dataset(values)
        # The server keeps this configuration: a key rotation rebuilds
        # the column with every knob intact.
        server_config = dict(
            engine=engine,
            auto_merge_threshold=auto_merge_threshold,
            min_piece_size=min_piece_size,
            use_three_way=use_three_way,
        )
        if transport is None:
            # Loopback deployment: the session owns a private endpoint,
            # but still reaches it only through encoded frames.
            self._catalog = ColumnCatalog(obs=self._obs)
            transport = LoopbackTransport(self._catalog)
        else:
            self._catalog = None
        self._transport = transport
        self._column_name = column
        self._remote = RemoteColumn(transport, column, obs=self._obs)
        self._remote.create(rows, row_ids, server_config)
        self._jitter_pivots = int(jitter_pivots)
        if pivot_domain is None and values:
            pivot_domain = (min(values), max(values) + 1)
        self._pivot_domain = pivot_domain
        self._pivot_rng = random.Random(None if seed is None else seed + 2)
        self._logical_count = len(values)
        self._physical_per_value = 2 if ambiguity else 1
        self._base_physical_count = len(rows)
        # Inserted rows leave the formulaic id space; track explicitly.
        self._inserted_physical_to_logical: Dict[int, int] = {}
        self._logical_to_physical: Dict[int, List[int]] = {}
        self.client_stats: Deque[ClientResult] = deque(maxlen=CLIENT_STATS_KEPT)

    def __len__(self) -> int:
        return self._logical_count

    @property
    def obs(self) -> Observability:
        """The session-wide observability bundle (shared with a
        loopback endpoint; a remote endpoint keeps its own)."""
        return self._obs

    @property
    def column_name(self) -> str:
        """The name this session's column is registered under."""
        return self._column_name

    @property
    def remote(self) -> RemoteColumn:
        """The protocol handle this session speaks through."""
        return self._remote

    @property
    def transport(self) -> Transport:
        """The transport under the session (loopback or TCP)."""
        return self._transport

    @property
    def server(self):
        """The in-process :class:`~repro.core.server.SecureServer`.

        Only a loopback session can reach engine state directly (tests
        and benchmarks introspect cracking through it); over a remote
        transport the server lives in another process and this raises
        :class:`ProtocolError`.
        """
        if self._catalog is None:
            raise ProtocolError(
                "session is connected over a remote transport; "
                "server state is not locally reachable"
            )
        return self._catalog.server(self._column_name)

    @server.setter
    def server(self, new_server) -> None:
        """Swap the loopback column's engine (snapshot restore)."""
        if self._catalog is None:
            raise ProtocolError(
                "session is connected over a remote transport; "
                "server state is not locally reachable"
            )
        self._catalog.replace_server(self._column_name, new_server)

    @property
    def round_trips(self) -> int:
        """Query round trips so far (the ``protocol.round_trips`` counter)."""
        return self._round_trips.value

    @property
    def bytes_sent(self) -> int:
        """Workload bytes shipped to the server: summed lengths of the
        actually-encoded request frames (``protocol.bytes_sent``)."""
        return self._bytes_sent.value

    @property
    def bytes_received(self) -> int:
        """Workload bytes received from the server: summed lengths of
        the encoded response frames (``protocol.bytes_received``)."""
        return self._bytes_received.value

    def _account_exchange(self) -> None:
        """Fold the last exchange's frame lengths into the workload
        counters (maintenance traffic skips this)."""
        self._bytes_sent.add(self._remote.last_sent_bytes)
        self._bytes_received.add(self._remote.last_received_bytes)

    # -- queries ------------------------------------------------------------------

    def query(
        self,
        low: int = None,
        high: int = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> ClientResult:
        """Run one range query end to end (one round trip).

        Either bound may be None for a one-sided query.
        """
        with self._obs.span("session-query", pivots=self._jitter_pivots):
            pivots = self._draw_pivots()
            message = self.client.make_query(
                low, high, low_inclusive, high_inclusive, pivots=pivots
            )
            response = self._remote.query(message)
            self._round_trips.add(1)
            self._account_exchange()
            result = self._decrypt(response, message)
        self.client_stats.append(result)
        return result

    def query_many(self, specs: Sequence) -> List[ClientResult]:
        """Run many range queries in one pipelined round trip.

        ``specs`` is a sequence of ``(low, high)`` or ``(low, high,
        low_inclusive, high_inclusive)`` tuples — or objects with an
        ``as_args()`` method, like the workload generators'
        ``RangeQuery``.  All queries ship in a single
        ``batch_request`` frame; the server executes them in slot
        order, each under the column lock in turn, so results are
        identical to issuing them sequentially, at a fraction of the
        round trips.  The batch is not atomic: another session's
        request on the column may run between two slots.  Counts as
        one round trip (one frame each way).
        """
        specs = list(specs)
        if not specs:
            return []
        with self._obs.span("session-query-many", queries=len(specs)):
            messages = []
            for spec in specs:
                args = spec.as_args() if hasattr(spec, "as_args") else tuple(spec)
                if not 2 <= len(args) <= 4:
                    raise QueryError(
                        "query spec must be (low, high[, low_inclusive"
                        "[, high_inclusive]]): %r" % (spec,)
                    )
                messages.append(
                    self.client.make_query(*args, pivots=self._draw_pivots())
                )
            responses = self._remote.query_many(messages)
            self._round_trips.add(1)
            self._account_exchange()
            results = list(map(self._decrypt, responses, messages))
        self.client_stats.extend(results)
        return results

    def query_point(self, value: int) -> ClientResult:
        """Run one equality query end to end."""
        return self.query(value, value, True, True)

    def query_below(self, bound: int, inclusive: bool = True) -> ClientResult:
        """One-sided query ``A <= bound`` (or ``<``); cracks one piece."""
        return self.query(high=bound, high_inclusive=inclusive)

    def query_above(self, bound: int, inclusive: bool = True) -> ClientResult:
        """One-sided query ``A >= bound`` (or ``>``); cracks one piece."""
        return self.query(low=bound, low_inclusive=inclusive)

    def query_values(self, low: int, high: int, **kwargs) -> np.ndarray:
        """Convenience: sorted plaintext values in range."""
        return np.sort(self.query(low, high, **kwargs).values)

    # -- updates --------------------------------------------------------------------

    def insert(self, value: int) -> int:
        """Encrypt and insert a new value; returns its logical id.

        Raises:
            EncryptionError: ``value`` is not an integer.
        """
        value = as_integer(value)
        rows = self.client.encrypt_value(value)
        physical_ids = self._remote.insert(rows)
        self._account_exchange()
        logical_id = self._logical_count
        self._logical_count += 1
        for physical_id in physical_ids:
            self._inserted_physical_to_logical[physical_id] = logical_id
        self._logical_to_physical[logical_id] = list(physical_ids)
        return logical_id

    def delete(self, logical_id: int) -> None:
        """Delete a value by logical id (base or inserted)."""
        self._remote.delete(self._physical_ids_of(logical_id))
        self._account_exchange()

    def merge(self) -> int:
        """Merge the server's pending buffer into the cracked column."""
        delta = self._remote.merge()
        self._account_exchange()
        return delta

    def rotate_key(self, new_seed: int = None) -> Dict[int, int]:
        """Re-encrypt everything under a fresh key.

        Periodic key rotation is standard hygiene — and under this
        scheme it is also the recovery path after a suspected
        known-plaintext exposure (the attacks of Section 3.5 break the
        *key*, not the primitive).  The rotation is a two-message
        protocol: ``RotateBegin`` makes the server ship every live row,
        pending ones included, in one round; the client draws a fresh
        key, re-encrypts, and ships ``RotateApply``, on which the
        server rebuilds the column under its original configuration
        (auto-merge threshold, three-way cracking, stats recording,
        minimum piece size).  The adaptive
        index restarts empty — its structure was derived under the old
        ciphertexts.

        Logical ids are compacted; returns the old-to-new id mapping.

        The two messages are fenced: ``RotateBegin`` returns the
        column's mutation epoch, ``RotateApply`` echoes it, and the
        server refuses the rebuild with
        :class:`~repro.errors.RotationConflictError` if the column
        mutated in between (a concurrent session's insert/delete/merge
        would otherwise be silently erased).  On conflict the column is
        left intact under the old key; call :meth:`rotate_key` again to
        retry from a fresh snapshot.

        The fetch is genuinely unbounded (both bounds None — the scheme
        is arbitrary precision, so no finite sentinel range is safe)
        and internal: it attaches no jitter pivots and is excluded from
        :attr:`round_trips` / :attr:`client_stats` / :attr:`bytes_sent`,
        which account the observed workload only (the ``net.*``
        counters still see the maintenance frames).
        """
        self._obs.metrics.add("session.key_rotations")
        begin = self._remote.rotate_begin()
        response = begin.response
        # Opened by the key alone: the old client's memory of opened
        # rows is dropped with it, so the fetch does not fill it.
        is_real, values = self.client.encryptor.open_block(response.rows)
        physical_ids = np.asarray(response.row_ids, dtype=np.int64)[is_real]
        old_ids = [int(i) for i in self._map_physical_ids(physical_ids)]
        values = [int(v) for v in values]
        order = sorted(range(len(old_ids)), key=lambda i: old_ids[i])
        values = [values[i] for i in order]
        mapping = {old_ids[i]: new for new, i in enumerate(order)}
        new_client = TrustedClient(
            key=None,
            seed=new_seed,
            ambiguity=self.client.ambiguity,
            key_length=self.client.key.length,
            fake_domain=self.client.fake_domain,
        )
        rows, row_ids = new_client.encrypt_dataset(values)
        self._remote.rotate_apply(rows, row_ids, fence=begin.fence)
        # The key switch commits only after the server accepted the
        # rebuild: a fenced-off apply (RotationConflictError) leaves
        # both parties on the old key and the session fully usable.
        self.client = new_client
        self._logical_count = len(values)
        self._base_physical_count = len(rows)
        self._inserted_physical_to_logical = {}
        self._logical_to_physical = {}
        return mapping

    # -- internals --------------------------------------------------------------------

    def _draw_pivots(self) -> Tuple[int, ...]:
        if not self._jitter_pivots or self._pivot_domain is None:
            return ()
        low, high = self._pivot_domain
        if high <= low:
            return ()
        return tuple(
            self._pivot_rng.randrange(low, high) for _ in range(self._jitter_pivots)
        )

    def _decrypt(self, response, message) -> ClientResult:
        """Decrypt the response to the query ``message``, accounting its
        time and how its rows were opened (``client.fast_rows`` /
        ``client.exact_rows``: in fixed-width arrays — proven 64-bit
        words or exact digits — / one by one in big-int arithmetic) or
        answered from the client's memory of rows it opened before
        (``client.cached_rows``); the three add up to the rows
        returned.  A row named by id alone that the client does not
        hold sends the query once more under a fresh token."""
        client = self.client
        encryptor = client.encryptor
        fast, exact = encryptor.fast_rows, encryptor.exact_rows
        cached = client.cached_rows
        try:
            result = client.decrypt_results(
                response.row_ids, response.rows,
                id_mapper=self._map_physical_ids,
            )
        except RowNotHeldError:  # a lost reply, a shared token
            if message is None:
                raise
            client.renew_token()
            message = replace(message, token=client.token)
            response = self._remote.query(message)
            self._round_trips.add(1)
            self._account_exchange()
            return self._decrypt(response, None)
        self._decrypt_seconds.add(result.decrypt_seconds)
        self._fast_rows.add(encryptor.fast_rows - fast)
        self._exact_rows.add(encryptor.exact_rows - exact)
        self._cached_rows.add(client.cached_rows - cached)
        return result

    def _map_physical_ids(self, physical_ids: np.ndarray) -> np.ndarray:
        """Logical ids of an array of physical row ids: the formulaic
        ones (below the uploaded count) by one array operation, the
        inserted ones through the session's own map."""
        logical_ids = self.client.logical_id(physical_ids)
        base = self._base_physical_count
        if np.maximum.reduce(physical_ids, initial=-1) >= base:
            inserted = physical_ids >= base
            logical_ids = logical_ids.copy()
            for slot, physical_id in zip(
                np.flatnonzero(inserted).tolist(),
                physical_ids[inserted].tolist(),
            ):
                try:
                    logical_ids[slot] = self._inserted_physical_to_logical[
                        physical_id
                    ]
                except KeyError:
                    raise QueryError(
                        "server returned unknown row id %d" % physical_id
                    ) from None
        return logical_ids

    def _physical_ids_of(self, logical_id: int) -> List[int]:
        if logical_id < 0 or logical_id >= self._logical_count:
            raise UpdateError("unknown logical id %d" % logical_id)
        if logical_id in self._logical_to_physical:
            return self._logical_to_physical[logical_id]
        if self._physical_per_value == 1:
            return [logical_id]
        return [2 * logical_id, 2 * logical_id + 1]
