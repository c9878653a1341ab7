"""Multi-column encrypted tables with positional tuple reconstruction.

The paper evaluates a single-column select operator, "common to all
modern column-stores" (Section 5); a real deployment holds several
encrypted attributes side by side.  This module extends the system the
way column-stores do (Section 2.2's flow, and the self-organising
tuple-reconstruction line of work the paper cites):

* every encrypted column is registered under its own name in the
  server's :class:`~repro.net.catalog.ColumnCatalog` and is cracked
  independently — queries on the ``price`` column never touch the
  ``volume`` column's physical order;
* a selection on one attribute returns stable *row ids*; sibling
  attributes are then materialised by id through each column's O(1)
  id-to-position map (maintained across cracks);
* under ambiguity, each logical row has two physical rows *per
  column*, and which interpretation is real is drawn independently per
  column — an adversary correlating columns learns nothing about which
  face is real; the client fetches both faces of a logical row and
  keeps the real one.

Like :class:`~repro.core.session.OutsourcedDatabase`, the table speaks
only protocol messages: each column gets a
:class:`~repro.net.client.RemoteColumn` handle over a shared transport
(in-process loopback by default, TCP to a ``repro serve`` endpoint
otherwise).  Tuple reconstruction is a second protocol round by
construction (the first round cannot know which ids qualify); the
table counts rounds so the cost is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.core.client import TrustedClient
from repro.core.query import EncryptedQuery
from repro.core.secure_index import SecureAdaptiveIndex
from repro.crypto.ciphertext import RowBlock, ValueCiphertext
from repro.errors import (
    DecryptionError,
    ProtocolError,
    QueryError,
    UpdateError,
)
from repro.net.catalog import ColumnCatalog
from repro.net.client import RemoteColumn
from repro.net.protocol import (
    ErrorResponse,
    FetchRequest,
    FetchResponse,
    raise_error_response,
)
from repro.net.transport import LoopbackTransport, Transport
from repro.obs import Observability


class SecureTableServer:
    """Server side of a table: a named-column view over a catalog.

    Constructing one registers each ciphertext column in a
    :class:`~repro.net.catalog.ColumnCatalog` (a private one unless an
    existing catalog is passed); :meth:`attached` instead views columns
    that already live in a catalog — e.g. ones uploaded through the
    wire protocol.  Either way the per-column engines are ordinary
    :class:`~repro.core.server.SecureServer` instances, so tests and
    benchmarks can introspect cracking state through :meth:`engine`.

    Args:
        columns: mapping of attribute name to ciphertext rows; all
            columns must share the same id set.
        row_ids: the shared physical ids.
        catalog: register into this catalog instead of a private one.
        namespace: prefix for catalog column names (so several tables
            can share one endpoint without clashing).
        engine_kwargs: engine configuration for every column (the
            :data:`~repro.net.protocol.CONFIG_DEFAULTS` knobs).
    """

    def __init__(
        self,
        columns: Dict[str, Sequence[ValueCiphertext]],
        row_ids: Sequence[int],
        catalog: ColumnCatalog = None,
        namespace: str = "",
        **engine_kwargs,
    ) -> None:
        if not columns:
            raise UpdateError("a table needs at least one column")
        row_ids = list(row_ids)
        for name, rows in columns.items():
            if len(rows) != len(row_ids):
                raise UpdateError(
                    "column %r has %d rows, expected %d"
                    % (name, len(rows), len(row_ids))
                )
        self._catalog = catalog if catalog is not None else ColumnCatalog()
        self._namespace = namespace
        self._names = list(columns)
        for name, rows in columns.items():
            self._catalog.create_column(
                namespace + name, rows, row_ids, dict(engine_kwargs)
            )
        self.requests_served = 0

    @classmethod
    def attached(
        cls, catalog: ColumnCatalog, names: Sequence[str], namespace: str = ""
    ) -> "SecureTableServer":
        """View columns that already exist in ``catalog`` (no upload)."""
        view = cls.__new__(cls)
        view._catalog = catalog
        view._namespace = namespace
        view._names = list(names)
        view.requests_served = 0
        return view

    @property
    def catalog(self) -> ColumnCatalog:
        """The catalog hosting this table's columns."""
        return self._catalog

    @property
    def column_names(self) -> List[str]:
        """All attribute names (without the catalog namespace)."""
        return list(self._names)

    def engine(self, name: str) -> SecureAdaptiveIndex:
        """The adaptive engine behind one column."""
        if name not in self._names:
            raise QueryError("unknown column: %r" % name)
        return self._catalog.server(self._namespace + name).engine

    def select(self, name: str, query: EncryptedQuery):
        """Range-select on one column; cracks it as a side effect.

        Returns ``(row_ids, ciphertext_rows)`` of that column.
        """
        if name not in self._names:
            raise QueryError("unknown column: %r" % name)
        self.requests_served += 1
        response = self._catalog.server(self._namespace + name).execute(query)
        return response.row_ids, response.rows

    def fetch(self, name: str, row_ids: Iterable[int]) -> RowBlock:
        """Materialise one column's rows by id (tuple reconstruction)."""
        self.requests_served += 1
        return self.engine(name).column.rows_by_ids(row_ids)


@dataclass(frozen=True)
class TableSelection:
    """Decrypted outcome of a table select.

    Attributes:
        logical_ids: qualifying logical row indices.
        values: the selected column's plaintext values, parallel to
            ``logical_ids``.
    """

    logical_ids: np.ndarray
    values: np.ndarray


class OutsourcedTable:
    """Client-facing multi-column encrypted table.

    Args:
        columns: mapping of attribute name to plaintext integer values
            (equal lengths).
        ambiguity: per-column two-faced encryption (independent
            real-branch coins per column).
        seed, key, key_length: as for
            :class:`~repro.core.session.OutsourcedDatabase`; one key
            covers all columns (per-column keys would also work — the
            ciphertexts never interact across columns).
        transport: channel to the server endpoint; ``None`` (default)
            creates a private loopback catalog.
        namespace: prefix for this table's column names at the
            endpoint (needed when several tables share one server).
        obs: observability bundle for the client-side counters.
        engine_kwargs: forwarded to every column engine.
    """

    def __init__(
        self,
        columns: Dict[str, Sequence[int]],
        ambiguity: bool = False,
        seed: int = None,
        key=None,
        key_length: int = 4,
        transport: Transport = None,
        namespace: str = "",
        obs: Observability = None,
        **engine_kwargs,
    ) -> None:
        if not columns:
            raise UpdateError("a table needs at least one column")
        lengths = {name: len(list(values)) for name, values in columns.items()}
        if len(set(lengths.values())) != 1:
            raise UpdateError("columns must have equal lengths: %r" % lengths)
        self._nrows = next(iter(lengths.values()))
        if ambiguity:
            pooled = [int(v) for values in columns.values() for v in values]
            fake_domain = (min(pooled), max(pooled) + 1) if pooled else None
        else:
            fake_domain = None
        self.client = TrustedClient(
            key=key,
            seed=seed,
            ambiguity=ambiguity,
            key_length=key_length,
            fake_domain=fake_domain,
        )
        self._obs = obs if obs is not None else Observability()
        if transport is None:
            self._catalog = ColumnCatalog(obs=self._obs)
            transport = LoopbackTransport(self._catalog)
        else:
            self._catalog = None
        self._transport = transport
        self._namespace = namespace
        self._names = list(columns)
        self._handles: Dict[str, RemoteColumn] = {}
        for name, values in columns.items():
            rows, row_ids = self.client.encrypt_dataset(values)
            handle = RemoteColumn(transport, namespace + name, obs=self._obs)
            handle.create(rows, row_ids, dict(engine_kwargs))
            self._handles[name] = handle
        self.round_trips = 0

    def __len__(self) -> int:
        return self._nrows

    @property
    def column_names(self) -> List[str]:
        """All attribute names."""
        return list(self._names)

    @property
    def transport(self) -> Transport:
        """The transport shared by every column handle."""
        return self._transport

    @property
    def server(self) -> SecureTableServer:
        """A server-side view of this table's columns.

        Only available over loopback (tests introspect cracking state
        through it); over a remote transport the columns live in
        another process and this raises :class:`ProtocolError`.
        """
        if self._catalog is None:
            raise ProtocolError(
                "table is connected over a remote transport; "
                "server state is not locally reachable"
            )
        return SecureTableServer.attached(
            self._catalog, self._names, self._namespace
        )

    def _handle(self, name: str) -> RemoteColumn:
        try:
            return self._handles[name]
        except KeyError:
            raise QueryError("unknown column: %r" % name) from None

    # -- query processing ---------------------------------------------------

    def select(
        self,
        name: str,
        low: int = None,
        high: int = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> TableSelection:
        """Range-select on one attribute (one round trip).

        Either bound may be None for a one-sided select.
        """
        handle = self._handle(name)
        query = self.client.make_query(low, high, low_inclusive, high_inclusive)
        response = handle.query(query)
        self.round_trips += 1
        result = self.client.decrypt_results(response.row_ids, response.rows)
        return TableSelection(
            logical_ids=result.logical_ids, values=result.values
        )

    def select_range_many(
        self, name: str, ranges: Sequence[Sequence]
    ) -> List[TableSelection]:
        """Pipeline several range-selects on one attribute (one round).

        Each range is ``(low, high)`` or
        ``(low, high, low_inclusive, high_inclusive)``; results come
        back in request order.  The server executes the batch under the
        column lock, so this is equivalent to — but one round trip
        cheaper than — the same :meth:`select` calls in sequence.
        """
        handle = self._handle(name)
        queries = []
        for spec in ranges:
            args = tuple(spec)
            if not 2 <= len(args) <= 4:
                raise QueryError(
                    "range spec needs 2-4 elements, got %r" % (spec,)
                )
            queries.append(self.client.make_query(*args))
        responses = handle.query_many(queries)
        self.round_trips += 1
        out: List[TableSelection] = []
        for response in responses:
            result = self.client.decrypt_results(
                response.row_ids, response.rows
            )
            out.append(
                TableSelection(
                    logical_ids=result.logical_ids, values=result.values
                )
            )
        return out

    def fetch(self, name: str, logical_ids: Sequence[int]) -> np.ndarray:
        """Reconstruct another attribute for selected logical rows.

        One additional round trip; under ambiguity both faces of each
        logical row are requested and the real one kept (which face is
        real differs per column, so the request pattern reveals
        nothing).
        """
        handle = self._handle(name)
        rows = handle.fetch(self._physical_ids(logical_ids))
        self.round_trips += 1
        return self._decrypt_fetched(rows)

    def fetch_many(
        self, names: Sequence[str], logical_ids: Sequence[int]
    ) -> Dict[str, np.ndarray]:
        """Reconstruct several attributes in one batched round trip.

        Each attribute becomes one fetch sub-request inside a single
        batch envelope (every sub-request names its own column), so the
        whole projection costs one round trip instead of one per
        column.  Returns ``{name: values}`` with every array parallel
        to ``logical_ids``.
        """
        names = list(names)
        if not names:
            return {}
        handles = [self._handle(name) for name in names]
        physical_ids = self._physical_ids(logical_ids)
        responses = handles[0].call_many(
            [
                FetchRequest(column=handle.column, row_ids=tuple(physical_ids))
                for handle in handles
            ]
        )
        self.round_trips += 1
        out: Dict[str, np.ndarray] = {}
        for name, response in zip(names, responses):
            if isinstance(response, ErrorResponse):
                raise_error_response(response)
            if not isinstance(response, FetchResponse):
                raise ProtocolError(
                    "expected FetchResponse, got %s" % type(response).__name__
                )
            out[name] = self._decrypt_fetched(response.rows)
        return out

    def _physical_ids(self, logical_ids: Sequence[int]) -> List[int]:
        """Expand logical ids to the physical ids a fetch must request."""
        physical_ids: List[int] = []
        for logical in (int(i) for i in logical_ids):
            if self.client.ambiguity:
                physical_ids.extend((2 * logical, 2 * logical + 1))
            else:
                physical_ids.append(logical)
        return physical_ids

    def _decrypt_fetched(self, rows: Sequence[ValueCiphertext]) -> np.ndarray:
        """Decrypt fetched rows, resolving two-faced pairs under
        ambiguity (exactly one face of every pair is real)."""
        is_real, values, _ = self.client.encryptor.decrypt_block(rows)
        faces = 2 if self.client.ambiguity else 1
        if len(is_real) % faces or any(
            sum(is_real[start:start + faces]) != 1
            for start in range(0, len(is_real), faces)
        ):
            raise DecryptionError(
                "a fetched value did not open to exactly one real row"
            )
        return np.array(values, dtype=np.int64)

    def select_tuples(
        self,
        name: str,
        low: int,
        high: int,
        fetch_columns: Sequence[str] = (),
        **kwargs,
    ) -> Dict[str, np.ndarray]:
        """Select + reconstruct in one call (two rounds total).

        The reconstruction of every ``fetch_columns`` attribute rides
        in a single batch envelope via :meth:`fetch_many`.
        """
        selection = self.select(name, low, high, **kwargs)
        out = {"logical_ids": selection.logical_ids, name: selection.values}
        others = [c for c in fetch_columns if c != name]
        if others:
            out.update(self.fetch_many(others, selection.logical_ids))
        return out
