"""Timing harness: drive a query sequence, collect per-query costs.

The paper's core experiments "run a query sequence that incrementally
reorganizes a single column, and observe performance as the sequence
evolves" (Section 5) over three data types — plain, encrypted, and
encrypted with ambiguity — plus the SecureScan baseline.
:func:`build_session` constructs any of the four;
:func:`run_plain_sequence` / :func:`run_session_sequence` produce a
:class:`QueryTrace` with everything Figures 6-12 plot, and
:func:`run_client_sequence` the client-side costs of Figure 13.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Sequence

import numpy as np

from repro.core.session import OutsourcedDatabase
from repro.cracking.index import AdaptiveIndex, QueryStats
from repro.cracking.baselines import FullScanIndex, FullSortIndex
from repro.cracking.stochastic import StochasticAdaptiveIndex
from repro.workloads.generators import RangeQuery

#: The data types of the paper's evaluation.
DATA_KINDS = ("plain", "encrypted", "ambiguous", "securescan")


@dataclass
class QueryTrace:
    """Everything measured while replaying one workload.

    Attributes:
        seconds: end-to-end wall-clock per query (server view for
            plain engines; server + protocol for sessions).
        crack_seconds / search_seconds / insert_seconds / scan_seconds:
            the per-operation breakdown of Figures 8-10.
        products: scalar products the server computed per query (its
            machine-independent unit of work; 0 for plain engines).
        cracked_rows: rows physically reorganised per query (the
            machine-independent size of the crack phase, for plain and
            encrypted engines alike).
        result_counts: rows returned per query.
        client_seconds: client decrypt-and-filter time per query
            (sessions only; Figure 13b).
        false_positive_rates: per-query FPR (sessions only;
            Figure 13a).
        build_seconds: one-off setup cost (encryption + upload for
            sessions, sort for the sort baseline).
    """

    seconds: List[float] = field(default_factory=list)
    crack_seconds: List[float] = field(default_factory=list)
    search_seconds: List[float] = field(default_factory=list)
    insert_seconds: List[float] = field(default_factory=list)
    scan_seconds: List[float] = field(default_factory=list)
    products: List[int] = field(default_factory=list)
    cracked_rows: List[int] = field(default_factory=list)
    result_counts: List[int] = field(default_factory=list)
    client_seconds: List[float] = field(default_factory=list)
    false_positive_rates: List[float] = field(default_factory=list)
    build_seconds: float = 0.0

    def cumulative(self) -> np.ndarray:
        """Cumulative response time after each query (Figure 6's y-axis)."""
        return np.cumsum(np.asarray(self.seconds, dtype=float))

    def total_seconds(self) -> float:
        """Total workload time."""
        return float(np.sum(self.seconds))


def run_plain_sequence(engine, queries: Sequence[RangeQuery]) -> QueryTrace:
    """Replay a workload against a plaintext engine.

    Works with any engine exposing ``query(low, high, low_inclusive,
    high_inclusive)`` and (optionally) a ``stats_log`` of
    :class:`~repro.cracking.index.QueryStats`.
    """
    trace = QueryTrace()
    for query in queries:
        tick = time.perf_counter()
        result = engine.query(*query.as_args())
        trace.seconds.append(time.perf_counter() - tick)
        trace.result_counts.append(len(result))
        _harvest_stats(engine, trace)
    return trace


def run_session_sequence(
    session: OutsourcedDatabase, queries: Sequence[RangeQuery]
) -> QueryTrace:
    """Replay a workload against an outsourced (encrypted) session."""
    trace = QueryTrace()
    server_engine = session.server.engine
    for query in queries:
        tick = time.perf_counter()
        result = session.query(*query.as_args())
        trace.seconds.append(time.perf_counter() - tick)
        trace.result_counts.append(len(result.values))
        trace.client_seconds.append(result.decrypt_seconds)
        trace.false_positive_rates.append(result.false_positive_rate)
        _harvest_stats(server_engine, trace)
    return trace


def run_client_sequence(
    session: OutsourcedDatabase, queries: Sequence[RangeQuery]
) -> QueryTrace:
    """Replay a workload, opening every returned row (Figure 13).

    Each query is one round trip through the session's protocol handle;
    its reply is opened whole by the key and its real rows mapped to
    logical ids, and that decrypt-and-filter is what ``client_seconds``
    times.  The paper's client is shipped and decrypts every row, while
    a session's client is shipped a row once and answers it from memory
    after that (:class:`~repro.core.client.OpenedRows`) — so this loop
    sends its queries with no session token, which gets every row
    whole, and calls :meth:`~repro.crypto.scheme.Encryptor.open_block`
    itself rather than :meth:`~repro.core.session.OutsourcedDatabase.query`.
    """
    trace = QueryTrace()
    client = session.client
    server_engine = session.server.engine
    for query in queries:
        tick = time.perf_counter()
        message = client.make_query(*query.as_args())
        response = session.remote.query(replace(message, token=0))
        received = time.perf_counter()
        is_real, values = client.encryptor.open_block(response.rows)
        client.logical_id(np.asarray(response.row_ids, dtype=np.int64)[is_real])
        done = time.perf_counter()
        trace.seconds.append(done - tick)
        trace.result_counts.append(len(values))
        trace.client_seconds.append(done - received)
        trace.false_positive_rates.append(
            1 - len(values) / len(is_real) if len(is_real) else 0.0
        )
        _harvest_stats(server_engine, trace)
    return trace


def _harvest_stats(engine, trace: QueryTrace) -> None:
    """Fold the entry the query just logged into the trace (engines log
    one per query and trim their log, so offsets into it do not last;
    an engine without a log counts as zeros)."""
    log = getattr(engine, "stats_log", None)
    stats = log[-1] if log else QueryStats()
    trace.crack_seconds.append(stats.crack_seconds)
    trace.search_seconds.append(stats.search_seconds)
    trace.insert_seconds.append(stats.insert_seconds)
    trace.scan_seconds.append(stats.scan_seconds)
    trace.products.append(
        stats.kernel_fast_products + stats.kernel_exact_products
    )
    trace.cracked_rows.append(stats.cracked_rows)


def build_plain_engine(values, kind: str = "adaptive", **kwargs):
    """Construct a plaintext engine by kind.

    Kinds: ``adaptive`` (cracking), ``stochastic`` (random pivots),
    ``sort_touch`` (hybrid crack-sort), ``merging`` (adaptive merging),
    ``scan``, ``sort``.
    """
    from repro.cracking.adaptive_merging import AdaptiveMergingIndex
    from repro.cracking.sort_touch import SortTouchAdaptiveIndex

    builders = {
        "adaptive": AdaptiveIndex,
        "stochastic": StochasticAdaptiveIndex,
        "sort_touch": SortTouchAdaptiveIndex,
        "merging": AdaptiveMergingIndex,
        "scan": FullScanIndex,
        "sort": FullSortIndex,
    }
    try:
        return builders[kind](values, **kwargs)
    except KeyError:
        raise ValueError("unknown plain engine kind %r" % kind) from None


def build_session(
    values,
    data_kind: str,
    seed: int = 0,
    **kwargs,
) -> OutsourcedDatabase:
    """Construct the session for one of the paper's data types.

    ``data_kind``: ``"encrypted"`` (secure cracking), ``"ambiguous"``
    (secure cracking + the Section 4.2 layer), or ``"securescan"``
    (no indexing).  Plain engines are built by
    :func:`build_plain_engine` instead — they need no session.

    Returns the session with :attr:`QueryTrace.build_seconds`-style
    setup time attached as ``session.build_seconds``.
    """
    options = dict(kwargs)
    if data_kind == "encrypted":
        options.update(ambiguity=False, engine="adaptive")
    elif data_kind == "ambiguous":
        options.update(ambiguity=True, engine="adaptive")
    elif data_kind == "securescan":
        options.update(ambiguity=False, engine="scan")
    else:
        raise ValueError("unknown data kind %r" % data_kind)
    tick = time.perf_counter()
    session = OutsourcedDatabase(values, seed=seed, **options)
    session.build_seconds = time.perf_counter() - tick
    return session
