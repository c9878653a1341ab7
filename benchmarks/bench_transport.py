"""Transport-seam cost: transports and batching for the Fig 9 query loop.

The refactored client/server seam encodes every message to a frame even
in-process, so the protocol itself has a measurable price.  This
benchmark runs the same random-range workload through the transport
matrix — loopback vs TCP, sequential vs pipelined batches — against the
same data and reports:

* per-query latency (mean over the loop, after the upload);
* exact workload bytes in both directions — identical across
  *transports* (frames are deterministic, asserted here);
* the loopback-vs-TCP latency gap, and the speedup from shipping the
  workload in pipelined ``batch_request`` frames over TCP;
* a durability matrix — acked-insert throughput per WAL fsync policy
  (off/never/batch/always).

Run standalone (``python benchmarks/bench_transport.py [--smoke]
[--output PATH]``, ``REPRO_BENCH_FAST=1`` also selects smoke scale) or
through pytest (``pytest benchmarks/bench_transport.py``, which writes
its report under the test's temporary directory).  Only a full-mode run
writes the checked-in ``benchmarks/results/BENCH_transport.json`` by
default; a smoke run writes only where ``--output`` says.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import tempfile

import numpy as np

from repro.bench.reporting import RESULTS_DIR
from repro.core.session import OutsourcedDatabase
from repro.core.wal import WalWriter
from repro.net import (
    ColumnCatalog,
    LoopbackTransport,
    TcpTransport,
    serve,
)
from repro.workloads.generators import random_workload

SMOKE = os.environ.get("REPRO_BENCH_FAST") == "1"

#: Sub-requests per ``batch_request`` frame in the batched runs.
BATCH_SIZE = 16

#: Concurrent-connection counts for the server-front matrix.
CONNECTION_MATRIX = (1, 4, 16)


def run_transport(
    values,
    queries,
    transport=None,
    column="values",
    batch=1,
) -> dict:
    """One full workload over one transport; returns timing + bytes."""
    tick = time.perf_counter()
    db = OutsourcedDatabase(
        values, seed=29, min_piece_size=8, transport=transport,
        column=column,
    )
    upload_seconds = time.perf_counter() - tick
    row_ids = []
    tick = time.perf_counter()
    if batch > 1:
        for start in range(0, len(queries), batch):
            chunk = queries[start:start + batch]
            for result in db.query_many([q.as_args() for q in chunk]):
                row_ids.append(sorted(int(i) for i in result.logical_ids))
    else:
        for query in queries:
            result = db.query(*query.as_args())
            row_ids.append(sorted(int(i) for i in result.logical_ids))
    query_seconds = time.perf_counter() - tick
    return {
        "batch": batch,
        "upload_seconds": upload_seconds,
        "query_seconds": query_seconds,
        "seconds_per_query": query_seconds / len(queries),
        "round_trips": db.round_trips,
        "bytes_sent": db.bytes_sent,
        "bytes_received": db.bytes_received,
        "row_ids": row_ids,
    }


def bench(size: int, query_count: int) -> dict:
    values = [int(v) for v in np.random.default_rng(31).permutation(size)]
    queries = random_workload(query_count, (0, size), selectivity=0.01, seed=37)

    runs = {"loopback": run_transport(values, queries)}

    endpoint = serve()
    thread = threading.Thread(target=endpoint.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = endpoint.server_address
        # Column names share the loopback name's byte length so frame
        # sizes stay comparable across runs (names must be unique at
        # the shared endpoint).
        tcp_matrix = (
            ("tcp", 1, "valuet"),
            ("tcp_batched", BATCH_SIZE, "valuep"),
        )
        for name, batch, column in tcp_matrix:
            with TcpTransport(host, port) as transport:
                runs[name] = run_transport(
                    values, queries, transport=transport,
                    column=column, batch=batch,
                )
    finally:
        endpoint.stop()
        thread.join(timeout=5)

    reference = runs["loopback"]["row_ids"]
    for name, entry in runs.items():
        assert entry["row_ids"] == reference, "%s disagrees" % name
    # Same batching => byte-identical traffic regardless of transport
    # (frames are deterministic).
    for direction in ("bytes_sent", "bytes_received"):
        assert runs["loopback"][direction] == runs["tcp"][direction]
    for entry in runs.values():
        del entry["row_ids"]
    return {
        "size": size,
        "queries": query_count,
        "batch_size": BATCH_SIZE,
        **runs,
        "tcp_slowdown": _ratio(
            runs["tcp"]["seconds_per_query"],
            runs["loopback"]["seconds_per_query"],
        ),
        "batching_speedup": _ratio(
            runs["tcp"]["seconds_per_query"],
            runs["tcp_batched"]["seconds_per_query"],
        ),
    }


def _concurrent_rps(server, connections: int, ops: int) -> float:
    """Aggregate requests/second for N connections hammering one front.

    Each connection gets its own transport, column, and thread; the
    timed section is a fetch loop (no index cracking, so the number is
    dominated by the server front, not the engine).
    """
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    values = [int(v) for v in np.random.default_rng(53).permutation(200)]
    transports, handles = [], []
    try:
        for index in range(connections):
            transport = TcpTransport(host, port)
            transports.append(transport)
            db = OutsourcedDatabase(
                values, seed=47, min_piece_size=8, transport=transport,
                column="cc-%d" % index,
            )
            handles.append(db._remote)
        barrier = threading.Barrier(connections + 1)
        errors = []

        def worker(handle):
            try:
                barrier.wait()
                for _ in range(ops):
                    handle.fetch((0, 1, 2, 3, 4, 5, 6, 7))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        workers = [
            threading.Thread(target=worker, args=(handle,), daemon=True)
            for handle in handles
        ]
        for w in workers:
            w.start()
        barrier.wait()
        tick = time.perf_counter()
        for w in workers:
            w.join()
        wall = time.perf_counter() - tick
        assert not errors, errors
        return connections * ops / wall
    finally:
        for transport in transports:
            transport.close()
        server.stop()
        thread.join(timeout=5)


def bench_concurrency(ops: int) -> dict:
    """Server-front matrix: requests/s at 1/4/16 concurrent
    connections, one dispatch slot per connection at the top of the
    matrix so every connection can have its frame in flight."""
    return {
        str(connections): _concurrent_rps(
            serve(workers=max(CONNECTION_MATRIX)), connections, ops
        )
        for connections in CONNECTION_MATRIX
    }


#: Fsync policies for the durability write matrix (None = no WAL).
FSYNC_MATRIX = (None, "never", "batch", "always")


def _durable_insert_rate(fsync, directory: str, ops: int) -> dict:
    """Acked-insert throughput under one WAL fsync policy.

    ``fsync=None`` runs without a WAL at all — the in-memory baseline
    every policy's overhead is measured against.
    """
    catalog = ColumnCatalog()
    writer = None
    if fsync is not None:
        writer = WalWriter(directory, fsync=fsync)
        catalog.bind_wal(writer)
    db = OutsourcedDatabase(
        list(range(64)), seed=41, min_piece_size=8,
        transport=LoopbackTransport(catalog), column="durable",
    )
    tick = time.perf_counter()
    for step in range(ops):
        db.insert(10_000 + step)
    wall = time.perf_counter() - tick
    metrics = catalog.obs.metrics
    out = {
        "fsync": fsync or "off",
        "inserts_per_second": _ratio(ops, wall),
        "wal_appends": metrics.counter_value("wal.appends"),
        "wal_bytes": metrics.counter_value("wal.bytes"),
        "wal_fsyncs": metrics.counter_value("wal.fsyncs"),
    }
    if writer is not None:
        writer.close()
    return out


def bench_durability(ops: int) -> dict:
    """Durability matrix: each WAL fsync policy priced against the
    no-WAL baseline."""
    out = {"ops": ops, "fsync": {}}
    for fsync in FSYNC_MATRIX:
        with tempfile.TemporaryDirectory() as directory:
            out["fsync"][fsync or "off"] = _durable_insert_rate(
                fsync, directory, ops
            )
    out["fsync_always_overhead"] = _ratio(
        out["fsync"]["off"]["inserts_per_second"],
        out["fsync"]["always"]["inserts_per_second"],
    )
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def main(smoke: bool = SMOKE, output: str = None) -> dict:
    if smoke:
        result = bench(size=2_000, query_count=32)
    else:
        result = bench(size=8_000, query_count=128)
    result["concurrency"] = bench_concurrency(ops=40 if smoke else 200)
    result["durability"] = bench_durability(ops=40 if smoke else 200)
    report = {
        "benchmark": "transport",
        "mode": "smoke" if smoke else "full",
        "cpus": os.cpu_count() or 1,
        **result,
    }
    if output is None and not smoke:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        output = os.path.join(RESULTS_DIR, "BENCH_transport.json")
    if output is not None:
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2)
    for name in ("loopback", "tcp", "tcp_batched"):
        entry = report[name]
        print(
            "%-19s upload %.3fs  %.2f ms/query  %d sent / %d received bytes"
            % (
                name,
                entry["upload_seconds"],
                1e3 * entry["seconds_per_query"],
                entry["bytes_sent"],
                entry["bytes_received"],
            )
        )
    print("tcp slowdown:     %.2fx" % report["tcp_slowdown"])
    print("batching speedup: %.2fx per query (TCP, batches of %d)"
          % (report["batching_speedup"], report["batch_size"]))
    print(
        "server front:     "
        + "  ".join(
            "%2d conns %7.0f req/s" % (c, report["concurrency"][str(c)])
            for c in CONNECTION_MATRIX
        )
    )
    durability = report["durability"]
    for policy in ("off", "never", "batch", "always"):
        entry = durability["fsync"][policy]
        print(
            "wal fsync=%-7s %7.0f inserts/s  %d appends  %d fsyncs"
            % (
                policy,
                entry["inserts_per_second"],
                entry["wal_appends"],
                entry["wal_fsyncs"],
            )
        )
    print("fsync=always overhead: %.2fx slower than no WAL"
          % durability["fsync_always_overhead"])
    if output is not None:
        print("wrote %s" % output)
    return report


def test_transport_bench(tmp_path):
    """Pytest entry point: the transport matrix agrees byte for byte,
    and batching cuts round trips by the batch factor."""
    report = main(smoke=True, output=str(tmp_path / "BENCH_transport.json"))
    assert report["loopback"]["round_trips"] == report["tcp"]["round_trips"]
    assert report["loopback"]["bytes_sent"] == report["tcp"]["bytes_sent"]
    assert report["tcp"]["seconds_per_query"] > 0
    # Batching collapses round trips; the latency speedup is recorded
    # (its exact value is machine-dependent).
    batched = report["tcp_batched"]
    assert batched["round_trips"] < report["tcp"]["round_trips"]
    assert report["batching_speedup"] > 0
    for connections in CONNECTION_MATRIX:
        assert report["concurrency"][str(connections)] > 0
    # Durability matrix: every fsync policy sustains acked inserts and
    # logs one WAL append per mutation; fsync=always actually fsyncs.
    durability = report["durability"]
    for policy in ("off", "never", "batch", "always"):
        assert durability["fsync"][policy]["inserts_per_second"] > 0
    assert durability["fsync"]["off"]["wal_appends"] == 0
    # create_column + N inserts, one record each.
    assert (
        durability["fsync"]["always"]["wal_appends"]
        == 1 + durability["ops"]
    )
    assert (
        durability["fsync"]["always"]["wal_fsyncs"]
        >= durability["fsync"]["always"]["wal_appends"]
    )
    assert durability["fsync"]["never"]["wal_fsyncs"] == 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--output", help="report path (default: the "
                        "checked-in file in full mode, none with --smoke)")
    args = parser.parse_args()
    sys.exit(0 if main(smoke=SMOKE or args.smoke, output=args.output) else 1)
