"""Command-line interface: ``python -m repro <command>``.

Seven subcommands cover the common operator flows:

* ``demo``   — a self-contained end-to-end demonstration (synthetic
  data, a query burst, adaptation statistics).
* ``query``  — outsource a numeric column from a file and run range /
  point queries against it (``--stats`` adds protocol and kernel
  totals).
* ``stats``  — run a workload and print the full metrics snapshot
  (counters, gauges, histogram summaries; ``--json`` for machines).
  With ``--connect`` and no FILE it instead fetches the *live*
  telemetry of a running endpoint over the ``telemetry_request``
  envelope — the same counters the server would render locally.
* ``trace``  — run a workload with span tracing enabled and write the
  JSONL trace (plus a per-span-name summary on stdout).  ``--merge``
  stitches client and server JSONL dumps into one distributed span
  tree instead of running a workload.
* ``top``    — a refreshing live monitor over a serving endpoint's
  telemetry (requests, queue depth, slow queries).
* ``serve``  — host a column catalog on a TCP port; remote clients
  upload and query columns through the wire protocol.  ``--wal DIR``
  makes it durable (recover on start, journal every mutation,
  checkpoint on shutdown); ``--trace FILE`` dumps the server-side span
  JSONL on shutdown (SIGTERM included).
* ``keygen`` — generate a secret key and print its JSON serialization
  (for sharing between trusted clients out of band).

The workload commands (``query`` / ``stats`` / ``trace``)
default to an in-process server; ``--connect HOST:PORT`` points them
at a running ``repro serve`` endpoint instead — same protocol, same
results, real sockets.

The CLI is a thin shell over the library; every command prints plain
text and returns a process exit code, so it is scriptable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Sequence

import numpy as np

from repro import OutsourcedDatabase, __version__
from repro.crypto import generate_key
from repro.crypto.serialization import dumps
from repro.errors import ReproError
from repro.workloads.datasets import unique_uniform


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive indexing over encrypted numeric data "
        "(SIGMOD 2016 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version="repro %s" % __version__
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="run an end-to-end demo")
    demo.add_argument("--rows", type=int, default=10000)
    demo.add_argument("--queries", type=int, default=50)
    demo.add_argument("--ambiguity", action="store_true")
    demo.add_argument("--seed", type=int, default=0)

    query = commands.add_parser(
        "query", help="outsource a column file and run queries"
    )
    _add_workload_args(query)
    query.add_argument(
        "--stats", action="store_true",
        help="print protocol and kernel totals after the queries",
    )

    stats = commands.add_parser(
        "stats", help="run a workload and print the metrics snapshot "
        "(no FILE + --connect: fetch a live endpoint's telemetry)"
    )
    _add_workload_args(stats, optional_file=True)
    stats.add_argument("--json", action="store_true",
                       help="emit the snapshot as JSON")

    trace = commands.add_parser(
        "trace", help="run a workload with tracing and dump JSONL spans"
    )
    _add_workload_args(trace, optional_file=True)
    trace.add_argument("--output", default="trace.jsonl",
                       help="JSONL file to write spans to")
    trace.add_argument(
        "--merge", nargs="+", metavar="TRACE.jsonl", default=None,
        help="merge span dumps (e.g. client + server) into one "
             "distributed tree written to --output; no workload is run",
    )

    top = commands.add_parser(
        "top", help="refreshing live telemetry monitor for an endpoint"
    )
    top.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the running `repro serve` endpoint to monitor",
    )
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes (default 2)")
    top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="exit after N refreshes (default 0 = run until ctrl-c)",
    )

    serve = commands.add_parser(
        "serve", help="host a column catalog endpoint over TCP"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9045)
    serve.add_argument(
        "--workers", type=int, default=8,
        help="dispatch slots (the bound on concurrent engine work; "
             "default 8)",
    )
    serve.add_argument(
        "--max-connections", type=int, default=128,
        help="accepted connections beyond this are refused (default 128)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=None,
        help="frames that may wait for a dispatch slot before `busy` "
             "backpressure (default: 2x workers)",
    )
    serve.add_argument(
        "--trace", metavar="FILE", default=None,
        help="enable server-side span tracing; the JSONL dump is "
             "written to FILE on shutdown (merge it with a client dump "
             "via `repro trace --merge`)",
    )
    serve.add_argument(
        "--slow-query-threshold", type=float, default=0.25, metavar="SECONDS",
        help="dispatches at least this slow land in the telemetry "
             "slow-query ring (default 0.25)",
    )
    serve.add_argument(
        "--slow-query-capacity", type=int, default=64, metavar="N",
        help="slow-query ring size (default 64)",
    )
    serve.add_argument(
        "--wal", metavar="DIR", default=None,
        help="durable data directory: recover state from its snapshot "
             "plus WAL on start, then journal every mutation to it "
             "(default: in-memory only)",
    )
    serve.add_argument(
        "--fsync", choices=("always", "batch", "never"), default="always",
        help="WAL durability: fsync every append (always, default), "
             "every Nth append (batch), or never (OS decides)",
    )
    serve.add_argument(
        "--wal-segment-bytes", type=int, default=None, metavar="BYTES",
        help="rotate WAL segment files at this size (default 4 MiB)",
    )
    serve.add_argument(
        "--checkpoint-segments", type=int, default=4, metavar="N",
        help="snapshot-then-truncate the WAL once it exceeds N segment "
             "files (0 disables auto-checkpointing; default 4)",
    )

    keygen = commands.add_parser("keygen", help="generate a secret key")
    keygen.add_argument("--length", type=int, default=4)
    keygen.add_argument("--seed", type=int, default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        handler = {
            "demo": _run_demo,
            "query": _run_query,
            "stats": _run_stats,
            "trace": _run_trace,
            "top": _run_top,
            "serve": _run_serve,
            "keygen": _run_keygen,
        }[args.command]
        return handler(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


# -- commands -------------------------------------------------------------------


def _run_demo(args) -> int:
    values = unique_uniform(args.rows, seed=args.seed)
    print("encrypting %d values%s..." % (
        args.rows, " with ambiguity" if args.ambiguity else ""))
    tick = time.perf_counter()
    db = OutsourcedDatabase(values, ambiguity=args.ambiguity, seed=args.seed)
    print("  upload ready in %.2fs" % (time.perf_counter() - tick))
    rng = np.random.default_rng(args.seed)
    span = max(1, 2 ** 31 // 100)
    seconds: List[float] = []
    for _ in range(args.queries):
        low = int(rng.integers(0, 2 ** 31 - span))
        tick = time.perf_counter()
        db.query(low, low + span)
        seconds.append(time.perf_counter() - tick)
    print("ran %d random 1%%-selectivity queries" % args.queries)
    print("  first query : %.4fs" % seconds[0])
    print("  last query  : %.4fs" % seconds[-1])
    print("  total       : %.3fs" % sum(seconds))
    print("  crack bounds in the encrypted AVL tree: %d"
          % len(db.server.engine.tree))
    if args.ambiguity:
        rates = [r.false_positive_rate for r in db.client_stats if
                 r.returned_rows]
        if rates:
            print("  counterfeit false-positive rate: %.0f%%"
                  % (100 * float(np.mean(rates))))
    return 0


def _add_workload_args(parser, optional_file: bool = False) -> None:
    """The shared column-file-plus-queries arguments."""
    if optional_file:
        parser.add_argument(
            "file", nargs="?", default=None,
            help="text file, one integer per line (optional for the "
                 "command's non-workload modes)",
        )
    else:
        parser.add_argument("file", help="text file, one integer per line")
    parser.add_argument(
        "--range", nargs=2, type=int, action="append", metavar=("LOW", "HIGH"),
        dest="ranges", default=[], help="range query (repeatable)",
    )
    parser.add_argument(
        "--point", type=int, action="append", dest="points", default=[],
        help="equality query (repeatable)",
    )
    parser.add_argument(
        "--workload", help="replay a JSON workload trace file"
    )
    parser.add_argument("--ambiguity", action="store_true")
    parser.add_argument("--engine", choices=("adaptive", "scan"),
                       default="adaptive")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--connect", metavar="HOST:PORT",
        help="speak to a running `repro serve` endpoint instead of an "
             "in-process server",
    )
    parser.add_argument(
        "--column", default="values",
        help="column name at the endpoint (sessions sharing a server "
             "must pick distinct names)",
    )
    parser.add_argument(
        "--batch", type=int, default=1, metavar="N",
        help="pipeline trace queries N at a time in one batched round "
             "trip each (--workload only; default 1 = unbatched)",
    )


def _parse_address(address: str, flag: str):
    host, __, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError("%s must be HOST:PORT: %r" % (flag, address))
    return host, int(port)


def _make_transport(args):
    """A TCP transport for ``--connect``, or None for loopback."""
    address = getattr(args, "connect", None)
    if not address:
        return None
    from repro.net.transport import TcpTransport

    return TcpTransport(*_parse_address(address, "--connect"))


def _build_db(args, obs=None) -> OutsourcedDatabase:
    values = _read_column(args.file)
    transport = _make_transport(args)
    db = OutsourcedDatabase(
        values, ambiguity=args.ambiguity, engine=args.engine, seed=args.seed,
        obs=obs, transport=transport,
        column=getattr(args, "column", "values"),
    )
    where = " to %s" % args.connect if getattr(args, "connect", None) else ""
    print("outsourced %d values from %s%s" % (len(values), args.file, where))
    return db


def _execute_workload(db: OutsourcedDatabase, args, verbose: bool = True) -> int:
    """Run the requested queries; returns how many were executed."""
    executed = 0
    for low, high in args.ranges:
        result = db.query(low, high)
        executed += 1
        if verbose:
            print("range [%d, %d]: %d rows -> %s"
                  % (low, high, len(result.values),
                     _preview(np.sort(result.values))))
    for point in args.points:
        result = db.query_point(point)
        executed += 1
        if verbose:
            print("point %d: %d rows" % (point, len(result.values)))
    if args.workload:
        from repro.workloads.trace import load_workload

        queries = load_workload(args.workload)
        batch = max(1, int(getattr(args, "batch", 1) or 1))
        tick = time.perf_counter()
        total_rows = 0
        if batch > 1:
            for start in range(0, len(queries), batch):
                chunk = queries[start:start + batch]
                for result in db.query_many([q.as_args() for q in chunk]):
                    total_rows += len(result.values)
        else:
            for trace_query in queries:
                total_rows += len(db.query(*trace_query.as_args()).values)
        executed += len(queries)
        batched = " in batches of %d" % batch if batch > 1 else ""
        print(
            "replayed %d-query trace%s in %.3fs (%d rows returned)"
            % (len(queries), batched, time.perf_counter() - tick, total_rows)
        )
    if not executed:
        print("no queries given; use --range LOW HIGH, --point VALUE, "
              "or --workload TRACE.json")
    return executed


def _run_query(args) -> int:
    db = _build_db(args)
    _execute_workload(db, args)
    if args.stats:
        metrics = db.obs.metrics
        print("protocol: %d round trips, %d bytes sent, %d bytes received"
              % (db.round_trips, db.bytes_sent, db.bytes_received))
        print("kernel:   %d fast products, %d exact products"
              % (metrics.counter_value("kernel.fast_products"),
                 metrics.counter_value("kernel.exact_products")))
    return 0


def _run_stats(args) -> int:
    if args.file is None:
        if not getattr(args, "connect", None):
            raise ReproError(
                "stats needs a column FILE to run a workload, or "
                "--connect HOST:PORT for a live endpoint snapshot"
            )
        sections = _fetch_telemetry(args)
        if args.json:
            print(json.dumps(sections, indent=2, sort_keys=True))
        else:
            print(_render_telemetry(sections))
        return 0
    db = _build_db(args)
    _execute_workload(db, args, verbose=False)
    if args.json:
        print(json.dumps(db.obs.snapshot(), indent=2, sort_keys=True))
    else:
        print(db.obs.metrics.render())
    return 0


def _fetch_telemetry(args, sections=None):
    """One ``telemetry_request`` round trip against ``--connect``."""
    from repro.net import RemoteColumn

    transport = _make_transport(args)
    remote = RemoteColumn(transport, "telemetry")
    try:
        return remote.telemetry(sections)
    finally:
        remote.close()


def _render_telemetry(sections) -> str:
    """Human-readable endpoint telemetry (metrics part identical to a
    server-local ``MetricsRegistry.render()``)."""
    from repro.obs.metrics import render_snapshot

    lines: List[str] = []
    metrics = sections.get("metrics")
    if isinstance(metrics, dict):
        lines.append(render_snapshot(metrics))
    pool = sections.get("pool")
    if isinstance(pool, dict):
        lines.append(
            "pool: %s workers, queue %s/%s, connections %s/%s%s"
            % (pool.get("workers"), pool.get("queue_depth"),
               pool.get("queue_size"), pool.get("active_connections"),
               pool.get("max_connections"),
               " (draining)" if pool.get("draining") else "")
        )
    tracer = sections.get("tracer")
    if isinstance(tracer, dict):
        lines.append(
            "tracer: %s, %s spans recorded"
            % ("enabled" if tracer.get("enabled") else "disabled",
               tracer.get("spans", 0))
        )
    catalog = sections.get("catalog")
    if isinstance(catalog, dict):
        lines.append(
            "catalog: %d columns" % len(catalog.get("columns") or [])
        )
    wal = sections.get("wal")
    if isinstance(wal, dict):
        lines.append(
            "wal: seq %s, %s segments, %s bytes (fsync %s)"
            % (wal.get("seq", 0), wal.get("segments", 0),
               wal.get("bytes", 0), wal.get("fsync", "?"))
        )
    slow = sections.get("slow_queries")
    if isinstance(slow, dict):
        entries = slow.get("entries") or []
        lines.append(
            "slow queries (>= %ss): %s recorded, showing %d"
            % (slow.get("threshold_seconds"), slow.get("recorded", 0),
               min(len(entries), 5))
        )
        for entry in entries[-5:]:
            lines.append(
                "  %.4fs  %-16s %s"
                % (entry.get("seconds", 0.0), entry.get("kind", "?"),
                   entry.get("column", ""))
            )
    return "\n".join(lines) if lines else "(no telemetry sections)"


def _run_trace(args) -> int:
    if args.merge:
        return _run_trace_merge(args)
    if args.file is None:
        raise ReproError(
            "trace needs a column FILE to run a workload "
            "(or --merge TRACE.jsonl ... to merge existing dumps)"
        )
    from repro.obs import Observability

    obs = Observability(tracing=True)
    db = _build_db(args, obs=obs)
    _execute_workload(db, args, verbose=False)
    obs.tracer.dump_jsonl(args.output)
    print("wrote %d spans to %s" % (len(obs.tracer.spans), args.output))
    for name, entry in sorted(obs.tracer.summary().items()):
        print("  %-16s %5d spans  %.6fs" % (name, entry["count"],
                                            entry["seconds"]))
    return 0


def _run_trace_merge(args) -> int:
    """Stitch client/server span dumps into one distributed tree."""
    from repro.obs import load_trace_jsonl, merge_traces

    dumps_in = [load_trace_jsonl(path) for path in args.merge]
    merged = merge_traces(*dumps_in)
    with open(args.output, "w") as handle:
        for record in merged:
            handle.write(json.dumps(record) + "\n")
    roots = sum(1 for record in merged if record.get("tree_depth") == 0)
    print(
        "merged %d spans from %d dumps into %s (%d roots)"
        % (len(merged), len(args.merge), args.output, roots)
    )
    limit = 200
    for record in merged[:limit]:
        duration = record.get("duration")
        timing = (
            " %.6fs" % duration if isinstance(duration, (int, float)) else ""
        )
        detail = "".join(
            " %s=%s" % (key, record[key])
            for key in ("kind", "column") if record.get(key) is not None
        )
        print("  %s%s%s%s" % ("  " * int(record.get("tree_depth", 0)),
                              record.get("name", "?"), timing, detail))
    if len(merged) > limit:
        print("  ... (%d more spans in %s)" % (len(merged) - limit,
                                               args.output))
    return 0


def _run_top(args) -> int:
    """Refreshing live monitor over an endpoint's telemetry."""
    from repro.net import RemoteColumn

    transport = _make_transport(args)
    remote = RemoteColumn(transport, "telemetry")
    refreshes = 0
    try:
        while True:
            sections = remote.telemetry()
            if sys.stdout.isatty():  # pragma: no cover - interactive only
                print("\x1b[2J\x1b[H", end="")
            print("repro top — %s — refresh %d"
                  % (args.connect, refreshes + 1))
            print(_render_telemetry(sections))
            sys.stdout.flush()
            refreshes += 1
            if args.iterations and refreshes >= args.iterations:
                return 0
            time.sleep(max(0.05, args.interval))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
    finally:
        remote.close()


def _run_serve(args) -> int:
    import signal

    from repro.net import ColumnCatalog, serve as bind_endpoint
    from repro.obs import Observability

    obs = Observability(tracing=bool(args.trace))
    catalog_kwargs = dict(
        obs=obs,
        slow_query_threshold=args.slow_query_threshold,
        slow_query_capacity=args.slow_query_capacity,
    )
    wal_writer = None
    if args.wal:
        from repro.core.persistence import (
            checkpoint_catalog,
            recover_catalog,
        )
        from repro.core.wal import DEFAULT_SEGMENT_BYTES, WalWriter

        catalog, recovery = recover_catalog(args.wal, **catalog_kwargs)
        wal_writer = WalWriter(
            args.wal,
            segment_bytes=args.wal_segment_bytes or DEFAULT_SEGMENT_BYTES,
            fsync=args.fsync,
        )
        catalog.bind_wal(
            wal_writer,
            checkpoint=lambda: checkpoint_catalog(
                catalog, args.wal, wal_writer
            ),
            checkpoint_segments=args.checkpoint_segments,
        )
        print(
            "recovered %d columns from %s (%s, replayed %d WAL entries "
            "after seq %d)"
            % (len(catalog), args.wal,
               "snapshot" if recovery["snapshot"] else "no snapshot",
               recovery["replayed"], recovery["wal_seq"]),
            flush=True,
        )
    else:
        catalog = ColumnCatalog(**catalog_kwargs)

    endpoint = bind_endpoint(
        catalog=catalog,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_connections=args.max_connections,
        queue_size=args.queue_size,
    )
    host, port = endpoint.server_address
    print(
        "serving column catalog on %s:%d "
        "(%d workers, %d max connections; ctrl-c to stop)"
        % (host, port, endpoint.workers, endpoint.max_connections),
        flush=True,
    )

    # SIGTERM lands here as a KeyboardInterrupt so the finally block
    # below runs: the trace dump and the final checkpoint must survive
    # `kill PID` exactly like ctrl-c, not just a clean return.
    def _terminate(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    previous_sigterm = signal.signal(signal.SIGTERM, _terminate)
    try:
        endpoint.serve_forever()
    except KeyboardInterrupt:
        print("stopping")
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
        endpoint.stop()
        if wal_writer is not None:
            from repro.core.persistence import checkpoint_catalog

            try:
                seq = checkpoint_catalog(catalog, args.wal, wal_writer)
                print("checkpointed %s at seq %d" % (args.wal, seq),
                      flush=True)
            except ReproError as exc:
                print("final checkpoint failed: %s" % exc, file=sys.stderr)
            wal_writer.close()
        if args.trace:
            obs.tracer.dump_jsonl(args.trace)
            print("wrote %d server spans to %s"
                  % (len(obs.tracer.spans), args.trace), flush=True)
    return 0


def _run_keygen(args) -> int:
    key = generate_key(length=args.length, seed=args.seed)
    print(dumps(key))
    return 0


# -- input helpers -----------------------------------------------------------------


def _read_column(path: str) -> List[int]:
    """One integer per line; blank lines and '#' comments skipped."""
    values: List[int] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values.append(int(text))
            except ValueError:
                raise ReproError(
                    "%s:%d: not an integer: %r" % (path, line_number, text)
                ) from None
    if not values:
        raise ReproError("%s contains no values" % path)
    return values


def _preview(values: np.ndarray, limit: int = 8) -> str:
    shown = ", ".join(str(int(v)) for v in values[:limit])
    if len(values) > limit:
        shown += ", ..."
    return "[%s]" % shown


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
