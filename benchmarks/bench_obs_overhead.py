"""Overhead budget for the observability layer (``repro.obs``).

The instrumentation lives permanently in every hot path — piece lookup,
cracking, edge scans, the kernel — so its cost has to be bounded:

* **disabled tracing** must be unmeasurable: a span request on a
  disabled tracer is one attribute check plus returning a shared
  singleton, measured here as nanoseconds per call;
* **enabled tracing** must add less than ~5% to the Figure 9 encrypted
  query loop (random 1%-selectivity ranges against
  :class:`SecureAdaptiveIndex` through a full
  :class:`~repro.core.session.OutsourcedDatabase` session);
* **distributed-trace propagation** (the wire ``trace`` field plus the
  server adopting remote parents) must stay inside the same budget on
  a real TCP query loop, and must be a no-op when disabled — the
  field is then never built, so the untraced loop *is* the baseline.

Emits ``BENCH_obs_overhead.json`` plus the observability artifacts the
run produced (``obs_overhead.metrics.json`` / ``.trace.jsonl``) beside
it — the files CI uploads.

Run standalone (``python benchmarks/bench_obs_overhead.py [--smoke]
[--output PATH]``, ``REPRO_BENCH_FAST=1`` also selects smoke scale) or
through pytest (``pytest benchmarks/bench_obs_overhead.py``, which
writes under the test's temporary directory).  Only a full-mode run
writes the checked-in files under ``benchmarks/results/`` by default; a
smoke run writes only where ``--output`` says.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro.bench.reporting import RESULTS_DIR, save_obs_artifacts
from repro.core.session import OutsourcedDatabase
from repro.obs import NULL_SPAN, Observability, Tracer
from repro.workloads.generators import random_workload

SMOKE = os.environ.get("REPRO_BENCH_FAST") == "1"

#: Relative overhead budget for *enabled* tracing on the query loop.
ENABLED_BUDGET = 0.05
#: Absolute budget for one disabled span request, in nanoseconds.  A
#: Python attribute check plus a return runs in tens of nanoseconds;
#: anything near a microsecond would mean the no-op path allocates.
DISABLED_BUDGET_NS = 1_500.0


def bench_disabled_span(calls: int, repeats: int) -> dict:
    """Nanoseconds per ``span()`` request on a disabled tracer.

    The disabled path cannot be compared against "no instrumentation at
    all" inside the query loop (the calls are in the code either way),
    so it is measured directly: ``calls`` requests, best of
    ``repeats``, minus the cost of an equally long empty loop.
    """
    tracer = Tracer(enabled=False)
    indices = range(calls)

    def spin_empty():
        for _ in indices:
            pass

    def spin_spans():
        for _ in indices:
            with tracer.span("noop"):
                pass

    best_empty = min(_timed(spin_empty) for _ in range(repeats))
    best_spans = min(_timed(spin_spans) for _ in range(repeats))
    per_call_ns = max(0.0, (best_spans - best_empty) / calls * 1e9)
    sample = tracer.span("check")
    return {
        "calls": calls,
        "repeats": repeats,
        "empty_loop_seconds": best_empty,
        "span_loop_seconds": best_spans,
        "ns_per_disabled_span": per_call_ns,
        "returns_null_singleton": sample is NULL_SPAN,
        "spans_recorded": len(tracer.spans),
    }


def _timed(fn) -> float:
    tick = time.perf_counter()
    fn()
    return time.perf_counter() - tick


def _run_queries(db: OutsourcedDatabase, queries) -> float:
    tick = time.perf_counter()
    for query in queries:
        db.query(*query.as_args())
    return time.perf_counter() - tick


def bench_query_loop(size: int, query_count: int, repeats: int) -> tuple:
    """Fig 9 query loop, tracing disabled vs enabled (best of repeats).

    Each repeat builds a fresh session (cracking is a one-way side
    effect, so a warm index would make later repeats incomparable) and
    replays the same workload.  The reported overhead is the best
    *back-to-back pair* ratio: each off/on pair runs under the same
    moment's machine conditions, so a CPU burst that straddles only one
    side of the comparison cannot masquerade as tracer cost (the spans
    themselves account for ~2% of the loop; everything above that is
    scheduler noise).  Returns the result dict plus the traced bundle
    of the best enabled run for artifact export.
    """
    values = [int(v) for v in np.random.default_rng(17).permutation(size)]
    queries = random_workload(query_count, (0, size), selectivity=0.01, seed=19)

    def run(tracing: bool):
        obs = Observability(tracing=tracing)
        db = OutsourcedDatabase(
            values, seed=23, min_piece_size=8, obs=obs
        )
        return _run_queries(db, queries), obs

    baseline = float("inf")
    traced = float("inf")
    overhead = float("inf")
    traced_obs = None
    for _ in range(repeats):
        off_seconds, _ = run(tracing=False)
        baseline = min(baseline, off_seconds)
        on_seconds, obs = run(tracing=True)
        if on_seconds < traced:
            traced = on_seconds
            traced_obs = obs
        if off_seconds:
            overhead = min(overhead, on_seconds / off_seconds - 1.0)
    if overhead == float("inf"):
        overhead = 0.0
    return {
        "size": size,
        "queries": query_count,
        "repeats": repeats,
        "tracing_off_seconds": baseline,
        "tracing_on_seconds": traced,
        "relative_overhead": overhead,
        "spans_per_run": len(traced_obs.tracer.spans),
    }, traced_obs


def bench_tcp_propagation(size: int, query_count: int,
                          repeats: int) -> dict:
    """Query loop over a real TCP endpoint, trace propagation off vs on.

    "On" enables tracing on *both* ends, so every frame carries the
    ``trace`` field and the server's ``rpc-serve`` spans adopt remote
    parents — the full distributed-tracing cost, sockets included.
    "Off" is the default untraced session (the field is never built,
    never sent).  Fresh endpoint + session per repeat, and the same
    best-pair overhead estimator, as :func:`bench_query_loop` — socket
    timing jitters even more than the in-process loop.
    """
    import threading

    from repro.net import ColumnCatalog, TcpTransport, serve

    values = [int(v) for v in np.random.default_rng(29).permutation(size)]
    queries = random_workload(query_count, (0, size), selectivity=0.01,
                              seed=31)

    def run(tracing: bool):
        server_obs = Observability(tracing=tracing)
        endpoint = serve(catalog=ColumnCatalog(obs=server_obs))
        thread = threading.Thread(target=endpoint.serve_forever,
                                  daemon=True)
        thread.start()
        host, port = endpoint.server_address
        try:
            client_obs = Observability(tracing=tracing)
            with TcpTransport(host, port) as transport:
                db = OutsourcedDatabase(
                    values, seed=23, min_piece_size=8,
                    obs=client_obs, transport=transport,
                )
                seconds = _run_queries(db, queries)
        finally:
            endpoint.stop()
            thread.join(timeout=5)
        return seconds, server_obs

    baseline = float("inf")
    traced = float("inf")
    overhead = float("inf")
    adopted = 0
    for _ in range(repeats):
        off_seconds, _ = run(tracing=False)
        baseline = min(baseline, off_seconds)
        on_seconds, server_obs = run(tracing=True)
        traced = min(traced, on_seconds)
        if off_seconds:
            overhead = min(overhead, on_seconds / off_seconds - 1.0)
        adopted = sum(
            1 for span in server_obs.tracer.spans
            if span.name == "rpc-serve" and span.parent_id is not None
        )
    if overhead == float("inf"):
        overhead = 0.0
    return {
        "size": size,
        "queries": query_count,
        "repeats": repeats,
        "propagation_off_seconds": baseline,
        "propagation_on_seconds": traced,
        "relative_overhead": overhead,
        "adopted_rpc_serve_spans": adopted,
    }


def main(smoke: bool = SMOKE, output: str = None) -> dict:
    if smoke:
        disabled = bench_disabled_span(calls=200_000, repeats=3)
        # The shared machines jitter enough that best-of-3 does not
        # converge; five repeats keeps the smoke gate stable.
        loop, traced_obs = bench_query_loop(size=2_000, query_count=40,
                                            repeats=5)
        # Below ~80 queries socket jitter dominates the measurement, so
        # the smoke scale stays large enough to keep the gate meaningful.
        tcp = bench_tcp_propagation(size=3_000, query_count=80, repeats=5)
    else:
        disabled = bench_disabled_span(calls=1_000_000, repeats=5)
        loop, traced_obs = bench_query_loop(size=8_000, query_count=150,
                                            repeats=5)
        tcp = bench_tcp_propagation(size=4_000, query_count=80, repeats=3)
    report = {
        "benchmark": "obs_overhead",
        "mode": "smoke" if smoke else "full",
        "enabled_budget": ENABLED_BUDGET,
        "disabled_budget_ns": DISABLED_BUDGET_NS,
        "disabled_span": disabled,
        "fig9_query_loop": loop,
        "tcp_propagation": tcp,
    }
    if output is None and not smoke:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        output = os.path.join(RESULTS_DIR, "BENCH_obs_overhead.json")
    artifacts = []
    if output is not None:
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2)
        artifacts = [output] + save_obs_artifacts(
            "obs_overhead", traced_obs,
            directory=os.path.dirname(os.path.abspath(output)),
        )
    print(
        "disabled span: %.0f ns/call (budget %.0f), singleton=%s, recorded=%d"
        % (
            disabled["ns_per_disabled_span"],
            DISABLED_BUDGET_NS,
            disabled["returns_null_singleton"],
            disabled["spans_recorded"],
        )
    )
    print(
        "fig9 loop (%d rows, %d queries): off %.3fs  on %.3fs  overhead %+.2f%%"
        " (budget %.0f%%, %d spans/run)"
        % (
            loop["size"],
            loop["queries"],
            loop["tracing_off_seconds"],
            loop["tracing_on_seconds"],
            100 * loop["relative_overhead"],
            100 * ENABLED_BUDGET,
            loop["spans_per_run"],
        )
    )
    print(
        "tcp propagation (%d rows, %d queries): off %.3fs  on %.3fs  "
        "overhead %+.2f%% (%d adopted rpc-serve spans)"
        % (
            tcp["size"],
            tcp["queries"],
            tcp["propagation_off_seconds"],
            tcp["propagation_on_seconds"],
            100 * tcp["relative_overhead"],
            tcp["adopted_rpc_serve_spans"],
        )
    )
    for path in artifacts:
        print("wrote %s" % path)
    return report


def test_obs_overhead(tmp_path):
    """Pytest entry point: the observability layer stays within budget."""
    report = main(smoke=SMOKE, output=str(tmp_path / "BENCH_obs_overhead.json"))
    disabled = report["disabled_span"]
    assert disabled["returns_null_singleton"]
    assert disabled["spans_recorded"] == 0
    assert disabled["ns_per_disabled_span"] < DISABLED_BUDGET_NS
    loop = report["fig9_query_loop"]
    assert loop["spans_per_run"] > 0
    # Best-of-repeats timing still jitters on shared CI machines; allow
    # slack above the documented budget before calling it a regression.
    assert loop["relative_overhead"] < 3 * ENABLED_BUDGET
    tcp = report["tcp_propagation"]
    # Propagation really happened: the server adopted remote parents.
    assert tcp["adopted_rpc_serve_spans"] > 0
    # Socket timing jitters more than the in-process loop; same slack.
    assert tcp["relative_overhead"] < 3 * ENABLED_BUDGET


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--output", help="report path (default: the "
                        "checked-in file in full mode, none with --smoke)")
    args = parser.parse_args()
    main(smoke=SMOKE or args.smoke, output=args.output)
