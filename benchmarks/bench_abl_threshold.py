"""Ablation: the piece-size cracking threshold (Section 2.2).

Paper claims: "queries only cause reorganization for data pieces
larger than a size threshold; that threshold can be bigger (e.g., L3
cache size) without a significant performance drop" — and the
threshold is what prevents the index from ever leaking the total
order.

Measured: growing the threshold shrinks the cracker index and caps the
resolved-order fraction, while total workload time stays within a
small factor of always-crack.

The encrypted table is the cost table an unset ``min_piece_size`` is
read from: a column whose products are proven in machine words (at
``crack_cold``'s shape: 0.01 % queries on a fresh column) and an
ambiguity column, exact arithmetic throughout (at ``ambiguity_range``'s
shape: 1 % queries), each at every threshold and unset.  Its
assertions are counts; its seconds are the machine's.
"""

import os

import numpy as np

from repro.analysis.leakage import resolved_order_fraction
from repro.bench.figures import DOMAIN, ablation_threshold
from repro.bench.harness import build_session, run_session_sequence
from repro.bench.reporting import format_table, save_report
from repro.cracking.index import WORD_SCAN_ROWS
from repro.workloads.datasets import unique_uniform
from repro.workloads.generators import random_workload

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
SIZE = 2000 if FAST else 20000
QUERIES = 50 if FAST else 300
THRESHOLDS = (1, 64, 512) if FAST else (1, 64, 256, 1024, 4096)

#: (data kind, rows, queries, selectivity) of the encrypted table.
ENCRYPTED = {
    "words": ("encrypted", 5_000 if FAST else 100_000,
              200 if FAST else 2_000, 0.0001),
    "ambiguity": ("ambiguous", 500 if FAST else 6_000,
                  50 if FAST else 2_000, 0.01),
}
ENCRYPTED_THRESHOLDS = (1, 64, 256, 1024, 4096, None)


def encrypted_cell(kind, rows, queries, selectivity, threshold):
    """One session's workload at one threshold (None: derived)."""
    values = unique_uniform(rows, DOMAIN, seed=0)
    workload = random_workload(queries, DOMAIN, selectivity, seed=1)
    session = build_session(values, kind, seed=0, min_piece_size=threshold)
    trace = run_session_sequence(session, workload)
    engine = session.server.engine
    engine_seconds = np.add.reduce([trace.crack_seconds, trace.search_seconds,
                                    trace.insert_seconds, trace.scan_seconds])
    return {
        "query_ms": 1e3 * trace.total_seconds() / queries,
        "engine_ms": 1e3 * float(np.mean(engine_seconds)),
        "tree_nodes": len(engine.cracks),
        "products": sum(trace.products) / queries,
        "resolved_order_fraction": resolved_order_fraction(
            engine.piece_boundaries(), len(engine)),
    }


def test_threshold_cost_table():
    table, rows = {}, []
    for column, (kind, size, queries, selectivity) in ENCRYPTED.items():
        for threshold in ENCRYPTED_THRESHOLDS:
            cell = encrypted_cell(kind, size, queries, selectivity, threshold)
            table[column, threshold] = cell
            rows.append([column, "unset" if threshold is None else threshold,
                         cell["query_ms"], cell["engine_ms"],
                         cell["tree_nodes"], cell["products"],
                         cell["resolved_order_fraction"]])
    report = (
        "Encrypted scan-or-crack cost table (words: %d rows, %d queries "
        "at 0.01 %%; ambiguity: %d values, %d queries at 1 %%)\n"
        % (ENCRYPTED["words"][1], ENCRYPTED["words"][2],
           ENCRYPTED["ambiguity"][1], ENCRYPTED["ambiguity"][2])
        + format_table(["column", "min piece size", "query ms",
                        "engine ms", "tree nodes", "products / query",
                        "resolved order"], rows)
    )
    save_report("abl_threshold_encrypted.txt", report)
    print("\n" + report)

    for column in ENCRYPTED:
        cells = [table[column, t] for t in ENCRYPTED_THRESHOLDS[:-1]]
        nodes = [cell["tree_nodes"] for cell in cells]
        assert nodes == sorted(nodes, reverse=True), column
        leak = [cell["resolved_order_fraction"] for cell in cells]
        assert leak == sorted(leak, reverse=True), column
    # Unset, a word-sized column stops where WORD_SCAN_ROWS does, and
    # scans each edge piece against its own bound where it can ...
    derived, fixed = table["words", None], table["words", WORD_SCAN_ROWS]
    assert derived["tree_nodes"] == fixed["tree_nodes"]
    assert derived["products"] < fixed["products"]
    # ... and an exact column cracks to single rows, as it always did.
    assert table["ambiguity", None] == dict(
        table["ambiguity", 1],
        query_ms=table["ambiguity", None]["query_ms"],
        engine_ms=table["ambiguity", None]["engine_ms"],
    )


def test_threshold(benchmark):
    out = ablation_threshold(
        size=SIZE, thresholds=THRESHOLDS, query_count=QUERIES, seed=0
    )
    rows = [
        [
            threshold,
            out[threshold]["total_seconds"],
            int(out[threshold]["tree_nodes"]),
            out[threshold]["resolved_order_fraction"],
        ]
        for threshold in THRESHOLDS
    ]
    report = "Piece-size threshold ablation (Section 2.2)\n" + format_table(
        ["min piece size", "workload seconds", "tree nodes", "resolved order"],
        rows,
    )
    save_report("abl_threshold.txt", report)
    print("\n" + report)

    nodes = [out[t]["tree_nodes"] for t in THRESHOLDS]
    assert nodes == sorted(nodes, reverse=True)
    leak = [out[t]["resolved_order_fraction"] for t in THRESHOLDS]
    assert leak[-1] < leak[0]
    # "Without a significant performance drop": the largest threshold
    # stays within an order of magnitude of always-crack.
    assert out[THRESHOLDS[-1]]["total_seconds"] < 10 * max(
        out[THRESHOLDS[0]]["total_seconds"], 1e-3
    )

    from repro.cracking.index import AdaptiveIndex
    from repro.workloads.datasets import unique_uniform

    engine = AdaptiveIndex(unique_uniform(SIZE, seed=1), min_piece_size=256)
    benchmark(lambda: engine.query(0, 2 ** 29))
