"""Ablation: skewed workloads — the index follows the queries.

The adaptive-indexing promise the paper leads with: "only those data
which are queried get indexed".  Under a hot/cold workload (most
queries in a small value region) the secure engine should concentrate
its crack bounds in the hot region, answer hot queries at converged
cost, and — the security dividend — leave the cold region's order
unrevealed.
"""

import os

import numpy as np

from repro.analysis.leakage import piece_index_per_row, resolved_order_fraction
from repro.bench.harness import build_session, run_session_sequence
from repro.bench.reporting import format_table, save_report
from repro.workloads.datasets import unique_uniform
from repro.workloads.generators import skewed_workload

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
SIZE = 800 if FAST else 8000
QUERIES = 30 if FAST else 250
DOMAIN = (0, 2 ** 31)
HOT_FRACTION = 0.05


def test_hot_cold(benchmark):
    values = unique_uniform(SIZE, DOMAIN, seed=0)
    queries = skewed_workload(
        QUERIES, DOMAIN, selectivity=0.01,
        hot_fraction=HOT_FRACTION, hot_probability=0.95, seed=1,
    )
    session = build_session(values, "encrypted", seed=2, min_piece_size=1)
    trace = run_session_sequence(session, queries)
    engine = session.server.engine

    # Where did the crack bounds land?  Hot-region values occupy the
    # first ~5% of the domain; count bounds whose position falls among
    # the hot rows.
    hot_cutoff_value = DOMAIN[0] + int((DOMAIN[1] - DOMAIN[0]) * HOT_FRACTION)
    hot_rows = int(np.count_nonzero(values <= hot_cutoff_value + 2 ** 26))
    boundaries = engine.piece_boundaries()
    interior = [b for b in boundaries if 0 < b < len(engine)]
    hot_bounds = sum(1 for b in interior if b <= hot_rows + SIZE // 20)
    # Order leakage inside vs outside the hot region: pieces covering
    # the cold region stay huge.
    pieces = np.diff(boundaries)
    largest_piece = int(pieces.max())
    total_leak = resolved_order_fraction(boundaries, len(engine))

    rows = [
        ["crack bounds total", len(interior)],
        ["crack bounds in hot region", hot_bounds],
        ["largest surviving (cold) piece", largest_piece],
        ["resolved-order fraction overall", total_leak],
        ["early per-query s", float(np.mean(trace.seconds[:3]))],
        ["late per-query s", float(np.mean(trace.seconds[-QUERIES // 5:]))],
    ]
    report = (
        "Hot/cold workload ablation (%d rows, %d queries, hot=%d%%)\n"
        % (SIZE, QUERIES, int(100 * HOT_FRACTION))
        + format_table(["metric", "value"], rows)
    )
    save_report("abl_hot_cold.txt", report)
    print("\n" + report)

    # The index concentrates where the queries are...
    assert hot_bounds >= 0.6 * len(interior)
    # ...the cold majority stays in coarse pieces (order unrevealed;
    # the ~5% cold queries still carve the cold region a little, so
    # the bound is an eighth of it rather than a quarter)...
    assert largest_piece > (SIZE - hot_rows) / 8
    # ...and the hot path converges (in scalar products: on a small
    # column the first cracks cost about what a round trip does).
    assert np.mean(trace.products[-QUERIES // 5:]) < np.mean(trace.products[:3])

    probe = queries[0]
    benchmark(lambda: session.query(*probe.as_args()))
