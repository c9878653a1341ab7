"""Figure 7: total cumulative time, all data types overlaid.

Paper: one log-scale plot gathering the cumulative curves of plain,
encrypted, and encrypted-with-ambiguity cracking for every size, plus
SecureScan; plain is orders cheaper than encrypted, ambiguity doubles
encrypted, and every cracking curve flattens while SecureScan grows.
"""

import numpy as np

from conftest import DATA_KINDS, QUERY_COUNT, SIZES
from repro.bench.reporting import (
    ascii_chart,
    format_series,
    format_table,
    save_report,
)


def test_figure7(grid_traces, benchmark):
    largest = SIZES[-1]
    columns = {
        kind: grid_traces[(kind, largest)].cumulative().tolist()
        for kind in DATA_KINDS
    }
    xs = list(range(1, QUERY_COUNT + 1))
    series = ascii_chart(
        "Figure 7 (chart): cumulative seconds, log-log (%d rows)" % largest,
        xs,
        columns,
    ) + "\n\n" + format_series(
        "Figure 7: cumulative seconds, all data types (%d rows)" % largest,
        "query",
        xs,
        columns,
    )
    rows = []
    for kind in DATA_KINDS:
        for size in SIZES:
            trace = grid_traces[(kind, size)]
            rows.append(
                [
                    kind,
                    size,
                    trace.total_seconds(),
                    trace.build_seconds,
                    sum(trace.products),
                ]
            )
    summary = format_table(
        ["data type", "rows", "workload seconds", "build seconds", "products"],
        rows,
    )
    report = series + "\n\nTotals across the grid\n" + summary
    save_report("fig7_overlay.txt", report)
    print("\n" + report)

    # Shape assertions.
    plain = grid_traces[("plain", largest)].total_seconds()
    encrypted = grid_traces[("encrypted", largest)].total_seconds()
    ambiguous = grid_traces[("ambiguous", largest)].total_seconds()
    assert plain < encrypted < ambiguous
    # Ambiguity roughly doubles the data, hence roughly doubles cost
    # (allow a broad band: constant factors differ from C++).
    assert ambiguous < 6 * encrypted
    # SecureScan's tail stays flat (linear cumulative growth) while
    # cracking's tail collapses and its total ends up far below — in
    # scalar products, the server's unit of work: both engines multiply
    # through one kernel, so the wall-clock crossover (reported above)
    # depends on the machine and the column size, the counts do not.
    scan_products = grid_traces[("securescan", largest)].products
    crack_products = grid_traces[("encrypted", largest)].products
    tail = slice(-max(5, QUERY_COUNT // 10), None)
    assert sum(crack_products) < sum(scan_products) / 5
    assert np.mean(crack_products[tail]) < np.mean(scan_products[tail]) / 5

    benchmark(lambda: [t.cumulative() for t in grid_traces.values()])
