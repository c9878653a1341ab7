"""Figure 11: cracking time per query, per data type, growing sizes.

Paper: all three data types show the same decaying trend, shifted by
the cost of encryption (vector comparisons) and ambiguity (double
rows); crack time grows with data size at every point in the sequence.
"""

import numpy as np

from conftest import QUERY_COUNT, SIZES
from repro.bench.reporting import ascii_chart, format_series, save_report


def test_figure11(grid_traces, benchmark):
    sections = []
    for kind in ("plain", "encrypted", "ambiguous"):
        columns = {
            "%d rows" % size: grid_traces[(kind, size)].crack_seconds
            for size in SIZES
        }
        xs = list(range(1, QUERY_COUNT + 1))
        sections.append(
            format_series(
                "Figure 11 (%s): crack seconds per query" % kind,
                "query",
                xs,
                columns,
            )
        )
        sections.append(
            ascii_chart(
                "Figure 11 chart (%s): crack seconds, log-log" % kind,
                xs,
                columns,
            )
        )
    report = "\n\n".join(sections)
    save_report("fig11_crack_time.txt", report)
    print("\n" + report)

    # The paper's claims, asserted in rows cracked — the size of the
    # phase timed above, one comparison per row for plain and one
    # scalar product per row for the encrypted kinds.  Seconds are the
    # machine's business (the series above report them): on the smoke
    # grid's 500- and 1 000-row columns a first crack is tens of
    # microseconds and fixed per-call costs decide which is longer.
    tail = max(5, QUERY_COUNT // 10)
    for kind in ("plain", "encrypted", "ambiguous"):
        # The first query's crack grows with size...
        first = [grid_traces[(kind, size)].cracked_rows[0] for size in SIZES]
        assert first == sorted(set(first)), kind
        # ...and every size shows the same decaying trend.
        for size in SIZES:
            rows = grid_traces[(kind, size)].cracked_rows
            assert np.mean(rows[-tail:]) < np.mean(rows[:5]) / 3, (kind, size)
    # The data types at the largest size: encryption shifts the curve
    # by the unit of work, not by the rows (the same cracks, each row a
    # scalar product instead of a comparison); ambiguity doubles the rows.
    plain, encrypted, ambiguous = (
        grid_traces[(kind, SIZES[-1])]
        for kind in ("plain", "encrypted", "ambiguous")
    )
    assert encrypted.cracked_rows == plain.cracked_rows
    assert not any(plain.products)
    assert all(p >= r for p, r in zip(encrypted.products, encrypted.cracked_rows))
    assert sum(ambiguous.cracked_rows) > 1.5 * sum(encrypted.cracked_rows)

    from repro.core.client import TrustedClient
    from repro.core.encrypted_column import EncryptedColumn
    from repro.workloads.datasets import unique_uniform

    client = TrustedClient(seed=7)
    rows, row_ids = client.encrypt_dataset(unique_uniform(2000, seed=7))
    column = EncryptedColumn(rows, row_ids)
    bound = client.encryptor.encrypt_bound(2 ** 30)

    def crack_once():
        column.crack(0, len(column), bound, inclusive=False)

    benchmark(crack_once)
