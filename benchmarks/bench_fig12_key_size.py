"""Figure 12: effect of the encryption key size (ciphertext length l).

Paper: over 10M rows, per-query response time of the encrypted engine
rises roughly proportionally with key size 4 -> 64 for the early
(heavy) queries — vector comparisons cost O(l) — while the effect
becomes negligible once the index has converged.
"""

import os

import numpy as np

from repro.bench.figures import figure12_key_size
from repro.bench.reporting import (
    ascii_chart,
    format_series,
    format_table,
    save_report,
)

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
KEY_LENGTHS = (4, 8, 16) if FAST else (4, 8, 16, 32, 64)
SIZE = 1000 if FAST else 10000
QUERY_COUNT = 30 if FAST else 200


def test_figure12(benchmark):
    # Cracked to single rows at every key size: left unset, the
    # threshold follows each key's arithmetic class.
    traces = figure12_key_size(
        key_lengths=KEY_LENGTHS, size=SIZE, query_count=QUERY_COUNT, seed=0,
        min_piece_size=1,
    )
    xs = list(range(1, QUERY_COUNT + 1))
    columns = {
        "l=%d" % length: traces[length].seconds for length in KEY_LENGTHS
    }
    series = format_series(
        "Figure 12: per-query seconds vs key size (%d rows)" % SIZE,
        "query",
        xs,
        columns,
    )
    rows = [
        [
            length,
            traces[length].seconds[0],
            float(np.median(traces[length].seconds[-QUERY_COUNT // 4:])),
        ]
        for length in KEY_LENGTHS
    ]
    summary = format_table(
        ["key size l", "first-query seconds", "late median seconds"], rows
    )
    chart = ascii_chart(
        "Figure 12 chart: per-query seconds vs key size, log-log",
        xs,
        columns,
    )
    report = chart + "\n\n" + series + "\n\nKey-size summary\n" + summary
    save_report("fig12_key_size.txt", report)
    print("\n" + report)

    # Asserted in scalar products, the server's unit of work; the
    # seconds above are the machine's business (on the smoke column a
    # first query is about a millisecond, mostly per-call overhead).
    # The key size sets what one product costs — l multiply-adds over
    # l-component rows, the paper's O(l) — and never how many there
    # are: cracks follow the plaintext order, which no key touches.
    products = traces[KEY_LENGTHS[0]].products
    assert products[0] > 0
    for length in KEY_LENGTHS:
        assert traces[length].products == products, length
    # The typical late query collapses (the paper: a difference "from a
    # millisecond to 0.01 seconds between key size 4 and 64" once
    # cracking has amortised).  The median is used because a late query
    # can still land on a cold region and pay one big crack.
    assert float(np.median(products[-QUERY_COUNT // 4:])) < products[0] / 3

    smallest = KEY_LENGTHS[0]
    session_trace = traces[smallest]
    benchmark(lambda: np.cumsum(session_trace.seconds))
