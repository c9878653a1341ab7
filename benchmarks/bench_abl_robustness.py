"""Ablation: data-distribution robustness of the secure engine.

The paper evaluates unique uniform data; real columns carry
duplicates, skew, and pre-sorted runs.  This ablation replays the
default workload over four data shapes and checks that the secure
cracking engine (a) stays correct, (b) still converges, and (c) keeps
beating SecureScan — i.e. the headline result is not an artefact of
the uniform-unique dataset.
"""

import os

import numpy as np

from repro.bench.harness import build_session, run_session_sequence
from repro.bench.reporting import format_table, save_report
from repro.workloads.datasets import (
    clustered,
    uniform_with_duplicates,
    unique_uniform,
    zipfian,
)
from repro.workloads.generators import random_workload

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
SIZE = 500 if FAST else 5000
QUERIES = 20 if FAST else 150
DOMAIN = (0, 2 ** 31)


def datasets():
    return {
        "unique_uniform": unique_uniform(SIZE, DOMAIN, seed=0),
        "heavy_duplicates": uniform_with_duplicates(
            SIZE, distinct=max(8, SIZE // 50), domain=DOMAIN, seed=1
        ),
        "zipfian": zipfian(SIZE, exponent=1.4,
                           distinct=max(8, SIZE // 20), domain=DOMAIN, seed=2),
        "clustered_runs": clustered(SIZE, runs=8, domain=DOMAIN, seed=3),
    }


def test_robustness(benchmark):
    queries = random_workload(QUERIES, DOMAIN, selectivity=0.01, seed=4)
    rows = []
    for name, values in datasets().items():
        cracking = build_session(values, "encrypted", seed=5, min_piece_size=1)
        scanning = build_session(values, "securescan", seed=5)
        crack_trace = run_session_sequence(cracking, queries)
        scan_trace = run_session_sequence(scanning, queries)
        # Correctness against a plaintext reference, per dataset.
        reference = np.asarray(values)
        probe = queries[0]
        result = cracking.query(*probe.as_args())
        expected = np.flatnonzero(
            (reference >= probe.low) & (reference <= probe.high)
        )
        assert np.array_equal(np.sort(result.logical_ids), expected), name
        cracking.server.engine.check_invariants()
        early = float(np.mean(crack_trace.seconds[:3]))
        late = float(np.mean(crack_trace.seconds[-QUERIES // 5:]))
        rows.append(
            [
                name,
                crack_trace.total_seconds(),
                scan_trace.total_seconds(),
                early,
                late,
                sum(crack_trace.products),
                sum(scan_trace.products),
            ]
        )
        # Convergence and the headline result, per dataset — in
        # scalar products, the server's unit of work: both engines
        # multiply through one kernel, so where the wall-clock figures
        # (reported below) cross depends on the machine and the column
        # size, the counts do not.
        spent = crack_trace.products
        assert np.mean(spent[-QUERIES // 5:]) < np.mean(spent[:3]), name
        assert sum(crack_trace.products) < sum(scan_trace.products) / 4, name
    report = (
        "Data-distribution robustness (%d rows, %d queries)\n"
        % (SIZE, QUERIES)
        + format_table(
            [
                "dataset",
                "cracking workload s",
                "securescan workload s",
                "early per-query s",
                "late per-query s",
                "cracking products",
                "securescan products",
            ],
            rows,
        )
    )
    save_report("abl_robustness.txt", report)
    print("\n" + report)

    values = datasets()["heavy_duplicates"]
    session = build_session(values, "encrypted", seed=6)
    probe = queries[0]
    benchmark(lambda: session.query(*probe.as_args()))
