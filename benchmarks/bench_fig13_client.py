"""Figure 13: client-side performance with increasing selectivity.

Paper (Section 5.4): 1K random range queries in five geometric
selectivity groups (0.1%, 0.3%, 0.9%, 2.7%, 8.1%) over 10M rows;

* (13a) the false-positive rate at the client fluctuates around 50%
  and is unaffected by selectivity — and its fluctuation hides the
  exact result count from an adversary;
* (13b) decrypt-and-filter runtime doubles under ambiguity, is stable
  within a selectivity group, and climbs one log-step per group.

Here the doubling holds in rows; in seconds ambiguity costs ~3x, because
its ~110-bit opened values take exact 32-bit digit arithmetic (64+ rows)
where an unambiguous reply of 32+ rows is opened in 64-bit words.
"""

import os

import numpy as np

from repro.bench.figures import figure13_client
from repro.bench.reporting import format_table, save_report

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
SIZE = 600 if FAST else 8000
PER_GROUP = 8 if FAST else 40
SELECTIVITIES = (0.001, 0.003, 0.009, 0.027, 0.081)


def test_figure13(benchmark):
    results = figure13_client(
        size=SIZE,
        selectivities=SELECTIVITIES,
        queries_per_group=PER_GROUP,
        seed=0,
    )
    rows = []
    for group, selectivity in enumerate(SELECTIVITIES):
        window = slice(group * PER_GROUP, (group + 1) * PER_GROUP)
        ambiguous = results["ambiguous"]
        encrypted = results["encrypted"]
        rows.append(
            [
                "%.1f%%" % (100 * selectivity),
                float(np.mean(ambiguous.false_positive_rates[window])),
                float(np.std(ambiguous.false_positive_rates[window])),
                float(np.mean(encrypted.client_seconds[window])),
                float(np.mean(ambiguous.client_seconds[window])),
            ]
        )
    report = "Figure 13: client-side FPR and decrypt+filter seconds\n" + (
        format_table(
            [
                "selectivity",
                "FPR (ambiguity)",
                "FPR std",
                "decrypt s (encrypted)",
                "decrypt s (ambiguity)",
            ],
            rows,
        )
    )
    save_report("fig13_client.txt", report)
    print("\n" + report)

    ambiguous = results["ambiguous"]
    encrypted = results["encrypted"]
    # 13a: FPR ~50%, flat in selectivity; zero without ambiguity.
    group_means = [row[1] for row in rows]
    assert all(0.3 < m < 0.7 for m in group_means)
    assert max(group_means) - min(group_means) < 0.25
    assert all(r == 0 for r in encrypted.false_positive_rates)
    # 13b: ambiguity roughly doubles the decrypt cost; cost grows with
    # selectivity (more rows to decrypt).
    total_encrypted = float(np.sum(encrypted.client_seconds))
    total_ambiguous = float(np.sum(ambiguous.client_seconds))
    assert 1.3 * total_encrypted < total_ambiguous < 6 * total_encrypted
    assert np.mean(ambiguous.client_seconds[-PER_GROUP:]) > np.mean(
        ambiguous.client_seconds[:PER_GROUP]
    )

    # Timed unit: open one mid-selectivity response whole, as every
    # reply is opened above (decrypt_results would answer a reply it
    # saw before from the client's memory of opened rows).
    from repro.bench.harness import build_session
    from repro.workloads.datasets import unique_uniform

    session = build_session(
        unique_uniform(SIZE // 2, seed=1), "ambiguous", seed=1
    )
    query = session.client.make_query(0, 2 ** 26)
    response = session.server.execute(query)
    benchmark(lambda: session.client.encryptor.open_block(response.rows))
