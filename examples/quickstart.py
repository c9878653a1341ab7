"""Quickstart: outsource a column, query it, never reveal it.

The five-minute tour of the system from the paper *Adaptive Indexing
over Encrypted Numeric Data* (SIGMOD 2016):

1. a trusted client encrypts a numeric column and ships it to an
   (honest-but-curious) server;
2. range and point queries are answered by the server over ciphertexts
   only — scalar-product sign tests stand in for comparisons;
3. as a side effect of each query the server *cracks* the encrypted
   column and refines an encrypted AVL index: the more you query, the
   faster it gets, with zero upfront indexing;
4. with the ambiguity layer on, every value also plants a counterfeit
   interpretation, so even the index structure leaves an adversary
   guessing — the client silently discards the ~50% fakes.

Run:  python examples/quickstart.py
"""

import time

import numpy as np

from repro import OutsourcedDatabase
from repro.workloads.datasets import unique_uniform


def main():
    print("=== 1. Outsource a column ===")
    values = unique_uniform(20000, domain=(0, 2 ** 31), seed=7)
    tick = time.perf_counter()
    db = OutsourcedDatabase(values, seed=42)
    print(
        "encrypted and uploaded %d values in %.2fs (key size l = %d)"
        % (len(values), time.perf_counter() - tick, db.client.key.length)
    )

    print("\n=== 2. Range queries over ciphertexts ===")
    low, high = 10 ** 8, 10 ** 8 + 2 * 10 ** 7
    result = db.query(low, high)
    print(
        "SELECT * WHERE %d <= A <= %d  ->  %d rows, one round trip"
        % (low, high, len(result.values))
    )
    reference = np.sort(values[(values >= low) & (values <= high)])
    assert np.array_equal(np.sort(result.values), reference)
    print("results verified against the plaintext reference")

    print("\n=== 3. The index builds itself as you query ===")
    per_query = []
    for i in range(30):
        start = int(values[i]) - 10 ** 6
        tick = time.perf_counter()
        db.query(start, start + 2 * 10 ** 6)
        per_query.append(time.perf_counter() - tick)
    print("first query   : %.4fs  (cracked the whole column)" % per_query[0])
    print("30th query    : %.4fs  (only touches small pieces)" % per_query[-1])
    print("index now holds %d encrypted crack bounds"
          % len(db.server.engine.cracks))

    print("\n=== 4. Updates ===")
    new_id = db.insert(123456789)
    found = db.query(123456780, 123456790)
    print("inserted one value; range query sees it:", 123456789 in found.values)
    db.delete(new_id)
    db.merge()
    print("deleted and merged; gone again:",
          123456789 not in db.query(123456780, 123456790).values)

    print("\n=== 5. Ambiguity: counterfeit interpretations ===")
    amb = OutsourcedDatabase(values[:5000], ambiguity=True, seed=42)
    result = amb.query(low, high)
    print(
        "server returned %d rows; %d were counterfeits the client dropped "
        "(false-positive rate %.0f%%)"
        % (result.returned_rows, result.false_positives,
           100 * result.false_positive_rate)
    )
    print("\nDone.  See examples/hft_trading.py and "
          "examples/security_audit.py for deeper scenarios.")


if __name__ == "__main__":
    main()
