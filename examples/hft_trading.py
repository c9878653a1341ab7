"""High-frequency trading analytics over an untrusted cloud.

The paper's motivating scenario (Section 1): a trading firm outsources
price data to cloud servers "to test trading strategies, run time
series analysis, assess risks ... while collecting financial data
daily", but the prices are sensitive — the cloud must index and filter
them without ever learning them.

This example builds a day of synthetic tick data, outsources the price
column encrypted (with ambiguity on — counterfeit prices muddy any
adversary's view), and runs a realistic analyst session:

* price-band screens (which ticks traded inside a band?),
* a zooming drill-down (repeatedly narrowing the band — adaptive
  indexing's best case: only the hot band gets indexed),
* end-of-day ingestion of a late batch of ticks via the update path.

Volumes stay in a plaintext array beside the outsourced prices: the
select runs on the encrypted price column, and its logical ids index
the volumes by position — the column-store flow of Section 2.2.

Run:  python examples/hft_trading.py
"""

import time

import numpy as np

from repro import OutsourcedDatabase


def make_tick_data(count, seed=0):
    """A synthetic day of ticks: a price random walk plus volumes."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(-50, 51, size=count)
    prices = 1_000_000 + np.cumsum(steps)  # fixed-point cents * 100
    volumes = rng.integers(1, 1000, size=count)
    return prices.astype(np.int64), volumes.astype(np.int64)


def main():
    ticks = 20000
    prices, volumes = make_tick_data(ticks, seed=3)

    print("outsourcing %d encrypted prices (ambiguity on)..." % ticks)
    tick = time.perf_counter()
    db = OutsourcedDatabase(prices, ambiguity=True, seed=99)
    print("  done in %.1fs — server holds %d physical rows, knows no price"
          % (time.perf_counter() - tick, 2 * ticks))

    print("\n--- price-band screens ---")
    bands = [
        (int(prices.min()), int(np.percentile(prices, 10))),
        (int(np.percentile(prices, 45)), int(np.percentile(prices, 55))),
        (int(np.percentile(prices, 90)), int(prices.max())),
    ]
    for low, high in bands:
        tick = time.perf_counter()
        result = db.query(low, high)
        elapsed = time.perf_counter() - tick
        traded = int(volumes[result.logical_ids].sum())
        print(
            "  band [%d, %d]: %d ticks, %d shares traded "
            "(%.3fs, %d counterfeits dropped)"
            % (low, high, len(result.values), traded,
               elapsed, result.false_positives)
        )
        expected = np.flatnonzero((prices >= low) & (prices <= high))
        assert np.array_equal(np.sort(result.logical_ids), expected)

    print("\n--- zooming drill-down around the median ---")
    center = int(np.median(prices))
    half_width = (int(prices.max()) - int(prices.min())) // 2
    while half_width > 100:
        tick = time.perf_counter()
        result = db.query(center - half_width, center + half_width)
        print(
            "  +/-%6d: %5d ticks in %.4fs"
            % (half_width, len(result.values), time.perf_counter() - tick)
        )
        half_width //= 4
    print("  index refined only around the queried band: %d crack bounds"
          % len(db.server.engine.tree))

    print("\n--- late batch ingestion ---")
    late_prices = [int(prices[-1]) + delta for delta in (-30, 5, 42)]
    for price in late_prices:
        db.insert(price)
    check_low, check_high = min(late_prices) - 1, max(late_prices) + 1
    before_merge = db.query(check_low, check_high)
    db.merge()
    after_merge = db.query(check_low, check_high)
    assert set(late_prices) <= set(before_merge.values.tolist())
    assert set(late_prices) <= set(after_merge.values.tolist())
    print("  3 late ticks visible before the merge and after it; "
          "index invariants hold:")
    db.server.engine.check_invariants()
    print("  OK")

    fpr = np.mean([r.false_positive_rate for r in db.client_stats])
    print("\nsession false-positive rate (counterfeit shield): %.0f%%"
          % (100 * fpr))


if __name__ == "__main__":
    main()
