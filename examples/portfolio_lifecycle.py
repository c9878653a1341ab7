"""Operating an encrypted column in the cloud, beyond single queries.

A portfolio's unrealised PnL per position — a sensitive numeric
attribute — is outsourced encrypted and cracked by the queries that hit
it.  The session walks through the operational lifecycle a real
deployment needs:

1. a server restart: snapshot the cracked state, restore it, and show
   the index survives (no re-cracking of known bounds);
2. key rotation after a suspected leak: re-encrypt everything under a
   fresh key in one round, index restarts clean by design.

Run:  python examples/portfolio_lifecycle.py
"""

import time

import numpy as np

from repro import OutsourcedDatabase
from repro.core.persistence import restore_server, snapshot_server
from repro.net.protocol import decode, encode


def main():
    rows = 3000
    pnl = np.random.default_rng(11).integers(-50_000, 80_000, rows)

    print("=== outsourcing %d encrypted PnL values ===" % rows)
    tick = time.perf_counter()
    db = OutsourcedDatabase(pnl, seed=31)
    print("encrypted in %.1fs" % (time.perf_counter() - tick))
    losers = db.query(-50_000, -10_000)
    expected = np.flatnonzero((pnl >= -50_000) & (pnl <= -10_000))
    assert np.array_equal(np.sort(losers.logical_ids), expected)
    print("positions with pnl in [-50k, -10k]: %d (verified against "
          "plaintext)" % len(losers.logical_ids))

    print("\n=== server restart: snapshot -> restore ===")
    for low in (-40_000, -10_000, 20_000, 50_000):
        db.query(low, low + 15_000)
    cracks_before = len(db.server.engine.cracks)
    frame = encode(snapshot_server(db.server))  # what a checkpoint stores
    snapshot = decode(frame)
    restored = restore_server(snapshot)
    print("snapshot carries %d rows + %d crack bounds in %d bytes"
          % (len(snapshot.row_ids), len(snapshot.cracks.pivots), len(frame)))
    restored.execute(db.client.make_query(-40_000, -25_000))
    print("restored server answered a known range with %d new cracks "
          "(index survived the restart)"
          % restored.stats_log[-1].cracks)
    assert len(restored.engine.cracks) == cracks_before

    print("\n=== key rotation after a suspected plaintext leak ===")
    before = sorted(db.query(-(10 ** 8), 10 ** 8).values.tolist())
    old_key = db.client.key
    tick = time.perf_counter()
    db.rotate_key(new_seed=77)
    print("re-encrypted %d rows under a fresh key in %.1fs"
          % (len(before), time.perf_counter() - tick))
    after = sorted(db.query(-(10 ** 8), 10 ** 8).values.tolist())
    assert before == after
    assert db.client.key != old_key
    print("data intact, old-key ciphertexts now worthless, index rebuilt "
          "from zero (%d bounds)" % len(db.server.engine.cracks))


if __name__ == "__main__":
    main()
