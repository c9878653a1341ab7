"""Cross-engine integration tests.

Every engine in the repository — plaintext cracking (all variants),
plaintext baselines, secure cracking (all variants), SecureScan — must
return the *same result sets* on the same data and workloads.  These
tests replay shared workloads through all of them and compare, and also
exercise the full client/server/session protocol paths together.
"""

import random

import numpy as np
import pytest

from repro.core.session import OutsourcedDatabase
from repro.cracking.baselines import FullScanIndex, FullSortIndex
from repro.cracking.index import AdaptiveIndex
from repro.cracking.stochastic import StochasticAdaptiveIndex
from repro.workloads.datasets import unique_uniform
from repro.workloads.generators import (
    point_workload,
    random_workload,
    sequential_workload,
    skewed_workload,
    zoom_workload,
)

SIZE = 600
DOMAIN = (0, 5000)
VALUES = unique_uniform(SIZE, DOMAIN, seed=123)


def plain_engines():
    return {
        "adaptive": AdaptiveIndex(VALUES),
        "adaptive_threshold": AdaptiveIndex(VALUES, min_piece_size=64),
        "adaptive_three_way": AdaptiveIndex(VALUES, use_three_way=True),
        "stochastic": StochasticAdaptiveIndex(
            VALUES, ddr_piece_limit=128, seed=0
        ),
        "scan": FullScanIndex(VALUES),
        "sort": FullSortIndex(VALUES),
    }


def secure_sessions():
    return {
        "encrypted": OutsourcedDatabase(VALUES, seed=1),
        "ambiguous": OutsourcedDatabase(VALUES, ambiguity=True, seed=1),
        "securescan": OutsourcedDatabase(VALUES, engine="scan", seed=1),
        "three_way": OutsourcedDatabase(VALUES, use_three_way=True, seed=1),
    }


WORKLOADS = {
    "random": random_workload(25, DOMAIN, selectivity=0.02, seed=2),
    "sequential": sequential_workload(15, DOMAIN, selectivity=0.02),
    "zoom": zoom_workload(8, DOMAIN),
    "skewed": skewed_workload(15, DOMAIN, selectivity=0.02, seed=3),
    "points": point_workload(10, VALUES.tolist(), seed=4),
}


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_all_engines_agree(workload_name):
    queries = WORKLOADS[workload_name]
    reference = FullScanIndex(VALUES)
    engines = plain_engines()
    sessions = secure_sessions()
    for query in queries:
        expected = sorted(reference.query(*query.as_args()).tolist())
        for name, engine in engines.items():
            got = sorted(engine.query(*query.as_args()).tolist())
            assert got == expected, (workload_name, name, query)
        for name, session in sessions.items():
            got = sorted(
                session.query(*query.as_args()).logical_ids.tolist()
            )
            assert got == expected, (workload_name, name, query)
    for name, engine in engines.items():
        if hasattr(engine, "check_invariants"):
            engine.check_invariants()
    for name, session in sessions.items():
        if hasattr(session.server.engine, "check_invariants"):
            session.server.engine.check_invariants()


def test_mixed_query_update_session():
    """Interleave queries, inserts, deletes, and merges; compare against
    a plain python model throughout."""
    rng = random.Random(9)
    model = {i: int(v) for i, v in enumerate(VALUES[:200])}
    db = OutsourcedDatabase(VALUES[:200], ambiguity=True, seed=10)
    next_value = 10 ** 6
    for step in range(60):
        action = rng.random()
        if action < 0.6:
            low = rng.randrange(*DOMAIN)
            high = low + rng.randrange(0, 200)
            result = db.query(low, high)
            expected = sorted(
                i for i, v in model.items() if low <= v <= high
            )
            assert sorted(result.logical_ids.tolist()) == expected, step
        elif action < 0.8:
            value = next_value + step
            logical = db.insert(value)
            model[logical] = value
        elif model and action < 0.95:
            victim = rng.choice(list(model))
            db.delete(victim)
            del model[victim]
        else:
            db.merge()
            db.server.engine.check_invariants()
    db.merge()
    db.server.engine.check_invariants()
    result = db.query(-(10 ** 9), 10 ** 9)
    assert sorted(result.logical_ids.tolist()) == sorted(model)


def test_order_information_not_in_upload_order():
    """The server's initial view carries no order information: the
    upload order is the base order, not the sorted order."""
    db = OutsourcedDatabase(VALUES[:100], seed=11)
    ids_before = db.server.engine.column.row_ids.tolist()
    assert ids_before == list(range(100))
    sorted_positions = np.argsort(VALUES[:100]).tolist()
    assert ids_before != sorted_positions


def test_cracking_beats_securescan_on_long_workloads():
    """The paper's headline: adaptive secure indexing amortises, the
    secure scan does not (Figures 6-7) — stated in scalar products, the
    server's unit of work, not in seconds: both engines multiply through
    the same kernel, so on 3 000 rows the wall-clock order is the
    machine's, the product count the algorithm's."""
    values = unique_uniform(3000, DOMAIN, seed=12)
    queries = random_workload(120, DOMAIN, selectivity=0.01, seed=13)
    cracking = OutsourcedDatabase(values, seed=14, min_piece_size=1)
    scanning = OutsourcedDatabase(values, engine="scan", seed=14)

    def products_per_query(db):
        spent = []
        for query in queries:
            db.query(*query.as_args())
            stats = db.server.stats_log[-1]
            spent.append(stats.kernel_fast_products + stats.kernel_exact_products)
        return spent

    scan_products = products_per_query(scanning)
    crack_products = products_per_query(cracking)
    # The scan pays both bounds on every row, every time.
    assert scan_products == [2 * len(values)] * len(queries)
    # Cracking pays for the column once, then only for the pieces its
    # bounds land in: the whole workload costs less than ten scans, and
    # the late queries next to nothing.
    assert sum(crack_products) < sum(scan_products) / 10
    assert max(crack_products[-20:]) < len(values) / 5


def test_grid_runner_accepts_session_kwargs():
    from repro.bench.figures import run_grid

    traces = run_grid(
        (150,),
        ("encrypted",),
        4,
        seed=0,
        session_kwargs={"min_piece_size": 32, "use_three_way": True},
    )
    assert ("encrypted", 150) in traces
    assert len(traces[("encrypted", 150)].seconds) == 4
