"""The scan-or-crack threshold an engine reads off its column.

Left unset (the default everywhere), ``min_piece_size`` is derived per
bound from the column's arithmetic: a column whose products are proven
in machine words scans pieces of up to ``WORD_SCAN_ROWS`` rows, each
edge piece in one product pass; an exact-arithmetic (ambiguity) column
cracks to single rows, exactly as every engine did before.  An
explicit integer overrides both.
"""

import bisect
import collections
import random

from conftest import reference_positions
from repro.core.client import TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.query import EncryptedQuery
from repro.core.secure_index import SecureAdaptiveIndex
from repro.core.server import SecureServer
from repro.core.session import OutsourcedDatabase
from repro.cracking.index import WORD_SCAN_ROWS
from repro.net.protocol import CONFIG_DEFAULTS
from repro.obs import Observability

VALUES = list(range(2000))
random.Random(3).shuffle(VALUES)


def engine_over(values, ambiguity=False, **config):
    client = TrustedClient(seed=11, ambiguity=ambiguity)
    obs = Observability(tracing=True, audit=True)
    rows, row_ids = client.encrypt_dataset(values)
    engine = SecureAdaptiveIndex(
        EncryptedColumn(rows, row_ids, obs=obs), obs=obs, **config
    )
    return client, engine


def answer(engine, query):
    ids, __ = engine.query(query)
    return sorted(int(i) for i in ids)


class TestDefaults:
    def test_unset_everywhere(self):
        assert CONFIG_DEFAULTS["min_piece_size"] is None
        client = TrustedClient(seed=11)
        server = SecureServer(*client.encrypt_dataset([5, 1, 3]))
        assert server.config["min_piece_size"] is None
        db = OutsourcedDatabase([5, 1, 3], seed=11)
        assert db.server.config["min_piece_size"] is None

    def test_an_explicit_integer_still_means_what_it_says(self):
        client, engine = engine_over(VALUES, min_piece_size=1)
        engine.query(client.make_query(100, 140))
        assert engine.stats_log[-1].cracks == 2


class TestWordColumns:
    def test_pieces_up_to_word_scan_rows_are_scanned(self):
        client, engine = engine_over(VALUES)
        # 2 000 rows: the low bound cracks the column, and the high one
        # lands in the 1 400 rows right of it, more than a scan takes.
        assert answer(engine, client.make_query(600, 1200)) == (
            reference_positions(VALUES, 600, 1200).tolist()
        )
        assert engine.piece_boundaries() == [0, 600, 1201, 2000]
        for low in range(0, 1900, 37):
            assert answer(engine, client.make_query(low, low + 50)) == (
                reference_positions(VALUES, low, low + 50).tolist()
            )
        # Every piece is at most WORD_SCAN_ROWS rows: nothing more cracked.
        bounds = engine.piece_boundaries()
        assert bounds == [0, 600, 1201, 2000]
        assert max(b - a for a, b in zip(bounds, bounds[1:])) <= WORD_SCAN_ROWS
        engine.check_invariants()

    def test_an_edge_piece_is_scanned_against_its_own_bound(self):
        client, engine = engine_over(VALUES)
        engine.query(client.make_query(600, 1200))
        events = len(engine.obs.audit.to_dicts())
        # [500, 1400]: the bounds land in the two outer pieces, each of
        # which lies wholly on the inner side of the other bound.
        assert answer(engine, client.make_query(500, 1400)) == (
            reference_positions(VALUES, 500, 1400).tolist()
        )
        stats = engine.stats_log[-1]
        assert stats.cracks == 0
        assert stats.kernel_fast_products == 600 + 799
        scans = [event for event in engine.obs.audit.to_dicts()[events:]
                 if event["event"] == "scan"]
        assert [(scan["lo"], scan["hi"]) for scan in scans] == [
            (0, 600), (1201, 2000)]
        assert scans[0]["bound_high"] is None and scans[1]["bound"] is None

    def test_both_bounds_in_one_piece_cost_one_product_pass(self):
        client, engine = engine_over(VALUES)
        engine.query(client.make_query(600, 1200))
        spans = len(engine.obs.tracer.spans)
        events = len(engine.obs.audit.to_dicts())
        assert answer(engine, client.make_query(700, 800)) == (
            reference_positions(VALUES, 700, 800).tolist()
        )
        new_spans = engine.obs.tracer.spans[spans:]
        kernel = [s for s in new_spans if s.name == "kernel-product"]
        assert len(kernel) == 1
        assert kernel[0].attrs["rows"] == 601
        # ... while the audit and the counters still see both bounds.
        products = [event for event in engine.obs.audit.to_dicts()[events:]
                    if event["event"] == "products"]
        assert len(products) == 2
        assert products[0]["bound"] != products[1]["bound"]
        assert engine.stats_log[-1].kernel_fast_products == 2 * 601

    def test_an_inverted_range_matches_nothing(self):
        """Only a client that skips ``make_query``'s check sends low >
        high.  Its bounds land in pieces the wrong way round, so neither
        lies on the inner side of the other bound: each is scanned
        against both, and nothing qualifies."""
        client, engine = engine_over(VALUES)
        engine.query(client.make_query(600, 1200))
        forward = client.make_query(800, 1700)
        inverted = EncryptedQuery(low=forward.high, high=forward.low)
        assert answer(engine, inverted) == []
        assert engine.stats_log[-1].result_count == 0
        assert engine.piece_boundaries() == [0, 600, 1201, 2000]


class TestAmbiguityColumns:
    def test_an_exact_column_still_cracks_to_single_rows(self):
        # Over a wide domain no ambiguity product fits a word.
        values = random.Random(4).sample(range(10 ** 6), 300)
        queries = [(low, low + 50_000) for low in range(0, 10 ** 6, 77_000)]
        trees = []
        for config in ({}, {"min_piece_size": 1}):
            client, engine = engine_over(values, ambiguity=True, **config)
            for low, high in queries:
                engine.query(client.make_query(low, high))
            trees.append((engine.piece_boundaries(),
                          [s.kernel_exact_products for s in engine.stats_log]))
            assert engine.column.product_counts()[0] == 0
        assert trees[0] == trees[1]
        assert len(trees[0][0]) > 2 * len(queries)

    def test_a_bound_proven_in_words_is_scanned_on_any_column(self):
        """The class is read per bound, off the bit-lengths products
        multiplies: over a narrow domain an ambiguity column's products
        against some bounds fit a word, and those bounds scan."""
        values = VALUES[:300]
        trees = []
        for config in ({}, {"min_piece_size": 1}):
            db = OutsourcedDatabase(values, seed=11, ambiguity=True, **config)
            for low in range(0, 300, 23):
                assert sorted(db.query(low, low + 30).values) == sorted(
                    v for v in values if low <= v <= low + 30)
            trees.append(len(db.server.engine.cracks))
            assert db.obs.metrics.counter_value("kernel.fast_products") > 0
        assert trees[0] < trees[1]


# -- the count-based gates CI runs by name ---------------------------------------------

GATE_VALUES = random.Random(35).sample(range(10 ** 6), 20_000)

#: Tree nodes the seeded ops leave on a 20k-row word-sized column
#: (always cracking, they left 390).
WORD_TREE_NODES = 46

#: Tree nodes the same ops leave on the ambiguity column of the same
#: values, computed before the threshold was derived: it must not move
#: with the policy.  It moved once, from 394, when the owner's draws
#: moved to a keyed SHAKE-256 stream: whether a bound is proven in
#: words, and so scanned, depends on its drawn lambda.
AMBIGUITY_TREE_NODES = 393


def gate_ops():
    rng = random.Random(36)
    for _ in range(200):
        low = rng.randrange(10 ** 6)
        yield low, low + rng.randrange(20_000)


def gate_session(ambiguity):
    """The seeded ops over a fresh session, every answer checked."""
    db = OutsourcedDatabase(
        GATE_VALUES, seed=11, ambiguity=ambiguity,
        obs=Observability(tracing=True, audit=True),
    )
    ordered = sorted(GATE_VALUES)
    for low, high in gate_ops():
        expected = ordered[bisect.bisect_left(ordered, low):
                           bisect.bisect_right(ordered, high)]
        assert sorted(db.query(low, high).values) == expected
    db.server.engine.check_invariants()
    return db


def test_a_word_column_stops_cracking_at_1k_row_pieces():
    db = gate_session(ambiguity=False)
    assert len(db.server.engine.cracks) == WORD_TREE_NODES
    # Every edge scan is one product pass, two-sided ones included.
    spans = db.obs.tracer.spans
    scans = [span.index for span in spans if span.name == "edge-scan"]
    passes = collections.Counter(
        span.parent for span in spans if span.name == "kernel-product")
    assert scans and all(passes[index] == 1 for index in scans)
    two_sided = [event for event in db.obs.audit.to_dicts()
                 if event["event"] == "scan"
                 and event["bound"] is not None
                 and event["bound_high"] is not None]
    assert two_sided
    assert db.obs.metrics.counter_value("kernel.exact_products") == 0


def test_an_ambiguity_column_cracks_as_it_always_did():
    db = gate_session(ambiguity=True)
    assert len(db.server.engine.cracks) == AMBIGUITY_TREE_NODES
