"""Behaviour pin for the cracking engines.

A seeded query trace is run over every engine configuration and hashed:
per query the sorted result ids, the piece boundaries afterwards and
the machine-independent cost counters; for the secure engine also the
complete audit-event sequence (opaque ciphertext labels included, so
the *order* in which the server first sees each bound is pinned too).
Any change to which rows move where, which piece is scanned, what is
counted or what a curious server observes moves the hash.
"""

import dataclasses
import hashlib
import itertools
import json
import random

from repro.core.client import TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.query import EncryptedBound, EncryptedQuery
from repro.core.secure_index import SecureAdaptiveIndex
from repro.core.server import SecureServer
from repro.cracking.index import AdaptiveIndex, QUERY_METRIC_NAMES, QueryStats
from repro.obs import Observability

#: sha256 of ``golden_trace(pin_comparisons=False)`` — results, cracks,
#: cracked rows, piece boundaries and the audit sequence — computed at
#: the commit *before* the tree learned to locate a bound in one descent
#: (where the full trace still hashed to the pre-driver golden
#: ``16018dfa...a28abcb``).
GOLDEN_BEHAVIOUR_SHA256 = (
    "6881457a7e8580d6ddf366cef68f2de9653406dcc64763365a5b326d80bdafcb"
)

#: sha256 of ``golden_trace()``: the same plus ``comparisons``.  Re-pinned
#: twice, each time only that column moved.  With the single descent a
#: cracked bound cost one tree walk where it cost seven (the secure
#: two-way configurations went from 5 430 / 3 985 / 7 182 to 3 338 /
#: 3 002 / 3 975).  Then the AVL tree became a binary search over the
#: sorted cracks, which makes at most ceil(log2(n + 1)) comparisons a
#: search, where a tree walk makes its depth.  Per configuration
#: (threshold 1 / 8; two-sided, one-sided, pivots), tree -> list:
#:
#: * plain and secure two-way, threshold 1: 3 338 -> 3 321,
#:   3 002 -> 2 992; pivots 3 417 -> 3 431 plain, 3 975 -> 3 982 secure
#: * plain and secure two-way, threshold 8: 3 461 -> 3 451,
#:   3 001 -> 2 989; pivots 3 549 -> 3 556 plain, 4 062 -> 4 074 secure
#: * secure three-way, threshold 1: 4 155 -> 4 143, 3 002 -> 2 992,
#:   4 646 -> 4 655
#: * secure three-way, threshold 8: 4 272 -> 4 268, 3 001 -> 2 989,
#:   4 721 -> 4 734
#:
#: The pivots shape's query sequence is the one where the tree did
#: better (+7 to +14): six exact hits cost 17 comparisons in the tree
#: and 27 in the search (EXPERIMENTS.md).  Re-pinned a third time when a
#: declined three-way crack handed its two searches to the two-way
#: placement instead of searching again (behaviour hash unmoved; only
#: the secure three-way two-sided and pivots shapes moved), threshold
#: 1: 4 143 -> 3 868, 4 655 -> 4 262; threshold 8: 4 268 -> 3 984,
#: 4 734 -> 4 351.
GOLDEN_TRACE_SHA256 = (
    "56be33b5c61ca1e95be5cf015fb21746f182616374ae5f9cc37812460e576a90"
)

ROWS = 400
QUERIES = 45
SHAPES = ("two-sided", "one-sided", "pivots")


def make_queries(rng, shape):
    """Seeded query arguments: duplicates in the data make every
    inclusiveness flag matter, small spans leave sub-threshold pieces."""
    queries = []
    for _ in range(QUERIES):
        low = rng.randrange(-10, 260)
        args = {
            "low": low,
            "high": low + rng.randrange(0, 60),
            "low_inclusive": rng.random() < 0.5,
            "high_inclusive": rng.random() < 0.5,
        }
        if shape == "one-sided":
            del args[rng.choice(("low", "high"))]
        pivots = ()
        if shape == "pivots":
            pivots = tuple(rng.randrange(0, 250) for _ in range(rng.randrange(3)))
        queries.append((args, pivots))
    return queries


def stats_record(engine, pin_comparisons=True):
    stats = engine.stats_log[-1]
    record = [stats.cracks, stats.cracked_rows, stats.result_count]
    if pin_comparisons:
        record.append(stats.comparisons)
    return record


def golden_trace(pin_comparisons=True):
    """One record per (engine, three-way, threshold, shape) configuration."""
    data_rng = random.Random(20160626)
    values = [data_rng.randrange(0, 250) for _ in range(ROWS)]
    client = TrustedClient(seed=41)
    records = []
    for secure, three_way, min_piece, shape in itertools.product(
        (False, True), (False, True), (1, 8), SHAPES
    ):
        queries = make_queries(random.Random("golden:%s" % shape), shape)
        config = dict(min_piece_size=min_piece, use_three_way=three_way)
        steps = []
        if secure:
            obs = Observability(audit=True)
            rows, row_ids = client.encrypt_dataset(values)
            engine = SecureAdaptiveIndex(
                EncryptedColumn(rows, row_ids, obs=obs), obs=obs, **config
            )
            for args, pivots in queries:
                ids, __ = engine.query(client.make_query(pivots=pivots, **args))
                steps.append([sorted(int(i) for i in ids),
                              engine.piece_boundaries(),
                              stats_record(engine, pin_comparisons)])
            engine.check_invariants()
            steps.append(obs.audit.to_dicts())
        else:
            engine = AdaptiveIndex(values, **config)
            for args, __ in queries:
                ids = engine.query(**args)
                # The one number the two old drivers disagreed on: the
                # plaintext three-way check looked the right key up
                # even after the left one had hit, the secure one
                # short-circuited.  The shared driver short-circuits,
                # so only there ``comparisons`` is left out of the pin
                # (test_properties pins it to the secure engine's).
                steps.append([sorted(int(i) for i in ids),
                              engine.piece_boundaries(),
                              stats_record(engine,
                                           pin_comparisons and not three_way)])
            engine.check_invariants()
        records.append([secure, three_way, min_piece, shape, steps])
    return records


def trace_sha256(records):
    encoded = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def test_behaviour_matches_the_pre_single_descent_golden():
    assert trace_sha256(golden_trace(pin_comparisons=False)) == (
        GOLDEN_BEHAVIOUR_SHA256
    )


def test_seeded_trace_matches_the_pre_driver_golden():
    records = golden_trace()
    assert len(records) == 24
    # The trace exercises every mechanism it claims to pin.
    audit_kinds = {
        event["event"] for record in records if record[0] for event in record[4][-1]
    }
    assert {"find", "crack", "scan", "products"} <= audit_kinds
    assert trace_sha256(records) == GOLDEN_TRACE_SHA256


# -- the engine pass, query by query -------------------------------------------

#: sha256 of ``engine_pass_trace()``, computed at the commit before a
#: query's keys were located in one pass and its bounds drawn from a
#: pool.  The queries are built with the scalar ``encrypt_bound`` /
#: ``encrypt_value``, so the pin reads the engine alone.  Re-pinned once
#: when the AVL tree became a binary search over the sorted cracks: only
#: ``comparisons`` (and its ``query.comparisons`` delta) moved, summed
#: per configuration crack_cold 80 432 -> 80 407, range 69 908 -> 69 888,
#: ambiguity 28 880 -> 28 873, min_piece_4 28 219 -> 28 207, three_way
#: 46 671 -> 46 626, three_way_default 63 603 -> 63 616, pivots
#: 25 601 -> 25 584, one_sided 33 904 -> 33 901, one_sided_cracking
#: 21 099 -> 21 095.  Re-pinned again when a declined three-way crack
#: handed its searches to the two-way placement: only ``comparisons``
#: moved, three_way 46 626 -> 46 540, three_way_default 63 616 ->
#: 63 396.
ENGINE_PASS_SHA256 = (
    "c583eef40e84b1aef676cc05c8cfd906991b5dc487d5330a61af25e9dc0730b0"
)

#: Per configuration of ``engine_pass_trace()``, the sha256 of its
#: records — the one to diff first when the whole pin moves.
ENGINE_PASS_CONFIG_SHA256 = {
    "crack_cold":
        "f3e9ccfef4743ced24c17ecdb70c4c657e498b8586794c719c48d3eddb775bb1",
    "range":
        "16ec2557d4187918ce0a6a43bf5b942e7806ec158df3df1e8d932f1068aef495",
    "ambiguity":
        "0b527706e136bb67c92fb5829c633cab704a27c0d76948ad5ea11891734c0784",
    "min_piece_4":
        "95ed7bca489979b03f2daf54afbfd9dc86030ae17d94166a72a6635de63786c8",
    "three_way":
        "f5cb87d364eee1a86425bb66660d3b8e1b167506d0b15cc096118829153fe99d",
    "three_way_default":
        "bb33b2d982def9cb03b9ceb4bcda299803fe2f3cdb68b887a887f7d848f7775b",
    "pivots":
        "a0340f640c03a211907630d98747ade13632d904af613fd463cd7044a448248e",
    "one_sided":
        "666713a7436af660f564e7eb5566dc654a1f39f51bed05e2a166075ab4d43225",
    "one_sided_cracking":
        "672e39468b0cb5fbaecd2b10de80abe484168bbc3dd70247ea32af8fb7bd4c27",
}

#: (name, rows, answer rows, ambiguity, server options, query shape).
ENGINE_PASS_CONFIGS = (
    ("crack_cold", 6_000, 10, False, {}, "two-sided"),
    ("range", 6_000, 60, False, {"min_piece_size": 1}, "two-sided"),
    ("ambiguity", 1_500, 15, True, {}, "two-sided"),
    ("min_piece_4", 3_000, 30, False, {"min_piece_size": 4}, "two-sided"),
    ("three_way", 3_000, 30, False,
     {"min_piece_size": 1, "use_three_way": True}, "two-sided"),
    ("three_way_default", 3_000, 30, False, {"use_three_way": True},
     "two-sided"),
    ("pivots", 3_000, 30, False, {"min_piece_size": 1}, "pivots"),
    ("one_sided", 3_000, 30, False, {}, "one-sided"),
    ("one_sided_cracking", 3_000, 30, False, {"min_piece_size": 1},
     "one-sided"),
)

ENGINE_PASS_QUERIES = 36


def _scalar_bound(encryptor, value):
    return EncryptedBound(
        eb=encryptor.encrypt_bound(value), ev=encryptor.encrypt_value(value)
    )


def _scalar_query(encryptor, low, high, low_inclusive, high_inclusive, pivots):
    return EncryptedQuery(
        low=None if low is None else _scalar_bound(encryptor, low),
        high=None if high is None else _scalar_bound(encryptor, high),
        low_inclusive=low_inclusive,
        high_inclusive=high_inclusive,
        pivots=tuple(_scalar_bound(encryptor, p) for p in pivots),
    )


def _events_sha256(events):
    encoded = json.dumps(events, sort_keys=True, separators=(",", ":"),
                         default=int)
    return hashlib.sha256(encoded.encode()).hexdigest()


def engine_pass_config(name, rows, answer, ambiguity, options, shape):
    """One session's records: per query its result ids in order, every
    ``QueryStats`` field but the timings, the deltas of
    ``QUERY_METRIC_NAMES`` and the sha256 of the audit events it
    appended (plus, traced, the names of the spans it opened).  Rows
    are inserted and deleted half-way, so the pending scan is charged
    too, and merged two thirds of the way."""
    rng = random.Random("engine-pass:%s" % name)
    values = rng.sample(range(0, 50 * rows), rows)
    ordered = sorted(values)
    client = TrustedClient(seed=11, ambiguity=ambiguity)
    block, row_ids = client.encrypt_dataset(values)
    encryptor = client.encryptor
    obs = Observability(audit=True, tracing=name == "crack_cold")
    server = SecureServer(block, row_ids, obs=obs, **options)
    fields = [field.name for field in dataclasses.fields(QueryStats)
              if not field.name.endswith("_seconds")]
    records = []
    for number in range(ENGINE_PASS_QUERIES):
        if number == ENGINE_PASS_QUERIES // 2:
            fresh = [rng.randrange(0, 50 * rows) for _ in range(5)]
            for value in fresh:
                server.insert(client.encrypt_value(value))
            server.delete([int(row_ids[rng.randrange(len(values))])])
        if number == 2 * ENGINE_PASS_QUERIES // 3:
            server.merge_pending()
        start = rng.randrange(len(ordered) - answer)
        low, high = ordered[start], ordered[start + answer - 1]
        low_inclusive, high_inclusive = rng.random() < 0.7, rng.random() < 0.7
        if number % 9 == 4:
            low, high = high, low  # an inverted range: the server answers it
        if shape == "one-sided":
            if rng.random() < 0.5:
                low = None
            else:
                high = None
        pivots = ()
        if shape == "pivots":
            pivots = tuple(rng.choice(ordered) for _ in range(rng.randrange(3)))
        query = _scalar_query(
            encryptor, low, high, low_inclusive, high_inclusive, pivots
        )
        counters_before = obs.metrics.counter_values(QUERY_METRIC_NAMES)
        events_before = len(obs.audit)
        spans_before = len(obs.tracer.spans)
        response = server.execute(query)
        counters_after = obs.metrics.counter_values(QUERY_METRIC_NAMES)
        stats = server.stats_log[-1]
        records.append([
            [int(i) for i in response.row_ids],
            [getattr(stats, field) for field in fields],
            {metric: counters_after[metric] - counters_before[metric]
             for metric in QUERY_METRIC_NAMES
             if not metric.endswith("_seconds")},
            _events_sha256(obs.audit.to_dicts()[events_before:]),
            [span.name for span in obs.tracer.spans[spans_before:]],
        ])
    server.engine.check_invariants()
    return records


def engine_pass_trace():
    return {config[0]: engine_pass_config(*config)
            for config in ENGINE_PASS_CONFIGS}


def test_the_engine_pass_matches_the_pre_pool_golden():
    trace = engine_pass_trace()
    # The trace reaches what it claims to pin: cracks, scans, pending
    # rows, one-sided queries and empty answers.
    assert any(record[1][2] for records in trace.values() for record in records)
    assert any(not record[0] for records in trace.values() for record in records)
    per_config = {name: trace_sha256(records) for name, records in trace.items()}
    assert per_config == ENGINE_PASS_CONFIG_SHA256
    assert trace_sha256(trace) == ENGINE_PASS_SHA256
