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
#: once, with the single descent: a cracked bound now costs one tree walk
#: where it cost seven, so only that column moved (the secure two-way
#: configurations count 3 338 / 3 002 / 3 975 comparisons where they
#: counted 5 430 / 3 985 / 7 182).
GOLDEN_TRACE_SHA256 = (
    "852b1e7dae8f09d5f12dd32832409ffbd24bb479682b183bd619350b8ed47438"
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
#: ``encrypt_value``, so the pin reads the engine alone.
ENGINE_PASS_SHA256 = (
    "1d84659eba4de6174f8825709b4738d5d32c709d524ca1ac6c927ed5a99b4e25"
)

#: Per configuration of ``engine_pass_trace()``, the sha256 of its
#: records — the one to diff first when the whole pin moves.
ENGINE_PASS_CONFIG_SHA256 = {
    "crack_cold":
        "5e36f97b953a98803c97885e0f6deb62f7db62a3fc9afa8124f2826628a27f47",
    "range":
        "dd9f2201d8a3575275520c3defa3ac3a70602cb39cfb6d2c4e6962362db07a6b",
    "ambiguity":
        "9d27009383a50ff967a27b2d25f93d9a9b36cf906d53b7ae1320fb3772016e95",
    "min_piece_4":
        "22c364e7300e482f18ae57ccf4be7d1b48f1ea92d045678062878798c2b808e8",
    "three_way":
        "67bd472a7b362262bdefac28f46cc8cc847541d49e0c6ab48c5c5dc1f91e1f28",
    "three_way_default":
        "ce58db61e19b3ca1bc73961e6824a9308836ddd9c351365e46e69b633b61bbd3",
    "pivots":
        "ce3c2c36bdd3e43dbac37a724ac677ff079fac1531df7c40de1148ca74169c01",
    "one_sided":
        "e707b2827cade0216619214b3b96367437143c8cb8264b12f42c3ead00b02b68",
    "one_sided_cracking":
        "63f2a63c93240ff61931aa054508948cffe4156fa386846aa6fa8c9529b69e4e",
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
