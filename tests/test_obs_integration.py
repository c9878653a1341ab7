"""Observability threaded through the full stack (acceptance tests).

Covers the cross-cutting contracts:

* a traced encrypted query yields nested find-piece / crack /
  edge-scan / kernel-product spans whose summed durations reconcile
  with the query's :class:`QueryStats.total_seconds`;
* :class:`QueryStats` equals the per-operation metrics-registry deltas
  (an entry is flushed to the registry once, when its query ends —
  by returning or by raising) across query, insert, delete, merge, and
  key rotation;
* the server-side audit log matches the access pattern predicted by
  :mod:`repro.analysis.leakage`;
* the session counts bytes in both directions;
* the pending scan's kernel counts land on the query's stats entry;
* the metric table of ``docs/observability.md`` names what is emitted.
"""

import json
import os
import re
import threading
import time

import numpy as np
import pytest

from repro.analysis.leakage import (
    audit_crack_events,
    audit_piece_boundaries,
    predicted_crack_events,
    resolved_order_fraction,
)
from repro.core.client import TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.secure_index import SecureAdaptiveIndex
from repro.core.server import SecureServer
from repro.core.session import OutsourcedDatabase
from repro.cracking.index import QUERY_METRIC_NAMES, STATS_METRIC_OF_FIELD
from repro.net import serve
from repro.net.protocol import HelloRequest, encode
from repro.net.transport import TcpTransport
from repro.obs import Observability

VALUES = [int(v) for v in np.random.default_rng(5).permutation(512)]

#: Span names that carry the engine's timed phases; their summed
#: durations must reconcile with ``QueryStats.total_seconds``.
PHASE_SPANS = ("find-piece", "crack", "insert-bound", "edge-scan")


def _registry_values(obs):
    return {
        name: obs.metrics.counter_value(name) for name in QUERY_METRIC_NAMES
    }


def _delta(before, after):
    return {name: after[name] - before[name] for name in before}


class TestTracedQueryAcceptance:
    """The ISSUE's headline acceptance: one traced encrypted query."""

    @pytest.fixture()
    def traced(self):
        obs = Observability(tracing=True)
        client = TrustedClient(seed=3)
        rows, row_ids = client.encrypt_dataset(VALUES)
        engine = SecureAdaptiveIndex(
            EncryptedColumn(rows, row_ids, obs=obs), min_piece_size=16, obs=obs
        )
        # [496, 510]: the left bound cracks the whole column; the right
        # bound then lands in a 16-row piece at the threshold, which is
        # edge-scanned — one query exercises every phase span.
        engine.query(client.make_query(496, 510))
        return obs, engine

    def test_trace_has_all_nested_phase_spans(self, traced):
        obs, engine = traced
        names = [span.name for span in obs.tracer.spans]
        for required in ("engine-query", "find-piece", "crack",
                        "insert-bound", "edge-scan", "kernel-product"):
            assert required in names, "missing span %r" % required
        root = obs.tracer.spans[0]
        assert root.name == "engine-query" and root.parent is None
        for span in obs.tracer.spans[1:]:
            assert span.parent is not None  # everything nests under root
            assert span.depth >= 1
            assert span.end is not None

    def test_jsonl_trace_reconciles_with_query_stats(self, traced, tmp_path):
        """Stated in counts, which preemption between spans cannot move:
        the dumped spans are the query's phases, one for each thing
        its QueryStats counted."""
        obs, engine = traced
        path = obs.tracer.dump_jsonl(str(tmp_path / "query.trace.jsonl"))
        records = [
            json.loads(line)
            for line in open(path).read().splitlines()
        ]
        stats = engine.stats_log[-1]
        named = {name: [r for r in records if r["name"] == name]
                 for name in PHASE_SPANS + ("engine-query",)}
        (engine_query,) = named["engine-query"]
        # One find per bound; one crack, one insert per crack.
        assert len(named["find-piece"]) == 2
        assert len(named["crack"]) == len(named["insert-bound"]) == stats.cracks
        assert sum(r["rows"] for r in named["crack"]) == stats.cracked_rows
        # Every product a crack or an edge scan made: one per cracked
        # row, two (both bounds) per scanned one.
        scanned = sum(r["hi"] - r["lo"] for r in named["edge-scan"])
        assert scanned == 16
        assert stats.kernel_fast_products == stats.cracked_rows + 2 * scanned
        # The phases nest in the one engine-query span, and sit inside
        # the QueryStats timing windows.
        phases = [r for name in PHASE_SPANS for r in named[name]]
        assert {r["parent"] for r in phases} == {engine_query["index"]}
        span_total = sum(r["duration"] for r in phases)
        assert span_total <= stats.total_seconds * 1.001 + 1e-4
        assert engine_query["duration"] >= span_total

    def test_kernel_product_spans_nest_under_phases(self, traced):
        obs, __ = traced
        by_index = {span.index: span for span in obs.tracer.spans}
        kernel_spans = [
            s for s in obs.tracer.spans if s.name == "kernel-product"
        ]
        assert kernel_spans
        for span in kernel_spans:
            assert by_index[span.parent].name in ("crack", "edge-scan")


class TestStatsEqualRegistryDeltas:
    """A query's QueryStats is what it added to the registry."""

    @pytest.fixture()
    def db(self):
        return OutsourcedDatabase(VALUES, seed=9, min_piece_size=8)

    def _check_query_delta(self, db, low, high):
        before = _registry_values(db.obs)
        db.query(low, high)
        delta = _delta(before, _registry_values(db.obs))
        stats = db.server.stats_log[-1]
        for field, metric in STATS_METRIC_OF_FIELD.items():
            assert delta[metric] == pytest.approx(getattr(stats, field)), (
                "field %s drifted from metric %s" % (field, metric)
            )
        assert delta["kernel.fast_products"] == stats.kernel_fast_products > 0
        assert delta["kernel.exact_products"] == stats.kernel_exact_products

    def test_query_insert_delete_merge_rotate(self, db):
        self._check_query_delta(db, 100, 200)
        self._check_query_delta(db, 40, 60)

        # Inserts and deletes emit no per-query engine stats; their
        # registry footprint must not touch the query metrics.
        before = _registry_values(db.obs)
        inserted = db.insert(1000)
        db.delete(inserted)
        assert _delta(before, _registry_values(db.obs)) == {
            name: 0 for name in QUERY_METRIC_NAMES
        }

        # A query with rows pending exercises the pending-scan fold.
        db.insert(1001)
        self._check_query_delta(db, 900, 1100)

        # Merge routes pending rows through the kernel; those products
        # belong to no query, but the registry still sees them.
        before = _registry_values(db.obs)
        db.merge()
        merge_delta = _delta(before, _registry_values(db.obs))
        assert merge_delta["kernel.exact_products"] > 0
        assert merge_delta["query.cracks"] == 0

        # Key rotation rebuilds the server around the same registry:
        # history survives and the per-query contract still holds.
        served_before = db.obs.metrics.counter_value("server.queries_served")
        db.rotate_key(new_seed=77)
        assert db.obs.metrics.counter_value("session.key_rotations") == 1
        assert (
            db.obs.metrics.counter_value("server.queries_served")
            > served_before
        )
        self._check_query_delta(db, 150, 250)

    def test_a_query_that_raises_midway_is_booked_too(self, db, monkeypatch):
        """The left bound cracks the column, the right bound's crack
        raises: the entry is logged and flushed by the ``finally``."""
        server = db.server
        column = server.engine.column
        crack, calls = column.crack, []

        def crack_once(*args):
            if calls:
                raise RuntimeError("disk on fire")
            calls.append(args)
            return crack(*args)

        monkeypatch.setattr(column, "crack", crack_once)
        before = _registry_values(db.obs)
        with pytest.raises(RuntimeError):
            server.execute(db.client.make_query(100, 200))
        delta = _delta(before, _registry_values(db.obs))
        assert len(server.stats_log) == 1
        stats = server.stats_log[-1]
        assert (stats.cracks, stats.cracked_rows) == (1, len(VALUES))
        assert stats.search_seconds > 0 and stats.result_count == 0
        for field, metric in STATS_METRIC_OF_FIELD.items():
            assert delta[metric] == pytest.approx(getattr(stats, field))
        assert delta["kernel.fast_products"] == stats.kernel_fast_products
        assert stats.kernel_fast_products == len(VALUES)
        assert delta["kernel.exact_products"] == stats.kernel_exact_products

    def test_stats_log_sums_equal_registry_for_query_only_workload(self):
        db = OutsourcedDatabase(VALUES, seed=21, min_piece_size=8)
        for low in (50, 200, 350, 125):
            db.query(low, low + 80)
        for field, metric in STATS_METRIC_OF_FIELD.items():
            total = sum(getattr(s, field) for s in db.server.stats_log)
            assert db.obs.metrics.counter_value(metric) == pytest.approx(
                total
            )


    @staticmethod
    def _documented(*prefixes):
        """Names with one of ``prefixes`` in the first column of the
        tables of ``docs/observability.md``, sorted."""
        path = os.path.join(
            os.path.dirname(__file__), os.pardir, "docs", "observability.md"
        )
        with open(path, encoding="utf-8") as handle:
            name_cells = [
                line.split("|")[1] for line in handle if line.startswith("| `")
            ]
        return sorted(
            name
            for cell in name_cells
            for name in re.findall(r"`([^`]+)`", cell)
            if name.startswith(prefixes)
        )

    def test_documented_query_metrics_equal_the_emitted_ones(self):
        """The ``kernel.*`` / ``query.*`` rows of the metric table in
        ``docs/observability.md`` are exactly ``QUERY_METRIC_NAMES``."""
        assert self._documented("kernel.", "query.") == sorted(
            QUERY_METRIC_NAMES
        )

    def test_documented_server_and_protocol_metrics_are_emitted(self, db):
        """Its ``server.*`` / ``protocol.*`` / ``client.*`` rows are
        exactly what a session's registry holds after it used every
        operation."""
        db.query(100, 200)
        db.delete(db.insert(1000))
        db.insert(1001)
        db.merge()
        emitted = sorted(
            name
            for name in db.obs.metrics.snapshot()["counters"]
            if name.startswith(("server.", "protocol.", "client."))
        )
        assert self._documented("server.", "protocol.", "client.") == emitted

    def test_documented_frame_wait_metrics_are_emitted(self):
        """Its ``net.frames_*`` rows are exactly what a TCP endpoint
        emits once it has served a polled and a parked frame."""
        endpoint = serve()
        thread = threading.Thread(target=endpoint.serve_forever, daemon=True)
        thread.start()
        try:
            with TcpTransport(*endpoint.server_address) as transport:
                hello = encode(HelloRequest())
                for _ in range(5):
                    transport.exchange(hello)
                time.sleep(0.05)
                transport.exchange(hello)
        finally:
            endpoint.stop()
            thread.join(timeout=5)
        counters = endpoint.catalog.obs.metrics.snapshot()["counters"]
        assert self._documented("net.frames_") == sorted(
            name for name in counters if name.startswith("net.frames_")
        )

    def test_documented_net_catalog_and_wal_metrics_are_the_emitted_names(
        self
    ):
        """Every ``net.*`` / ``catalog.*`` / ``wal.*`` name the metric
        table and the gauge / histogram prose of
        ``docs/observability.md`` document is a metric-name literal under
        ``src/repro``, and every such literal is documented.  No
        ``replication.*`` / ``replicaset.*`` name is documented: read
        replicas are deleted."""
        prefixes = ("net.", "catalog.", "wal.")
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        with open(os.path.join(root, "docs", "observability.md"),
                  encoding="utf-8") as handle:
            text = handle.read()
        prose = re.findall(r"^(?:Gauges|Histograms):.*?(?=\n\n)", text,
                           re.MULTILINE | re.DOTALL)
        assert len(prose) == 2
        documented = set(self._documented(*prefixes)) | {
            name
            for paragraph in prose
            for name in re.findall(r"`([^`]+)`", paragraph)
            if name.startswith(prefixes)
        }
        literals = set()
        for directory, __, files in os.walk(os.path.join(root, "src", "repro")):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(directory, name),
                              encoding="utf-8") as handle:
                        literals.update(re.findall(
                            r"[\"'](?:net|catalog|wal)\.[a-z_]+[\"']",
                            handle.read(),
                        ))
        assert documented == {literal[1:-1] for literal in literals}
        assert not re.findall(r"`replica(?:tion|set)\.", text)


class TestProtocolBytes:
    def test_bytes_counted_both_directions(self):
        db = OutsourcedDatabase(VALUES, seed=11)
        result = db.query(10, 400)
        assert db.round_trips == 1
        assert db.bytes_sent > 0
        assert db.bytes_received > 0
        # The response carries the qualifying ciphertext rows plus ids,
        # so received bytes dominate a high-selectivity query.
        assert db.bytes_received > db.bytes_sent
        assert len(result.values) == 391

    def test_maintenance_traffic_not_counted(self):
        db = OutsourcedDatabase(VALUES, seed=12)
        db.query(0, 50)
        trips, sent, received = (
            db.round_trips, db.bytes_sent, db.bytes_received,
        )
        db.rotate_key(new_seed=5)
        assert (db.round_trips, db.bytes_sent, db.bytes_received) == (
            trips, sent, received,
        )


class TestPendingScanHardening:
    def test_pending_products_fold_into_stats_when_recording(self):
        client = TrustedClient(seed=31)
        rows, row_ids = client.encrypt_dataset(VALUES[:64])
        server = SecureServer(rows, row_ids)
        server.insert(client.encrypt_value(17))
        server.insert(client.encrypt_value(900))
        server.execute(client.make_query(0, 100))
        stats = server.stats_log[-1]
        assert stats.kernel_fast_products == (
            server.obs.metrics.counter_value("kernel.fast_products")
        )
        # Two pending rows, two bounds, on top of the engine's own.
        assert stats.kernel_fast_products >= stats.cracked_rows + 4
        assert stats.kernel_exact_products == (
            server.obs.metrics.counter_value("kernel.exact_products")
        ) == 0


class TestAuditMatchesLeakageAnalysis:
    @pytest.fixture()
    def audited(self):
        obs = Observability(audit=True)
        client = TrustedClient(seed=41)
        rows, row_ids = client.encrypt_dataset(VALUES)
        engine = SecureAdaptiveIndex(
            EncryptedColumn(rows, row_ids, obs=obs), min_piece_size=4, obs=obs
        )
        rng = np.random.default_rng(43)
        for _ in range(25):
            low = int(rng.integers(0, 450))
            engine.query(client.make_query(low, low + int(rng.integers(5, 60))))
        return obs, engine

    def test_crack_event_count_matches_stats_prediction(self, audited):
        obs, engine = audited
        events = audit_crack_events(obs.audit.to_dicts())
        assert len(events) == predicted_crack_events(engine.stats_log)
        assert len(events) == obs.audit.counts()["crack"]

    def test_audit_boundaries_reproduce_engine_state(self, audited):
        obs, engine = audited
        total = len(engine)
        boundaries = audit_piece_boundaries(obs.audit.to_dicts(), total)
        assert boundaries == engine.piece_boundaries()
        assert resolved_order_fraction(
            boundaries, total
        ) == pytest.approx(
            resolved_order_fraction(engine.piece_boundaries(), total)
        )

    def test_bounds_are_opaque_labels(self, audited):
        obs, __ = audited
        for record in obs.audit.to_dicts():
            for key in ("bound", "bound_high"):
                label = record.get(key)
                assert label is None or label.startswith("ct")


class TestCliObservability:
    @pytest.fixture()
    def column_file(self, tmp_path):
        path = tmp_path / "col.txt"
        path.write_text("\n".join(str(v) for v in VALUES[:128]) + "\n")
        return str(path)

    def test_query_stats_flag(self, column_file, capsys):
        from repro.cli import main

        assert main(["query", column_file, "--range", "5", "60",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "bytes sent" in out and "bytes received" in out
        assert "fast products" in out and "exact products" in out

    def test_stats_subcommand_renders_snapshot(self, column_file, capsys):
        from repro.cli import main

        assert main(["stats", column_file, "--range", "5", "60"]) == 0
        out = capsys.readouterr().out
        for metric in ("kernel.fast_products", "kernel.exact_products",
                       "protocol.bytes_sent", "protocol.bytes_received"):
            assert metric in out

    def test_stats_subcommand_json(self, column_file, capsys):
        from repro.cli import main

        assert main(["stats", column_file, "--range", "5", "60",
                     "--json"]) == 0
        out = capsys.readouterr().out
        snapshot = json.loads(out[out.index("{"):])
        assert snapshot["counters"]["protocol.round_trips"] == 1

    def test_trace_subcommand_writes_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        # More rows than a word-sized column scans uncracked.
        path = tmp_path / "wide.txt"
        path.write_text("\n".join(
            str(v) for v in np.random.default_rng(5).permutation(4096)))
        output = str(tmp_path / "out.jsonl")
        assert main(["trace", str(path), "--range", "5", "60",
                     "--output", output]) == 0
        records = [
            json.loads(line) for line in open(output).read().splitlines()
        ]
        names = {r["name"] for r in records}
        assert {"session-query", "server-execute", "engine-query",
                "crack"} <= names
        assert "wrote %d spans" % len(records) in capsys.readouterr().out
