"""Unit tests for the benchmark harness, figure builders, reporting."""

import os

import numpy as np
import pytest

from repro.bench.figures import (
    ablation_leakage,
    ablation_threshold,
    figure12_key_size,
    figure13_client,
    run_grid,
)
from repro.bench.harness import (
    QueryTrace,
    build_plain_engine,
    build_session,
    run_plain_sequence,
    run_session_sequence,
)
from repro.bench.reporting import (
    format_series,
    format_table,
    sample_indices,
    save_report,
)
from repro.workloads.datasets import unique_uniform
from repro.workloads.generators import random_workload


class TestHarness:
    def test_plain_trace(self):
        values = unique_uniform(500, seed=0)
        queries = random_workload(10, (0, 2 ** 31), seed=1)
        trace = run_plain_sequence(build_plain_engine(values), queries)
        assert len(trace.seconds) == 10
        assert len(trace.crack_seconds) == 10
        assert trace.total_seconds() > 0
        cumulative = trace.cumulative()
        assert np.all(np.diff(cumulative) >= 0)

    def test_plain_engine_kinds(self):
        values = unique_uniform(200, seed=0)
        for kind in ("adaptive", "stochastic", "scan", "sort"):
            engine = build_plain_engine(values, kind=kind)
            assert len(engine.query(0, 2 ** 30)) > 0

    def test_unknown_plain_kind(self):
        with pytest.raises(ValueError):
            build_plain_engine([1], kind="quantum")

    def test_session_kinds(self):
        values = unique_uniform(100, seed=0)
        for kind in ("encrypted", "ambiguous", "securescan"):
            session = build_session(values, kind, seed=0)
            assert session.build_seconds > 0
            queries = random_workload(3, (0, 2 ** 31), seed=1)
            trace = run_session_sequence(session, queries)
            assert len(trace.client_seconds) == 3
            assert len(trace.false_positive_rates) == 3

    def test_unknown_session_kind(self):
        with pytest.raises(ValueError):
            build_session([1], "plaintext")

    def test_trace_defaults(self):
        trace = QueryTrace()
        assert trace.total_seconds() == 0
        assert trace.cumulative().size == 0


class TestFigureBuilders:
    def test_run_grid_shapes(self):
        traces = run_grid((100, 200), ("plain", "encrypted"), 5, seed=0)
        assert set(traces) == {
            ("plain", 100),
            ("plain", 200),
            ("encrypted", 100),
            ("encrypted", 200),
        }
        for trace in traces.values():
            assert len(trace.seconds) == 5

    def test_figure12_key_sizes(self):
        traces = figure12_key_size(
            key_lengths=(4, 16), size=400, query_count=5, seed=0
        )
        assert set(traces) == {4, 16}
        # In the server's unit of work, not in seconds (at 400 rows a
        # query is mostly per-call overhead).  The key size never
        # changes how many scalar products a query costs — cracks
        # follow the plaintext order, which no key touches ...
        assert traces[4].products[0] > 0
        assert traces[16].products == traces[4].products
        # ... only what one of them costs: l multiply-adds, the paper's
        # O(l), over rows and bounds of l components each.
        values = unique_uniform(400, seed=0)
        for length in (4, 16):
            session = build_session(
                values, "encrypted", seed=0, key_length=length
            )
            query = session.client.make_query(0, 2 ** 30)
            rows = session.server.execute(query).rows
            assert rows.length == query.low.eb.length == length

    def test_figure13_fpr(self):
        results = figure13_client(size=400, queries_per_group=4, seed=0)
        enc = np.mean(results["encrypted"].false_positive_rates)
        amb = np.mean(results["ambiguous"].false_positive_rates)
        assert enc == 0.0
        assert 0.2 < amb < 0.8

    def test_ablation_threshold(self):
        out = ablation_threshold(
            size=2000, thresholds=(1, 512), query_count=30, seed=0
        )
        assert out[512]["tree_nodes"] < out[1]["tree_nodes"]
        assert out[512]["resolved_order_fraction"] < out[1][
            "resolved_order_fraction"
        ]

    def test_ablation_leakage_logical_below_physical(self):
        series = ablation_leakage(
            size=400, query_count=50, checkpoints=(50,), seed=0
        )
        __, physical = series["ambiguous_physical"][-1]
        __, logical = series["ambiguous_logical"][-1]
        assert logical < physical


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_format_series_samples(self):
        text = format_series(
            "title", "query", list(range(1, 101)),
            {"y": [float(i) for i in range(100)]}, samples=5,
        )
        assert text.startswith("title")
        assert "query" in text

    def test_sample_indices_short(self):
        assert sample_indices(5, 10) == [0, 1, 2, 3, 4]

    def test_sample_indices_log_spaced(self):
        picked = sample_indices(1000, 10)
        assert picked[0] == 0 and picked[-1] == 999
        assert picked == sorted(picked)

    def test_save_report(self, tmp_path):
        path = save_report("test.txt", "hello", directory=str(tmp_path))
        assert os.path.exists(path)
        with open(path) as handle:
            assert handle.read() == "hello\n"


class TestAsciiChart:
    def test_renders_all_series(self):
        from repro.bench.reporting import ascii_chart

        chart = ascii_chart(
            "t", [1, 10, 100], {"up": [1, 2, 3], "down": [3, 2, 1]}
        )
        assert chart.startswith("t")
        assert "a = up" in chart and "b = down" in chart
        assert "a" in chart and "b" in chart

    def test_skips_nonpositive_under_log(self):
        from repro.bench.reporting import ascii_chart

        chart = ascii_chart("t", [1, 2], {"s": [0.0, 5.0]})
        # Only one plottable point; still renders.
        assert "a = s" in chart

    def test_no_points(self):
        from repro.bench.reporting import ascii_chart

        chart = ascii_chart("t", [1, 2], {"s": [0.0, 0.0]})
        assert "no plottable points" in chart

    def test_linear_axes(self):
        from repro.bench.reporting import ascii_chart

        chart = ascii_chart(
            "t", [0, 1, 2], {"s": [-1.0, 0.0, 1.0]},
            log_x=False, log_y=False,
        )
        assert "a = s" in chart

    def test_constant_series(self):
        from repro.bench.reporting import ascii_chart

        chart = ascii_chart("t", [1, 2, 3], {"s": [5.0, 5.0, 5.0]})
        assert "a = s" in chart
