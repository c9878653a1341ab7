"""Tests for the command-line interface."""

import json
import threading

import pytest

from repro.cli import main


@pytest.fixture()
def column_file(tmp_path):
    path = tmp_path / "values.txt"
    path.write_text("# comment\n10\n20\n30\n\n40\n")
    return str(path)


class TestDemo:
    def test_runs(self, capsys):
        assert main(["demo", "--rows", "200", "--queries", "5"]) == 0
        out = capsys.readouterr().out
        assert "first query" in out
        assert "crack bounds" in out

    def test_with_ambiguity(self, capsys):
        assert main(
            ["demo", "--rows", "100", "--queries", "5", "--ambiguity"]
        ) == 0
        assert "false-positive rate" in capsys.readouterr().out


class TestQuery:
    def test_range_and_point(self, capsys, column_file):
        code = main(
            ["query", column_file, "--range", "15", "35", "--point", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "range [15, 35]: 2 rows" in out
        assert "point 40: 1 rows" in out

    def test_scan_engine(self, capsys, column_file):
        assert main(
            ["query", column_file, "--engine", "scan", "--range", "0", "100"]
        ) == 0
        assert "4 rows" in capsys.readouterr().out

    def test_no_queries_hint(self, capsys, column_file):
        assert main(["query", column_file]) == 0
        assert "no queries given" in capsys.readouterr().out

    def test_missing_file(self, capsys, tmp_path):
        assert main(["query", str(tmp_path / "nope.txt")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_content(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("12\nhello\n")
        assert main(["query", str(path), "--point", "12"]) == 2
        assert "not an integer" in capsys.readouterr().err

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        assert main(["query", str(path)]) == 2


class TestKeygen:
    def test_emits_serialized_key(self, capsys):
        assert main(["keygen", "--length", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        from repro.crypto.serialization import loads

        key = loads(out.strip())
        assert key.length == 6

    def test_deterministic(self, capsys):
        main(["keygen", "--seed", "5"])
        first = capsys.readouterr().out
        main(["keygen", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second


@pytest.fixture()
def live_endpoint():
    """A live ``repro serve``-equivalent endpoint for --connect tests."""
    from repro.net import serve

    server = serve()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.stop()
        thread.join(timeout=5)


class TestStatsAndTrace:
    def test_stats_workload_mode_still_renders(self, capsys, column_file):
        assert main(["stats", column_file, "--range", "15", "35"]) == 0
        assert "net.requests" in capsys.readouterr().out

    def test_stats_without_file_or_connect_fails(self, capsys):
        assert main(["stats"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_stats_connect_live_endpoint(self, capsys, live_endpoint):
        host, port = live_endpoint.server_address
        code = main(["stats", "--connect", "%s:%d" % (host, port)])
        assert code == 0
        out = capsys.readouterr().out
        assert "net.requests" in out
        assert "pool:" in out
        assert "tracer: disabled" in out
        assert "wal:" not in out  # no WAL bound

    def test_stats_connect_prints_one_wal_line(self, capsys, tmp_path,
                                               live_endpoint):
        from repro.core.wal import WalWriter

        with WalWriter(str(tmp_path), fsync="never") as writer:
            live_endpoint.catalog.bind_wal(writer)
            host, port = live_endpoint.server_address
            assert main(["stats", "--connect", "%s:%d" % (host, port)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("wal:")] == [
            "wal: seq 0, 0 segments, 0 bytes (fsync never)"
        ]
        assert not [line for line in lines if "replica" in line]

    def test_stats_connect_json_matches_server(self, capsys, live_endpoint):
        host, port = live_endpoint.server_address
        code = main(["stats", "--connect", "%s:%d" % (host, port),
                     "--json"])
        assert code == 0
        sections = json.loads(capsys.readouterr().out)
        wire = sections["metrics"]["counters"]
        local = live_endpoint.catalog.obs.metrics.snapshot()["counters"]
        # The counters the server would render locally, over the wire —
        # short of the bytes of the reply that carried them (the first
        # reply of this endpoint: the wire has shipped none before it).
        assert wire.pop("server.bytes_shipped", 0) < local.pop(
            "server.bytes_shipped")
        assert wire == local

    def test_trace_workload_mode_still_dumps(self, capsys, column_file,
                                             tmp_path):
        out_path = str(tmp_path / "trace.jsonl")
        code = main(["trace", column_file, "--range", "15", "35",
                     "--output", out_path])
        assert code == 0
        assert "spans to" in capsys.readouterr().out

    def test_trace_without_file_or_merge_fails(self, capsys):
        assert main(["trace"]) == 2
        assert "--merge" in capsys.readouterr().err

    def test_trace_merge_stitches_dumps(self, capsys, tmp_path):
        from repro.obs import Tracer

        client, server = Tracer(enabled=True), Tracer(enabled=True)
        with client.span("rpc", kind="QueryRequest"):
            ctx = client.wire_context()
        with server.span("rpc-serve", remote=ctx):
            pass
        client_path = str(tmp_path / "client.jsonl")
        server_path = str(tmp_path / "server.jsonl")
        merged_path = str(tmp_path / "merged.jsonl")
        client.dump_jsonl(client_path)
        server.dump_jsonl(server_path)
        code = main(["trace", "--merge", client_path, server_path,
                     "--output", merged_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "merged 2 spans from 2 dumps" in out
        records = [json.loads(line)
                   for line in open(merged_path) if line.strip()]
        assert [r["tree_depth"] for r in records] == [0, 1]


class TestRetiredReplicaFlags:
    """The read-replica flags are gone: the parser refuses them."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--replica-of", "127.0.0.1:9045"],
        ["serve", "--replica-id", "r1"],
        ["serve", "--replica-poll", "0.05"],
        ["query", "values.txt", "--connect", "127.0.0.1:9045",
         "--replicas", "127.0.0.1:9046"],
        ["stats", "--connect", "127.0.0.1:9045", "--max-staleness", "2"],
    ], ids=["replica-of", "replica-id", "replica-poll", "replicas",
            "max-staleness"])
    def test_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "unrecognized arguments: %s" % argv[-2] in (
            capsys.readouterr().err)


class TestTop:
    def test_single_iteration_renders(self, capsys, live_endpoint):
        host, port = live_endpoint.server_address
        code = main(["top", "--connect", "%s:%d" % (host, port),
                     "--iterations", "1", "--interval", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "pool:" in out

    def test_connect_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["top"])
