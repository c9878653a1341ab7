"""kill -9 crash recovery: snapshot + WAL restart over real sockets.

The durability acceptance test: a ``repro serve --wal`` endpoint is
hard-killed (SIGKILL — no graceful drain, no shutdown checkpoint, no
atexit) in the middle of a mutation stream, restarted from its data
directory, and must answer the same queries with the same rows and
report the same per-column epochs as an uninterrupted in-process run
of the acknowledged workload.
"""

import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.core.persistence import (
    recover_catalog,
    restore_server,
    snapshot_server,
)
from repro.core.session import OutsourcedDatabase
from repro.core.wal import WalWriter
from repro.errors import UpdateError
from repro.net.catalog import ColumnCatalog
from repro.net.client import RemoteColumn
from repro.net.transport import LoopbackTransport, TcpTransport

VALUES = [5, 1, 9, 3, 14, 8]
SEED = 29


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_port(port, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), 0.2).close()
            return
        except OSError:
            time.sleep(0.05)
    raise RuntimeError("server on port %d never came up" % port)


def wait_port_closed(port, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), 0.2).close()
            time.sleep(0.05)
        except OSError:
            return
    raise RuntimeError("server on port %d never went down" % port)


@pytest.fixture
def served(tmp_path):
    """Start/kill/restart helper for a durable endpoint subprocess."""
    state = {"process": None, "port": free_port(),
             "data": str(tmp_path / "data")}
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def start(extra=()):
        state["process"] = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", str(state["port"]),
             "--wal", state["data"], "--fsync", "always",
             *extra],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        wait_port(state["port"])
        return state["process"]

    def kill_hard():
        state["process"].send_signal(signal.SIGKILL)
        state["process"].wait(timeout=20)
        wait_port_closed(state["port"])

    state["start"] = start
    state["kill_hard"] = kill_hard
    yield state
    process = state["process"]
    if process is not None and process.poll() is None:
        process.kill()
        process.wait(timeout=20)


def run_workload(db, mutations):
    """The acknowledged mutation stream: returns per-call acks."""
    acked = []
    for kind, arg in mutations:
        if kind == "insert":
            db.insert(arg)
        elif kind == "delete":
            db.delete(arg)
        elif kind == "merge":
            db.merge()
        acked.append((kind, arg))
    return acked


MUTATIONS = [
    ("insert", 42), ("insert", 7), ("merge", None),
    ("delete", 1), ("insert", 23), ("merge", None),
]

QUERIES = [(0, 100), (5, 20), (40, 50)]


def column_epochs(port):
    remote = RemoteColumn(TcpTransport("127.0.0.1", port), "telemetry")
    try:
        return remote.telemetry(["wal"])["wal"]["epochs"]
    finally:
        remote.close()


class TestKillNineRecovery:
    def test_restart_matches_uninterrupted_run(self, served):
        served["start"]()
        transport = TcpTransport("127.0.0.1", served["port"], retries=3)
        db = OutsourcedDatabase(
            VALUES, seed=SEED, transport=transport, column="t"
        )
        acked = run_workload(db, MUTATIONS)
        assert len(acked) == len(MUTATIONS)
        live_results = [sorted(db.query(lo, hi).values)
                        for lo, hi in QUERIES]
        live_epochs = column_epochs(served["port"])

        # SIGKILL mid-batch: a mutation is in flight when the process
        # dies.  Whether it was acked decides whether it must survive.
        try:
            db.insert(99)
            extra_acked = True
        finally:
            served["kill_hard"]()
        # The kill lands after the insert ack here (sequential client),
        # so the acked insert must be durable.

        served["start"]()
        recovered_epochs = column_epochs(served["port"])
        recovered_results = [sorted(db.query(lo, hi).values)
                             for lo, hi in QUERIES]
        # The acked insert survived the crash (pending rows are visible
        # to queries); everything else matches the pre-kill state.
        expected = [list(r) for r in live_results]
        expected[0] = sorted(expected[0] + [99])
        assert recovered_results == expected
        assert recovered_epochs["t"] == live_epochs["t"] + (
            1 if extra_acked else 0
        )
        # And it survives a merge into the main index.
        db.merge()
        assert 99 in db.query(0, 100).values

        # An uninterrupted in-process run of the same acked workload
        # produces identical results and epochs.
        reference = OutsourcedDatabase(VALUES, seed=SEED, column="t")
        run_workload(reference, MUTATIONS)
        reference_results = [sorted(reference.query(lo, hi).values)
                             for lo, hi in QUERIES]
        assert reference_results == live_results
        assert live_epochs["t"] == len(MUTATIONS)

    def test_kill_during_concurrent_mutations(self, served):
        import threading

        served["start"]()
        transport = TcpTransport("127.0.0.1", served["port"], retries=3)
        db = OutsourcedDatabase(
            VALUES, seed=SEED, transport=transport, column="t"
        )
        acked_values = []
        stop = threading.Event()

        def mutate():
            value = 1000
            while not stop.is_set():
                try:
                    db.insert(value)
                except Exception:
                    return  # the kill severed the connection mid-call
                acked_values.append(value)
                value += 1

        worker = threading.Thread(target=mutate)
        worker.start()
        time.sleep(0.4)  # let a batch of inserts through
        served["kill_hard"]()
        stop.set()
        worker.join(timeout=20)
        assert acked_values  # the stream made progress before the kill

        served["start"]()
        # Every acked insert is in the recovered pending buffer: the
        # epoch counts them all, and merging surfaces every value.
        # create_column is epoch 0 and nothing merges (the session sets
        # no merge threshold), so the epoch is exactly one per logged
        # insert: the acked ones, plus at most the one in flight when
        # the kill landed.
        epoch = column_epochs(served["port"])["t"]
        assert len(acked_values) <= epoch <= len(acked_values) + 1
        db.merge()
        # The insert that was in flight when the kill landed may or may
        # not have been logged before the crash; its value is exactly
        # 1000 + len(acked_values), so query just below it — the client
        # never learned that row's ids and cannot decode it.
        recovered = set(map(
            int, db.query(1000, 999 + len(acked_values)).values
        ))
        assert recovered == set(acked_values)

    def test_recovery_equals_loopback_after_graceful_checkpoint(
        self, served
    ):
        """SIGTERM path: checkpoint on shutdown, restart reads the
        snapshot with an empty tail."""
        process = served["start"]()
        transport = TcpTransport("127.0.0.1", served["port"], retries=3)
        db = OutsourcedDatabase(
            VALUES, seed=SEED, transport=transport, column="t"
        )
        run_workload(db, MUTATIONS)
        live = [sorted(db.query(lo, hi).values) for lo, hi in QUERIES]
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=20)
        output = process.stdout.read()
        assert "checkpointed" in output
        wait_port_closed(served["port"])

        served["start"]()
        assert [sorted(db.query(lo, hi).values) for lo, hi in QUERIES] == live


def test_replace_server_cannot_open_an_epoch_gap(tmp_path):
    """create, insert, ``replace_server``, insert, recover: the swap
    used to bump the epoch with no journal entry, so the second insert
    was logged two epochs past the first and recovery refused the
    directory as gapped.  A journaled catalog refuses the swap."""
    catalog = ColumnCatalog()
    catalog.bind_wal(WalWriter(str(tmp_path)))
    db = OutsourcedDatabase(
        VALUES, seed=SEED, transport=LoopbackTransport(catalog), column="c"
    )
    db.insert(42)
    with pytest.raises(UpdateError, match="journaled"):
        catalog.replace_server("c", restore_server(snapshot_server(catalog.server("c"))))
    db.insert(7)
    recovered, __ = recover_catalog(str(tmp_path))
    assert recovered.epochs() == catalog.epochs() == {"c": 2}
