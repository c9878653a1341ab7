"""Smoke test of the end-to-end benchmark (~1/50 scale, < 30 s).

Run as ``PYTHONPATH=src python -m pytest benchmarks/e2e``; tier-1
(``testpaths = ["tests"]``) does not collect it.  It checks the
plumbing, never a speed: the emitted metrics are exactly the declared
ones, no op fails, the staged pipeline moves the session's bytes, and
neither the server subprocess nor the scratch directory outlives a
run — on success, on failure and on Ctrl-C.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(REPO_ROOT, "src")]

import harness  # noqa: E402  (needs the path set up above)

RUN = os.path.join(HERE, "run.py")

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)

WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def command(workload, trace, *extra):
    return [sys.executable, RUN, "--workload", workload, "--seed", "7",
            "--smoke", "--trace", str(trace), *extra]


def scratch():
    """Scratch directories present right now (other runs' included)."""
    try:
        return set(os.listdir(harness.TMP_ROOT))
    except FileNotFoundError:
        return set()


def children_of(pid):
    """Live child pids of ``pid`` (Linux ``/proc`` scan)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return found


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_declared_metrics(workload, trace):
    before = scratch()
    done = subprocess.run(command(workload, trace), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2][len("META "):])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: cell["unit"] for name, cell in result["metrics"].items()
            } == {metric["name"]: metric["unit"] for metric in declared}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    if trace:
        # The staged pipeline's frames are the session's frames.
        assert meta["staged_wire_bytes"] == meta["session_wire_bytes"] > 0
        assert meta["epochs_match"]
    else:
        assert all(cell["value"] > 0 for cell in result["metrics"].values())
    assert scratch() <= before


def test_failure_leaves_no_server_and_no_scratch():
    with pytest.raises(RuntimeError, match="boom"):
        with harness.WorkDir() as workdir:
            wal_dir = os.path.join(workdir, "wal")
            with harness.ServerProcess(wal_dir) as server:
                process = server.process
                assert os.path.isdir(wal_dir)
                raise RuntimeError("boom")
    assert process.poll() is not None
    assert not os.path.exists(workdir)


@pytest.mark.parametrize("delay", (0.0, 1.0),
                         ids=("while-spawning", "mid-run"))
def test_ctrl_c_leaves_no_server_and_no_scratch(delay):
    before = scratch()
    run = subprocess.Popen(command("mixed_wal", 0), stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        servers = []
        while not servers and run.poll() is None:
            assert time.monotonic() < deadline
            servers = children_of(run.pid)
            time.sleep(0.02)
        assert servers, "the run ended before it started a server"
        time.sleep(delay)
        servers += children_of(run.pid)
        run.send_signal(signal.SIGINT)
        assert run.wait(timeout=60) != 0
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
        run.stdout.close()
        run.stderr.close()
    assert not any(os.path.exists("/proc/%d" % pid) for pid in servers)
    assert scratch() <= before
