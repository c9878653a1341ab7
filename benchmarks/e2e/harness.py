"""Processes, probes and the untraced end-to-end passes.

The end-to-end numbers come from here: a closed loop, one client
thread, one connection, driving the public
:class:`~repro.core.session.OutsourcedDatabase` exactly as a data
owner would — over TCP to a ``python -m repro serve`` subprocess or
over the in-process loopback — with tracing off.  Results are kept and
checked against the plaintext oracle after the timed window.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from oracle import SortedMultiset, replay
from repro.core.persistence import checkpoint_catalog, recover_catalog
from repro.core.session import OutsourcedDatabase
from repro.core.wal import WalWriter
from repro.errors import ReproError
from repro.net.catalog import ColumnCatalog
from repro.net.client import RemoteColumn
from repro.net.protocol import CODECS, HelloRequest
from repro.net.transport import LoopbackTransport, TcpTransport
from workloads import Inputs, Spec

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")

#: Scratch space (WAL directories) lives inside the checkout and is
#: removed when the run ends, however it ends.
TMP_ROOT = os.path.join(REPO_ROOT, ".bench_e2e_tmp")

#: The column name every pass registers.
COLUMN = "bench"

#: Seed of the program's own randomness (key generation, encryption
#: noise).  ``--seed`` varies the inputs, not the key: ciphertext
#: magnitudes — and with them frame sizes, big-int costs and, with
#: ambiguity, whether the steered counterfeits reach the data's range
#: at all (they do not under seeds 3 or 2016) — depend on the key draw.
KEY_SEED = 11

#: The durability policy of the ``mixed_wal`` endpoint — the CLI default.
FSYNC_POLICY = "always"

#: The CLI's ``--checkpoint-segments`` default, mirrored by the
#: in-process durable catalog.
CHECKPOINT_SEGMENTS = 4

SPAWN_TIMEOUT = 60.0


# -- noise control ------------------------------------------------------------


def pin_cpus() -> Optional[int]:
    """Pin this process to the first allowed cpu; returns the cpu the
    server subprocess should take (the second), or ``None`` when there
    is no second cpu or the platform cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[1]


# -- the calibration probe ---------------------------------------------------
#
# This sandbox shares its host: for seconds to minutes at a time every
# allocation-heavy Python path here runs ~1.7x slower (CPU time too, so
# it is contention for the core and its caches, not descheduling), and a
# ten-second run lands in either state.  Raw medians of one commit then
# spread by 0.1-0.55 between runs.  So the timed loop also times, every
# PROBE_INTERVAL seconds, a fixed piece of benchmark-owned work with the
# same character (a JSON round trip of nested big-int rows), and each
# op's latency is scaled by PROBE_NOMINAL over the probe time around it:
# the end-to-end timings are milliseconds *at the probe's nominal
# speed*, and spread by 0.05-0.13.  Raw timings are kept beside them.

_PROBE_PAYLOAD = {"rows": [
    {"n": [i * 12345678901234567890, -i, i * i], "d": i + 1}
    for i in range(150)
]}

#: What one probe takes inside a run on this box when the host is quiet.
PROBE_NOMINAL = 0.00025

#: Seconds of timed work between two probes (~1 % overhead).
PROBE_INTERVAL = 0.025

#: Probes whose median gives the speed around one op.
PROBE_WINDOW = 7


def probe() -> float:
    """Seconds one fixed JSON round trip takes right now.

    The collector is off meanwhile: the probe allocates thousands of
    objects, and how often that trips a collection — 230 us or 350 us
    on a quiet box — depends on the size of the program's heap, which
    is the program's business and must not leak into the yardstick.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        tick = time.perf_counter()
        json.loads(json.dumps(_PROBE_PAYLOAD))
        return time.perf_counter() - tick
    finally:
        if collecting:
            gc.enable()


def speed_factors(probes: Sequence[float],
                  marks: Sequence[int]) -> List[float]:
    """Per op: ``PROBE_NOMINAL`` over the median of the probes around
    the one taken last before it (``marks`` indexes into ``probes``)."""
    half = PROBE_WINDOW // 2
    smooth = [
        statistics.median(probes[max(0, i - half):i + half + 1])
        for i in range(len(probes))
    ]
    return [PROBE_NOMINAL / smooth[mark] for mark in marks]


# -- probes -------------------------------------------------------------------


def peak_rss_mb(pid: int = None) -> float:
    """``VmHWM`` of a process in MB (this one when ``pid`` is None)."""
    try:
        with open("/proc/%s/status" % ("self" if pid is None else pid)) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds another process has used so far."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- scratch directory --------------------------------------------------------


class WorkDir:
    """A scratch directory under the checkout, removed on exit."""

    def __enter__(self) -> str:
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
        return self.path

    def __exit__(self, exc_type, exc, tb) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run is using it


# -- the server subprocess ----------------------------------------------------


class ServerProcess:
    """One ``python -m repro serve`` subprocess on an ephemeral port.

    A context manager: leaving the block (normally, on an error or on
    Ctrl-C) kills the process and waits for it.
    """

    def __init__(self, wal_dir: str = None, cpu: int = None) -> None:
        self.wal_dir = wal_dir
        self.cpu = cpu
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.banner = ""
        self.spawn_seconds = 0.0

    def start(self) -> "ServerProcess":
        command = [sys.executable, "-m", "repro", "serve",
                   "--host", "127.0.0.1", "--port", "0"]
        if self.wal_dir is not None:
            command += ["--wal", self.wal_dir, "--fsync", FSYNC_POLICY]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, cwd=REPO_ROOT, bufsize=0,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            if self.cpu is not None:
                os.sched_setaffinity(self.process.pid, {self.cpu})
            self._await_banner(started + SPAWN_TIMEOUT)
        except BaseException:
            # Not yet inside a ``with`` body: nobody else would reap it.
            self.kill()
            raise
        self.spawn_seconds = time.perf_counter() - started
        return self

    def _await_banner(self, deadline: float) -> None:
        """Read the server's output until its ``serving`` line.

        Unbuffered reads behind ``select()``: a buffered ``readline``
        could swallow the line and leave ``select()`` waiting on an
        empty pipe.
        """
        output = b""
        match = None
        while match is None:
            remaining = deadline - time.perf_counter()
            ready = remaining > 0 and select.select(
                [self.process.stdout], [], [], remaining
            )[0]
            chunk = (os.read(self.process.stdout.fileno(), 4096)
                     if ready else b"")
            if not chunk:
                raise RuntimeError(
                    "repro serve did not come up: %r" % (output,)
                )
            output += chunk
            match = re.search(rb"^serving .* on [\d.]+:(\d+) .*\n", output,
                              re.MULTILINE)
        self.port = int(match.group(1))
        self.banner = output.decode("utf-8", "replace")

    @property
    def pid(self) -> int:
        return self.process.pid

    def replayed_entries(self) -> int:
        """WAL entries the server replayed on start (from its banner)."""
        match = re.search(r"replayed (\d+) WAL entries", self.banner)
        return int(match.group(1)) if match else 0

    def kill(self) -> None:
        """SIGKILL and reap (idempotent) — no drain, no checkpoint."""
        if self.process is not None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGKILL)
            self.process.wait()
            self.process.stdout.close()
            self.process = None

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.kill()


# -- sessions -----------------------------------------------------------------


def durable_catalog(wal_dir: str):
    """An in-process catalog journaling to ``wal_dir`` the way
    ``repro serve --wal`` binds one; returns ``(catalog, writer)``."""
    catalog, _ = recover_catalog(wal_dir)
    writer = WalWriter(wal_dir, fsync=FSYNC_POLICY)
    catalog.bind_wal(
        writer,
        checkpoint=lambda: checkpoint_catalog(catalog, wal_dir, writer),
        checkpoint_segments=CHECKPOINT_SEGMENTS,
    )
    return catalog, writer


def open_session(spec: Spec, inputs: Inputs, transport=None,
                 catalog: ColumnCatalog = None) -> OutsourcedDatabase:
    """Key generation + dataset encryption + column upload — what
    ``setup_s`` times.  ``catalog`` loops the session onto an existing
    in-process endpoint; with neither it owns a private one."""
    if catalog is not None:
        transport = LoopbackTransport(catalog)
    return OutsourcedDatabase(
        inputs.values,
        ambiguity=spec.ambiguity,
        seed=KEY_SEED,
        auto_merge_threshold=spec.merge_threshold,
        transport=transport,
        column=COLUMN,
        codec="auto",
    )


def drive(db, ops: Sequence[tuple], seconds: float = None):
    """Run ``ops`` in order through the session, one at a time.

    Stops after the op that crosses ``seconds`` (all of ``ops`` when
    None).  Returns ``(latencies, factors, outcomes)``: raw seconds per
    op, the calibration factor to scale each by, and what each op
    produced — the exception, for an op that raised a
    :class:`ReproError`.
    """
    latencies: List[float] = []
    outcomes: List = []
    marks: List[int] = []
    clock = time.perf_counter
    probes = [probe()]
    begun = clock()
    next_probe = begun + PROBE_INTERVAL
    deadline = float("inf") if seconds is None else begun + seconds
    for op in ops:
        tick = clock()
        if tick >= next_probe:
            probes.append(probe())
            tick = clock()
            next_probe = tick + PROBE_INTERVAL
        try:
            if op[0] == "q":
                outcome = db.query(op[1], op[2]).values
            elif op[0] == "i":
                outcome = db.insert(op[1])
            else:
                outcome = db.delete(op[1])
        except ReproError as exc:
            outcome = exc
        tock = clock()
        latencies.append(tock - tick)
        outcomes.append(outcome)
        marks.append(len(probes) - 1)
        if tock >= deadline:
            break
    probes.append(probe())
    return latencies, speed_factors(probes, marks), outcomes


class Pass:
    """One session over a workload and what it measured.

    A pass owns its plaintext model: every phase it runs is replayed
    into the model afterwards, outside the timed window.
    """

    def __init__(self, inputs: Inputs) -> None:
        self._inputs = inputs
        self.server_pid: Optional[int] = None   # set while it serves us
        self.session = None
        self.model: SortedMultiset = None
        self.setup_seconds: List[float] = []    # raw
        self.setup_factors: List[float] = []    # parallel
        self.ops: List[tuple] = []              # timed ops, in order
        self.latencies: List[float] = []        # raw seconds, parallel
        self.factors: List[float] = []          # calibration, parallel
        self.wall_seconds = 0.0                 # sum of raw latencies
        self.wire_bytes = 0
        self.attempted = 0                  # warm-up and crash check too
        self.failed = 0
        self.acked_mutations = 0            # warm-up too
        self.client_cpu = 0.0
        self.server_cpu = 0.0
        self.server_rss_mb = 0.0
        self.retries = 0
        self.busy_rejected = 0
        self.recovery_seconds = 0.0
        self.replayed_entries = 0
        self.wal_bytes = 0                  # journaled after set-up

    def latencies_ms(self, kind: str, raw: bool = False) -> List[float]:
        """Latencies of the timed ops of one kind, calibrated unless
        ``raw``."""
        return [
            1e3 * latency * (1.0 if raw else factor)
            for op, latency, factor
            in zip(self.ops, self.latencies, self.factors)
            if op[0] == kind
        ]

    def open(self, opener, *args, **kwargs):
        """Open a fresh session through ``opener``, timed as a set-up
        between two rounds of probes."""
        probes = [probe() for _ in range(PROBE_WINDOW)]
        started = time.perf_counter()
        self.session = opener(*args, **kwargs)
        self.setup_seconds.append(time.perf_counter() - started)
        probes += [probe() for _ in range(PROBE_WINDOW)]
        self.setup_factors.append(PROBE_NOMINAL / statistics.median(probes))
        self.model = SortedMultiset(self._inputs.values)
        return self.session

    def run(self, ops: Sequence[tuple], seconds: float = None,
            timed: bool = True) -> None:
        """Drive ``ops`` on the open session, then check them against
        the model; an untimed (warm-up) phase only counts its ops."""
        db = self.session
        server = self.server_pid if timed else None
        bytes_before = db.bytes_sent + db.bytes_received
        server_before = cpu_seconds(server) if server else 0.0
        cpu_before = time.process_time()
        latencies, factors, outcomes = drive(db, ops, seconds)
        done = ops[:len(latencies)]
        if timed:
            self.client_cpu += time.process_time() - cpu_before
            if server:
                self.server_cpu += cpu_seconds(server) - server_before
            self.wire_bytes += (
                db.bytes_sent + db.bytes_received - bytes_before)
            self.ops.extend(done)
            self.latencies.extend(latencies)
            self.factors.extend(factors)
            self.wall_seconds += sum(latencies)
        self.attempted += len(done)
        self.failed += replay(self.model, done, outcomes)
        self.acked_mutations += sum(
            1 for op, outcome in zip(done, outcomes)
            if op[0] != "q" and not isinstance(outcome, BaseException)
        )


@contextlib.contextmanager
def loopback_pass(spec: Spec, inputs: Inputs, workdir: str,
                  setup_reps: int, opener=open_session):
    """A pass over an in-process endpoint: the end-to-end run of a
    loopback workload, the untraced reference of a traced run, or
    (with the staged ``opener``) the traced run itself."""
    result = Pass(inputs)
    writer = None
    try:
        for rep in range(setup_reps):
            catalog = None
            if spec.wal:
                if writer is not None:
                    writer.close()
                catalog, writer = durable_catalog(
                    os.path.join(workdir, "loop-%d" % rep)
                )
            result.open(opener, spec, inputs, catalog=catalog)
        yield result
    finally:
        if writer is not None:
            writer.close()


def _directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


@contextlib.contextmanager
def tcp_pass(spec: Spec, inputs: Inputs, workdir: str,
             server_cpu: Optional[int], setup_reps: int):
    """A pass over TCP to a ``repro serve`` subprocess, every set-up on
    a fresh endpoint.  Leaving the block reads the endpoint's counters;
    a durable workload then gets SIGKILL, a restart and a full read."""
    result = Pass(inputs)
    for rep in range(setup_reps):
        wal_dir = os.path.join(workdir, "tcp-%d" % rep) if spec.wal else None
        with ServerProcess(wal_dir, server_cpu) as server:
            transport = TcpTransport("127.0.0.1", server.port)
            try:
                db = result.open(open_session, spec, inputs, transport)
                if rep < setup_reps - 1:
                    continue
                journaled = _directory_bytes(wal_dir) if spec.wal else 0
                result.server_pid = server.pid
                yield result
                result.server_rss_mb = peak_rss_mb(server.pid)
                counters = db.remote.telemetry(["metrics"])["metrics"][
                    "counters"]
                result.busy_rejected = int(
                    counters.get("net.busy_rejected", 0))
                result.retries = int(
                    db.obs.metrics.counter_value("net.retries"))
            finally:
                result.server_pid = None
                transport.close()
            if spec.wal:
                server.kill()
                result.wal_bytes = _directory_bytes(wal_dir) - journaled
                _recover(result, server, db)


def _recover(result: Pass, server: ServerProcess, db) -> None:
    """Restart the killed durable endpoint on the same directory and
    read everything back: every acknowledged write must be there."""
    server.start()
    result.recovery_seconds = server.spawn_seconds
    result.replayed_entries = server.replayed_entries()
    result.server_rss_mb = max(result.server_rss_mb,
                               peak_rss_mb(server.pid))
    result.attempted += 1
    remote = RemoteColumn(TcpTransport("127.0.0.1", server.port), COLUMN)
    try:
        response = remote.query(db.client.make_query(None, None))
        values = db.client.decrypt_results(
            response.row_ids, response.rows).values
        if sorted(int(v) for v in values) != result.model.range():
            result.failed += 1
    except ReproError:
        result.failed += 1
    finally:
        remote.close()


#: Ops per turn when several passes take turns on the same ops.
BLOCK = 25


def exercise(passes: Sequence[Pass], spec: Spec, inputs: Inputs,
             seconds: float = None, op_count: int = None) -> None:
    """Warm every pass up, then time the workload's ops on each.

    One pass times ``op_count`` ops, or as many as fit in ``seconds``.
    Several passes (a traced run) time the same ``op_count`` ops in
    turns of :data:`BLOCK`, so that whatever the machine is doing to
    one of them it is doing to all — their ratios stay meaningful on a
    shared box whose speed changes by the second.
    """
    ops = inputs.ops
    stop = len(ops) if op_count is None else spec.warmup + op_count
    for each in passes:
        each.run(ops[:spec.warmup], timed=False)
    if len(passes) == 1:
        passes[0].run(ops[spec.warmup:stop], seconds)
        return
    for start in range(spec.warmup, stop, BLOCK):
        for each in passes:
            each.run(ops[start:min(stop, start + BLOCK)])


def run_end_to_end(spec: Spec, inputs: Inputs, workdir: str,
                   server_cpu: Optional[int], seconds: float) -> Pass:
    """The untraced run of one workload for ``seconds`` timed seconds."""
    if spec.mode == "epochs":
        # Every epoch is a fresh column — and so one more set-up
        # sample; whole epochs repeat until the time is used up.
        result = Pass(inputs)
        while result.wall_seconds < seconds:
            result.open(open_session, spec, inputs)
            result.run(inputs.ops)
        return result
    if spec.tcp:
        opened = tcp_pass(spec, inputs, workdir, server_cpu,
                          spec.setup_reps)
    else:
        opened = loopback_pass(spec, inputs, workdir, spec.setup_reps)
    with opened as result:
        exercise([result], spec, inputs, seconds=seconds)
    return result


def hello_rtt_us(server_cpu: Optional[int], count: int = 300) -> float:
    """Median round trip of a ``hello`` on an idle TCP connection."""
    with ServerProcess(cpu=server_cpu) as server:
        remote = RemoteColumn(
            TcpTransport("127.0.0.1", server.port), COLUMN, codec="binary"
        )
        try:
            samples = []
            for _ in range(count):
                tick = time.perf_counter()
                remote.call(HelloRequest(codecs=CODECS))
                samples.append(time.perf_counter() - tick)
        finally:
            remote.close()
    return 1e6 * statistics.median(samples[count // 10:])


# -- end-to-end metrics -------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end_metrics(result: Pass) -> Dict[str, float]:
    """The end-to-end metrics every workload reports (tracing off),
    timings calibrated (see the probe above)."""
    queries = result.latencies_ms("q")
    busy = sum(
        latency * factor
        for latency, factor in zip(result.latencies, result.factors)
    )
    return {
        "setup_s": statistics.median(
            seconds * factor for seconds, factor
            in zip(result.setup_seconds, result.setup_factors)
        ),
        "query_p50_ms": statistics.median(queries),
        "ops_per_s": len(result.ops) / busy,
        "wire_bytes_per_op": result.wire_bytes / len(result.ops),
        "peak_rss_mb": peak_rss_mb() + result.server_rss_mb,
    }


def raw_timings(result: Pass) -> Dict[str, float]:
    """The same timings as measured, uncalibrated, and how much slower
    than nominal the probe ran — kept beside the calibrated ones."""
    queries = result.latencies_ms("q", raw=True)
    return {
        "raw_setup_s": statistics.median(result.setup_seconds),
        "raw_query_p50_ms": statistics.median(queries),
        "raw_query_p95_ms": percentile(queries, 0.95),
        "raw_ops_per_s": len(result.ops) / result.wall_seconds,
        "probe_slowdown": 1.0 / statistics.median(result.factors),
    }
