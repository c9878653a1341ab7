"""End-to-end benchmark with a staged per-layer trace.

Two ways to run it, from anywhere:

* one run of one workload — the form ``BENCHMARK.json`` declares and
  the driver calls::

      python3 benchmarks/e2e/run.py --workload range_tcp --seed 1 \\
          --seconds 10 --trace 0

  prints every metric by name with its unit, and as the last line one
  JSON object ``{"correct", "attempted", "failed", "metrics"}``.
  ``--trace 0`` measures the end-to-end metrics with tracing off;
  ``--trace 1`` is the separate traced run that fills the per-layer
  table.

* all four workloads, repeated and interleaved, each run in a fresh
  interpreter::

      python3 benchmarks/e2e/run.py [--seed S] [--reps R] [--traced]
          [--smoke]

  prints the median and quartiles of every metric and writes
  ``benchmarks/e2e/results/BENCH_e2e.json``.

See ``README.md`` beside this file for the workloads, the metrics and
how they interact.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(REPO_ROOT, "src")]

RESULTS = os.path.join(HERE, "results")

#: The run length ``Spec.trace_ops`` is stated for.
NOMINAL_SECONDS = 10.0


def declaration() -> dict:
    """``BENCHMARK.json``: the declared workloads, metrics and bounds."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- one run ------------------------------------------------------------------


def plain_run(spec, inputs, args, workdir, server_cpu):
    """Tracing off: the end-to-end metrics."""
    import harness

    result = harness.run_end_to_end(
        spec, inputs, workdir, server_cpu, args.seconds
    )
    meta = {"timed_ops": len(result.ops),
            "timed_queries": len(result.latencies_ms("q")),
            "setups": len(result.setup_seconds)}
    meta.update(harness.raw_timings(result))
    return (harness.end_to_end_metrics(result), result.attempted,
            result.failed, True, meta)


def traced_run(spec, inputs, args, workdir, server_cpu):
    """The traced run: the same ops through (for a TCP workload) the
    real endpoint, the untraced loopback session and the staged
    pipeline, taking turns."""
    import harness
    import staged

    count = None
    if spec.trace_ops is not None:
        count = max(
            20, round(spec.trace_ops * args.seconds / NOMINAL_SECONDS)
        )
    with contextlib.ExitStack() as stack:
        tcp = None
        if spec.tcp:
            tcp = stack.enter_context(harness.tcp_pass(
                spec, inputs, workdir, server_cpu, setup_reps=1
            ))
        untraced = stack.enter_context(harness.loopback_pass(
            spec, inputs, os.path.join(workdir, "untraced"),
            setup_reps=1,
        ))
        traced = stack.enter_context(harness.loopback_pass(
            spec, inputs, os.path.join(workdir, "staged"),
            setup_reps=1, opener=staged.StagedSession,
        ))
        passes = [p for p in (tcp, untraced, traced) if p is not None]
        harness.exercise(passes, spec, inputs, op_count=count)
    session = traced.session
    metrics = staged.layer_metrics(
        session, untraced.wall_seconds, traced.wall_seconds
    )
    os.makedirs(RESULTS, exist_ok=True)
    session.recorder.dump_jsonl(
        os.path.join(RESULTS, "trace_%s.jsonl" % spec.name)
    )
    end_to_end = tcp if tcp is not None else untraced
    inserts = end_to_end.latencies_ms("i", raw=True)
    metrics.update({
        "transport.hello_rtt_us": 0.0,
        "transport.tcp_overhead_ms": 0.0,
        "transport.client_cpu_ms_per_op": 0.0,
        "transport.server_cpu_ms_per_op": 0.0,
        "transport.retries": 0.0,
        "transport.busy_rejected": 0.0,
        "recovery.replayed_entries": float(end_to_end.replayed_entries),
        "trace.probe_slowdown": 1.0 / statistics.median(untraced.factors),
        "e2e.converge_s": (
            end_to_end.wall_seconds if spec.mode == "epochs" else 0.0),
        "e2e.query_p95_ms": harness.percentile(
            end_to_end.latencies_ms("q", raw=True), 0.95),
        "e2e.insert_p50_ms": statistics.median(inserts) if inserts else 0.0,
        "e2e.recovery_s": end_to_end.recovery_seconds,
        "e2e.wal_bytes_per_mutation": (
            end_to_end.wal_bytes / end_to_end.acked_mutations
            if end_to_end.acked_mutations else 0.0),
    })
    if tcp is not None:
        ops = len(tcp.ops)
        metrics.update({
            "transport.hello_rtt_us": harness.hello_rtt_us(server_cpu),
            "transport.tcp_overhead_ms": (
                statistics.median(tcp.latencies_ms("q", raw=True))
                - statistics.median(untraced.latencies_ms("q", raw=True))),
            "transport.client_cpu_ms_per_op": 1e3 * tcp.client_cpu / ops,
            "transport.server_cpu_ms_per_op": 1e3 * tcp.server_cpu / ops,
            "transport.retries": float(tcp.retries),
            "transport.busy_rejected": float(tcp.busy_rejected),
        })
    # The staged pipeline is only a faithful decomposition if it moves
    # the same bytes as the session and every acknowledged mutation
    # bumped the column's epoch exactly once.
    frames_match = traced.wire_bytes == untraced.wire_bytes
    epochs_match = session.epochs() == traced.acked_mutations
    meta = {"timed_ops": len(traced.ops),
            "staged_wire_bytes": traced.wire_bytes,
            "session_wire_bytes": untraced.wire_bytes,
            "frames_match": frames_match, "epochs_match": epochs_match,
            "spans": len(session.recorder.spans)}
    return (metrics, sum(p.attempted for p in passes),
            sum(p.failed for p in passes), frames_match and epochs_match,
            meta)


def run_one(args) -> int:
    """One run of one workload; the driver's entry point."""
    try:
        import harness
        import workloads
    except ImportError as exc:
        print("cannot import the program under test: %s" % exc,
              file=sys.stderr)
        return 2
    declared = declaration()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    spec = workloads.SPECS[args.workload]
    if args.smoke:
        spec = workloads.smoke(spec)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)  # unwinds the cleanup blocks

    signal.signal(signal.SIGTERM, terminate)
    server_cpu = harness.pin_cpus()
    inputs = workloads.generate(spec, args.seed)
    run = traced_run if args.trace else plain_run
    with harness.WorkDir() as workdir:
        metrics, attempted, failed, consistent, meta = run(
            spec, inputs, args, workdir, server_cpu
        )
    if set(metrics) != set(units):
        print("emitted and declared %s metrics differ: %s"
              % (section, sorted(set(metrics) ^ set(units))),
              file=sys.stderr)
        return 2
    for name in units:
        print("%-34s %16.6f %s" % (name, metrics[name], units[name]))
    meta.update(workload=spec.name, seed=args.seed, seconds=args.seconds,
                trace=args.trace, smoke=args.smoke,
                inputs_sha256=inputs.sha256, rows=spec.rows,
                fsync=harness.FSYNC_POLICY if spec.wal else None,
                pinned=server_cpu is not None)
    print("META " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": consistent and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


# -- all workloads, repeated --------------------------------------------------


def child_run(workload: str, args, trace: int) -> dict:
    """One run in a fresh interpreter; returns its result and META."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s exited %d" % (" ".join(command),
                                             done.returncode))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["meta"] = json.loads(lines[-2][len("META "):])
    return result


def quartiles(values):
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(args) -> int:
    """Every workload, ``--reps`` times, interleaved so that drift on a
    shared box spreads over all of them instead of landing on one."""
    import numpy

    declared = declaration()
    names = [w["name"] for w in declared["workloads"]]
    runs = {name: [] for name in names}
    for rep in range(args.reps):
        for name in names:
            print("run %d/%d of %s ..." % (rep + 1, args.reps, name),
                  file=sys.stderr)
            runs[name].append(child_run(name, args, trace=0))
    document = {
        "meta": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": git_sha(),
            "seed": args.seed,
            "seconds": args.seconds,
            "reps": args.reps,
            "smoke": args.smoke,
        },
        "workloads": {},
    }
    for name in names:
        entry = {
            "inputs_sha256": runs[name][0]["meta"]["inputs_sha256"],
            "correct": all(run["correct"] for run in runs[name]),
            "attempted": sum(run["attempted"] for run in runs[name]),
            "failed": sum(run["failed"] for run in runs[name]),
            "end_to_end": {},
            # Raw (uncalibrated) timings and probe slowdown of each run.
            "runs": [run["meta"] for run in runs[name]],
        }
        for metric in declared["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"]
                      for run in runs[name]]
            q1, median, q3 = quartiles(values)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1,
                "q3": q3, "n": len(values), "values": values,
            }
        if args.traced:
            print("traced run of %s ..." % name, file=sys.stderr)
            traced = child_run(name, args, trace=1)
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["per_layer"] = traced["metrics"]
        document["workloads"][name] = entry
    for name, entry in document["workloads"].items():
        print("\n== %s: correct=%s failed=%d/%d"
              % (name, entry["correct"], entry["failed"],
                 entry["attempted"]))
        for metric, cell in entry["end_to_end"].items():
            print("%-34s %16.6f %-6s [q1 %.6f, q3 %.6f, n=%d]"
                  % (metric, cell["median"], cell["unit"], cell["q1"],
                     cell["q3"], cell["n"]))
        for metric, cell in entry.get("per_layer", {}).items():
            print("%-34s %16.6f %s" % (metric, cell["value"], cell["unit"]))
    output = args.output
    if output is None and not args.smoke:
        output = os.path.join(RESULTS, "BENCH_e2e.json")
    if output is not None:
        os.makedirs(os.path.dirname(os.path.abspath(output)), exist_ok=True)
        with open(output, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("\nwrote %s" % output)
    ok = all(entry["correct"] for entry in document["workloads"].values())
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run this one workload once (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: "
                             "run_seconds of BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 makes it the traced run")
    parser.add_argument("--traced", action="store_true",
                        help="also make the traced run of each workload")
    parser.add_argument("--reps", type=int, default=3,
                        help="untraced repetitions per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/50 scale: checks the plumbing, not speed")
    parser.add_argument("--output", default=None,
                        help="result file (default: results/BENCH_e2e.json; "
                             "none with --smoke)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        declared = declaration()
    except (OSError, ValueError) as exc:
        print("cannot read BENCHMARK.json: %s" % exc, file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(declared["run_seconds"])
    known = [w["name"] for w in declared["workloads"]]
    if args.workload is not None and args.workload not in known:
        print("unknown workload %r (declared: %s)"
              % (args.workload, ", ".join(known)), file=sys.stderr)
        return 2
    args.trace = int(bool(args.trace or (args.workload and args.traced)))
    try:
        return run_one(args) if args.workload else run_all(args)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
