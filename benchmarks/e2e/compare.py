"""Compare two ``BENCH_e2e.json`` files, one row per (metric, workload).

    python3 benchmarks/e2e/compare.py BASE.json CHANGE.json

Each row shows both medians with their quartiles, the ratio
``CHANGE / BASE`` and a verdict against the metric's ``bound`` in
``BENCHMARK.json``:

* ``regressed``  — CHANGE is worse than BASE by more than the bound
  *and* by more than either side's own run-to-run spread;
* ``unresolved`` — not regressed, but a side's spread (distance between
  its quartiles over its median) is wider than the bound, so "no worse
  than the bound" cannot be claimed either;
* ``ok``         — no worse than the bound, and the spread is tight
  enough to say so.

Exit status: 1 if any row regressed (or CHANGE failed ops BASE did
not), 2 if the two files did not run the same inputs.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))


def spread(cell: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    return abs(cell["q3"] - cell["q1"]) / abs(cell["median"])


def verdict(base: dict, change: dict, better: str, bound: float) -> str:
    if better == "lower":
        worsening = change["median"] / base["median"] - 1.0
    else:
        worsening = base["median"] / change["median"] - 1.0
    noise = max(spread(base), spread(change))
    if worsening > max(bound, noise):
        return "regressed"
    if noise > bound:
        return "unresolved"
    return "ok"


def compare(base: dict, change: dict, declared: dict) -> int:
    mismatched = [
        name for name, entry in base["workloads"].items()
        if entry["inputs_sha256"] != change["workloads"].get(
            name, entry)["inputs_sha256"]
    ]
    if mismatched:
        print("refusing to compare: different inputs (inputs_sha256) for %s "
              "- same --seed and scale are required"
              % ", ".join(mismatched), file=sys.stderr)
        return 2
    status = 0
    print("%-18s %-16s %32s %32s %9s  %s" % (
        "metric", "workload", "base median [q1, q3]",
        "change median [q1, q3]", "change/base", "verdict"))
    for metric in declared["end_to_end"]:
        for name, entry in base["workloads"].items():
            other = change["workloads"].get(name)
            if other is None:
                continue
            a = entry["end_to_end"][metric["name"]]
            b = other["end_to_end"][metric["name"]]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            if outcome == "regressed":
                status = 1
            print("%-18s %-16s %32s %32s %9.4f  %s" % (
                metric["name"], name,
                "%.4f [%.4f, %.4f]" % (a["median"], a["q1"], a["q3"]),
                "%.4f [%.4f, %.4f]" % (b["median"], b["q1"], b["q3"]),
                b["median"] / a["median"], outcome))
    for name, entry in base["workloads"].items():
        other = change["workloads"].get(name)
        if other is not None and other["failed"] > entry["failed"]:
            print("%-18s %-16s failed ops rose from %d to %d  regressed"
                  % ("failed", name, entry["failed"], other["failed"]))
            status = 1
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        change = json.load(handle)
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return compare(base, change, declared)


if __name__ == "__main__":
    sys.exit(main())
