"""Benchmark-owned workload definitions and input generation.

Everything the benchmark feeds the system — the dataset, the range
queries, the insert/query/delete mix — is generated here from numpy
generators seeded by ``--seed``.  Nothing is imported from
``repro.workloads`` or ``repro.bench``, so a change under ``src/``
cannot alter the load; ``inputs_sha256`` fingerprints the generated
inputs so two result files can only be compared when they ran the same
ones.

An *op* is a tuple: ``("q", low, high)``, ``("i", value)`` or
``("d", logical_id, value)`` (the value rides along so the oracle can
remove it without its own id bookkeeping).
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

#: Values are drawn from ``[0, rows * DOMAIN_FACTOR)``: sparse enough
#: to be unique without effort, small enough to stay in int64.
DOMAIN_FACTOR = 50

#: ``--smoke`` divides row and op counts by this.
SMOKE_DIVISOR = 50


@dataclass(frozen=True)
class Spec:
    """One workload: what runs, at what size, and why it exists.

    ``mode`` picks the loop: ``steady`` warms one column up and then
    times queries until the clock runs out; ``epochs`` times a fixed
    query sequence on a *fresh* column and repeats whole epochs;
    ``mixed`` times an insert/query/delete stream against a durable
    endpoint and ends with a crash-recovery check.
    """

    name: str
    why: str
    mode: str
    rows: int
    selectivity: float
    ops: int
    warmup: int = 0
    ambiguity: bool = False
    tcp: bool = False
    wal: bool = False
    merge_threshold: int = None
    #: Set-ups per run, ``setup_s`` being their median: more where one
    #: is cheap (``epochs`` workloads set up once per epoch instead).
    setup_reps: int = 3
    #: Timed ops of each pass of the traced run, per ten seconds asked
    #: for (``epochs`` workloads trace one whole epoch instead).
    trace_ops: int = None
    #: insert / query / delete shares of a ``mixed`` stream.
    mix: Tuple[float, float, float] = (0.0, 1.0, 0.0)


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="range_tcp",
            why="paper sec. 5 ranges (1% of 15k rows) over TCP: codec, "
                "client decryption and transport dominate, the engine "
                "barely matters once cracked",
            mode="steady", rows=15_000, selectivity=0.01, ops=20_000,
            warmup=200, tcp=True, trace_ops=500, setup_reps=5,
        ),
        Spec(
            name="crack_cold",
            why="0.01% queries on a fresh 100k-row column, repeated per "
                "epoch: engine and kernel dominate, shipping is ~5% - "
                "the mirror image of range_tcp",
            mode="epochs", rows=100_000, selectivity=0.0001, ops=2_000,
        ),
        Spec(
            name="mixed_wal",
            why="50/40/10 insert/query/delete on a durable endpoint "
                "(--wal, --fsync always), then SIGKILL and recovery: "
                "write path, merge stalls and durability",
            mode="mixed", rows=12_000, selectivity=0.001, ops=30_000,
            warmup=100, tcp=True, wal=True, merge_threshold=256,
            mix=(0.5, 0.4, 0.1), trace_ops=1_500, setup_reps=5,
        ),
        Spec(
            name="ambiguity_range",
            why="1% ranges over 6k values with ambiguity (2x rows, "
                "l+1 ciphertexts): steered encryption dominates set-up, "
                "half of every decrypted result is discarded",
            mode="steady", rows=6_000, selectivity=0.01, ops=20_000,
            warmup=200, ambiguity=True, trace_ops=400,
        ),
    )
}


def smoke(spec: Spec) -> Spec:
    """The ~1/50-scale variant of a workload (schema checks, not numbers)."""
    return replace(
        spec,
        rows=max(200, spec.rows // SMOKE_DIVISOR),
        ops=max(40, spec.ops // SMOKE_DIVISOR),
        warmup=min(spec.warmup, 10),
        merge_threshold=None if spec.merge_threshold is None else 16,
    )


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one workload for one seed."""

    values: List[int]
    ops: List[tuple]
    sha256: str


def _unique_values(rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` distinct uniform ints from the domain, in random order."""
    domain = rows * DOMAIN_FACTOR
    drawn = np.unique(rng.integers(0, domain, size=2 * rows))
    return rng.permutation(drawn)[:rows]


def _rank_queries(rng, values: np.ndarray, spec: Spec) -> List[tuple]:
    """Random ranges between data values ``k`` ranks apart, so every
    query selects exactly ``k = rows * selectivity`` values whatever
    the seed — the work per query does not depend on the draw."""
    ordered = np.sort(values)
    k = max(1, round(spec.rows * spec.selectivity))
    starts = rng.integers(0, spec.rows - k + 1, size=spec.ops)
    return [
        ("q", int(ordered[s]), int(ordered[s + k - 1])) for s in starts
    ]


#: A ``mixed`` query cell holds at least this many rows on average.
MIN_ROWS_PER_CELL = 12


def _mixed_ops(rng, values: np.ndarray, spec: Spec) -> List[tuple]:
    """The insert/query/delete stream, deletes resolved against the
    live set at generation time so every op is valid when it runs.

    Queries select one cell of a fixed grid over the domain.  That is
    deliberate: ``SecureAdaptiveIndex.insert_row`` corrupts the crack
    partition when a row is rippled into an *empty* piece (it shifts
    the crack on the piece's lower edge too), after which range queries
    return rows outside their bounds.  Free-floating bounds leave empty
    pieces wherever two of them fall between neighbouring values, and
    an insert between the two then trips the defect; grid-aligned
    bounds only leave the pieces between ``k*width - 1`` and
    ``k*width``, which no integer can land in.  A workload must not
    fail ops, and this change may not touch ``src/``.
    """
    domain = spec.rows * DOMAIN_FACTOR
    cells = max(1, min(round(1 / spec.selectivity),
                       spec.rows // MIN_ROWS_PER_CELL))
    width = domain // cells
    kinds = rng.choice(3, size=spec.ops, p=spec.mix)
    draws = rng.integers(0, domain, size=spec.ops)
    picks = rng.random(size=spec.ops)
    value_of = {i: int(v) for i, v in enumerate(values)}
    live = list(value_of)
    next_id = len(live)
    ops: List[tuple] = []
    for kind, draw, pick in zip(kinds, draws, picks):
        draw = int(draw)
        if kind == 0:
            ops.append(("i", draw))
            value_of[next_id] = draw
            live.append(next_id)
            next_id += 1
        elif kind == 1 or not live:
            low = min(draw // width, cells - 1) * width
            ops.append(("q", low, low + width - 1))
        else:
            slot = int(pick * len(live))
            live[slot], live[-1] = live[-1], live[slot]
            logical_id = live.pop()
            ops.append(("d", logical_id, value_of[logical_id]))
    return ops


def generate(spec: Spec, seed: int) -> Inputs:
    """Deterministic inputs of ``spec`` for ``seed``."""
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    values = _unique_values(rng, spec.rows)
    if spec.mode == "mixed":
        ops = _mixed_ops(rng, values, spec)
    else:
        ops = _rank_queries(rng, values, spec)
    digest = hashlib.sha256()
    digest.update(repr((spec.name, spec.rows, spec.ops, seed)).encode())
    digest.update(values.astype(np.int64).tobytes())
    digest.update(repr(ops).encode())
    return Inputs(
        values=[int(v) for v in values], ops=ops, sha256=digest.hexdigest()
    )
