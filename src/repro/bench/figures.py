"""Per-figure experiment builders (paper, Section 5).

Each ``figure*`` / ``ablation*`` function reproduces one plot of the
paper's evaluation at a configurable (default: laptop-friendly) scale
and returns the plotted series as plain data structures; the
``benchmarks/`` targets render and persist them.  Scales are uniformly
smaller than the paper's 1M-32M rows / 50K queries (pure-Python
constant factors), with the geometric structure preserved — see
DESIGN.md's substitution notes.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.harness import (
    QueryTrace,
    build_plain_engine,
    build_session,
    run_client_sequence,
    run_plain_sequence,
    run_session_sequence,
)
from repro.analysis.entropy import (
    ambiguous_rank_entropy,
    residual_rank_entropy,
)
from repro.analysis.leakage import (
    ambiguous_resolved_order_fraction,
    piece_index_per_row,
    resolved_order_fraction,
)
from repro.crypto.attacks import (
    BoundRecoveryAttack,
    ValueRecoveryAttack,
    pairs_needed_to_break,
    recover_payload_positions,
)
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor
from repro.workloads.datasets import unique_uniform
from repro.workloads.generators import (
    random_workload,
    selectivity_ladder_workload,
    sequential_workload,
)

#: Data domain used by the scaled experiments.  The paper draws values
#: from [0, 2^31); the scaled default keeps that domain (selectivity is
#: relative, so the span adapts).
DOMAIN = (0, 2 ** 31)


def run_grid(
    sizes: Sequence[int],
    data_kinds: Sequence[str],
    query_count: int,
    selectivity: float = 0.01,
    seed: int = 0,
    session_kwargs: Dict = None,
) -> Dict[Tuple[str, int], QueryTrace]:
    """Replay the default workload over a (data kind x size) grid.

    The shared driver behind Figures 6-11: every cell runs the paper's
    default workload (random ranges, fixed selectivity) on a fresh
    engine over fresh uniform unique data.
    """
    session_kwargs = dict(session_kwargs or {})
    traces: Dict[Tuple[str, int], QueryTrace] = {}
    for size in sizes:
        values = unique_uniform(size, DOMAIN, seed=seed)
        queries = random_workload(
            query_count, DOMAIN, selectivity=selectivity, seed=seed + 1
        )
        for kind in data_kinds:
            if kind == "plain":
                tick = time.perf_counter()
                engine = build_plain_engine(values)
                build_seconds = time.perf_counter() - tick
                trace = run_plain_sequence(engine, queries)
                trace.build_seconds = build_seconds
            else:
                session = build_session(values, kind, seed=seed, **session_kwargs)
                trace = run_session_sequence(session, queries)
                trace.build_seconds = session.build_seconds
            traces[(kind, size)] = trace
    return traces


def figure12_key_size(
    key_lengths: Sequence[int] = (4, 8, 16, 32, 64),
    size: int = 10000,
    query_count: int = 200,
    selectivity: float = 0.01,
    seed: int = 0,
    **session_kwargs,
) -> Dict[int, QueryTrace]:
    """Figure 12: per-query cost of the encrypted engine vs key size ``l``.

    The paper uses 10M rows and reports response time rising
    proportionally with ``l`` for early queries and the effect fading
    as the index converges.  ``session_kwargs`` go to every session.
    """
    values = unique_uniform(size, DOMAIN, seed=seed)
    queries = random_workload(query_count, DOMAIN, selectivity, seed=seed + 1)
    traces: Dict[int, QueryTrace] = {}
    for length in key_lengths:
        session = build_session(
            values, "encrypted", seed=seed, key_length=length, **session_kwargs
        )
        traces[length] = run_session_sequence(session, queries)
    return traces


def figure13_client(
    size: int = 10000,
    selectivities: Sequence[float] = (0.001, 0.003, 0.009, 0.027, 0.081),
    queries_per_group: int = 40,
    seed: int = 0,
) -> Dict[str, QueryTrace]:
    """Figure 13: client-side FPR and decrypt+filter runtime.

    The paper runs 1K queries over 10M rows in five selectivity groups
    (0.1% .. 8.1%, geometric), comparing encrypted vs encrypted with
    ambiguity; FPR hovers around 50% regardless of selectivity and the
    ambiguity decrypt cost is about double.  Every returned row is
    opened and timed (:func:`~repro.bench.harness.run_client_sequence`),
    as the paper's client decrypts each row it receives.
    """
    values = unique_uniform(size, DOMAIN, seed=seed)
    queries = selectivity_ladder_workload(
        DOMAIN, selectivities, queries_per_group, seed=seed + 1
    )
    results: Dict[str, QueryTrace] = {}
    for kind in ("encrypted", "ambiguous"):
        session = build_session(values, kind, seed=seed)
        results[kind] = run_client_sequence(session, queries)
    return results


def ablation_attacks(
    key_lengths: Sequence[int] = (3, 4, 6, 8, 12, 16),
    observations: int = 8,
    seed: int = 0,
) -> List[Dict]:
    """Ablation 1-2: the Section 3.5 attacks, executed.

    For each key size: (a) the known-ciphertext attack on the noise
    layer (pre-matrix vectors) — hypotheses tried (``C(l,2)``, the
    paper's polynomial bound) and whether the payload positions were
    uniquely recovered; (b) the known-plaintext bound-recovery attack —
    pairs needed before the functional decrypts 20 fresh bounds exactly
    (constant ~3, stronger than the paper's sketch); (c) the
    known-plaintext *value*-recovery attack — pairs needed before the
    ratio functional decrypts 20 fresh values (``O(l)``, the paper's
    count).
    """
    rng = random.Random(seed)
    rows: List[Dict] = []
    for length in key_lengths:
        key = generate_key(length, seed=seed + length)
        encryptor = Encryptor(key, seed=seed + length + 1)
        observed = []
        for _ in range(observations):
            bound = rng.randrange(0, 2 ** 31)
            value = rng.randrange(0, 2 ** 31)
            observed.append(
                (
                    encryptor.bound_pre_image(encryptor.encrypt_bound(bound)),
                    encryptor.pre_image(encryptor.encrypt_value(value))[0],
                )
            )
        noise_attack = recover_payload_positions(observed)
        noise_correct = (
            noise_attack.unique
            and set(noise_attack.consistent_hypotheses[0])
            == set(key.payload_positions)
        )
        bound_holdout = [
            (b, encryptor.encrypt_bound(b))
            for b in (rng.randrange(0, 2 ** 31) for _ in range(20))
        ]
        bound_pairs = pairs_needed_to_break(
            BoundRecoveryAttack(),
            (
                (b, encryptor.encrypt_bound(b))
                for b in iter(lambda: rng.randrange(0, 2 ** 31), None)
            ),
            bound_holdout,
            limit=4 * length + 8,
        )
        value_holdout = [
            (v, encryptor.encrypt_value(v))
            for v in (rng.randrange(0, 2 ** 31) for _ in range(20))
        ]
        value_pairs = pairs_needed_to_break(
            ValueRecoveryAttack(),
            (
                (v, encryptor.encrypt_value(v))
                for v in iter(lambda: rng.randrange(0, 2 ** 31), None)
            ),
            value_holdout,
            limit=4 * length + 8,
        )
        rows.append(
            {
                "key_length": length,
                "noise_hypotheses": noise_attack.hypotheses_tested,
                "noise_positions_recovered": noise_correct,
                "bound_pairs_to_break": bound_pairs,
                "value_pairs_to_break": value_pairs,
            }
        )
    return rows


def ablation_leakage(
    size: int = 3000,
    query_count: int = 400,
    checkpoints: Sequence[int] = (1, 5, 10, 25, 50, 100, 200, 400),
    min_piece_size: int = None,
    seed: int = 0,
) -> Dict[str, List[Tuple[int, float]]]:
    """Ablation 3: order leakage by structure over the query sequence.

    Tracks the resolved-order fraction (Section 4.1) for the encrypted
    engine, and — with ambiguity — the fraction of *logical* record
    pairs an adversary can still resolve (Section 4.2's defence).
    ``min_piece_size`` is the sessions' (None: derived, their default).
    """
    values = unique_uniform(size, DOMAIN, seed=seed)
    queries = random_workload(query_count, DOMAIN, 0.01, seed=seed + 1)
    checkpoints = sorted(set(checkpoints))
    series: Dict[str, List[Tuple[int, float]]] = {
        "encrypted_physical": [],
        "ambiguous_physical": [],
        "ambiguous_logical": [],
        "encrypted_entropy_bits": [],
        "ambiguous_targeted_entropy_bits": [],
    }
    for kind in ("encrypted", "ambiguous"):
        session = build_session(
            values, kind, seed=seed, min_piece_size=min_piece_size
        )
        engine = session.server.engine
        total = len(engine)
        for count, query in enumerate(queries, start=1):
            session.query(*query.as_args())
            if count not in checkpoints:
                continue
            boundaries = engine.piece_boundaries()
            physical = resolved_order_fraction(boundaries, total)
            series["%s_physical" % kind].append((count, physical))
            if kind == "encrypted":
                series["encrypted_entropy_bits"].append(
                    (count, residual_rank_entropy(boundaries, total))
                )
            if kind == "ambiguous":
                pieces = piece_index_per_row(boundaries, total)
                ids = engine.column.row_ids
                position_of = {int(rid): pos for pos, rid in enumerate(ids)}
                per_logical = {
                    logical: (2 * logical, 2 * logical + 1)
                    for logical in range(size)
                }
                logical = ambiguous_resolved_order_fraction(
                    pieces, per_logical, position_of,
                    sample_pairs=4000, seed=seed,
                )
                series["ambiguous_logical"].append((count, logical))
                series["ambiguous_targeted_entropy_bits"].append(
                    (
                        count,
                        ambiguous_rank_entropy(
                            boundaries, total, per_logical, position_of
                        ),
                    )
                )
    return series


def ablation_threshold(
    size: int = 20000,
    thresholds: Sequence[int] = (1, 64, 256, 1024, 4096),
    query_count: int = 300,
    seed: int = 0,
) -> Dict[int, Dict[str, float]]:
    """Ablation 4: the piece-size cracking threshold (Section 2.2).

    Larger thresholds stop cracking earlier (bounded leakage, fewer
    indexed cracks) at the cost of scanning edge pieces; the paper argues
    the threshold "can be bigger (e.g., L3 cache size) without a
    significant performance drop".
    """
    values = unique_uniform(size, DOMAIN, seed=seed)
    queries = random_workload(query_count, DOMAIN, 0.01, seed=seed + 1)
    out: Dict[int, Dict[str, float]] = {}
    for threshold in thresholds:
        engine = build_plain_engine(values, min_piece_size=threshold)
        trace = run_plain_sequence(engine, queries)
        boundaries = engine.piece_boundaries()
        out[threshold] = {
            "total_seconds": trace.total_seconds(),
            "tree_nodes": float(len(engine.cracks)),
            "resolved_order_fraction": resolved_order_fraction(
                boundaries, len(engine)
            ),
        }
    return out


def ablation_stochastic(
    size: int = 20000,
    query_count: int = 300,
    seed: int = 0,
) -> Dict[str, QueryTrace]:
    """Ablation 5: stochastic vs query-bound cracking on a hostile sweep.

    A sequential workload makes plain cracking shave one slice per
    query; DDR-style random pivots (and, on the encrypted side,
    client-supplied jitter pivots) restore geometric convergence.
    """
    values = unique_uniform(size, DOMAIN, seed=seed)
    queries = sequential_workload(query_count, DOMAIN, 0.01)
    out: Dict[str, QueryTrace] = {}
    out["plain_cracking"] = run_plain_sequence(
        build_plain_engine(values), queries
    )
    out["plain_stochastic"] = run_plain_sequence(
        build_plain_engine(
            values, kind="stochastic", ddr_piece_limit=max(64, size // 16),
            seed=seed,
        ),
        queries,
    )
    session = build_session(values, "encrypted", seed=seed)
    out["encrypted_cracking"] = run_session_sequence(session, queries)
    jitter_session = build_session(
        values, "encrypted", seed=seed, jitter_pivots=1
    )
    out["encrypted_jitter"] = run_session_sequence(jitter_session, queries)
    return out
