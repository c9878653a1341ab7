"""Shared benchmark configuration and the common experiment grid.

The paper's Figures 6-11 all derive from one experiment grid (data
kind x size, default workload); running it once per pytest session and
letting each figure target slice it keeps ``pytest benchmarks/
--benchmark-only`` affordable.

Scale knobs (environment variables):

* ``REPRO_BENCH_FAST=1``  — tiny smoke-scale run (CI-friendly).
* ``REPRO_BENCH_LARGE=1`` — larger sizes/queries, closer to the paper's
  shape (slower).

Default scale: sizes 1K-32K (x2 ladder, mirroring the paper's 1M-32M),
300 queries at 1% selectivity.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.figures import run_grid

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
LARGE = os.environ.get("REPRO_BENCH_LARGE") == "1"

if FAST:
    SIZES = (500, 1000)
    QUERY_COUNT = 40
    FIRST_QUERIES = 10
elif LARGE:
    SIZES = (2000, 4000, 8000, 16000, 32000, 64000)
    QUERY_COUNT = 1000
    FIRST_QUERIES = 30
else:
    SIZES = (1000, 2000, 4000, 8000, 16000, 32000)
    QUERY_COUNT = 300
    FIRST_QUERIES = 30

DATA_KINDS = ("plain", "encrypted", "ambiguous", "securescan")


@pytest.fixture(scope="session")
def grid_traces():
    """The shared (data kind x size) grid behind Figures 6-11, cracked
    to single rows as the paper's engine is (left unset, a word-sized
    column would stop cracking at ~1K-row pieces)."""
    return run_grid(
        SIZES, DATA_KINDS, QUERY_COUNT, selectivity=0.01, seed=0,
        session_kwargs={"min_piece_size": 1},
    )
