"""Adaptive Indexing over Encrypted Numeric Data — full reproduction.

A from-scratch Python implementation of Karras, Nikitin, Saad, Bhatt,
Antyukhov & Idreos, *Adaptive Indexing over Encrypted Numeric Data*,
SIGMOD 2016: a lightweight linear-algebra encryption scheme under which
a cloud server can evaluate range and point queries and build a
cracking index *on demand*, without ever learning values or their
order up front.

Quickstart::

    from repro import OutsourcedDatabase

    db = OutsourcedDatabase([13, 16, 4, 9, 2, 12, 7, 1], seed=42)
    result = db.query(4, 12)        # one encrypted round trip
    sorted(result.values)           # -> [4, 7, 9, 12]

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.crypto` — the indexable encryption scheme (Section 3)
  and ambiguity layer (Section 4.2).
* :mod:`repro.cracking` — the database-cracking substrate
  (Section 2.2) over plaintext columns.
* :mod:`repro.core` — the secure adaptive index, SecureScan baseline,
  and the client/server sessions (Sections 4-5).
* :mod:`repro.net` — the wire seam: protocol envelopes, loopback/TCP
  transports, and the multi-column server catalog
  (``docs/protocol.md``).
* :mod:`repro.store` — the update ledger (row ids, tombstones).
* :mod:`repro.workloads` — datasets and query workload generators.
* :mod:`repro.analysis` — order-leakage metrics (Section 4.1).
* :mod:`repro.obs` — tracing, metrics, and leakage auditing
  (``docs/observability.md``).
* :mod:`repro.bench` — the harness regenerating every figure of the
  paper's evaluation.
"""

from repro.core import (
    ClientResult,
    OutsourcedDatabase,
    SecureAdaptiveIndex,
    SecureScan,
    SecureServer,
    TrustedClient,
)
from repro.cracking import AdaptiveIndex, FullScanIndex, FullSortIndex
from repro.crypto import Encryptor, SecretKey, generate_key
from repro.obs import Observability

__version__ = "1.0.0"

__all__ = [
    "ClientResult",
    "OutsourcedDatabase",
    "SecureAdaptiveIndex",
    "SecureScan",
    "SecureServer",
    "TrustedClient",
    "AdaptiveIndex",
    "FullScanIndex",
    "FullSortIndex",
    "Encryptor",
    "SecretKey",
    "generate_key",
    "Observability",
    "__version__",
]
