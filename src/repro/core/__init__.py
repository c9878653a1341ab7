"""The paper's contribution: adaptive indexing over encrypted data.

Server side:

* :class:`repro.core.encrypted_column.EncryptedColumn` — ciphertext
  rows in a dense array, cracked through scalar-product sign tests.
* :class:`repro.core.secure_index.SecureAdaptiveIndex` — the
  query-triggered cracking engine with the encrypted AVL index
  (Section 4.3).
* :class:`repro.core.secure_scan.SecureScan` — the no-index baseline.
* :class:`repro.core.server.SecureServer` — storage, query execution,
  and the pending-update path.

Client side and protocol:

* :class:`repro.core.client.TrustedClient` — the key holder.
* :class:`repro.core.query.EncryptedQuery` — the one-round query
  message (each bound in both encryption modes).
* :class:`repro.core.session.OutsourcedDatabase` — the end-to-end
  plaintext-in / plaintext-out facade.
"""

from repro.core.client import ClientResult, TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.opes_index import OpesOutsourcedDatabase
from repro.core.persistence import restore_server, snapshot_server
from repro.core.query import (
    EncryptedBound,
    EncryptedBoundKey,
    EncryptedQuery,
    compare_encrypted_keys,
)
from repro.core.secure_index import SecureAdaptiveIndex
from repro.core.secure_scan import SecureScan
from repro.core.server import SecureServer, ServerResponse
from repro.core.session import OutsourcedDatabase

__all__ = [
    "ClientResult",
    "TrustedClient",
    "EncryptedColumn",
    "OpesOutsourcedDatabase",
    "restore_server",
    "snapshot_server",
    "EncryptedBound",
    "EncryptedBoundKey",
    "EncryptedQuery",
    "compare_encrypted_keys",
    "SecureAdaptiveIndex",
    "SecureScan",
    "SecureServer",
    "ServerResponse",
    "OutsourcedDatabase",
]
