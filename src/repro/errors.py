"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to distinguish configuration mistakes, cryptographic
failures, and index-state violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class KeyError_(ReproError):
    """A secret key is malformed or cannot be generated.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`KeyError`.
    """


class KeyGenerationError(KeyError_):
    """Key generation failed (e.g. a degenerate ambiguity denominator
    persisted across the retry budget)."""


class EncryptionError(ReproError):
    """A plaintext could not be encrypted under the given key."""


class DecryptionError(ReproError):
    """A ciphertext does not decrypt to a consistent plaintext under the
    given key (wrong key, corrupted ciphertext, or a fake branch)."""


class RowNotHeldError(DecryptionError):
    """A reply named by id alone a row the client does not hold."""


class AmbiguityError(ReproError):
    """The ambiguity layer could not produce a valid two-branch
    ciphertext (e.g. both branches decrypt to odd integers after the
    retry budget)."""


class SerializationError(ReproError):
    """A key or ciphertext could not be serialized or deserialized."""


class PersistenceError(SerializationError):
    """Durable state (a snapshot file or a WAL segment) is malformed:
    truncated beyond the tolerated torn tail, bit-flipped (CRC
    mismatch), out of sequence, or structurally invalid.  A
    :class:`SerializationError` because corrupt persisted bytes are a
    deserialization failure, but typed so recovery tooling can react to
    storage corruption specifically."""


class IndexStateError(ReproError):
    """An adaptive index invariant was violated (internal error) or an
    operation was attempted against an incompatible index state."""


class QueryError(ReproError):
    """A query is malformed (e.g. inverted bounds or an unknown
    predicate operator)."""


class UpdateError(ReproError):
    """An insert/delete could not be applied to the store."""


class ProtocolError(ReproError):
    """The client/server session protocol was violated (e.g. a response
    for an unknown query id)."""


class TransportError(ProtocolError):
    """The transport under a session failed (connection refused, timed
    out, or closed mid-exchange).  A :class:`ProtocolError` because a
    broken transport violates the session protocol, but typed so
    callers can retry connectivity failures specifically."""


class ServerBusyError(ReproError):
    """The endpoint rejected a request under load (its bounded request
    queue was full, or it is draining for shutdown).  The request was
    *never dispatched*, so retrying after a backoff is always safe —
    even for non-idempotent operations."""


class RotationConflictError(UpdateError):
    """A ``rotate_apply`` was fenced off because the column mutated
    between ``rotate_begin`` and ``rotate_apply`` (a concurrent insert,
    delete, or merge).  The column is left intact under the old key;
    the client restarts the rotation from ``rotate_begin``."""


class AttackError(ReproError):
    """An attack simulation was configured inconsistently (not a failure
    of the attack itself — unsuccessful attacks return results)."""
