"""Wire protocol: the message envelopes crossing the client/server seam.

The paper's deployment model (§2.1, §4) is an *outsourced* database:
the trusted client and the honest-but-curious server are separate
parties that exchange only ciphertext messages.  This module makes
that seam explicit.  Every operation a session performs against a
server is one of the request envelopes below; every answer is one of
the response envelopes.  Envelopes serialize to JSON-compatible
dictionaries built on the :mod:`repro.crypto.serialization` codecs
(ciphertexts, queries, responses), each tagged with a ``kind`` and a
``version`` so future layouts can coexist — including a versioned
:class:`ErrorResponse` that carries typed failures across the wire.

A *frame* is the canonical encoding of one envelope.  Two codecs
exist: ``"json"`` (compact UTF-8 JSON with sorted keys — the debug
codec, always understood) and ``"binary"`` (the compact
:mod:`repro.net.binframe` codec: magic + version + codec-id header,
varint lengths, a row block's numerators as one fixed-width run).  Both
are deterministic — the same envelope always encodes to the same bytes
— so the loopback and TCP transports produce byte-identical traffic
for the same workload (pinned by tests), and measured frame lengths
are meaningful transfer accounting.  :func:`decode_frame` auto-detects
the codec by the first byte, and peers negotiate the preferred codec
with a ``hello`` envelope.

What a message *is* is stated once, in the envelope registry below
(:data:`ENVELOPES`): one row per envelope giving its wire ``kind``, its
fields (each a named :class:`FieldType` owning that field's encode,
decode and validation), the reply it is answered with, and how it is
classified (retried? served by a replica? refused by one? journaled?).
The four ``*_to_dict`` / ``*_from_dict`` codecs, the catalog's
dispatch, the client's retry and reply checks, replica read routing
and the WAL's entry validation all read that table.

Pipelining: a ``batch_request`` envelope carries N independent
sub-request envelopes in one frame; the catalog answers with a
``batch_response`` carrying one response envelope per sub-request —
error envelopes included, so one failing sub-request never poisons its
batch.

The column addressed by a request is named: one endpoint (a
:class:`~repro.net.catalog.ColumnCatalog`) hosts many columns, each
backed by its own :class:`~repro.core.server.SecureServer` engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.query import EncryptedQuery
from repro.core.server import ServerResponse
from repro.crypto.ciphertext import ValueCiphertext
from repro.crypto.serialization import (
    flag_from_wire,
    ints_from_wire,
    query_from_dict,
    query_to_dict,
    response_from_dict as server_response_from_dict,
    response_to_dict as server_response_to_dict,
    rows_from_dict,
    rows_to_dict,
)
from repro.errors import (
    PersistenceError,
    ProtocolError,
    QueryError,
    ReadOnlyError,
    ReproError,
    RotationConflictError,
    SerializationError,
    ServerBusyError,
    TransportError,
    UpdateError,
)
from repro.linalg.limbs import PackedInts
from repro.net.binframe import (
    decode_binary_frame,
    encode_binary_frame,
    is_binary_frame,
)

#: Version tag carried by every envelope on the wire.  2: row sets
#: (``ROWS`` fields and the ``SERVER_RESPONSE`` body) travel as one
#: flat block instead of a list of per-row ciphertext objects.  3: so
#: does a query (the ``QUERY`` field).  A frame of an older version is
#: refused with a typed error, never reinterpreted.
PROTOCOL_VERSION = 3

#: Frame codecs this peer can speak, preference-ordered for hello.
CODECS: Tuple[str, ...] = ("binary", "json")

#: Server-engine configuration keys a ``create_column`` request may
#: carry; the defaults mirror :class:`~repro.core.server.SecureServer`.
CONFIG_DEFAULTS: Dict[str, Any] = {
    "engine": "adaptive",
    "auto_merge_threshold": None,
    "min_piece_size": 1,
    "use_three_way": False,
}


# -- field types -----------------------------------------------------------------


def _column_from_wire(value) -> str:
    if not isinstance(value, str) or not value:
        raise SerializationError("column name must be a non-empty string")
    return value


def request_ids(ids):
    """Row ids as a request holds them: an upload's
    :class:`~repro.linalg.limbs.PackedInts` run stays the run it is
    (the frame codec writes its words; nothing is boxed on the way),
    anything else becomes a tuple of ints."""
    if type(ids) is PackedInts:
        return ids
    return tuple(int(i) for i in ids)


def _ids_to_list(ids) -> List[int]:
    if type(ids) is PackedInts:
        return ids
    return [int(i) for i in ids]


def _ids_from_list(items) -> Tuple[int, ...]:
    return tuple(ints_from_wire(items, "row ids"))


def _upload_ids_from_list(items):
    """An upload's row ids as they arrive: the run a binary frame
    decodes a long one to stays that run (the column reads its words),
    anything else becomes a tuple of ints."""
    ids = ints_from_wire(items, "row ids")
    return ids if type(ids) is PackedInts else tuple(ids)


def _strings_to_list(items) -> List[str]:
    return [str(item) for item in items]


def _strings_from_list(items) -> Tuple[str, ...]:
    if not isinstance(items, list) or not all(
        isinstance(item, str) for item in items
    ):
        raise SerializationError("expected a list of strings")
    return tuple(items)


def _sections_payload(data) -> Dict[str, Any]:
    if not isinstance(data, dict) or not all(
        isinstance(key, str) for key in data
    ):
        raise SerializationError(
            "telemetry sections must be an object with string keys"
        )
    return dict(data)


def _snapshot_payload(data) -> Dict[str, Any]:
    if not isinstance(data, dict):
        raise SerializationError("replication snapshot must be an object")
    return data


#: Keys a shard descriptor carries on the wire.
_SHARD_KEYS = ("of", "index", "count", "physical_per_value")


def _shard_descriptor(data) -> Dict[str, Any]:
    """Validate a shard descriptor (the same check in both directions)."""
    if not isinstance(data, dict):
        raise SerializationError("shard metadata must be an object")
    unknown = set(data) - set(_SHARD_KEYS)
    if unknown:
        raise SerializationError(
            "unknown shard metadata keys: %s" % ", ".join(sorted(unknown))
        )
    logical = data.get("of")
    if not isinstance(logical, str) or not logical:
        raise SerializationError("shard 'of' must be a non-empty string")
    try:
        count = int(data["count"])
        index = int(data["index"])
        per_value = int(data.get("physical_per_value", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError("malformed shard metadata: %s" % exc) from exc
    if count < 1 or not 0 <= index < count or per_value not in (1, 2):
        raise SerializationError(
            "inconsistent shard metadata: index=%r count=%r "
            "physical_per_value=%r" % (index, count, per_value)
        )
    return {
        "of": logical,
        "index": index,
        "count": count,
        "physical_per_value": per_value,
    }


def _replica_id_from_wire(value) -> str:
    if not isinstance(value, str) or not value:
        raise SerializationError("replica_id must be a non-empty string")
    return value


def _epochs_to_dict(epochs) -> Dict[str, int]:
    return {str(name): int(epoch) for name, epoch in epochs.items()}


def _epochs_from_dict(data) -> Dict[str, int]:
    if not isinstance(data, dict):
        raise SerializationError("epochs must be an object")
    epochs = {}
    for name, epoch in data.items():
        if not isinstance(name, str) or not name:
            raise SerializationError("epoch keys must be column names")
        if (not isinstance(epoch, int) or isinstance(epoch, bool)
                or epoch < 0):
            raise SerializationError(
                "epoch for column %r must be an int >= 0" % name
            )
        epochs[name] = epoch
    return epochs


def _wal_entries_to_list(entries) -> List[Dict[str, Any]]:
    return [dict(entry) for entry in entries]


def _wal_entries_from_list(items) -> Tuple[Dict[str, Any], ...]:
    # Imported here: repro.core.wal owns the entry shape, and a
    # module-level import would tie every protocol user to the WAL
    # machinery.
    from repro.core.wal import entry_from_wire

    if not isinstance(items, list):
        raise SerializationError("replication entries must be a list")
    return tuple(entry_from_wire(item) for item in items)


def _config_from_dict(data) -> Dict[str, Any]:
    if not isinstance(data, dict):
        raise SerializationError("column config must be an object")
    unknown = set(data) - set(CONFIG_DEFAULTS)
    if unknown:
        raise SerializationError(
            "unknown column config keys: %s" % ", ".join(sorted(unknown))
        )
    return dict(data)


def _sub_requests_to_list(requests) -> List[Dict[str, Any]]:
    if any(isinstance(sub, BatchRequest) for sub in requests):
        raise SerializationError("batch requests cannot nest")
    return [request_to_dict(sub) for sub in requests]


def _sub_requests_from_list(items) -> Tuple[Any, ...]:
    if not isinstance(items, list):
        raise SerializationError("batch requests must be a list")
    if any(isinstance(item, dict) and item.get("kind") == "batch_request"
           for item in items):
        raise SerializationError("batch requests cannot nest")
    return tuple(request_from_dict(item) for item in items)


def _sub_responses_to_list(responses) -> List[Dict[str, Any]]:
    return [response_to_dict(sub) for sub in responses]


def _sub_responses_from_list(items) -> Tuple[Any, ...]:
    if not isinstance(items, list):
        raise SerializationError("batch responses must be a list")
    return tuple(response_from_dict(item) for item in items)


#: ``FieldType.absent`` of a type whose every value goes on the wire.
_ALWAYS_SENT = object()


@dataclass(frozen=True)
class FieldType:
    """A named wire field type: owns one field's encode, decode and
    validation.  ``decode`` raises ``SerializationError`` (or
    ``KeyError`` / ``TypeError`` / ``ValueError``, which the envelope
    decoder wraps) on a malformed wire value.  ``absent`` is the
    attribute value an *optional* field leaves off the wire."""

    name: str
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    absent: Any = _ALWAYS_SENT


def _nullable(base: FieldType) -> FieldType:
    """``OPT_<base>``: ``None`` stays off the wire and a wire ``null``
    decodes to ``None``."""
    return FieldType(
        "OPT_" + base.name,
        base.encode,
        lambda value: None if value is None else base.decode(value),
        absent=None,
    )


def _as_is(value):
    return value


COLUMN = FieldType("COLUMN", _as_is, _column_from_wire)
STR = FieldType("STR", _as_is, str)
INT = FieldType("INT", int, int)
FLAG = FieldType("FLAG", bool, flag_from_wire, absent=False)
IDS = FieldType("IDS", _ids_to_list, _ids_from_list)
#: The ids of a whole column (create, rotation): :data:`IDS` that keeps
#: a decoded run unboxed.
UPLOAD_IDS = FieldType("UPLOAD_IDS", _ids_to_list, _upload_ids_from_list)
#: A row set: any sequence of value ciphertexts encodes, as one flat
#: block (see :func:`repro.crypto.serialization.rows_to_dict`); it
#: decodes to a :class:`~repro.crypto.ciphertext.RowBlock`.
ROWS = FieldType("ROWS", rows_to_dict, rows_from_dict)
QUERY = FieldType("QUERY", query_to_dict, query_from_dict)
SERVER_RESPONSE = FieldType(
    "SERVER_RESPONSE", server_response_to_dict, server_response_from_dict
)
STR_LIST = FieldType("STR_LIST", _strings_to_list, _strings_from_list)
CONFIG = FieldType("CONFIG", dict, _config_from_dict)
SHARD = FieldType("SHARD", _shard_descriptor, _shard_descriptor)
REPLICA_ID = FieldType("REPLICA_ID", str, _replica_id_from_wire)
EPOCHS = FieldType("EPOCHS", _epochs_to_dict, _epochs_from_dict)
SECTIONS = FieldType("SECTIONS", _sections_payload, _sections_payload)
SNAPSHOT = FieldType("SNAPSHOT", _snapshot_payload, _snapshot_payload)
WAL_ENTRIES = FieldType(
    "WAL_ENTRIES", _wal_entries_to_list, _wal_entries_from_list
)
REQUESTS = FieldType("REQUESTS", _sub_requests_to_list, _sub_requests_from_list)
RESPONSES = FieldType(
    "RESPONSES", _sub_responses_to_list, _sub_responses_from_list
)
OPT_INT = _nullable(INT)
OPT_STR_LIST = _nullable(STR_LIST)
OPT_SHARD = _nullable(SHARD)


def wire(ftype: FieldType, key: str = "", optional: bool = False, **default):
    """Declare an envelope attribute's wire form on the dataclass
    field itself (see :class:`Field` for ``key`` and ``optional``);
    ``default`` / ``default_factory`` pass through to the dataclass."""
    return field(metadata={"wire": (ftype, key, optional)}, **default)


# -- request envelopes ----------------------------------------------------------


@dataclass(frozen=True)
class HelloRequest:
    """Codec negotiation: the codecs the client can speak, in
    preference order.  The one column-less request envelope — it
    addresses the endpoint, not a column."""

    codecs: Tuple[str, ...] = wire(STR_LIST, default=CODECS)


@dataclass(frozen=True)
class BatchRequest:
    """N independent sub-requests pipelined into one frame.

    Sub-requests may address different columns; batches never nest.
    """

    requests: Tuple[Any, ...] = wire(REQUESTS)


@dataclass(frozen=True)
class TelemetryRequest:
    """Fetch the endpoint's live telemetry snapshot.

    Column-less like ``hello`` — it addresses the serving process, not
    a column.  ``sections`` optionally restricts the reply to named
    sections (``metrics``, ``tracer``, ``slow_queries``, ``catalog``,
    ``pool``, ...); ``None`` (omitted from the wire) means *all*.
    Unknown section names are ignored, so clients stay compatible with
    servers that export fewer sections.
    """

    sections: Optional[Tuple[str, ...]] = wire(
        OPT_STR_LIST, optional=True, default=None
    )


@dataclass(frozen=True)
class CreateColumnRequest:
    """Upload a freshly encrypted column under a name.

    ``shard`` optionally declares the column one slice of a logical
    sharded column: ``{"of": logical_name, "index": i, "count": n,
    "physical_per_value": p}``.  It is omitted from the wire when
    ``None``, so unsharded frames stay byte-identical to older peers'.
    """

    column: str = wire(COLUMN)
    rows: Sequence[ValueCiphertext] = wire(ROWS)
    row_ids: Tuple[int, ...] = wire(UPLOAD_IDS)
    config: Dict[str, Any] = wire(
        CONFIG, optional=True, default_factory=dict
    )
    shard: Optional[Dict[str, Any]] = wire(
        OPT_SHARD, optional=True, default=None
    )


@dataclass(frozen=True)
class QueryRequest:
    """One range/point query against a named column."""

    column: str = wire(COLUMN)
    query: EncryptedQuery = wire(QUERY)


@dataclass(frozen=True)
class FetchRequest:
    """Materialise rows of a named column by physical id (tuple
    reconstruction)."""

    column: str = wire(COLUMN)
    row_ids: Tuple[int, ...] = wire(IDS)


@dataclass(frozen=True)
class InsertRequest:
    """Buffer newly encrypted rows into a named column."""

    column: str = wire(COLUMN)
    rows: Sequence[ValueCiphertext] = wire(ROWS)


@dataclass(frozen=True)
class DeleteRequest:
    """Tombstone rows of a named column by physical id."""

    column: str = wire(COLUMN)
    row_ids: Tuple[int, ...] = wire(IDS)


@dataclass(frozen=True)
class MergeRequest:
    """Fold a named column's pending buffer into its cracked column."""

    column: str = wire(COLUMN)


@dataclass(frozen=True)
class RotateBeginRequest:
    """Start a key rotation: merge pending state and return every live
    row of the column (the client re-encrypts them under a new key)."""

    column: str = wire(COLUMN)


@dataclass(frozen=True)
class RotateApplyRequest:
    """Finish a key rotation: replace the column's state with rows
    re-encrypted under the new key.  The server rebuilds the engine
    with the column's original configuration; the adaptive index
    restarts empty (its structure was derived under old ciphertexts).

    ``fence`` is the mutation epoch returned by ``rotate_begin``: the
    catalog refuses the apply with a ``conflict`` error envelope if the
    column mutated since that epoch, so concurrent inserts or deletes
    are never silently erased by the rebuild.  ``None`` (a pre-fence
    client) skips the check."""

    column: str = wire(COLUMN)
    rows: Sequence[ValueCiphertext] = wire(ROWS)
    row_ids: Tuple[int, ...] = wire(UPLOAD_IDS)
    fence: Optional[int] = wire(OPT_INT, optional=True, default=None)


@dataclass(frozen=True)
class ReplicateSubscribeRequest:
    """A read replica joins the primary's replication feed.

    Column-less like ``hello`` — it addresses the serving process.  The
    primary answers with a consistent catalog snapshot and the WAL
    sequence number it captures, from which the replica starts pulling
    entries.  ``replica_id`` names the replica in the primary's
    telemetry (``replication.lag_epochs.<replica_id>``)."""

    replica_id: str = wire(REPLICA_ID)


@dataclass(frozen=True)
class ReplicateEntriesRequest:
    """Pull WAL entries after a sequence number (the catch-up loop).

    The primary returns entries with ``seq > after_seq`` (bounded by
    ``limit``) plus its current log head, so the replica knows how far
    behind it still is.  If ``after_seq`` predates the primary's
    retained log (compacted away), the reply carries ``reset`` and the
    replica must re-subscribe from a fresh snapshot."""

    replica_id: str = wire(REPLICA_ID)
    after_seq: int = wire(INT)
    limit: Optional[int] = wire(OPT_INT, optional=True, default=None)


@dataclass(frozen=True)
class ReplicateAckRequest:
    """Report replication progress: the last applied sequence number
    and the replica's per-column mutation epochs.  The primary compares
    them against its own epochs to publish the per-replica
    ``replication.lag_epochs`` gauge."""

    replica_id: str = wire(REPLICA_ID)
    seq: int = wire(INT)
    epochs: Dict[str, int] = wire(
        EPOCHS, optional=True, default_factory=dict
    )


# -- response envelopes ---------------------------------------------------------


@dataclass(frozen=True)
class HelloResponse:
    """Codecs the server supports; the client upgrades to the first
    one both sides share (preferring its own order)."""

    codecs: Tuple[str, ...] = wire(STR_LIST, default=CODECS)


@dataclass(frozen=True)
class BatchResponse:
    """One response envelope per sub-request, in request order.

    Failed sub-requests appear as :class:`ErrorResponse` items; the
    others carry their normal typed responses.
    """

    responses: Tuple[Any, ...] = wire(RESPONSES)


@dataclass(frozen=True)
class TelemetryResponse:
    """The telemetry sections the endpoint serves.

    ``sections`` maps section name to a JSON-compatible payload (the
    producers guarantee JSON compatibility: metrics snapshots, tracer
    summaries, slow-query rings, pool state are all plain dicts).
    """

    sections: Dict[str, Any] = wire(SECTIONS)


@dataclass(frozen=True)
class CreateColumnResponse:
    """Acknowledges a column upload with the stored physical row count.

    ``epoch`` is the column's mutation epoch after creation (0); like
    every mutation-response epoch it is omitted from the wire when
    ``None`` (a pre-replication server), so old frames keep their
    bytes.  Clients use it as a read-your-writes fence when routing
    reads across replicas."""

    column: str = wire(STR)
    rows_stored: int = wire(INT)
    epoch: Optional[int] = wire(OPT_INT, optional=True, default=None)


@dataclass(frozen=True)
class QueryResponse:
    """The qualifying rows of one query, in a single round."""

    response: ServerResponse = wire(SERVER_RESPONSE, key="body")


@dataclass(frozen=True)
class FetchResponse:
    """Rows materialised by id, parallel to the requested ids."""

    rows: Sequence[ValueCiphertext] = wire(ROWS)


@dataclass(frozen=True)
class InsertResponse:
    """Physical ids assigned to buffered rows, in request order.

    ``epoch`` is the column's mutation epoch after the insert (the
    replica-read fence); omitted from the wire when ``None``."""

    row_ids: Tuple[int, ...] = wire(IDS)
    epoch: Optional[int] = wire(OPT_INT, optional=True, default=None)


@dataclass(frozen=True)
class DeleteResponse:
    """Acknowledges tombstoning with the number of ids processed.

    ``epoch`` as on :class:`InsertResponse`."""

    deleted: int = wire(INT)
    epoch: Optional[int] = wire(OPT_INT, optional=True, default=None)


@dataclass(frozen=True)
class MergeResponse:
    """Row-count delta applied by the merge (inserts minus reclaims).

    ``epoch`` as on :class:`InsertResponse`."""

    delta: int = wire(INT)
    epoch: Optional[int] = wire(OPT_INT, optional=True, default=None)


@dataclass(frozen=True)
class RotateBeginResponse:
    """Every live row of the column, for client-side re-encryption.

    ``fence`` is the column's mutation epoch at snapshot time; the
    client echoes it in ``rotate_apply`` so the catalog can reject the
    rebuild if the column mutated in between.  ``None`` only from a
    pre-fence server."""

    response: ServerResponse = wire(SERVER_RESPONSE, key="body")
    fence: Optional[int] = wire(OPT_INT, optional=True, default=None)


@dataclass(frozen=True)
class RotateApplyResponse:
    """Acknowledges the rebuilt column with its stored row count.

    ``epoch`` as on :class:`InsertResponse`."""

    rows_stored: int = wire(INT)
    epoch: Optional[int] = wire(OPT_INT, optional=True, default=None)


@dataclass(frozen=True)
class ReplicateSubscribeResponse:
    """A consistent catalog snapshot plus the WAL sequence number it
    captures.  The replica restores the snapshot and pulls entries
    after ``seq``."""

    snapshot: Dict[str, Any] = wire(SNAPSHOT)
    seq: int = wire(INT)


@dataclass(frozen=True)
class ReplicateEntriesResponse:
    """WAL entries after the requested sequence number.

    ``entries`` are the validated WAL entry dicts (``{"seq", "column",
    "epoch", "request"}``); ``seq`` is the primary's current log head
    (so ``seq - entries[-1].seq`` is the remaining backlog).  ``reset``
    (omitted from the wire when false) means the requested range was
    compacted away and the replica must re-subscribe."""

    entries: Tuple[Dict[str, Any], ...] = wire(WAL_ENTRIES)
    seq: int = wire(INT)
    reset: bool = wire(FLAG, optional=True, default=False)


@dataclass(frozen=True)
class ReplicateAckResponse:
    """Acknowledges a progress report with the lag the primary computed
    from it (total epochs the replica is behind, summed over columns)."""

    lag_epochs: int = wire(INT)


@dataclass(frozen=True)
class ErrorResponse:
    """A typed, versioned failure envelope.

    ``code`` selects the exception class re-raised client-side (see
    :data:`ERROR_CLASSES`); ``message`` is the server-side detail.
    """

    code: str = wire(STR)
    message: str = wire(STR)


#: Wire ``code`` -> exception class raised at the client.  Unknown
#: codes degrade to :class:`ProtocolError` (never a silent pass).
ERROR_CLASSES: Dict[str, type] = {
    "query": QueryError,
    "update": UpdateError,
    "read_only": ReadOnlyError,
    "conflict": RotationConflictError,
    "serialization": SerializationError,
    "persistence": PersistenceError,
    "transport": TransportError,
    "busy": ServerBusyError,
    "protocol": ProtocolError,
    "internal": ProtocolError,
}

#: Most-specific-first mapping of server-side exceptions to wire codes.
_ERROR_CODES: Tuple[Tuple[type, str], ...] = (
    (ServerBusyError, "busy"),
    (RotationConflictError, "conflict"),
    (ReadOnlyError, "read_only"),
    (TransportError, "transport"),
    (QueryError, "query"),
    (UpdateError, "update"),
    (PersistenceError, "persistence"),
    (SerializationError, "serialization"),
    (ProtocolError, "protocol"),
    (ReproError, "internal"),
)


def error_response_for(exc: BaseException) -> ErrorResponse:
    """Wrap a server-side exception into a wire error envelope."""
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return ErrorResponse(code=code, message=str(exc))
    return ErrorResponse(
        code="internal", message="%s: %s" % (type(exc).__name__, exc)
    )


def raise_error_response(error: ErrorResponse) -> None:
    """Re-raise a wire error envelope as its typed exception."""
    raise ERROR_CLASSES.get(error.code, ProtocolError)(error.message)


# -- the envelope registry ---------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """One envelope attribute on the wire (declared with :func:`wire`).

    ``key`` is the wire key (the attribute name unless given).  An
    ``optional`` field may be missing from a frame — the attribute then
    keeps its dataclass default — and is left off the wire while it
    holds its type's ``absent`` value, so frames that never use the
    field keep their exact bytes.
    """

    attribute: str
    type: FieldType
    key: str
    optional: bool


@dataclass(frozen=True)
class EnvelopeSpec:
    """One row of the registry — everything the code base knows about
    one message kind.

    ``fields`` are the dataclass's :func:`wire` declarations, in
    order.  ``reply`` is the response type a request is answered with;
    a row without one describes a response envelope.  The flags
    classify requests: ``idempotent`` (the transport may re-send it
    after a connection loss), ``replica_readable`` (a read replica may
    answer it in the primary's stead), ``mutates`` (changes column
    state: a read replica refuses it) and ``journaled`` (the WAL
    records it — every mutation but ``rotate_begin``, which merges
    pending rows yet bumps no epoch and leaves no log entry).
    """

    cls: type
    kind: str
    fields: Tuple[Field, ...]
    reply: Optional[type] = None
    idempotent: bool = False
    replica_readable: bool = False
    mutates: bool = False
    journaled: bool = False

    @property
    def is_request(self) -> bool:
        return self.reply is not None


#: Envelope dataclass -> its registry row: the one definition the
#: codecs, the catalog, the client, replica routing and the WAL read.
ENVELOPES: Dict[type, EnvelopeSpec] = {}

#: Wire ``kind`` -> row, per direction (the decoders' lookup).
_REQUEST_SPECS: Dict[str, EnvelopeSpec] = {}
_RESPONSE_SPECS: Dict[str, EnvelopeSpec] = {}


def register(cls: type, kind: str, reply: type = None, **flags) -> None:
    """Add one envelope to the protocol: a dataclass whose every field
    is declared with :func:`wire`, its wire ``kind``, and — for a
    request — the reply type and classification flags."""
    fields = []
    for declared in dataclass_fields(cls):
        ftype, key, optional = declared.metadata["wire"]
        fields.append(
            Field(declared.name, ftype, key or declared.name, optional)
        )
    spec = EnvelopeSpec(cls, kind, tuple(fields), reply, **flags)
    ENVELOPES[cls] = spec
    (_REQUEST_SPECS if spec.is_request else _RESPONSE_SPECS)[kind] = spec


def spec_of(envelope) -> EnvelopeSpec:
    """The registry row of an envelope object."""
    try:
        return ENVELOPES[type(envelope)]
    except KeyError:
        raise SerializationError(
            "%s is not a protocol envelope" % type(envelope).__name__
        ) from None


def request_spec(kind) -> Optional[EnvelopeSpec]:
    """The registry row of a request ``kind`` read off an envelope
    dict, or ``None`` for anything that is not a known request kind."""
    return _REQUEST_SPECS.get(kind) if isinstance(kind, str) else None


register(HelloRequest, "hello", HelloResponse, idempotent=True)
register(BatchRequest, "batch_request", BatchResponse)
register(TelemetryRequest, "telemetry_request", TelemetryResponse,
         idempotent=True)
register(CreateColumnRequest, "create_column", CreateColumnResponse,
         mutates=True, journaled=True)
register(QueryRequest, "query_request", QueryResponse,
         idempotent=True, replica_readable=True)
register(FetchRequest, "fetch_request", FetchResponse,
         idempotent=True, replica_readable=True)
register(InsertRequest, "insert_request", InsertResponse,
         mutates=True, journaled=True)
register(DeleteRequest, "delete_request", DeleteResponse,
         mutates=True, journaled=True)
register(MergeRequest, "merge_request", MergeResponse,
         mutates=True, journaled=True)
register(RotateBeginRequest, "rotate_begin", RotateBeginResponse,
         mutates=True)
register(RotateApplyRequest, "rotate_apply", RotateApplyResponse,
         mutates=True, journaled=True)
register(ReplicateSubscribeRequest, "replicate_subscribe",
         ReplicateSubscribeResponse, idempotent=True)
register(ReplicateEntriesRequest, "replicate_entries",
         ReplicateEntriesResponse, idempotent=True)
register(ReplicateAckRequest, "replicate_ack", ReplicateAckResponse,
         idempotent=True)

register(HelloResponse, "hello_response")
register(BatchResponse, "batch_response")
register(TelemetryResponse, "telemetry_response")
register(CreateColumnResponse, "create_column_response")
register(QueryResponse, "query_response")
register(FetchResponse, "fetch_response")
register(InsertResponse, "insert_response")
register(DeleteResponse, "delete_response")
register(MergeResponse, "merge_response")
register(RotateBeginResponse, "rotate_begin_response")
register(RotateApplyResponse, "rotate_apply_response")
register(ReplicateSubscribeResponse, "replicate_subscribe_response")
register(ReplicateEntriesResponse, "replicate_entries_response")
register(ReplicateAckResponse, "replicate_ack_response")
register(ErrorResponse, "error_response")


# -- dict codecs ----------------------------------------------------------------


def _check_envelope(data: Dict[str, Any]) -> str:
    if not isinstance(data, dict):
        raise SerializationError("envelope must be a JSON object")
    if data.get("version") != PROTOCOL_VERSION:
        raise SerializationError(
            "unsupported protocol version: %r" % (data.get("version"),)
        )
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise SerializationError("envelope kind must be a string")
    return kind


def _direction(is_request: bool) -> str:
    return "request" if is_request else "response"


def _to_dict(envelope, is_request: bool) -> Dict[str, Any]:
    spec = ENVELOPES.get(type(envelope))
    if spec is None or spec.is_request is not is_request:
        raise SerializationError(
            "cannot serialize %s of type %s"
            % (_direction(is_request), type(envelope).__name__)
        )
    payload = {"kind": spec.kind, "version": PROTOCOL_VERSION}
    for field_ in spec.fields:
        value = getattr(envelope, field_.attribute)
        if field_.optional and value is field_.type.absent:
            continue
        payload[field_.key] = field_.type.encode(value)
    return payload


def _from_dict(data: Dict[str, Any], is_request: bool):
    kind = _check_envelope(data)
    spec = (_REQUEST_SPECS if is_request else _RESPONSE_SPECS).get(kind)
    if spec is None:
        raise SerializationError(
            "unknown %s kind: %r" % (_direction(is_request), kind)
        )
    values = {}
    try:
        for field_ in spec.fields:
            if field_.optional and field_.key not in data:
                continue
            values[field_.attribute] = field_.type.decode(data[field_.key])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            "malformed %s payload: %s" % (kind, exc)
        ) from exc
    return spec.cls(**values)


def request_to_dict(request) -> Dict[str, Any]:
    """Serialize any request envelope to a JSON-compatible dict."""
    return _to_dict(request, True)


def request_from_dict(data: Dict[str, Any]):
    """Reconstruct a request envelope; raises ``SerializationError`` on
    any malformed payload (never ``KeyError``/``TypeError``)."""
    return _from_dict(data, True)


def response_to_dict(response) -> Dict[str, Any]:
    """Serialize any response envelope to a JSON-compatible dict."""
    return _to_dict(response, False)


def response_from_dict(data: Dict[str, Any]):
    """Reconstruct a response envelope; raises ``SerializationError``
    on any malformed payload."""
    return _from_dict(data, False)


# -- trace-context propagation ---------------------------------------------


#: Keys of the optional ``trace`` field a request envelope may carry.
TRACE_KEYS = ("trace_id", "parent", "sampled")


def trace_from_wire(data) -> Optional[Dict[str, Any]]:
    """Decode an envelope's optional ``trace`` field.

    Returns a validated ``{"trace_id", "parent", "sampled"}`` dict, or
    ``None`` when the field is absent **or malformed** — tracing is
    observability metadata and must never fail a request, so a bad
    trace field degrades to an untraced dispatch rather than an error
    envelope.
    """
    if not isinstance(data, dict):
        return None
    trace_id = data.get("trace_id")
    parent = data.get("parent")
    sampled = data.get("sampled", True)
    if not isinstance(trace_id, str) or not trace_id:
        return None
    if not isinstance(parent, str) or not parent:
        return None
    if not isinstance(sampled, bool):
        return None
    return {"trace_id": trace_id, "parent": parent, "sampled": sampled}


def attach_trace(payload: Dict[str, Any],
                 context: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Inject a trace context into an encoded request envelope dict.

    Mutates and returns ``payload``.  ``None`` context is a no-op, so
    untraced peers keep emitting byte-identical frames (the ``trace``
    key is simply never present).  A ``batch_request`` envelope gets
    the context copied onto every sub-envelope too, so batched (and
    sharded — shard fan-out rides batches) sub-operations stay linked
    even if a peer re-dispatches them individually.
    """
    if context is None:
        return payload
    payload["trace"] = dict(context)
    if payload.get("kind") == "batch_request":
        for sub in payload.get("requests") or ():
            if isinstance(sub, dict):
                sub["trace"] = dict(context)
    return payload


# -- frames ---------------------------------------------------------------------


def encode_frame(payload: Dict[str, Any], codec: str = "json") -> bytes:
    """Canonical frame bytes for one envelope dict.

    Both codecs are deterministic (compact separators plus sorted keys
    for JSON; sorted keys plus encounter-order interning for binary),
    so identical messages produce identical bytes on every transport.
    """
    if codec == "binary":
        return encode_binary_frame(payload)
    if codec != "json":
        raise SerializationError("unknown frame codec: %r" % (codec,))
    try:
        return json.dumps(
            payload, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SerializationError("unencodable frame: %s" % exc) from exc


def frame_codec(frame: bytes) -> str:
    """The codec a frame was encoded with (by its first byte).

    Binary frames start with the magic byte 0xAE, which can never open
    a JSON frame; anything else is treated as JSON (and, if corrupt,
    fails in :func:`decode_frame` with a typed error).
    """
    return "binary" if is_binary_frame(frame) else "json"


def decode_frame(frame: bytes) -> Dict[str, Any]:
    """Parse frame bytes back into an envelope dict (codec
    auto-detected by the magic byte)."""
    if is_binary_frame(frame):
        return decode_binary_frame(frame)
    try:
        data = json.loads(frame.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SerializationError("invalid frame: %s" % exc) from exc
    if not isinstance(data, dict):
        raise SerializationError("frame must encode a JSON object")
    return data
