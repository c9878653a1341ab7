"""Wire protocol: the message envelopes crossing the client/server seam.

The paper's deployment model (§2.1, §4) is an *outsourced* database:
the trusted client and the honest-but-curious server are separate
parties that exchange only ciphertext messages.  This module makes
that seam explicit.  Every operation a session performs against a
server is one of the request envelopes below; every answer is one of
the response envelopes — including a versioned :class:`ErrorResponse`
that carries typed failures across the wire.

What a message *is* is stated once, in the envelope registry below
(:data:`ENVELOPES`): one row per envelope giving its wire ``kind`` and
kind code, its fields (each a named :class:`FieldType` owning that
field's frame writer and reader, its dict form and their validation),
the reply it is answered with, and how it is classified (retried?
journaled?).  The frame codec, the catalog's dispatch and replay and
the client's retry and reply checks all read that table.

A *frame* is one envelope as bytes, written by :func:`encode` and read
by :func:`decode` straight from and into the envelope's attributes:
``MAGIC``, the protocol version, the kind code, a presence bitmap when
the kind has optional fields, then each field in declared order —
positional, no keys (layout in ``docs/protocol.md``).  It is
deterministic, so the loopback and TCP transports produce byte-identical
traffic for the same workload, and measured frame lengths are real
transfer accounting.  A request frame may carry the caller's trace
context.  A WAL record holds a mutation's request frame.  The dict
forms (``request_to_dict`` and its three siblings) have no caller in
the package: ``benchmarks/e2e/staged.py`` times them as the staged
codec path.

Pipelining: a ``batch_request`` envelope carries N independent
sub-request envelopes in one frame; the catalog answers with a
``batch_response`` carrying one response envelope per sub-request —
error envelopes included, so one failing (or undecodable) sub-request
never poisons its batch.

The column addressed by a request is named: one endpoint (a
:class:`~repro.net.catalog.ColumnCatalog`) hosts many columns, each
backed by its own :class:`~repro.core.server.SecureServer` engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.query import EncryptedQuery
from repro.core.server import ENGINES, ServerResponse
from repro.crypto.ciphertext import ValueCiphertext
from repro.crypto.serialization import (
    QUERY_VERSION,
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
    ReproError,
    RotationConflictError,
    SerializationError,
    ServerBusyError,
    TransportError,
    UpdateError,
)
from repro.linalg.limbs import PackedInts
from repro.net.binframe import (
    MAGIC,
    Reader,
    write_bigints,
    write_run,
    write_text,
    write_value,
    write_varint,
    write_words,
    write_zigzag,
)

#: Version of the wire format, the second byte of every frame.  2: row
#: sets (``ROWS`` fields and the ``SERVER_RESPONSE`` body) travel as one
#: flat block instead of a list of per-row ciphertext objects.  3: so
#: does a query (the ``QUERY`` field).  4: a frame is positional — the
#: kind code and the fields in declared order, no keys — and binary
#: only.  A frame of an older version is refused with a typed error,
#: never reinterpreted.
PROTOCOL_VERSION = 4

#: Version tag of an envelope's dict form: version 3's envelope dicts,
#: which version 4 of the frames left as they were.
DICT_VERSION = 3

#: The frame codec there is.  ``hello`` still lists it, and the
#: ``codec`` argument sessions and handles accept for older callers
#: names it (or ``"auto"``) and selects nothing.
CODECS: Tuple[str, ...] = ("binary",)

#: Server-engine configuration keys a ``create_column`` request may
#: carry; the defaults mirror :class:`~repro.core.server.SecureServer`.
CONFIG_DEFAULTS: Dict[str, Any] = {
    "engine": "adaptive",
    "auto_merge_threshold": None,
    "min_piece_size": None,
    "use_three_way": False,
}

#: Per config key, whether a wire value is one the engine takes: the
#: trust-boundary check (``bool("false")`` is true, ``int(1.9)`` is 1).
_CONFIG_CHECKS: Dict[str, Callable[[Any], bool]] = {
    "engine": lambda value: type(value) is str and value in ENGINES,
    "auto_merge_threshold": lambda value: value is None or (
        type(value) is int and value >= 1),
    "min_piece_size": lambda value: value is None or (
        type(value) is int and value >= 1),
    "use_three_way": lambda value: type(value) is bool,
}


def check_codec(codec: str) -> None:
    """Refuse a ``codec`` argument that names no codec there is."""
    if codec not in ("auto",) + CODECS:
        raise SerializationError("unknown frame codec: %r" % (codec,))


# -- field types -----------------------------------------------------------------


def _name_from_wire(what: str) -> Callable[[Any], str]:
    """The check of a non-empty string field (a column name, ...)."""

    def check(value) -> str:
        if not isinstance(value, str) or not value:
            raise SerializationError("%s must be a non-empty string" % what)
        return value

    return check


def _int_from_wire(value) -> int:
    """``value`` if it is an integer (``int("7")`` would make it one)."""
    if type(value) is not int:
        raise SerializationError("expected an integer, got %r" % (value,))
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


def _write_ids(out: bytearray, ids) -> None:
    write_words(out, np.asarray(ids, dtype=np.int64))


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


def _config_from_dict(data) -> Dict[str, Any]:
    if not isinstance(data, dict):
        raise SerializationError("column config must be an object")
    unknown = set(data) - set(CONFIG_DEFAULTS)
    if unknown:
        raise SerializationError(
            "unknown column config keys: %s" % ", ".join(sorted(unknown))
        )
    for key, value in data.items():
        if not _CONFIG_CHECKS[key](value):
            raise SerializationError(
                "column config %s=%r is not a value the engine takes"
                % (key, value)
            )
    return dict(data)


def _batch_to_list(envelopes, is_request: bool) -> List[Dict[str, Any]]:
    if any(isinstance(sub, BatchRequest) for sub in envelopes):
        raise SerializationError("batch requests cannot nest")
    return [_to_dict(sub, is_request) for sub in envelopes]


def _batch_from_list(items, is_request: bool) -> Tuple[Any, ...]:
    if not isinstance(items, list):
        raise SerializationError(
            "batch %ss must be a list" % _direction(is_request))
    if any(isinstance(item, dict) and item.get("kind") == "batch_request"
           for item in items):
        raise SerializationError("batch requests cannot nest")
    return tuple(_from_dict(item, is_request) for item in items)


# -- frame writers and readers of the structured types ---------------------------


def _write_rows(out: bytearray, rows) -> None:
    """A row set: its ``length``, row count, a unit-denominator flag,
    the numerator run and — unless the flag is set — the denominator
    run, written from its dict form's runs as they are held."""
    data = rows_to_dict(rows)
    length, numerators = data["length"], data["numerators"]
    denominators = data.get("denominators")
    write_varint(out, length)
    write_varint(out, len(numerators) // length if length else 0)
    out.append(denominators is None)
    for run in (numerators, denominators):
        if type(run) is PackedInts:
            write_run(out, run.limbs, run.bits)
        elif run is not None:
            write_bigints(out, run)


def _read_block(reader: Reader) -> Dict[str, Any]:
    """A row set's dict form, read off its frame layout."""
    length = reader.varint()
    count = reader.varint()
    unit = reader.flag()
    if count and not length:
        raise SerializationError("%d rows of no numerators" % count)
    return {
        "length": length,
        "numerators": PackedInts(reader.run(count * length)),
        "denominators": [] if unit else PackedInts(reader.run(count)),
    }


#: Which sides a query has, by bits 2-3 of its flags byte.
_SIDES = ("none", "low", "high", "both")


def _write_query(out: bytearray, query: EncryptedQuery) -> None:
    """A query: a flags byte (bit 0 ``low_inclusive``, bit 1
    ``high_inclusive``, bits 2-3 its sides), ``length``, the bound
    count, then the ``eb`` and ``ev`` runs of its dict form."""
    data = query_to_dict(query)
    length, ev = data["length"], data["ev"]
    out.append(
        data["low_inclusive"] | data["high_inclusive"] << 1
        | _SIDES.index(data.get("sides", "both")) << 2
    )
    write_varint(out, length)
    write_varint(out, len(ev) // (length + 1))
    write_bigints(out, data["eb"])
    write_bigints(out, ev)


def _read_query(reader: Reader) -> EncryptedQuery:
    flags = reader.byte()
    if flags > 15:
        raise SerializationError("unknown query flags: 0x%02x" % flags)
    length = reader.varint()
    count = reader.varint()
    return query_from_dict({
        "kind": "query", "version": QUERY_VERSION, "length": length,
        "sides": _SIDES[flags >> 2], "low_inclusive": bool(flags & 1),
        "high_inclusive": bool(flags & 2),
        "eb": reader.bigints(count * length),
        "ev": reader.bigints(count * (length + 1)),
    })


def _write_server_response(out: bytearray, response: ServerResponse) -> None:
    _write_ids(out, response.row_ids)
    _write_rows(out, response.rows)


def _read_server_response(reader: Reader) -> ServerResponse:
    ids = np.array(reader.intarray(words_only=True), dtype=np.int64)
    rows = rows_from_dict(_read_block(reader))
    if len(ids) != len(rows):
        raise SerializationError(
            "response carries %d row ids for %d rows" % (len(ids), len(rows))
        )
    return ServerResponse(row_ids=ids, rows=rows)


def _write_batch(out: bytearray, envelopes, is_request: bool) -> None:
    """A count, then each envelope as a length-prefixed sub-frame: its
    kind code, presence bitmap and fields."""
    write_varint(out, len(envelopes))
    for envelope in envelopes:
        spec = spec_of(envelope, is_request)
        if spec.cls in (BatchRequest, BatchResponse):
            raise SerializationError("batch requests cannot nest")
        body = bytearray()
        _write_envelope(body, spec, envelope)
        write_varint(out, len(body))
        out += body


def _read_batch(reader: Reader, is_request: bool) -> Tuple[Any, ...]:
    """The slots of a batch, each decoded on its own: a sub-request
    that does not decode holds the :class:`SerializationError` it
    raised, so it fails alone while its neighbours execute."""
    count = reader.varint()
    if count > reader.remaining:  # every slot costs >= 1 byte
        raise SerializationError(
            "batch count %d exceeds remaining frame bytes" % count
        )
    slots = []
    for _ in range(count):
        body = reader.take(reader.varint())
        try:
            slots.append(_decode(body, is_request, top=False)[0])
        except SerializationError as exc:
            if not is_request:
                raise
            slots.append(exc)
    return tuple(slots)


#: ``FieldType.absent`` of a type whose every value goes on the wire.
_ALWAYS_SENT = object()


@dataclass(frozen=True)
class FieldType:
    """A named wire field type: owns one field's frame writer and
    reader, its dict form (``encode`` / ``decode``) and their
    validation.  ``read`` and ``decode`` raise ``SerializationError``
    (or ``KeyError`` / ``TypeError`` / ``ValueError``, which the
    envelope decoders wrap) on a malformed wire value.  ``absent`` is
    the attribute value an *optional* field leaves off the wire."""

    name: str
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    write: Callable[[bytearray, Any], None]
    read: Callable[[Reader], Any]
    absent: Any = _ALWAYS_SENT


def _generic(name: str, encode: Callable, decode: Callable) -> FieldType:
    """A free-form field: on a frame, one generic binframe value
    holding the field's dict form."""
    return FieldType(
        name, encode, decode,
        lambda out, value: write_value(out, encode(value)),
        lambda reader: decode(reader.value()),
    )


def _nullable(base: FieldType) -> FieldType:
    """``OPT_<base>``: ``None`` stays off the wire and a wire ``null``
    decodes to ``None``."""
    return FieldType(
        "OPT_" + base.name,
        base.encode,
        lambda value: None if value is None else base.decode(value),
        base.write,
        base.read,
        absent=None,
    )


def _batch(name: str, is_request: bool) -> FieldType:
    """``REQUESTS`` / ``RESPONSES``: a batch's slots, one direction."""
    return FieldType(
        name,
        lambda envelopes: _batch_to_list(envelopes, is_request),
        lambda items: _batch_from_list(items, is_request),
        lambda out, envelopes: _write_batch(out, envelopes, is_request),
        lambda reader: _read_batch(reader, is_request),
    )


def _text(name: str, check: Callable[[Any], str] = str) -> FieldType:
    """A string field: on a frame, its UTF-8 byte count and bytes."""
    return FieldType(
        name, str, check, lambda out, value: write_text(out, str(value)),
        lambda reader: check(reader.text()),
    )


COLUMN = _text("COLUMN", _name_from_wire("column name"))
STR = _text("STR")
INT = FieldType(
    "INT", int, _int_from_wire,
    lambda out, value: write_zigzag(out, int(value)), Reader.zigzag,
)
IDS = FieldType(
    "IDS", _ids_to_list, _ids_from_list, _write_ids,
    lambda reader: tuple(reader.intarray(words_only=True)),
)
#: The ids of a whole column (create, rotation): :data:`IDS` that keeps
#: a decoded run unboxed.
UPLOAD_IDS = FieldType(
    "UPLOAD_IDS", _ids_to_list,
    lambda items: request_ids(ints_from_wire(items, "row ids")),
    _write_ids, lambda reader: request_ids(reader.intarray(words_only=True)),
)
#: A row set: any sequence of value ciphertexts encodes, as one flat
#: block (see :func:`repro.crypto.serialization.rows_to_dict`); it
#: decodes to a :class:`~repro.crypto.ciphertext.RowBlock`.
ROWS = FieldType(
    "ROWS", rows_to_dict, rows_from_dict, _write_rows,
    lambda reader: rows_from_dict(_read_block(reader)),
)
QUERY = FieldType(
    "QUERY", query_to_dict, query_from_dict, _write_query, _read_query
)
SERVER_RESPONSE = FieldType(
    "SERVER_RESPONSE", server_response_to_dict, server_response_from_dict,
    _write_server_response, _read_server_response,
)
STR_LIST = _generic("STR_LIST", _strings_to_list, _strings_from_list)
CONFIG = _generic("CONFIG", dict, _config_from_dict)
SECTIONS = _generic("SECTIONS", _sections_payload, _sections_payload)
REQUESTS = _batch("REQUESTS", True)
RESPONSES = _batch("RESPONSES", False)
OPT_INT = _nullable(INT)
OPT_STR_LIST = _nullable(STR_LIST)


def wire(ftype: FieldType, key: str = "", optional: bool = False, **default):
    """Declare an envelope attribute's wire form on the dataclass
    field itself (see :class:`Field` for ``key`` and ``optional``);
    ``default`` / ``default_factory`` pass through to the dataclass."""
    return field(metadata={"wire": (ftype, key, optional)}, **default)


# -- request envelopes ----------------------------------------------------------


@dataclass(frozen=True)
class HelloRequest:
    """An endpoint ping: column-less, it addresses the endpoint, not a
    column.  ``codecs`` lists the frame codecs the client speaks (there
    is one)."""

    codecs: Tuple[str, ...] = wire(STR_LIST, default=CODECS)


@dataclass(frozen=True)
class BatchRequest:
    """N independent sub-requests pipelined into one frame.

    Sub-requests may address different columns; batches never nest.
    Decoded from a frame, a slot that did not decode holds the
    :class:`~repro.errors.SerializationError` it raised instead of an
    envelope: that slot fails alone.
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
    """Upload a freshly encrypted column under a name."""

    column: str = wire(COLUMN)
    rows: Sequence[ValueCiphertext] = wire(ROWS)
    row_ids: Tuple[int, ...] = wire(UPLOAD_IDS)
    config: Dict[str, Any] = wire(
        CONFIG, optional=True, default_factory=dict
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


# -- response envelopes ---------------------------------------------------------


@dataclass(frozen=True)
class HelloResponse:
    """The frame codecs the endpoint speaks (there is one)."""

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
    ``None``."""

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

    ``epoch`` is the column's mutation epoch after the insert, the
    epoch the WAL records it at; omitted from the wire when ``None``."""

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

    ``key`` is the attribute's key in the dict form (the attribute name
    unless given).  An ``optional`` field may be missing from a frame —
    the attribute then keeps its dataclass default — and is left off
    the wire while it holds its type's ``absent`` value; ``bit`` marks
    it sent in a frame's presence bitmap (0 for a field always sent).
    """

    attribute: str
    type: FieldType
    key: str
    optional: bool
    bit: int = 0


@dataclass(frozen=True)
class EnvelopeSpec:
    """One row of the registry — everything the code base knows about
    one message kind.

    ``code`` is the kind on a frame.  ``fields`` are the dataclass's
    :func:`wire` declarations, in order, and ``optional`` those of them
    a frame's presence bitmap covers.
    ``reply`` is the response type a
    request is answered with; a row without one describes a response
    envelope.  The flags classify requests: ``idempotent`` (the
    transport may re-send it after a connection loss) and
    ``journaled`` (the WAL records it — every mutation but
    ``rotate_begin``, which merges pending rows yet bumps no epoch and
    leaves no log entry).
    """

    cls: type
    kind: str
    code: int
    fields: Tuple[Field, ...]
    reply: Optional[type] = None
    idempotent: bool = False
    journaled: bool = False
    is_request: bool = field(init=False)
    optional: Tuple[Field, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_request", self.reply is not None)
        object.__setattr__(self, "optional", tuple(
            field_ for field_ in self.fields if field_.optional))


#: Envelope dataclass -> its registry row: the one definition the
#: codecs, the catalog, the client and WAL replay read.
ENVELOPES: Dict[type, EnvelopeSpec] = {}

#: Wire ``kind`` -> row, per direction (the dict decoders' lookup).
_REQUEST_SPECS: Dict[str, EnvelopeSpec] = {}
_RESPONSE_SPECS: Dict[str, EnvelopeSpec] = {}

#: Kind code -> row: the frame codec's lookup.
_CODES: Dict[int, EnvelopeSpec] = {}


def register(cls: type, kind: str, code: int, reply: type = None,
             **flags) -> None:
    """Add one envelope to the protocol: a dataclass whose every field
    is declared with :func:`wire`, its wire ``kind``, its kind ``code``
    on a frame (one a registered kind holds is refused), and — for a
    request — the reply type and classification flags."""
    if code in _CODES:
        raise ProtocolError(
            "kind code %d is %r's" % (code, _CODES[code].kind)
        )
    fields = []
    for declared in dataclass_fields(cls):
        ftype, key, optional = declared.metadata["wire"]
        bit = 1 << sum(f.optional for f in fields) if optional else 0
        fields.append(
            Field(declared.name, ftype, key or declared.name, optional, bit)
        )
    spec = EnvelopeSpec(cls, kind, code, tuple(fields), reply, **flags)
    ENVELOPES[cls] = spec
    (_REQUEST_SPECS if spec.is_request else _RESPONSE_SPECS)[kind] = spec
    _CODES[code] = spec


def spec_of(envelope, is_request: Optional[bool] = None) -> EnvelopeSpec:
    """The registry row of an envelope object — one of the given
    direction when ``is_request`` is not ``None``."""
    spec = ENVELOPES.get(type(envelope))
    if spec is None or is_request not in (None, spec.is_request):
        raise SerializationError(
            "%s is not a protocol %s"
            % (type(envelope).__name__, _direction(is_request))
        )
    return spec


register(HelloRequest, "hello", 1, HelloResponse, idempotent=True)
register(BatchRequest, "batch_request", 2, BatchResponse)
register(TelemetryRequest, "telemetry_request", 3, TelemetryResponse,
         idempotent=True)
register(CreateColumnRequest, "create_column", 4, CreateColumnResponse,
         journaled=True)
register(QueryRequest, "query_request", 5, QueryResponse, idempotent=True)
register(FetchRequest, "fetch_request", 6, FetchResponse, idempotent=True)
register(InsertRequest, "insert_request", 7, InsertResponse, journaled=True)
register(DeleteRequest, "delete_request", 8, DeleteResponse, journaled=True)
register(MergeRequest, "merge_request", 9, MergeResponse, journaled=True)
register(RotateBeginRequest, "rotate_begin", 10, RotateBeginResponse)
register(RotateApplyRequest, "rotate_apply", 11, RotateApplyResponse,
         journaled=True)

# A response's code is its request's plus 32; the error envelope's is 32.
register(ErrorResponse, "error_response", 32)
register(HelloResponse, "hello_response", 33)
register(BatchResponse, "batch_response", 34)
register(TelemetryResponse, "telemetry_response", 35)
register(CreateColumnResponse, "create_column_response", 36)
register(QueryResponse, "query_response", 37)
register(FetchResponse, "fetch_response", 38)
register(InsertResponse, "insert_response", 39)
register(DeleteResponse, "delete_response", 40)
register(MergeResponse, "merge_response", 41)
register(RotateBeginResponse, "rotate_begin_response", 42)
register(RotateApplyResponse, "rotate_apply_response", 43)


# -- dict forms -----------------------------------------------------------------


def _direction(is_request: Optional[bool]) -> str:
    return {True: "request", False: "response"}.get(is_request, "envelope")


def _to_dict(envelope, is_request: Optional[bool]) -> Dict[str, Any]:
    spec = spec_of(envelope, is_request)
    payload = {"kind": spec.kind, "version": DICT_VERSION}
    for field_ in spec.fields:
        value = getattr(envelope, field_.attribute)
        if field_.optional and value is field_.type.absent:
            continue
        payload[field_.key] = field_.type.encode(value)
    return payload


def _from_dict(data: Dict[str, Any], is_request: Optional[bool]):
    if not isinstance(data, dict):
        raise SerializationError("envelope must be a JSON object")
    if data.get("version") != DICT_VERSION:
        raise SerializationError(
            "unsupported envelope version: %r" % (data.get("version"),)
        )
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise SerializationError("envelope kind must be a string")
    spec = None
    if is_request is not False:
        spec = _REQUEST_SPECS.get(kind)
    if spec is None and is_request is not True:
        spec = _RESPONSE_SPECS.get(kind)
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


def trace_from_wire(data) -> Optional[Dict[str, Any]]:
    """Validate a request's trace context.

    Returns a ``{"trace_id", "parent", "sampled"}`` dict, or ``None``
    when there is none **or it is malformed** — tracing is
    observability metadata and must never fail a request, so a bad
    context degrades to an untraced dispatch rather than an error
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


# -- frames ---------------------------------------------------------------------

#: What every frame starts with.
_FRAME_HEAD = bytes((MAGIC, PROTOCOL_VERSION))


def _write_envelope(out: bytearray, spec: EnvelopeSpec, envelope,
                    trace=False) -> None:
    """``envelope``'s kind code, then — on a request frame, ``trace``
    not ``False`` — its trace section, then the presence bitmap of its
    optional fields (when it has any), then every field it sends."""
    write_varint(out, spec.code)
    if trace is not False:
        _write_trace(out, trace)
    sent = [f for f in spec.fields if not f.optional
            or getattr(envelope, f.attribute) is not f.type.absent]
    if spec.optional:
        write_varint(out, sum(f.bit for f in sent))
    for field_ in sent:
        field_.type.write(out, getattr(envelope, field_.attribute))


def _read_envelope(reader: Reader, is_request: Optional[bool],
                   top: bool = False):
    """``(envelope, trace)`` read off ``reader``: a kind code of the
    given direction (``None``: either), the trace section if ``top``
    and a request, the bitmap, the fields."""
    code = reader.varint()
    spec = _CODES.get(code)
    if spec is None or is_request not in (None, spec.is_request):
        raise SerializationError(
            "unknown %s kind code: %d" % (_direction(is_request), code)
        )
    if not top and spec.cls in (BatchRequest, BatchResponse):
        raise SerializationError("batch requests cannot nest")
    trace = _read_trace(reader) if top and spec.is_request else None
    present = reader.varint() if spec.optional else 0
    if present >> len(spec.optional):
        raise SerializationError(
            "%s frame marks fields it does not have" % spec.kind
        )
    values = {f.attribute: f.type.read(reader) for f in spec.fields
              if not f.bit or present & f.bit}
    if reader.pos != reader.end:
        raise SerializationError(
            "%d trailing bytes after a %s" % (reader.remaining, spec.kind)
        )
    return spec.cls(**values), trace


def _write_trace(out: bytearray, context: Optional[Dict[str, Any]]) -> None:
    """A request's trace section: its byte count (0: untraced), then the
    context as one generic value."""
    section = bytearray()
    if context is not None:
        write_value(section, context)
    write_varint(out, len(section))
    out += section


def _read_trace(reader: Reader) -> Optional[Dict[str, Any]]:
    section = reader.take(reader.varint())
    try:
        return trace_from_wire(Reader(section).value()) if section else None
    except SerializationError:  # a malformed context degrades to none
        return None


def _decode(frame: bytes, is_request: Optional[bool] = None, top=True):
    """``(envelope, trace)`` of a whole frame (``top``) or batch slot;
    every failure is a typed :class:`SerializationError` — no raw
    ``struct`` / ``numpy`` / overflow error leaves the decoder."""
    reader = Reader(frame)
    try:
        if top:
            if reader.end < 3 or frame[0] != MAGIC:
                raise SerializationError("not a protocol frame")
            if frame[1] != PROTOCOL_VERSION:
                raise SerializationError(
                    "unsupported protocol version: %d" % frame[1]
                )
            reader.pos = 2
        return _read_envelope(reader, is_request, top)
    except SerializationError:
        raise
    except Exception as exc:
        raise SerializationError("corrupt frame: %s" % exc) from exc


def encode(envelope, trace: Optional[Dict[str, Any]] = None) -> bytes:
    """The frame of one envelope, written straight from its attributes.

    ``trace`` is the caller's trace context (:func:`trace_from_wire`'s
    shape); a request frame carries it, a response frame has none.
    """
    spec = spec_of(envelope)
    out = bytearray(_FRAME_HEAD)
    try:
        _write_envelope(
            out, spec, envelope, trace if spec.is_request else False
        )
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise SerializationError(
            "cannot serialize %s: %s" % (spec.kind, exc)
        ) from exc
    return bytes(out)


def decode(frame: bytes):
    """The envelope of a frame, either direction; anything but a
    version-4 frame read to its last byte is a SerializationError."""
    return _decode(frame)[0]


def decode_request(frame: bytes):
    """``(request, trace context or None)``: :func:`decode` for the
    endpoint, which refuses a response frame too."""
    return _decode(frame, True)


# -- the dict-level frame functions, for older callers ---------------------------


def encode_frame(payload: Dict[str, Any], codec: str = "binary") -> bytes:
    """``encode`` of the envelope an envelope dict describes.  ``codec``
    is ``"binary"`` or ``"auto"`` and selects nothing."""
    check_codec(codec)
    return encode(_from_dict(payload, None))


def frame_codec(frame: bytes) -> str:
    """The codec every frame is in."""
    return CODECS[0]


def decode_frame(frame: bytes) -> Dict[str, Any]:
    """The dict form of a frame's envelope."""
    return _to_dict(decode(frame), None)
