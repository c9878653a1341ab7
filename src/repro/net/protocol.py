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
field's frame bytes — ``parts`` to write, ``at`` to read — its dict
form and their validation), the reply it is answered with, and how it
is classified (retried?  journaled?).  The frame codec, the catalog's
dispatch and replay and the client's retry and reply checks all read
that table.

A *frame* is one envelope as bytes, written by :func:`encode` and read
by :func:`decode` straight from and into the envelope's attributes:
``MAGIC``, the protocol version, the kind code, then every field in
declared order — positional, no keys, none left out (layout in
``docs/protocol.md``).  Every kind's body is joined from its fields'
parts by one writer and read by one reader threading a position
through its fields' ``at``, in whole frames, traced frames and batch
slots alike.  A frame is
deterministic, so the loopback and TCP transports produce
byte-identical traffic for the same workload, and measured frame
lengths are real transfer accounting.  A request frame may carry the
caller's trace context.  A WAL record holds a mutation's request
frame, and a checkpoint one :class:`ColumnSnapshot` frame per column.
The dict forms (``request_to_dict`` and its three siblings) have no
caller in the package: ``benchmarks/e2e/staged.py`` times them as the
staged codec path.

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

import functools
import json
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.query import EncryptedBound, EncryptedQuery
from repro.core.server import ENGINES, ServerResponse
from repro.crypto.ciphertext import BoundCiphertext, RowBlock, ValueCiphertext
from repro.crypto.serialization import (
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
from repro.linalg.limbs import PackedInts, from_wire
from repro.net.binframe import (
    MAGIC,
    bigint_run,
    bigints_at,
    bytes_at,
    decode_text,
    limb_run,
    read_varint,
    run_width,
    text_at,
    text_bytes,
    varints,
    word_array,
    words_at,
    zigzag_at,
    zigzag_bytes,
)

#: Version of the wire format, the second byte of every frame.  2: row
#: sets (``ROWS`` fields and the ``SERVER_RESPONSE`` body) travel as one
#: flat block instead of a list of per-row ciphertext objects.  3: so
#: does a query (the ``QUERY`` field).  4: a frame is positional — the
#: kind code and the fields in declared order, no keys — and binary
#: only.  5: a query carries a session token, a reply names rows by id
#: alone.  6: a free-form field (a config, telemetry sections, a string
#: list) and the trace section are JSON text.  7: every field is always
#: sent — no presence bitmap — and the fetch kind and the mutation
#: replies' epochs are gone.  A frame of an older version is refused
#: with a typed error, never reinterpreted.
PROTOCOL_VERSION = 7

#: What every frame starts with.
_FRAME_HEAD = bytes((MAGIC, PROTOCOL_VERSION))

#: The bytes of a limb holding 1, as a row block stores it.
_ONE_LIMB = np.ones(1, dtype=np.uint64).tobytes()

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


def _column_from_wire(value) -> str:
    """``value`` if it is a column name: a non-empty string."""
    if not isinstance(value, str) or not value:
        raise SerializationError("column name must be a non-empty string")
    return value


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


def _ids_parts(ids) -> List[bytes]:
    """Row ids on a frame: one int array of ``int64`` words."""
    return [word_array(np.asarray(ids, dtype=np.int64))]


def _ids_at(buf: bytes, pos: int) -> Tuple[Tuple[int, ...], int]:
    words, pos = words_at(buf, pos)
    return tuple(words.tolist()), pos


#: Shortest run of upload ids a decoded frame keeps as one
#: :class:`~repro.linalg.limbs.PackedInts` over its words.
_PACKED_IDS = 64


def _upload_ids_at(buf: bytes, pos: int):
    words, pos = words_at(buf, pos)
    if len(words) < _PACKED_IDS:
        return tuple(words.tolist()), pos
    return PackedInts(words.view(np.uint64).reshape(-1, 1)), pos


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


# -- row sets and server responses on a frame -----------------------------------


def _block_parts(rows: RowBlock) -> List[bytes]:
    """A row set on a frame: its ``length``, row count, a
    unit-denominator flag, the numerator run and — unless the flag is
    set — the denominator run, cut straight from the block's limbs."""
    limbs = rows.limbs
    count, length, k = limbs.shape
    length -= 1
    if not count:  # the header, then an empty run: width 1 alone
        return [varints(length, 0, 1, 1)]
    denominators = limbs[:, length]
    # Every denominator is 1: its limbs' bytes are those of a 1, n times.
    unit = denominators.tobytes() == _ONE_LIMB.ljust(8 * k, b"\0") * count
    parts = [
        varints(length, count if length else 0, unit),
        limb_run(limbs[:, :length], rows.numerator_bits),
    ]
    if not unit:
        parts.append(limb_run(denominators))
    return parts


def _block_at(buf: bytes, pos: int) -> Tuple[RowBlock, int]:
    """The row set :func:`_block_parts` wrote at ``buf[pos]``, its limbs
    written straight from the frame's bytes into one block, and the
    position past it."""
    length, pos = read_varint(buf, pos)
    count, pos = read_varint(buf, pos)
    unit = buf[pos]
    if unit > 1:
        raise SerializationError("expected a boolean byte, got %d" % unit)
    if not count and buf[pos + 1:pos + 3 - unit] == b"\x01\x01"[unit:]:
        return _no_rows(length), pos + 3 - unit  # its runs: width 1 alone
    if count and not length:
        raise SerializationError("%d rows of no numerators" % count)
    width, start = run_width(buf, pos + 1, count * length)
    pos = start + count * length * width
    widest = width
    if not unit:
        den_width, den_start = run_width(buf, pos, count)
        pos = den_start + count * den_width
        widest = max(width, den_width)
    block = np.empty((count, length + 1, (widest + 7) // 8), dtype="<u8")
    from_wire(buf[start:start + count * length * width], width,
              block[:, :length])
    if unit:  # every denominator 1
        block[:, length] = (1,) + (0,) * (block.shape[2] - 1)
        return RowBlock._of(block.astype(np.uint64, copy=False)), pos
    from_wire(buf[den_start:pos], den_width, block[:, length])
    try:
        return RowBlock(block.astype(np.uint64, copy=False)), pos
    except ValueError:
        raise SerializationError(
            "a block of %d rows needs %d positive denominators"
            % (count, count)
        ) from None


@functools.lru_cache(maxsize=8)
def _no_rows(length: int) -> RowBlock:
    """The block of no rows of ciphertext length ``length`` that
    :func:`_block_at` reads, one per length: it has nothing to copy."""
    return RowBlock._of(np.empty((0, length + 1, 1), dtype=np.uint64))


def _response_parts(response: ServerResponse) -> List[bytes]:
    """A server response on a frame: its row ids as one int array of
    words, then its row set (the rows not named by id alone)."""
    return [
        word_array(np.asarray(response.row_ids, dtype=np.int64)),
        *_block_parts(response.rows),
    ]


def _response_at(buf: bytes, pos: int) -> Tuple[ServerResponse, int]:
    """The server response :func:`_response_parts` wrote at
    ``buf[pos]``, and the position past it."""
    ids, pos = words_at(buf, pos)
    rows, pos = _block_at(buf, pos)
    if np.count_nonzero(ids >= 0) != len(rows):  # the others: id-only
        raise SerializationError(
            "response carries %d row ids for %d rows" % (len(ids), len(rows))
        )
    return ServerResponse(row_ids=ids, rows=rows), pos


def _query_parts(query: EncryptedQuery) -> List[bytes]:
    """A query on a frame: a flags byte (bit 0 ``low_inclusive``, bit 1
    ``high_inclusive``, bits 2-3 its sides, bit 4 a token), ``length``,
    the bound count, the token's 8 bytes big-endian when there is one,
    then the ``eb`` run (``length`` integers per bound) and the ``ev``
    run (``length`` numerators and the denominator per bound) over the
    bounds low, high, pivots."""
    low, high = query.low, query.high
    bounds = [bound for bound in (low, high) if bound is not None]
    bounds += query.pivots
    length = len(bounds[0].eb.vector) if bounds else 0
    eb: List[int] = []
    ev: List[int] = []
    for bound in bounds:
        vector, value = bound.eb.vector, bound.ev
        if len(vector) != length or len(value.numerators) != length:
            raise SerializationError(
                "every bound of a query must have its length (%d)" % length
            )
        eb += vector
        ev += value.numerators
        ev.append(value.denominator)
    token = query.token
    flags = (query.low_inclusive | query.high_inclusive << 1
             | (low is not None) << 2 | (high is not None) << 3
             | (token != 0) << 4)
    head = varints(flags, length, len(bounds))
    if token:
        head += token.to_bytes(8, "big")
    return [head, bigint_run(eb), bigint_run(ev)]


def _query_at(buf: bytes, pos: int) -> Tuple[EncryptedQuery, int]:
    """The query :func:`_query_parts` wrote at ``buf[pos]``, and the
    position past it."""
    flags = buf[pos]
    if flags > 31:
        raise SerializationError("unknown query flags: 0x%02x" % flags)
    length, pos = read_varint(buf, pos + 1)
    count, pos = read_varint(buf, pos)
    token = 0
    if flags & 16:
        token = int.from_bytes(buf[pos:pos + 8], "big")
        pos += 8
        if not token or pos > len(buf):
            raise SerializationError("a query token is 8 bytes, not 0")
    eb, pos = bigints_at(buf, pos, count * length)
    ev, pos = bigints_at(buf, pos, count * (length + 1))
    if count and not length:
        raise SerializationError("%d query bounds of length 0" % count)
    sided = (flags >> 2 & 1) + (flags >> 3 & 1)
    if count < sided:
        raise SerializationError(
            "query flags 0x%02x declare %d sides but it ships %d bounds"
            % (flags, sided, count)
        )
    bounds = []
    for index in range(count):
        start = index * length
        value = start + index
        denominator = ev[value + length]
        if denominator <= 0:
            raise SerializationError(
                "query bound denominator must be positive"
            )
        bounds.append(EncryptedBound(
            BoundCiphertext(tuple(eb[start:start + length])),
            ValueCiphertext(tuple(ev[value:value + length]), denominator),
        ))
    return EncryptedQuery(
        low=bounds[0] if flags & 4 else None,
        high=bounds[sided - 1] if flags & 8 else None,
        low_inclusive=bool(flags & 1),
        high_inclusive=bool(flags & 2),
        pivots=tuple(bounds[sided:]),
        token=token,
    ), pos


def _batch_parts(envelopes, is_request: bool) -> List[bytes]:
    """A count, then each envelope as a length-prefixed sub-frame: its
    kind code and fields."""
    parts = [varints(len(envelopes))]
    for envelope in envelopes:
        spec = spec_of(envelope, is_request)
        if spec.cls in (BatchRequest, BatchResponse):
            raise SerializationError("batch requests cannot nest")
        body = _envelope_bytes(spec.code_bytes, spec, envelope)
        parts += (varints(len(body)), body)
    return parts


def _batch_at(buf: bytes, pos: int, is_request: bool):
    """The slots of a batch, each decoded on its own: a sub-request
    that does not decode holds the :class:`SerializationError` it
    raised, so it fails alone while its neighbours execute."""
    count, pos = read_varint(buf, pos)
    if count > len(buf) - pos:  # every slot costs >= 1 byte
        raise SerializationError(
            "batch count %d exceeds remaining frame bytes" % count
        )
    slots = []
    for _ in range(count):
        body, pos = bytes_at(buf, pos)
        try:
            slots.append(_decode(body, is_request, top=False)[0])
        except SerializationError as exc:
            if not is_request:
                raise
            slots.append(exc)
    return tuple(slots), pos


@dataclass(frozen=True)
class FieldType:
    """A named wire field type: owns one field's frame bytes, its dict
    form (``encode`` / ``decode``) and their validation.  ``parts``
    gives the bytes of a value on a frame, as a list to join; ``at``
    reads one back from a frame's bytes at a position and returns it
    with the position past it.  ``at`` and ``decode`` raise
    ``SerializationError`` (or ``KeyError`` / ``TypeError`` /
    ``ValueError``, which the envelope decoders wrap) on a malformed
    wire value."""

    name: str
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    parts: Callable[[Any], List[bytes]]
    at: Callable[[bytes, int], Tuple[Any, int]]


def _json(call: Callable, value):
    """``call(value)`` — a JSON write or read — with every way it can
    fail a :class:`SerializationError`: a value past the recursion
    limit, an integer past Python's 4 300 digits, malformed text, a
    duplicate key, a value JSON cannot write."""
    try:
        return call(value)
    except (TypeError, ValueError, RecursionError) as exc:
        raise SerializationError("not a JSON field value: %s" % exc) from exc


def _string_keys(value) -> None:
    """Refuse a value whose JSON would not read back as it is: a dict
    key that is not a string, which ``json.dumps`` makes one."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(
                    "a JSON field's keys are strings, not %s"
                    % type(key).__name__
                )
            _string_keys(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _string_keys(item)


def _unique_keys(pairs) -> Dict[str, Any]:
    """A JSON object's members, refused when a key repeats."""
    out = dict(pairs)
    if len(out) != len(pairs):
        raise SerializationError("duplicate key in a JSON field")
    return out


#: A JSON field's writer and reader: keys sorted, no spaces; a repeated
#: key refused.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _dumps(value) -> str:
    _string_keys(value)
    return _ENCODER.encode(value)


_loads = _DECODER.decode


def _json_field(name: str, encode: Callable, decode: Callable) -> FieldType:
    """A free-form field: on a frame, the JSON text of the field's dict
    form (keys sorted, no spaces) as a UTF-8 string."""

    def parts(value) -> List[bytes]:
        return [text_bytes(_json(_dumps, encode(value)))]

    def at(buf: bytes, pos: int):
        text, pos = text_at(buf, pos)
        return decode(_json(_loads, text)), pos

    return FieldType(name, encode, decode, parts, at)


def _batch(name: str, is_request: bool) -> FieldType:
    """``REQUESTS`` / ``RESPONSES``: a batch's slots, one direction."""
    return FieldType(
        name,
        lambda envelopes: _batch_to_list(envelopes, is_request),
        lambda items: _batch_from_list(items, is_request),
        lambda envelopes: _batch_parts(envelopes, is_request),
        lambda buf, pos: _batch_at(buf, pos, is_request),
    )


def _text_parts(value) -> List[bytes]:
    """A string field on a frame: its UTF-8 byte count and bytes."""
    return [text_bytes(str(value))]


def _column_at(buf: bytes, pos: int) -> Tuple[str, int]:
    """:func:`_column_from_wire` of the string at ``buf[pos]``, which
    :func:`text_at` has made a string."""
    name, pos = text_at(buf, pos)
    if not name:
        raise SerializationError("column name must be a non-empty string")
    return name, pos


COLUMN = FieldType("COLUMN", str, _column_from_wire, _text_parts, _column_at)
STR = FieldType("STR", str, str, _text_parts, text_at)
INT = FieldType(
    "INT", int, _int_from_wire,
    lambda value: [zigzag_bytes(int(value))], zigzag_at,
)
IDS = FieldType("IDS", _ids_to_list, _ids_from_list, _ids_parts, _ids_at)
#: The ids of a whole column (create, rotation): :data:`IDS` that keeps
#: a decoded run unboxed.
UPLOAD_IDS = FieldType(
    "UPLOAD_IDS", _ids_to_list,
    lambda items: request_ids(ints_from_wire(items, "row ids")),
    _ids_parts, _upload_ids_at,
)
#: A row set: any sequence of value ciphertexts encodes, as one flat
#: block (see :func:`repro.crypto.serialization.rows_to_dict`); it
#: decodes to a :class:`~repro.crypto.ciphertext.RowBlock`.
ROWS = FieldType(
    "ROWS", rows_to_dict, rows_from_dict,
    lambda rows: _block_parts(RowBlock.from_rows(rows)), _block_at,
)
QUERY = FieldType("QUERY", query_to_dict, query_from_dict, _query_parts,
                  _query_at)
SERVER_RESPONSE = FieldType(
    "SERVER_RESPONSE", server_response_to_dict, server_response_from_dict,
    _response_parts, _response_at,
)
STR_LIST = _json_field("STR_LIST", _strings_to_list, _strings_from_list)
#: Telemetry section names, or ``None`` — JSON ``null`` — for all.
NAMES = _json_field(
    "NAMES",
    lambda items: None if items is None else _strings_to_list(items),
    lambda items: None if items is None else _strings_from_list(items),
)
CONFIG = _json_field("CONFIG", dict, _config_from_dict)
SECTIONS = _json_field("SECTIONS", _sections_payload, _sections_payload)
REQUESTS = _batch("REQUESTS", True)
RESPONSES = _batch("RESPONSES", False)


def wire(ftype: FieldType, key: str = "", **default):
    """Declare an envelope attribute's wire form on the dataclass
    field itself (see :class:`Field` for ``key``); ``default`` /
    ``default_factory`` pass through to the dataclass."""
    return field(metadata={"wire": (ftype, key)}, **default)


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
    ``pool``, ...); ``None`` (JSON ``null`` on the wire) means *all*.
    Unknown section names are ignored, so clients stay compatible with
    servers that export fewer sections.
    """

    sections: Optional[Tuple[str, ...]] = wire(NAMES, default=None)


@dataclass(frozen=True)
class CreateColumnRequest:
    """Upload a freshly encrypted column under a name."""

    column: str = wire(COLUMN)
    rows: Sequence[ValueCiphertext] = wire(ROWS)
    row_ids: Tuple[int, ...] = wire(UPLOAD_IDS)
    config: Dict[str, Any] = wire(CONFIG)


@dataclass(frozen=True)
class QueryRequest:
    """One range/point query against a named column."""

    column: str = wire(COLUMN)
    query: EncryptedQuery = wire(QUERY)


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
    """Start a key rotation: return every live row of the column,
    pending ones included (the client re-encrypts them under a new
    key), and the column's epoch as the rotation's fence."""

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
    are never silently erased by the rebuild."""

    column: str = wire(COLUMN)
    rows: Sequence[ValueCiphertext] = wire(ROWS)
    row_ids: Tuple[int, ...] = wire(UPLOAD_IDS)
    fence: int = wire(INT)


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
    """Acknowledges a column upload with the stored physical row count."""

    column: str = wire(STR)
    rows_stored: int = wire(INT)


@dataclass(frozen=True)
class QueryResponse:
    """The qualifying rows of one query, in a single round."""

    response: ServerResponse = wire(SERVER_RESPONSE, key="body")


@dataclass(frozen=True)
class InsertResponse:
    """Physical ids assigned to buffered rows, in request order."""

    row_ids: Tuple[int, ...] = wire(IDS)


@dataclass(frozen=True)
class DeleteResponse:
    """Acknowledges tombstoning with the number of ids processed."""

    deleted: int = wire(INT)


@dataclass(frozen=True)
class MergeResponse:
    """Row-count delta applied by the merge (inserts minus reclaims)."""

    delta: int = wire(INT)


@dataclass(frozen=True)
class RotateBeginResponse:
    """Every live row of the column, for client-side re-encryption.

    ``fence`` is the column's mutation epoch at snapshot time; the
    client echoes it in ``rotate_apply`` so the catalog can reject the
    rebuild if the column mutated in between."""

    response: ServerResponse = wire(SERVER_RESPONSE, key="body")
    fence: int = wire(INT)


@dataclass(frozen=True)
class RotateApplyResponse:
    """Acknowledges the rebuilt column with its stored row count."""

    rows_stored: int = wire(INT)


@dataclass(frozen=True)
class ColumnSnapshot:
    """One column's whole state, as a checkpoint file holds it (see
    :mod:`repro.core.persistence`); no request is answered with it.

    The column's rows and their ids are in cracked order; ``cracks``
    carries the crack keys' bounds in key order as the pivots of one
    query, and ``crack_slots`` each key's position times two plus its
    inclusive flag.  The pending rows and ids are in arrival order.
    ``uploaded`` is the upload's row count: the ids below it are the
    ones a reply may name by id alone."""

    column: str = wire(COLUMN)
    epoch: int = wire(INT)
    config: Dict[str, Any] = wire(CONFIG)
    rows: Sequence[ValueCiphertext] = wire(ROWS)
    row_ids: Tuple[int, ...] = wire(UPLOAD_IDS)
    cracks: EncryptedQuery = wire(QUERY)
    crack_slots: Tuple[int, ...] = wire(IDS)
    pending_rows: Sequence[ValueCiphertext] = wire(ROWS)
    pending_ids: Tuple[int, ...] = wire(IDS)
    tombstones: Tuple[int, ...] = wire(IDS)
    next_row_id: int = wire(INT)
    uploaded: int = wire(INT)


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
    unless given).  Every field is sent, in declared order.
    """

    attribute: str
    type: FieldType
    key: str


@dataclass(frozen=True)
class EnvelopeSpec:
    """One row of the registry — everything the code base knows about
    one message kind.

    ``code`` is the kind on a frame.  ``fields`` are the dataclass's
    :func:`wire` declarations, in order.  ``reply`` is the response
    type a request is answered with; a row without one describes a
    response envelope.  The flags classify requests: ``idempotent``
    (the transport may re-send it after a connection loss) and
    ``journaled`` (the WAL records it — every mutation;
    ``rotate_begin`` only reads).
    """

    cls: type
    kind: str
    code: int
    fields: Tuple[Field, ...]
    reply: Optional[type] = None
    idempotent: bool = False
    journaled: bool = False
    is_request: bool = field(init=False)
    code_bytes: bytes = field(init=False)
    head: bytes = field(init=False)

    def __post_init__(self) -> None:
        is_request = self.reply is not None
        object.__setattr__(self, "is_request", is_request)
        object.__setattr__(self, "code_bytes", varints(self.code))
        # A request frame's trace section, empty when untraced: a 0.
        object.__setattr__(self, "head", _FRAME_HEAD + self.code_bytes
                           + (b"\x00" if is_request else b""))


#: Envelope dataclass -> its registry row: the one definition the
#: codecs, the catalog, the client and WAL replay read.
ENVELOPES: Dict[type, EnvelopeSpec] = {}

#: Wire ``kind`` -> row, per direction (the dict decoders' lookup).
_REQUEST_SPECS: Dict[str, EnvelopeSpec] = {}
_RESPONSE_SPECS: Dict[str, EnvelopeSpec] = {}

#: Kind code -> row: the frame codec's lookup.
_CODES: Dict[int, EnvelopeSpec] = {}


def register(cls: type, kind: str, code: int, reply: type = None,
             idempotent: bool = False, journaled: bool = False) -> None:
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
        ftype, key = declared.metadata["wire"]
        fields.append(Field(declared.name, ftype, key or declared.name))
    spec = EnvelopeSpec(cls, kind, code, tuple(fields), reply, idempotent,
                        journaled)
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
register(InsertResponse, "insert_response", 39)
register(DeleteResponse, "delete_response", 40)
register(MergeResponse, "merge_response", 41)
register(RotateBeginResponse, "rotate_begin_response", 42)
register(RotateApplyResponse, "rotate_apply_response", 43)
# A checkpoint's record, answering no request.
register(ColumnSnapshot, "column_snapshot", 48)


# -- dict forms -----------------------------------------------------------------


def _direction(is_request: Optional[bool]) -> str:
    return {True: "request", False: "response"}.get(is_request, "envelope")


def _to_dict(envelope, is_request: Optional[bool]) -> Dict[str, Any]:
    spec = spec_of(envelope, is_request)
    payload = {"kind": spec.kind, "version": DICT_VERSION}
    for field_ in spec.fields:
        payload[field_.key] = field_.type.encode(
            getattr(envelope, field_.attribute))
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


def _envelope_bytes(head: bytes, spec: EnvelopeSpec, envelope) -> bytes:
    """``head`` — a frame's magic, version, kind code and trace section,
    or a batch slot's kind code — then ``envelope``'s body: every field,
    in declared order."""
    parts = [head]
    for field_ in spec.fields:
        parts += field_.type.parts(getattr(envelope, field_.attribute))
    return b"".join(parts)


def _read_fields(spec: EnvelopeSpec, buf: bytes, pos: int):
    """The envelope of ``spec``'s kind whose fields run from
    ``buf[pos]`` to the end."""
    values = {}
    for field_ in spec.fields:
        values[field_.attribute], pos = field_.type.at(buf, pos)
    if pos != len(buf):
        raise SerializationError(
            "%d trailing bytes after a %s" % (len(buf) - pos, spec.kind)
        )
    return spec.cls(**values)


def _trace_section(context: Dict[str, Any]) -> bytes:
    """A traced request's trace section: its byte count (an untraced
    frame's is 0), then the context's JSON text."""
    return text_bytes(_json(_dumps, context))


def _read_trace(section: bytes) -> Optional[Dict[str, Any]]:
    try:
        return trace_from_wire(_json(_loads, decode_text(section)))
    except SerializationError:  # a malformed context degrades to none
        return None


def _decode(frame: bytes, is_request: Optional[bool] = None, top=True):
    """``(envelope, trace)`` of a whole frame (``top``) or batch slot:
    the kind code of the given direction (``None``: either), the trace
    section if ``top`` and a request, the body.  Every failure is a
    typed :class:`SerializationError` — no raw ``struct`` / ``numpy`` /
    overflow error leaves the decoder."""
    try:
        pos = 0
        if top:
            if len(frame) < 3 or frame[0] != MAGIC:
                raise SerializationError("not a protocol frame")
            if frame[1] != PROTOCOL_VERSION:
                raise SerializationError(
                    "unsupported protocol version: %d" % frame[1]
                )
            pos = 2
        code, pos = read_varint(frame, pos)
        spec = _CODES.get(code)
        if spec is None or is_request not in (None, spec.is_request):
            raise SerializationError(
                "unknown %s kind code: %d" % (_direction(is_request), code)
            )
        if not top and spec.cls in (BatchRequest, BatchResponse):
            raise SerializationError("batch requests cannot nest")
        trace = None
        if top and spec.is_request:
            section, pos = bytes_at(frame, pos)
            if section:
                trace = _read_trace(section)
        return _read_fields(spec, frame, pos), trace
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
    try:
        head = spec.head
        if trace is not None and spec.is_request:
            head = _FRAME_HEAD + spec.code_bytes + _trace_section(trace)
        return _envelope_bytes(head, spec, envelope)
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise SerializationError(
            "cannot serialize %s: %s" % (spec.kind, exc)
        ) from exc


def decode(frame: bytes):
    """The envelope of a frame, either direction; anything but a
    version-7 frame read to its last byte is a SerializationError."""
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
