"""Stable JSON-compatible serialization for keys and message payloads.

In the database-as-a-service deployment the data owner generates the
key once and shares it with trusted clients out of band: a key file is
a plain JSON-compatible dictionary (Python ints are arbitrary
precision, and JSON numbers carry them losslessly through Python's
``json`` module), tagged with a ``kind`` and a format ``version``.
Ciphertexts travel and rest only as protocol frames
(:mod:`repro.net.protocol`); the row-set, query and response dicts
below are the envelopes' dict forms.
"""

from __future__ import annotations

import json
from typing import Any, Dict

import numpy as np

from repro.crypto.ciphertext import (
    BoundCiphertext,
    RowBlock,
    ValueCiphertext,
    flatten_rows,
)
from repro.crypto.key import SecretKey
from repro.errors import SerializationError
from repro.linalg.limbs import PackedInts, fits_word, from_ints

FORMAT_VERSION = 1

#: Layout version of the query payload.  2: one flat block (see
#: :func:`query_to_dict`) instead of nested per-ciphertext objects.
QUERY_VERSION = 2


def key_to_dict(key: SecretKey) -> Dict[str, Any]:
    """Serialize a secret key to a JSON-compatible dictionary."""
    return {
        "kind": "secret_key",
        "version": FORMAT_VERSION,
        "length": key.length,
        "payload_positions": list(key.payload_positions),
        "u": list(key.u),
        "matrix": [list(row) for row in key.matrix],
        "matrix_inverse": [list(row) for row in key.matrix_inverse],
        "ambiguity_row": list(key.ambiguity_row),
    }


def key_from_dict(data: Dict[str, Any]) -> SecretKey:
    """Reconstruct a secret key; validates the tag and version."""
    _check_kind(data, "secret_key")
    try:
        payload_positions = tuple(data["payload_positions"])
        length = int(data["length"])
        return SecretKey(
            length=length,
            payload_positions=payload_positions,
            noise_positions=tuple(
                i for i in range(length) if i not in payload_positions
            ),
            u=tuple(int(x) for x in data["u"]),
            matrix=tuple(tuple(int(x) for x in row) for row in data["matrix"]),
            matrix_inverse=tuple(
                tuple(int(x) for x in row) for row in data["matrix_inverse"]
            ),
            ambiguity_row=tuple(int(x) for x in data["ambiguity_row"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError("malformed secret key payload: %s" % exc) from exc


def ints_from_wire(items, what: str):
    """``items`` if it is a list of plain ints — or a
    :class:`~repro.linalg.limbs.PackedInts` run of them — else a typed
    error.

    The trust-boundary integer check: ``"7"``, ``1.9`` and ``True``
    all pass ``int()``, so a tampered frame would silently become a
    *different* ciphertext or row id.  Only ``type(x) is int`` is an
    integer on the wire (a :class:`~repro.linalg.limbs.PackedInts`
    holds nothing else).
    """
    if type(items) is PackedInts:
        return items
    if type(items) is not list or not set(map(type, items)) <= {int}:
        raise SerializationError("%s must be a list of integers" % what)
    return items


def rows_to_dict(rows) -> Dict[str, Any]:
    """Serialize a row set — a :class:`RowBlock` or any sequence of
    value ciphertexts — as one flat block of integers:
    ``{"length": l, "numerators": [n * l ints, row-major]}`` plus
    ``"denominators": [n ints]`` unless every denominator is 1.  The
    one row-set encoding of the code base: frames, WAL entries and
    snapshots all carry this value.  A block's runs are
    :class:`~repro.linalg.limbs.PackedInts` over its own limbs — the
    lists of ints they stand for, stored as limbs: ``json`` writes them
    as any list."""
    if isinstance(rows, RowBlock):
        length, k = rows.length, rows.limbs.shape[2]
        numerators = PackedInts(rows.limbs[:, :-1].reshape(-1, k))
        denominators = PackedInts(rows.limbs[:, -1])
        unit = not (
            (denominators.limbs[:, 0] != 1).any()
            or denominators.limbs[:, 1:].any()
        )
    else:
        # Rows already in Python ints stay in them.
        try:
            length, numerators, denominators = flatten_rows(rows)
        except (TypeError, ValueError, AttributeError) as exc:
            raise SerializationError("cannot serialize rows: %s" % exc) from exc
        unit = denominators.count(1) == len(denominators)
    data = {"length": length, "numerators": numerators}
    if not unit:
        data["denominators"] = denominators
    return data


def rows_from_dict(data: Dict[str, Any]) -> RowBlock:
    """Reconstruct a row block; the only failure is a typed
    :class:`SerializationError`."""
    if not isinstance(data, dict):
        raise SerializationError("rows must be a block object")
    length = data.get("length")
    if type(length) is not int or length < 0:
        raise SerializationError("block length must be an integer >= 0")
    numerators = ints_from_wire(data.get("numerators"), "block numerators")
    denominators = ints_from_wire(
        data.get("denominators", []), "block denominators"
    )
    count, ragged = divmod(len(numerators), length) if length else (0, 0)
    if ragged or (not length and len(numerators)):
        raise SerializationError(
            "%d numerators do not fill rows of length %d"
            % (len(numerators), length)
        )
    try:
        if len(denominators) not in (0, count):
            raise ValueError("denominator count")
        if type(numerators) is not PackedInts:
            # A short run arrived as Python ints: one conversion.
            return RowBlock.from_ints(
                length, numerators, list(denominators) or [1] * count
            )
        limbs = numerators.limbs
        return RowBlock.from_limbs(
            length,
            limbs.reshape(count, length, limbs.shape[1]),
            _limbs_of(denominators) if len(denominators) else None,
        )
    except ValueError:
        raise SerializationError(
            "a block of %d rows needs %d positive denominators"
            % (count, count)
        ) from None


def _limbs_of(items) -> np.ndarray:
    """The limbs of a wire run of integers (:func:`ints_from_wire`)."""
    return items.limbs if type(items) is PackedInts else from_ints(items)


def dumps(key: SecretKey) -> str:
    """Serialize a key to a JSON string."""
    return json.dumps(key_to_dict(key), separators=(",", ":"))


def loads(text: str) -> SecretKey:
    """Parse a JSON string produced by :func:`dumps`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError("invalid JSON: %s" % exc) from exc
    if not isinstance(data, dict):
        raise SerializationError("expected a JSON object")
    return key_from_dict(data)


def _check_kind(data: Dict[str, Any], expected: str,
                version: int = FORMAT_VERSION) -> None:
    """Validate the ``kind`` tag and format version of a payload."""
    if data.get("kind") != expected:
        raise SerializationError(
            "expected kind %r, got %r" % (expected, data.get("kind"))
        )
    if data.get("version") != version:
        raise SerializationError(
            "unsupported format version: %r" % (data.get("version"),)
        )


def flag_from_wire(value) -> bool:
    """``value`` if it is a boolean, else a typed error.  The strict
    check for flags at the trust boundary: ``bool()`` turns ``"false"``
    into ``True`` and a tampered frame into a different predicate."""
    if type(value) is not bool:
        raise SerializationError("expected a boolean")
    return value


#: Which of a query's two sides carry a bound, as spelled on the wire.
_QUERY_SIDES = {
    (True, True): "both",
    (True, False): "low",
    (False, True): "high",
    (False, False): "none",
}
_SIDES_FROM_WIRE = {name: sides for sides, name in _QUERY_SIDES.items()}


def query_to_dict(query) -> Dict[str, Any]:
    """Serialize an :class:`repro.core.query.EncryptedQuery` message as
    one flat block, the way :func:`rows_to_dict` ships a row set: the
    ciphertext ``length``, which ``sides`` carry a bound (``"low"``,
    ``"high"`` or ``"none"``; left out when both do), the two
    inclusiveness flags, and two plain integer runs over the bounds in
    the order low, high, pivots — ``eb`` (``length`` integers per
    bound) and ``ev`` (``length`` numerators then the denominator per
    bound).  The pivot count is what the runs hold beyond the sides.
    A query's session ``token`` is there when it has one.

    Every bound of a query has the query's one ``length``; a query
    that mixes lengths (no engine could answer it) does not encode.
    """
    try:
        bounds = [b for b in (query.low, query.high) if b is not None]
        bounds += query.pivots
        length = len(bounds[0].eb.vector) if bounds else 0
        eb: list = []
        ev: list = []
        for bound in bounds:
            vector, value = bound.eb.vector, bound.ev
            if len(vector) != length or len(value.numerators) != length:
                raise SerializationError(
                    "every bound of a query must have its length (%d)"
                    % length
                )
            eb += vector
            ev += value.numerators
            ev.append(value.denominator)
    except (AttributeError, TypeError) as exc:
        raise SerializationError("cannot serialize query: %s" % exc) from exc
    data = {
        "kind": "query",
        "version": QUERY_VERSION,
        "length": length,
        "low_inclusive": query.low_inclusive,
        "high_inclusive": query.high_inclusive,
        "eb": eb,
        "ev": ev,
    }
    sides = _QUERY_SIDES[query.low is not None, query.high is not None]
    if sides != "both":
        data["sides"] = sides
    if query.token:
        data["token"] = query.token
    return data


def query_from_dict(data: Dict[str, Any]):
    """Reconstruct an encrypted query message; the only failure is a
    typed :class:`SerializationError`."""
    from repro.core.query import EncryptedBound, EncryptedQuery

    if not isinstance(data, dict):
        raise SerializationError("query must be an object")
    _check_kind(data, "query", QUERY_VERSION)
    length = data.get("length")
    if type(length) is not int or length < 0:
        raise SerializationError("query length must be an integer >= 0")
    sides = data.get("sides", "both")
    if type(sides) is not str or sides not in _SIDES_FROM_WIRE:
        raise SerializationError("unknown query sides: %r" % (sides,))
    has_low, has_high = _SIDES_FROM_WIRE[sides]
    sided = has_low + has_high
    low_inclusive = flag_from_wire(data.get("low_inclusive"))
    high_inclusive = flag_from_wire(data.get("high_inclusive"))
    token = data.get("token", 0)
    if type(token) is not int or not 0 <= token < 1 << 64:
        raise SerializationError("a query token is 0 .. 2^64 - 1")
    eb = list(ints_from_wire(data.get("eb"), "query eb run"))
    ev = list(ints_from_wire(data.get("ev"), "query ev run"))
    count, ragged = divmod(len(eb), length) if length else (0, len(eb))
    if ragged or len(ev) != count * (length + 1):
        raise SerializationError(
            "runs of %d and %d integers are not whole bounds of length %d"
            % (len(eb), len(ev), length)
        )
    if count < sided:
        raise SerializationError(
            "query declares sides %r but ships %d bounds" % (sides, count)
        )
    bounds = []
    for index in range(count):
        start, value = index * length, index * (length + 1)
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
        low=bounds[0] if has_low else None,
        high=bounds[sided - 1] if has_high else None,
        low_inclusive=low_inclusive,
        high_inclusive=high_inclusive,
        pivots=tuple(bounds[sided:]),
        token=token,
    )


def _ids_to_wire(row_ids) -> PackedInts:
    """Row ids for an envelope dict, as they are: one ``int64`` limb
    each."""
    row_ids = np.asarray(row_ids, dtype=np.int64)
    return PackedInts(row_ids.view(np.uint64).reshape(-1, 1))


def response_to_dict(response) -> Dict[str, Any]:
    """Serialize a :class:`repro.core.server.ServerResponse`."""
    return {
        "kind": "response",
        "version": FORMAT_VERSION,
        "row_ids": _ids_to_wire(response.row_ids),
        "rows": rows_to_dict(response.rows),
    }


def response_from_dict(data: Dict[str, Any]):
    """Reconstruct a server response."""
    from repro.core.server import ServerResponse

    _check_kind(data, "response")
    try:
        rows = rows_from_dict(data["rows"])
        row_ids = ints_from_wire(data["row_ids"], "row ids")
        if type(row_ids) is PackedInts and fits_word(row_ids.limbs):
            row_ids = row_ids.limbs[:, 0].view(np.int64)
        else:
            row_ids = np.array(row_ids, dtype=np.int64)
    except (KeyError, OverflowError) as exc:
        # OverflowError: a fuzzed row id exceeding int64 must surface as
        # a typed serialization failure, not a raw numpy error.
        raise SerializationError(
            "malformed response payload: %s" % exc
        ) from exc
    if np.count_nonzero(row_ids >= 0) != len(rows):
        raise SerializationError(
            "response carries %d row ids for %d rows"
            % (len(row_ids), len(rows))
        )
    return ServerResponse(row_ids=row_ids, rows=rows)
