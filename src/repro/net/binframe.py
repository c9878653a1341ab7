"""Binary wire primitives, and one self-describing value grammar.

Two things live here.  The *primitives* are what
:mod:`repro.net.protocol` writes an envelope frame from, field by field
in declared order (varints, zigzag ints, UTF-8 strings, ``int64`` runs,
fixed-width runs of big integers): writers that return the bytes, and
readers that index the frame's bytes, check every bound and return
``(value, position past it)``.  The *generic grammar* below is a tagged
encoding of plain dicts, lists and scalars: every free-form envelope
field (a config, telemetry sections) inside a frame is one.

Generic value layout (:func:`value_bytes` / :func:`value_at`)::

    value   := 0x00                                  # None
             | 0x01 | 0x02                           # False | True
             | 0x03 zigzag-varint                    # int, |v| < 2**63
             | 0x04 sign(1B) varint(len) magnitude   # big int, sign +
                                                     #   magnitude bytes
                                                     #   (big-endian)
             | 0x05 float64 (8B, big-endian)
             | 0x06 varint(len) utf-8 bytes          # string (interned)
             | 0x07 varint(index)                    # string back-ref
             | 0x08 varint(count) value*             # list
             | 0x09 varint(count) (string value)*    # dict, keys sorted
             | 0x0A width_code(1B) varint(count)     # homogeneous int
               payload                               #   array fast path
             | 0x0A 0x04 width(1B) varint(count)     # ... wide mode: ints
               payload                               #   beyond int64

Repeated strings cost a back-reference.  A list of 4+ plain ints
ships as one int array: struct-packed at the narrowest of four widths,
or beyond int64 in the *wide mode*, one width byte and fixed-width
two's-complement values; it decodes to a list.  Encoding is a pure
function of the value (keys sorted, interning in encounter order).

Decoding is hardened for hostile bytes: every malformed value —
truncated varint, length or count exceeding the remaining
buffer, unknown tag, dangling back-reference, duplicate or non-string
dict key — raises a typed
:class:`~repro.errors.SerializationError`.  Never a raw
``struct.error``, an out-of-memory allocation, or a hang.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import SerializationError
from repro.linalg.limbs import bit_length, to_wire

#: First byte of every envelope frame (never the first byte of valid
#: UTF-8, so text is never mistaken for one).
MAGIC = 0xAE

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_BIGINT = 0x04
_TAG_FLOAT = 0x05
_TAG_STR = 0x06
_TAG_STRREF = 0x07
_TAG_LIST = 0x08
_TAG_DICT = 0x09
_TAG_INTARRAY = 0x0A

_FLOAT64 = struct.Struct(">d")

#: Int-array width codes: code -> (byte width, struct format char,
#: inclusive signed bound, big-endian numpy dtype).  Width is picked
#: per array from its range.
_INTARRAY_WIDTHS = (
    (1, "b", 1 << 7, np.dtype(">i1")),
    (2, "h", 1 << 15, np.dtype(">i2")),
    (4, "i", 1 << 31, np.dtype(">i4")),
    (8, "q", 1 << 63, np.dtype(">i8")),
)

#: Width code of the wide mode: an explicit byte width follows.
_INTARRAY_WIDE = len(_INTARRAY_WIDTHS)

#: Widest wide-mode integer (the width travels in one byte); an array
#: ranging beyond 2040 bits falls back to per-value big ints.
_INTARRAY_MAX_WIDTH = 255

#: Shortest list worth the fast path; below this the per-value tags are
#: as compact and the range scan is pure overhead.
_INTARRAY_MIN_LEN = 4

#: ints with |v| below this encode as zigzag varints; larger ones as
#: sign + magnitude bytes.
_SMALL_INT_LIMIT = 1 << 63

#: Longest accepted varint (10 * 7 = 70 bits covers every length,
#: count, back-reference, and small int the encoder can produce).
_MAX_VARINT_BYTES = 10

#: Maximum container nesting; a telemetry section is a handful deep.
_MAX_DEPTH = 64


# -- primitives -----------------------------------------------------------------


def write_varint(out: bytearray, value: int) -> None:
    """An unsigned LEB128 varint (7 bits per byte)."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def varints(*values: int) -> bytes:
    """Unsigned varints back to back: ``bytes(values)`` when every one
    is below 0x80, as nearly every length and count is."""
    for value in values:
        if value >= 0x80:
            break
    else:
        return bytes(values)
    out = bytearray()
    for value in values:
        write_varint(out, value)
    return bytes(out)


def zigzag_bytes(value: int) -> bytes:
    """A signed 64-bit integer as a zigzag varint."""
    if not -_SMALL_INT_LIMIT <= value < _SMALL_INT_LIMIT:
        raise SerializationError("integer %d does not fit 64 bits" % value)
    return varints((value << 1) ^ (value >> 63))


def text_bytes(text: str) -> bytes:
    """A string as its UTF-8 byte count, then the bytes."""
    payload = text.encode("utf-8")
    return varints(len(payload)) + payload


def word_array(words: np.ndarray) -> bytes:
    """``int64`` words as an int-array payload (what follows tag 0x0A):
    the narrowest width code their range fits, the count, then each
    word big-endian in that width."""
    lo = hi = 0
    if len(words):
        lo = int(np.minimum.reduce(words))
        hi = int(np.maximum.reduce(words))
    for code, (_, _, bound, dtype) in enumerate(_INTARRAY_WIDTHS):
        if -bound <= lo and hi < bound:
            return varints(code, len(words)) + words.astype(dtype).tobytes()


def limb_run(limbs: np.ndarray, bits: int = None) -> bytes:
    """The integers of ``... x k`` limbs, in order, as a *run*: a varint
    width (two's-complement bytes of the widest; ``bits`` is its
    bit-length where the caller knows it), then each integer big-endian
    in that many bytes — :func:`~repro.linalg.limbs.to_wire`, whatever
    their count (an empty run is width 1 alone)."""
    if bits is None or not limbs.size:
        bits = bit_length(limbs)
    width = bits // 8 + 1
    return varints(width) + to_wire(limbs, width)


def bigint_run(values) -> bytes:
    """:func:`limb_run` for a sequence of Python ints: the same bytes,
    joined into one big integer by shifts, not a call per value."""
    width = max(map(int.bit_length, values), default=0) // 8 + 1
    bits = 8 * width
    mask = (1 << bits) - 1
    total = 0
    for value in values:
        total = (total << bits) | (value & mask)
    return varints(width) + total.to_bytes(width * len(values), "big")


def value_bytes(value: Any) -> bytes:
    """One generic tagged value, with an intern table of its own."""
    out = bytearray()
    _write_value(out, value, {}, 0)
    return bytes(out)


# -- the generic grammar: encoding ---------------------------------------------------


def _write_intarray(out: bytearray, value: Any) -> bool:
    """Write ``value`` as a packed int array if eligible.

    Eligible means every element is a plain ``int`` (bools are a
    subclass and are excluded — they must round-trip as bools).  The
    narrowest fixed signed width the range fits is struct-packed;
    beyond int64 the wide mode ships fixed-width two's-complement
    integers.  Returns False without touching ``out`` when the generic
    list encoding must be used (mixed types, or a range too wide even
    for the wide mode).
    """
    if not set(map(type, value)) <= {int}:
        return False
    lo = min(value)
    hi = max(value)
    if -_SMALL_INT_LIMIT <= lo and hi < _SMALL_INT_LIMIT:
        for code, (width, fmt, bound, _) in enumerate(_INTARRAY_WIDTHS):
            if -bound <= lo and hi < bound:
                out.append(_TAG_INTARRAY)
                out.append(code)
                write_varint(out, len(value))
                out.extend(struct.pack(">%d%s" % (len(value), fmt), *value))
                return True
    # The widest magnitude is at one of the two ends.
    bits = max(lo.bit_length(), hi.bit_length())
    # Two's complement of a ``bits``-bit magnitude needs a sign bit too.
    width = bits // 8 + 1
    if width > _INTARRAY_MAX_WIDTH:
        return False
    out.append(_TAG_INTARRAY)
    out.append(_INTARRAY_WIDE)
    out.append(width)
    write_varint(out, len(value))
    out.extend(b"".join([item.to_bytes(width, "big", signed=True)
                         for item in value]))
    return True


def _write_int(out: bytearray, value: int) -> None:
    if -_SMALL_INT_LIMIT < value < _SMALL_INT_LIMIT:
        out.append(_TAG_INT)
        raw = (value << 1) ^ (value >> 63)
        if raw < 0x80:
            out.append(raw)
        else:
            write_varint(out, raw)
    else:
        magnitude = abs(value)
        payload = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
        out.append(_TAG_BIGINT)
        out.append(1 if value < 0 else 0)
        write_varint(out, len(payload))
        out += payload


def _write_str(out: bytearray, value: str, interned: Dict[str, int]) -> None:
    """A string, or the back-reference to its first occurrence — all a
    dict key can be."""
    index = interned.get(value)
    if index is None:
        interned[value] = len(interned)
        payload = value.encode("utf-8")
        out.append(_TAG_STR)
        if len(payload) < 0x80:
            out.append(len(payload))
        else:
            write_varint(out, len(payload))
        out += payload
    else:
        out.append(_TAG_STRREF)
        if index < 0x80:
            out.append(index)
        else:
            write_varint(out, index)


def _write_list(out: bytearray, value: Any, interned: Dict[str, int],
                depth: int) -> None:
    if len(value) >= _INTARRAY_MIN_LEN and _write_intarray(out, value):
        return
    out.append(_TAG_LIST)
    write_varint(out, len(value))
    depth += 1
    for item in value:
        _write_value(out, item, interned, depth)


def _write_dict(out: bytearray, value: Dict[str, Any],
                interned: Dict[str, int], depth: int) -> None:
    out.append(_TAG_DICT)
    write_varint(out, len(value))
    try:
        keys = sorted(value)
    except TypeError as exc:
        raise SerializationError(
            "binary frames require string dict keys: %s" % exc
        ) from exc
    depth += 1
    for key in keys:
        if not isinstance(key, str):
            raise SerializationError(
                "binary frames require string dict keys, got %s"
                % type(key).__name__
            )
        _write_str(out, key, interned)
        _write_value(out, value[key], interned, depth)


def _write_value(out: bytearray, value: Any, interned: Dict[str, int],
                 depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise SerializationError("frame nesting exceeds %d levels" % _MAX_DEPTH)
    # The exact types envelopes are made of, most frequent first ...
    kind = type(value)
    if kind is str:
        _write_str(out, value, interned)
    elif kind is int:
        _write_int(out, value)
    elif kind is dict:
        _write_dict(out, value, interned, depth)
    elif kind is list:
        _write_list(out, value, interned, depth)
    elif kind is bool:
        out.append(_TAG_TRUE if value else _TAG_FALSE)
    elif value is None:
        out.append(_TAG_NONE)
    # ... then the rarer ones, and subclasses of any.
    elif isinstance(value, int):
        _write_int(out, value)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.extend(_FLOAT64.pack(value))
    elif isinstance(value, str):
        _write_str(out, value, interned)
    elif isinstance(value, (list, tuple)):
        _write_list(out, value, interned, depth)
    elif isinstance(value, dict):
        _write_dict(out, value, interned, depth)
    else:
        raise SerializationError(
            "unencodable frame value of type %s" % type(value).__name__
        )


# -- decoding -------------------------------------------------------------------


def read_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    """The unsigned varint at ``buf[pos]`` and the position past it."""
    try:
        byte = buf[pos]
        if byte < 0x80:  # nearly every one
            return byte, pos + 1
        result = shift = 0
        for pos in range(pos, pos + _MAX_VARINT_BYTES):
            byte = buf[pos]
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                return result, pos + 1
            shift += 7
    except IndexError:
        raise SerializationError("truncated binary frame") from None
    raise SerializationError("varint longer than %d bytes" % _MAX_VARINT_BYTES)


def run_width(buf: bytes, pos: int, count: int) -> Tuple[int, int]:
    """The width of the run of ``count`` integers at ``buf[pos]`` and
    where its payload starts, checked against the bytes ``count`` of it
    need before anything is allocated.  No bytes bound the width of an
    empty run, so it must be the 1 every writer gives one."""
    width, pos = read_varint(buf, pos)
    if width < 1:
        raise SerializationError("run width must be >= 1")
    if not count and width != 1:
        raise SerializationError("an empty run has width 1, not %d" % width)
    if count * width > len(buf) - pos:
        raise SerializationError(
            "run of %d integers exceeds remaining frame bytes" % count
        )
    return width, pos


def bigints_at(buf: bytes, pos: int, count: int) -> Tuple[List[int], int]:
    """The ``count`` integers of the run :func:`bigint_run` wrote at
    ``buf[pos]`` — split off one big integer by shifts, not a call per
    value — and the position past it."""
    width, pos = run_width(buf, pos, count)
    end = pos + count * width
    total = int.from_bytes(buf[pos:end], "big")
    bits = 8 * width
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    values = [0] * count
    for index in range(count - 1, -1, -1):
        value = total & mask
        total >>= bits
        values[index] = value - ((value & sign) << 1)
    return values, end


def words_at(buf: bytes, pos: int) -> Tuple[np.ndarray, int]:
    """The ``int64`` words of the int-array payload :func:`word_array`
    wrote at ``buf[pos]`` (no wide mode), and the position past it."""
    code = buf[pos]
    if code >= _INTARRAY_WIDE:
        raise SerializationError("invalid int-array width code: %d" % code)
    count, pos = read_varint(buf, pos + 1)
    dtype = _INTARRAY_WIDTHS[code][3]
    end = pos + count * dtype.itemsize
    if end > len(buf):
        raise SerializationError(
            "int-array count %d exceeds remaining frame bytes" % count
        )
    return np.frombuffer(buf, dtype, count, pos).astype(np.int64), end


def zigzag_at(buf: bytes, pos: int) -> Tuple[int, int]:
    """The integer :func:`zigzag_bytes` wrote at ``buf[pos]``, and the
    position past it."""
    raw, pos = read_varint(buf, pos)
    if raw >> 64:
        raise SerializationError("zigzag integer past 64 bits")
    return (raw >> 1) ^ -(raw & 1), pos


def bytes_at(buf: bytes, pos: int) -> Tuple[bytes, int]:
    """The bytes behind the varint byte count at ``buf[pos]``, which
    the frame must hold, and the position past them."""
    size, pos = read_varint(buf, pos)
    end = pos + size
    if end > len(buf):
        raise SerializationError(
            "truncated binary frame (%d bytes needed, %d left)"
            % (size, len(buf) - pos)
        )
    return buf[pos:end], end


def text_at(buf: bytes, pos: int) -> Tuple[str, int]:
    """The string :func:`text_bytes` wrote at ``buf[pos]``, and the
    position past it."""
    payload, pos = bytes_at(buf, pos)
    return decode_text(payload), pos


def value_at(buf: bytes, pos: int) -> Tuple[Any, int]:
    """The generic value at ``buf[pos]``, with an intern table of its
    own, and the position past it."""
    return _value_at(buf, pos, [], 0)


def _intarray_at(buf: bytes, pos: int) -> Tuple[List[int], int]:
    """The int-array payload (what follows tag 0x0A) at ``buf[pos]``,
    either mode, as a list of ints."""
    if buf[pos] != _INTARRAY_WIDE:
        words, end = words_at(buf, pos)
        return words.tolist(), end
    width = buf[pos + 1]
    if width < 1:
        raise SerializationError("int-array width must be >= 1")
    count, pos = read_varint(buf, pos + 2)
    if count * width > len(buf) - pos:
        raise SerializationError(
            "int-array count %d exceeds remaining frame bytes" % count
        )
    end = pos + count * width
    return [
        int.from_bytes(buf[start:start + width], "big", signed=True)
        for start in range(pos, end, width)
    ], end


def _value_at(buf: bytes, pos: int, strings: List[str],
              depth: int) -> Tuple[Any, int]:
    if depth > _MAX_DEPTH:
        raise SerializationError("frame nesting exceeds %d levels" % _MAX_DEPTH)
    try:
        tag = buf[pos]
        # The tag and every one-byte varint (nearly all of them) are
        # read inline; read_varint takes over for anything longer.
        if tag == _TAG_INT:
            raw = buf[pos + 1]
            if raw < 0x80:
                pos += 2
            else:
                raw, pos = read_varint(buf, pos + 1)
            return (raw >> 1) ^ -(raw & 1), pos
        if tag == _TAG_DICT:
            count = buf[pos + 1]
            if count < 0x80:
                pos += 2
            else:
                count, pos = read_varint(buf, pos + 1)
            if 2 * count > len(buf) - pos:  # every entry costs >= 2 bytes
                raise SerializationError(
                    "dict count %d exceeds remaining frame bytes" % count
                )
            out: Dict[str, Any] = {}
            depth += 1
            for _ in range(count):
                # A key is a string or a back-reference, nothing else.
                tag = buf[pos]
                size = buf[pos + 1]
                if size < 0x80:
                    pos += 2
                else:
                    size, pos = read_varint(buf, pos + 1)
                if tag == _TAG_STR:
                    if size > len(buf) - pos:
                        raise SerializationError("truncated binary frame")
                    key = decode_text(buf[pos:pos + size])
                    strings.append(key)
                    pos += size
                elif tag == _TAG_STRREF:
                    if size >= len(strings):
                        raise SerializationError(
                            "dangling string back-reference: %d" % size
                        )
                    key = strings[size]
                else:
                    raise SerializationError(
                        "dict key must be a string, got tag 0x%02x" % tag
                    )
                if key in out:
                    raise SerializationError("duplicate dict key: %r" % key)
                out[key], pos = _value_at(buf, pos, strings, depth)
            return out, pos
        pos += 1
        if tag == _TAG_STR:
            text, pos = text_at(buf, pos)
            strings.append(text)
            return text, pos
        if tag == _TAG_STRREF:
            index, pos = read_varint(buf, pos)
            if index >= len(strings):
                raise SerializationError(
                    "dangling string back-reference: %d" % index)
            return strings[index], pos
        if tag == _TAG_INTARRAY:
            return _intarray_at(buf, pos)
        if tag == _TAG_LIST:
            count, pos = read_varint(buf, pos)
            if count > len(buf) - pos:  # every element costs >= 1 byte
                raise SerializationError(
                    "list count %d exceeds remaining frame bytes" % count
                )
            depth += 1
            items = []
            for _ in range(count):
                item, pos = _value_at(buf, pos, strings, depth)
                items.append(item)
            return items, pos
        if tag == _TAG_TRUE:
            return True, pos
        if tag == _TAG_FALSE:
            return False, pos
        if tag == _TAG_NONE:
            return None, pos
        if tag == _TAG_BIGINT:
            sign = buf[pos]
            if sign not in (0, 1):
                raise SerializationError("invalid big-int sign byte: %d" % sign)
            payload, pos = bytes_at(buf, pos + 1)
            magnitude = int.from_bytes(payload, "big")
            return -magnitude if sign else magnitude, pos
        if tag == _TAG_FLOAT:
            if pos + 8 > len(buf):
                raise SerializationError("truncated binary frame")
            return _FLOAT64.unpack(buf[pos:pos + 8])[0], pos + 8
    except IndexError:
        raise SerializationError("truncated binary frame") from None
    raise SerializationError("unknown binary frame tag: 0x%02x" % tag)


def decode_text(payload: bytes) -> str:
    """UTF-8 ``payload`` as a string, or a typed error."""
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError("invalid utf-8 in frame: %s" % exc) from exc
