"""Binary wire primitives, and one self-describing value grammar.

Two things live here.  The *primitives* are what
:mod:`repro.net.protocol` writes an envelope frame from, field by field
in declared order (varints, zigzag ints, UTF-8 strings, ``int64`` runs,
fixed-width runs of big integers, and a :class:`Reader` that reads each
back with every bound checked).  The *generic grammar* below is a tagged
encoding of plain dicts, lists and scalars: every free-form envelope
field (a config, telemetry sections) inside a frame is one.

Generic value layout (:func:`write_value` / :meth:`Reader.value`)::

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
or beyond int64 (a row block's numerators) in the *wide mode*, one
width byte and fixed-width two's-complement values.  A
:class:`~repro.linalg.limbs.PackedInts` run of :data:`PACKED_MIN_LEN`
integers or more is written from, and read back into, limbs with numpy
— the same bytes, without a Python int per value.  Encoding is a pure
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
from typing import Any, Dict, List

import numpy as np

from repro.errors import SerializationError
from repro.linalg.limbs import (
    PackedInts,
    bit_length,
    fits_word,
    from_wire,
    to_wire,
)

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

#: Shortest int array written from, or read into, limbs with numpy (the
#: one place that choice is made: what an array decodes to depends on
#: its count alone).  Either way takes ~10 array calls whatever the
#: count, one ``to_bytes`` / ``from_bytes`` ~0.2 us.
PACKED_MIN_LEN = 64

#: ints with |v| below this encode as zigzag varints; larger ones as
#: sign + magnitude bytes.
_SMALL_INT_LIMIT = 1 << 63

#: Longest accepted varint (10 * 7 = 70 bits covers every length,
#: count, back-reference, and small int the encoder can produce).
_MAX_VARINT_BYTES = 10

#: Maximum container nesting; a feed's entries are a handful deep.
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


def write_zigzag(out: bytearray, value: int) -> None:
    """A signed 64-bit integer as a zigzag varint."""
    if not -_SMALL_INT_LIMIT <= value < _SMALL_INT_LIMIT:
        raise SerializationError("integer %d does not fit 64 bits" % value)
    write_varint(out, (value << 1) ^ (value >> 63))


def write_text(out: bytearray, text: str) -> None:
    """A string as its UTF-8 byte count, then the bytes."""
    payload = text.encode("utf-8")
    write_varint(out, len(payload))
    out += payload


def write_words(out: bytearray, words: np.ndarray) -> None:
    """``int64`` words as an int-array payload (what follows tag 0x0A):
    the narrowest width code their range fits, the count, then each
    word big-endian in that width."""
    lo, hi = (int(words.min()), int(words.max())) if len(words) else (0, 0)
    for code, (_, _, bound, dtype) in enumerate(_INTARRAY_WIDTHS):
        if -bound <= lo and hi < bound:
            out.append(code)
            write_varint(out, len(words))
            out += words.astype(dtype).tobytes()
            return


def write_run(out: bytearray, limbs: np.ndarray, bits: int = None) -> None:
    """The ``n`` integers of ``n x k`` limbs as a *run*: a varint width
    (two's-complement bytes of the widest; ``bits`` is its bit-length
    where the caller knows it), then each integer big-endian in that
    many bytes — :func:`~repro.linalg.limbs.to_wire`, whatever ``n``
    (an empty run is width 1 alone)."""
    if bits is None or not len(limbs):
        bits = bit_length(limbs)
    width = bits // 8 + 1
    write_varint(out, width)
    out += to_wire(limbs, width)


def write_bigints(out: bytearray, values) -> None:
    """:func:`write_run` for a sequence of Python ints: the same bytes,
    joined into one big integer by shifts, not a call per value."""
    width = max(map(int.bit_length, values), default=0) // 8 + 1
    bits = 8 * width
    mask = (1 << bits) - 1
    total = 0
    for value in values:
        total = (total << bits) | (value & mask)
    write_varint(out, width)
    out += total.to_bytes(width * len(values), "big")


def write_value(out: bytearray, value: Any) -> None:
    """One generic tagged value, with an intern table of its own."""
    _write_value(out, value, {}, 0)


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


def _write_packed(out: bytearray, value: PackedInts) -> bool:
    """:func:`_write_intarray` for integers already held as limbs: the
    same bytes, by the same rules, with numpy — no integer is boxed."""
    limbs = value.limbs
    # One limb is int64 as it stands; more are measured (unless the run
    # knows its width), and lie in int64 only below 64 bits (or at 64,
    # when -2^63 is the widest).
    bits = value.bits
    if bits is None:
        bits = bit_length(limbs) if limbs.shape[1] > 1 else 0
    if bits < 64 or (bits == 64 and fits_word(limbs)):
        out.append(_TAG_INTARRAY)
        write_words(out, limbs[:, 0].view(np.int64))
        return True
    width = bits // 8 + 1
    if width > _INTARRAY_MAX_WIDTH:
        return False
    out.append(_TAG_INTARRAY)
    out.append(_INTARRAY_WIDE)
    out.append(width)
    write_varint(out, len(limbs))
    out.extend(to_wire(limbs, width))
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
    elif kind is PackedInts:
        if len(value) < PACKED_MIN_LEN or not _write_packed(out, value):
            _write_list(out, value.tolist(), interned, depth)
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


class Reader:
    """Bounds-checked cursor over frame bytes: one method per primitive
    the writers above emit."""

    __slots__ = ("buf", "pos", "end", "strings")

    def __init__(self, buf: bytes, pos: int = 0) -> None:
        self.buf = buf
        self.pos = pos
        self.end = len(buf)
        self.strings: List[str] = []

    @property
    def remaining(self) -> int:
        return self.end - self.pos

    def take(self, count: int) -> bytes:
        """The next ``count`` bytes, which the frame must hold."""
        start = self.pos
        self.pos = self._past(count)
        return self.buf[start:self.pos]

    def view(self, count: int) -> memoryview:
        """:meth:`take` without the copy: the frame's own bytes."""
        start = self.pos
        self.pos = self._past(count)
        return memoryview(self.buf)[start:self.pos]

    def _past(self, count: int) -> int:
        """Where the next ``count`` bytes end; the frame must hold them."""
        end = self.pos + count
        if end > self.end:
            raise SerializationError(
                "truncated binary frame (%d bytes needed, %d left)"
                % (count, self.end - self.pos)
            )
        return end

    def byte(self) -> int:
        if self.pos >= self.end:
            raise SerializationError("truncated binary frame")
        value = self.buf[self.pos]
        self.pos += 1
        return value

    def varint(self) -> int:
        # One byte holds nearly every count, length and back-reference.
        buf, pos = self.buf, self.pos
        if pos < self.end and buf[pos] < 0x80:
            self.pos = pos + 1
            return buf[pos]
        result = 0
        shift = 0
        for count in range(_MAX_VARINT_BYTES):
            byte = self.byte()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
        raise SerializationError("varint longer than %d bytes" % _MAX_VARINT_BYTES)

    def zigzag(self) -> int:
        """What :func:`write_zigzag` wrote."""
        raw = self.varint()
        if raw >> 64:
            raise SerializationError("zigzag integer past 64 bits")
        return (raw >> 1) ^ -(raw & 1)

    def flag(self) -> bool:
        """One byte that is 0 or 1, as a boolean."""
        value = self.byte()
        if value > 1:
            raise SerializationError("expected a boolean byte, got %d" % value)
        return value == 1

    def text(self) -> str:
        """What :func:`write_text` wrote."""
        return _decode_utf8(self.take(self.varint()))

    def intarray(self, words_only: bool = False):
        """An int-array payload (what follows tag 0x0A): a list of ints,
        or from :data:`PACKED_MIN_LEN` integers a
        :class:`~repro.linalg.limbs.PackedInts` over their limbs.
        ``words_only`` refuses the wide mode, i.e. values past int64."""
        code = self.byte()
        if code > _INTARRAY_WIDE - words_only:
            raise SerializationError(
                "invalid int-array width code: %d" % code
            )
        if code == _INTARRAY_WIDE:
            width = self.byte()
            if width < 1:
                raise SerializationError("int-array width must be >= 1")
        else:
            width, fmt, _bound, dtype = _INTARRAY_WIDTHS[code]
        count = self.varint()
        if count * width > self.end - self.pos:
            raise SerializationError(
                "int-array count %d exceeds remaining frame bytes" % count
            )
        if count >= PACKED_MIN_LEN:
            # Read where it lies in the frame: each way makes one array.
            payload = self.view(count * width)
            if code == _INTARRAY_WIDE:
                return PackedInts(from_wire(payload, width))
            words = np.frombuffer(payload, dtype=dtype).astype(np.int64)
            return PackedInts(words.view(np.uint64).reshape(count, 1))
        payload = self.take(count * width)
        if code != _INTARRAY_WIDE:
            return list(struct.unpack(">%d%s" % (count, fmt), payload))
        return [
            int.from_bytes(payload[start:start + width], "big", signed=True)
            for start in range(0, len(payload), width)
        ]

    def run(self, count: int) -> np.ndarray:
        """``count`` integers :func:`write_run` wrote, as ``count x
        ceil(width / 8)`` limbs."""
        width = self._width(count)
        return from_wire(self.view(count * width), width)

    def bigints(self, count: int) -> List[int]:
        """``count`` integers :func:`write_bigints` wrote — split off
        one big integer by shifts, not a call per value."""
        width = self._width(count)
        total = int.from_bytes(self.take(count * width), "big")
        bits = 8 * width
        mask = (1 << bits) - 1
        sign = 1 << (bits - 1)
        values = [0] * count
        for index in range(count - 1, -1, -1):
            value = total & mask
            total >>= bits
            values[index] = value - ((value & sign) << 1)
        return values

    def _width(self, count: int) -> int:
        """A run's width, checked against the bytes ``count`` of it
        need before anything is allocated.  No bytes bound the width of
        an empty run, so it must be the 1 every writer gives one."""
        width = self.varint()
        if width < 1:
            raise SerializationError("run width must be >= 1")
        if not count and width != 1:
            raise SerializationError("an empty run has width 1, not %d" % width)
        if count * width > self.end - self.pos:
            raise SerializationError(
                "run of %d integers exceeds remaining frame bytes" % count
            )
        return width

    def value(self) -> Any:
        """One generic tagged value, with an intern table of its own."""
        self.strings = []
        return _read_value(self, 0)


def _read_value(reader: Reader, depth: int) -> Any:
    if depth > _MAX_DEPTH:
        raise SerializationError("frame nesting exceeds %d levels" % _MAX_DEPTH)
    # The tag and every one-byte varint (nearly all of them) are read
    # from locals; the reader takes over for anything longer.
    buf = reader.buf
    pos = reader.pos
    try:
        tag = buf[pos]
        if tag == _TAG_INT:
            raw = buf[pos + 1]
            if raw < 0x80:
                reader.pos = pos + 2
            else:
                reader.pos = pos + 1
                raw = reader.varint()
            return (raw >> 1) ^ -(raw & 1)
        if tag == _TAG_DICT:
            count = buf[pos + 1]
            if count < 0x80:
                pos += 2
            else:
                reader.pos = pos + 1
                count = reader.varint()
                pos = reader.pos
            if 2 * count > len(buf) - pos:  # every entry costs >= 2 bytes
                raise SerializationError(
                    "dict count %d exceeds remaining frame bytes" % count
                )
            out: Dict[str, Any] = {}
            strings = reader.strings
            depth += 1
            for _ in range(count):
                # A key is a string or a back-reference, nothing else.
                tag = buf[pos]
                size = buf[pos + 1]
                if size < 0x80:
                    pos += 2
                else:
                    reader.pos = pos + 1
                    size = reader.varint()
                    pos = reader.pos
                if tag == _TAG_STR:
                    if size > len(buf) - pos:
                        raise SerializationError("truncated binary frame")
                    key = _decode_utf8(buf[pos:pos + size])
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
                reader.pos = pos
                out[key] = _read_value(reader, depth)
                pos = reader.pos
            reader.pos = pos
            return out
    except IndexError:
        raise SerializationError("truncated binary frame") from None
    reader.pos = pos + 1
    if tag == _TAG_STR:
        text = reader.text()
        reader.strings.append(text)
        return text
    if tag == _TAG_STRREF:
        index = reader.varint()
        if index >= len(reader.strings):
            raise SerializationError("dangling string back-reference: %d" % index)
        return reader.strings[index]
    if tag == _TAG_INTARRAY:
        return reader.intarray()
    if tag == _TAG_LIST:
        count = reader.varint()
        if count > reader.remaining:  # every element costs >= 1 byte
            raise SerializationError(
                "list count %d exceeds remaining frame bytes" % count
            )
        depth += 1
        return [_read_value(reader, depth) for _ in range(count)]
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_BIGINT:
        sign = reader.byte()
        if sign not in (0, 1):
            raise SerializationError("invalid big-int sign byte: %d" % sign)
        length = reader.varint()
        magnitude = int.from_bytes(reader.take(length), "big")
        return -magnitude if sign else magnitude
    if tag == _TAG_FLOAT:
        return _FLOAT64.unpack(reader.take(8))[0]
    raise SerializationError("unknown binary frame tag: 0x%02x" % tag)


def _decode_utf8(payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError("invalid utf-8 in frame: %s" % exc) from exc
