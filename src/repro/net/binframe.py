"""Binary wire primitives.

:mod:`repro.net.protocol` writes an envelope frame from these, field by
field in declared order (varints, zigzag ints, UTF-8 strings, ``int64``
runs, fixed-width runs of big integers), and the WAL its record heads:
writers that return the bytes, and readers that index the frame's
bytes, check every bound and return ``(value, position past it)``.
Every malformed input — a truncated varint, a length or count past the
remaining bytes, invalid UTF-8 — raises a typed
:class:`~repro.errors.SerializationError`: never a raw ``IndexError``,
an out-of-memory allocation, or a hang.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import SerializationError
from repro.linalg.limbs import bit_length, to_wire

#: First byte of every envelope frame (never the first byte of valid
#: UTF-8, so text is never mistaken for one).
MAGIC = 0xAE

#: Int-array width codes: code -> (inclusive signed bound, big-endian
#: numpy dtype).  Width is picked per array from its range.
_INTARRAY_WIDTHS = (
    (1 << 7, np.dtype(">i1")),
    (1 << 15, np.dtype(">i2")),
    (1 << 31, np.dtype(">i4")),
    (1 << 63, np.dtype(">i8")),
)

#: How many width codes there are (0 .. 3).
_WIDTH_CODES = len(_INTARRAY_WIDTHS)

#: Zigzag ints are signed 64-bit: |v| below this.
_SMALL_INT_LIMIT = 1 << 63

#: Longest accepted varint (10 * 7 = 70 bits covers every length and
#: count the encoder can produce).
_MAX_VARINT_BYTES = 10


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
    """``int64`` words as an int array: the narrowest width code their
    range fits, the count, then each word big-endian in that width."""
    lo = hi = 0
    if len(words):
        lo = int(np.minimum.reduce(words))
        hi = int(np.maximum.reduce(words))
    for code, (bound, dtype) in enumerate(_INTARRAY_WIDTHS):
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
    """The ``int64`` words of the int array :func:`word_array` wrote at
    ``buf[pos]``, and the position past it."""
    code = buf[pos]
    if code >= _WIDTH_CODES:
        raise SerializationError("invalid int-array width code: %d" % code)
    count, pos = read_varint(buf, pos + 1)
    dtype = _INTARRAY_WIDTHS[code][1]
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


def decode_text(payload: bytes) -> str:
    """UTF-8 ``payload`` as a string, or a typed error."""
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SerializationError("invalid utf-8 in frame: %s" % exc) from exc
