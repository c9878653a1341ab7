"""One value of binframe's generic grammar, as bytes and back.

The grammar (:func:`repro.net.binframe.write_value` /
:meth:`repro.net.binframe.Reader.value`) carries every free-form
envelope field and the replication feed's entries, always inside some
other frame.  Tests of the grammar itself read and write one value
alone: nothing before it, and nothing may follow it.
"""

from repro.errors import SerializationError
from repro.net.binframe import Reader, write_value

#: What protocol version 3's frames and the WAL's entry-dict records
#: wrote before a generic value (magic, layout version, codec id):
#: tests that those are refused write it.
LEGACY_HEADER = b"\xae\x01\x01"


def encode_value(value) -> bytes:
    """The bytes of ``value`` in the generic grammar."""
    out = bytearray()
    write_value(out, value)
    return bytes(out)


def decode_value(data: bytes):
    """The value ``data`` holds, which must be exactly one.

    Raises:
        SerializationError: on malformed bytes or bytes left over.
    """
    reader = Reader(data)
    try:
        value = reader.value()
    except SerializationError:
        raise
    except Exception as exc:  # the grammar's own checks are the contract
        raise SerializationError("corrupt generic value: %s" % exc) from exc
    if reader.remaining:
        raise SerializationError(
            "%d trailing bytes after the value" % reader.remaining
        )
    return value
