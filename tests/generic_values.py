"""One value of binframe's generic grammar, as bytes and back.

The grammar (:func:`repro.net.binframe.value_bytes` /
:func:`repro.net.binframe.value_at`) carries every free-form
envelope field (a config, telemetry sections), always inside some other
frame.  Tests of the grammar itself read and write one value
alone: nothing before it, and nothing may follow it.
"""

from repro.errors import SerializationError
from repro.net.binframe import value_at, value_bytes

#: What protocol version 3's frames and the WAL's entry-dict records
#: wrote before a generic value (magic, layout version, codec id):
#: tests that those are refused write it.
LEGACY_HEADER = b"\xae\x01\x01"


def encode_value(value) -> bytes:
    """The bytes of ``value`` in the generic grammar."""
    return value_bytes(value)


def decode_value(data: bytes):
    """The value ``data`` holds, which must be exactly one.

    Raises:
        SerializationError: on malformed bytes or bytes left over.
    """
    try:
        value, end = value_at(data, 0)
    except SerializationError:
        raise
    except Exception as exc:  # the grammar's own checks are the contract
        raise SerializationError("corrupt generic value: %s" % exc) from exc
    if end != len(data):
        raise SerializationError(
            "%d trailing bytes after the value" % (len(data) - end)
        )
    return value
