"""Codec fuzzing: round-trip, golden, and mutation tests.

Envelopes are generated from the protocol's own registry
(:data:`repro.net.protocol.ENVELOPES`): one seeded generator per
*field type*, so every registered envelope is fuzzed and a new one
needs no edit here.  Three layers of confidence in the wire format:

* *round-trip* — hostile-but-valid envelopes (256-bit numerators,
  empty row lists, unicode column names, boundary ids) must satisfy
  ``decode(encode(x)) == x`` on a frame and in the dict form, hundreds
  of cases per envelope kind (``--fuzz-cases`` scales it; 5000+
  enables the deep nightly run).
* *golden* — the frames of a fixed seeded corpus of all 22 kinds hash
  to a pinned value, and so do its dict forms.
* *mutation* — valid frames are flipped, truncated, and spliced at
  random; every outcome must be a clean decode or a typed
  :class:`~repro.errors.SerializationError` — never a hang, a wrong
  value accepted silently at the envelope layer, or a raw
  ``struct.error`` / ``OverflowError`` / ``UnicodeDecodeError``.
* *hostile JSON* — a free-form field's text with a repeated key, deep
  nesting, a 5 000-digit integer, invalid UTF-8 or cut short is a
  ``SerializationError`` in a frame and a batch slot, and an untraced
  dispatch in a trace section.
"""

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import pytest

from repro.core.query import EncryptedBound, EncryptedQuery
from repro.core.server import ServerResponse
from repro.crypto.ciphertext import BoundCiphertext, ValueCiphertext
from repro.errors import SerializationError
from repro.net import protocol
from repro.net.binframe import read_varint, write_varint
from repro.net.protocol import (
    COLUMN,
    DICT_VERSION,
    ENVELOPES,
    INT,
    PROTOCOL_VERSION,
    STR_LIST,
    BatchRequest,
    BatchResponse,
    HelloRequest,
    HelloResponse,
    MergeRequest,
    decode,
    decode_request,
    encode,
    register,
    request_from_dict,
    request_to_dict,
    response_from_dict,
    response_to_dict,
    spec_of,
    wire,
)
from repro.net.transport import Transport

FUZZ_SEED = 0x20160626

#: Column names stressing the string paths: unicode, length, symbols.
COLUMN_NAMES = (
    "values",
    "λ-col",
    "数据列",
    "naïve.column",
    "🗝️",
    "c" * 200,
    "white space\tand\ttabs",
    "quotes\"and\\slashes",
)

#: Ids stressing the integer paths (kept within int64 — responses carry
#: row ids in an int64 array).
BOUNDARY_IDS = (0, 1, 2, 127, 128, 255, 256, 2 ** 31 - 1, 2 ** 63 - 1)

#: Telemetry section names (real ones plus unknowns the server skips).
SECTION_NAMES = ("metrics", "tracer", "pool", "slow_queries", "catalog",
                 "λ-section", "not-a-section")


# -- seeded generators, one per field type ----------------------------------------


def big_int(rng, signed=True):
    """An integer from a size-stratified distribution, up to ~2^270."""
    bits = rng.choice((1, 7, 8, 31, 63, 64, 128, 256, 270))
    value = rng.getrandbits(bits)
    if signed and rng.random() < 0.5:
        value = -value
    return value


def make_value_ct(rng, width=None):
    if width is None:
        width = rng.randint(1, 6)
    return ValueCiphertext(
        numerators=tuple(big_int(rng) for _ in range(width)),
        denominator=rng.choice((1, 2, big_int(rng, signed=False) + 1)),
    )


def make_bound(rng, width):
    return EncryptedBound(
        eb=BoundCiphertext(vector=tuple(big_int(rng) for _ in range(width))),
        ev=make_value_ct(rng, width),
    )


def make_query(rng):
    """A query: one ciphertext length for all its bounds (they travel
    as two flat runs), any subset of sides, a few pivots, a session
    token or none."""
    width = rng.randint(1, 6)
    return EncryptedQuery(
        low=make_bound(rng, width) if rng.random() < 0.8 else None,
        high=make_bound(rng, width) if rng.random() < 0.8 else None,
        low_inclusive=rng.random() < 0.5,
        high_inclusive=rng.random() < 0.5,
        pivots=tuple(
            make_bound(rng, width) for _ in range(rng.randint(0, 3))
        ),
        token=rng.choice((0, 1, 2 ** 64 - 1, rng.getrandbits(64) | 1)),
    )


def make_rows(rng):
    """A row set: one ciphertext length per set (a set is an ``n x l``
    block on the wire), sizes straddling the int-array fast path."""
    width = rng.randint(1, 6)
    return tuple(
        make_value_ct(rng, width) for _ in range(rng.randint(0, 5))
    )


def make_ids(rng):
    return tuple(rng.choice(BOUNDARY_IDS) for _ in range(rng.randint(0, 6)))


def make_server_response(rng):
    """Whole rows under their ids, and a few rows named by id alone
    (the id's complement) among them."""
    rows = make_rows(rng)
    ids = [rng.choice(BOUNDARY_IDS) for _ in rows]
    for _ in range(rng.randint(0, 3)):
        ids.insert(rng.randint(0, len(ids)), -1 - rng.choice(BOUNDARY_IDS))
    return ServerResponse(
        row_ids=np.array(ids, dtype=np.int64), rows=list(rows),
    )


def make_telemetry_sections(rng):
    """A hostile-but-valid telemetry payload: nested dicts, floats,
    unicode, empty sections.  Lists only (tuples decode as lists)."""
    payload = {}
    for name in rng.sample(SECTION_NAMES, rng.randint(0, 4)):
        payload[name] = {
            "count": rng.choice(BOUNDARY_IDS),
            "seconds": rng.random() * 100.0,
            "names": [rng.choice(COLUMN_NAMES)
                      for _ in range(rng.randint(0, 3))],
            "nested": {"enabled": rng.random() < 0.5, "note": None},
        }
    return payload


def make_sub_envelopes(rng, is_request):
    """Batch slots: any envelope of one direction but a batch itself."""
    slots = [
        spec for spec in specs_sorted()
        if spec.is_request is is_request
        and spec.cls not in (BatchRequest, BatchResponse)
    ]
    return tuple(
        make_envelope(rng, rng.choice(slots))
        for _ in range(rng.randint(0, 4))
    )


#: Field type name -> seeded generator of one attribute value.  Keyed
#: by *type*, not by envelope: a new envelope built from these types is
#: fuzzed without touching this file.
GENERATORS = {
    "COLUMN": lambda rng: rng.choice(COLUMN_NAMES),
    "STR": lambda rng: rng.choice(
        ("query", "made-up", "boom", "λ failure 数据", "", "x" * 300)
    ),
    "INT": lambda rng: rng.choice(BOUNDARY_IDS) * rng.choice((1, -1)),
    "IDS": make_ids,
    "UPLOAD_IDS": make_ids,
    "ROWS": make_rows,
    "QUERY": make_query,
    "SERVER_RESPONSE": make_server_response,
    "STR_LIST": lambda rng: tuple(
        rng.sample(("binary", "json", "future-codec"), rng.randint(1, 3))
    ),
    "NAMES": lambda rng: rng.choice((
        None, (), tuple(rng.sample(SECTION_NAMES, rng.randint(1, 4))),
    )),
    "CONFIG": lambda rng: {"engine": rng.choice(("adaptive", "scan")),
                           "min_piece_size": rng.randint(1, 64)},
    "SECTIONS": make_telemetry_sections,
    "REQUESTS": lambda rng: make_sub_envelopes(rng, True),
    "RESPONSES": lambda rng: make_sub_envelopes(rng, False),
}


def specs_sorted():
    """Every registered envelope, in a stable order."""
    return sorted(ENVELOPES.values(), key=lambda spec: spec.kind)


def make_envelope(rng, spec):
    """One hostile-but-valid envelope of a registered kind."""
    return spec.cls(**{
        field.attribute: GENERATORS[field.type.name](rng)
        for field in spec.fields
    })


def to_dict(spec, envelope):
    encode = request_to_dict if spec.is_request else response_to_dict
    return encode(envelope)


def from_dict(spec, payload):
    decode = request_from_dict if spec.is_request else response_from_dict
    return decode(payload)


# -- round-trip fuzzing ---------------------------------------------------------


def field_bytes(payload):
    """``payload`` as a frame's JSON field holds it (a telemetry
    response's sections): its text's byte count, then the text."""
    return b"".join(protocol.SECTIONS.parts(payload))


def field_value(data):
    """The object the JSON field ``data`` holds, which must be all of it.

    Raises:
        SerializationError: on a malformed field or bytes left over.
    """
    value, end = protocol.SECTIONS.at(data, 0)
    if end != len(data):
        raise SerializationError(
            "%d trailing bytes after the field" % (len(data) - end))
    return value


def assert_value_round_trip(payload):
    """``payload`` survives a JSON field, written deterministically."""
    data = field_bytes(payload)
    assert field_bytes(payload) == data
    assert field_value(data) == payload


def assert_envelope_round_trips(spec, cases):
    """``cases`` seeded envelopes of one kind survive a frame — written
    deterministically — and the dict form, each decoding back to an
    envelope with the same dict form.  (The comparison is dict-level:
    ``ServerResponse`` holds numpy arrays, whose dataclass equality is
    ambiguous.)"""
    rng = random.Random("%d:%s" % (FUZZ_SEED, spec.kind))
    for _ in range(cases):
        envelope = make_envelope(rng, spec)
        payload = to_dict(spec, envelope)
        frame = encode(envelope)
        assert encode(envelope) == frame
        for rebuilt in (decode(frame), from_dict(spec, payload)):
            assert type(rebuilt) is spec.cls
            assert to_dict(spec, rebuilt) == payload
            if spec.is_request:
                assert rebuilt == envelope
        assert encode(from_dict(spec, payload)) == frame


class TestRegistryRoundTrips:
    @pytest.mark.parametrize(
        "spec", specs_sorted(), ids=lambda spec: spec.kind
    )
    def test_envelopes_round_trip(self, spec, fuzz_cases):
        assert_envelope_round_trips(spec, fuzz_cases)

    def test_every_field_type_has_a_generator(self):
        """The completeness half of "a new envelope is fuzzed without
        touching this file": all 22 envelopes are parametrized above
        straight from the registry, and every field type any of them
        uses can be generated."""
        assert len(ENVELOPES) == 22
        used = {
            field.type.name
            for spec in ENVELOPES.values() for field in spec.fields
        }
        assert used == set(GENERATORS)


# -- a new envelope needs a dataclass and a row, nothing else ---------------------


@dataclass(frozen=True)
class PingRequest:
    column: str = wire(COLUMN)
    nonce: int = wire(INT)
    tags: Tuple[str, ...] = wire(STR_LIST, default=())


@dataclass(frozen=True)
class PingResponse:
    nonce: int = wire(INT)


class TestHypotheticalEnvelope:
    """Registering an envelope is all it takes for the codecs, this
    file's fuzzing, and every classification to cover it."""

    @pytest.fixture()
    def ping(self):
        register(PingRequest, "ping", 30, PingResponse, idempotent=True,
                 journaled=True)
        register(PingResponse, "ping_response", 62)
        yield spec_of(PingRequest(column="c", nonce=1))
        for cls in (PingRequest, PingResponse):
            del protocol._CODES[ENVELOPES.pop(cls).code]
        del protocol._REQUEST_SPECS["ping"]
        del protocol._RESPONSE_SPECS["ping_response"]

    def test_it_round_trips_and_is_fuzzed(self, ping, fuzz_cases):
        request = PingRequest(column="c", nonce=7)
        assert request_to_dict(request) == {
            "kind": "ping", "version": DICT_VERSION,
            "column": "c", "nonce": 7, "tags": [],
        }
        assert_envelope_round_trips(ping, fuzz_cases)
        assert_envelope_round_trips(spec_of(PingResponse(nonce=1)), fuzz_cases)
        assert ping in specs_sorted()  # so batches and mutation seeds too
        with pytest.raises(SerializationError, match="malformed ping"):
            request_from_dict({"kind": "ping", "version": DICT_VERSION,
                               "column": "c"})
        # Its code is its own: a second kind may not take it.
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError, match="'ping'"):
            register(HelloRequest, "hello_again", 30)

    def test_it_is_classified_everywhere(self, ping):
        from repro.core.wal import WalRecord
        from repro.errors import ProtocolError
        from repro.net import ColumnCatalog, RemoteColumn

        request = PingRequest(column="c", nonce=7)

        class Echo(Transport):
            """Records ``retryable``; answers with the scripted reply."""

            def exchange(self, frame, retryable=False):
                self.retryable = retryable
                return encode(self.reply)

            def close(self):
                pass

        transport = Echo()
        remote = RemoteColumn(transport, "c")
        transport.reply = PingResponse(nonce=7)
        assert remote.call(request) == transport.reply  # the paired reply
        assert transport.retryable  # idempotent -> the client may retry
        transport.reply = HelloResponse()
        with pytest.raises(ProtocolError, match="expected PingResponse"):
            remote.call(request)
        # journaled -> replay reads it back off a WAL record
        record = WalRecord(1, 1, "c", encode(request))
        assert ColumnCatalog.logged_request(record) == request
        # the catalog has no handler for it
        with pytest.raises(ProtocolError, match="unhandled request kind"):
            ColumnCatalog().handle(request)


# -- the wire-compatibility golden ------------------------------------------------

#: Envelopes per kind in the pinned corpus.
GOLDEN_CASES = 12

#: sha256 over the frames of the seeded corpus below, in two halves.
#: Each moves only if the wire format, the registry's rows, or a
#: generator changes.
#:
#: Both halves were re-pinned by the positional frame codec (protocol
#: version 4), which changed every frame on purpose: a frame is the kind
#: code and the fields in declared order, with no keys, no tags and no
#: JSON twin.  What the frames *say* did not move — the dict forms of
#: the same corpus hashed to :data:`GOLDEN_DICT_SHA256`, computed at the
#: parent commit.
#:
#: Both halves and :data:`GOLDEN_DICT_SHA256` were re-pinned when
#: ``create_column``'s optional ``shard`` field was deleted, and that
#: field is the only cause: the parent's corpus, generated with that
#: field never drawn, hashes exactly as this one does, kind by kind.
#: Four kinds moved — ``create_column`` and the three whose seeded
#: streams draw a create envelope (``batch_request`` as a slot,
#: ``replicate_entries_response`` as a journaled entry,
#: ``batch_response`` through the latter).
#:
#: All three were re-pinned again when the six ``replicate_*`` kinds
#: (codes 12-14 and 44-46) were deleted.  Each of the 21 other kinds
#: hashes as it did at the parent, kind by kind; ``batch_request`` and
#: ``batch_response`` moved only because their seeded streams draw
#: slot kinds from the registry: the parent's corpus, with those draws
#: restricted to the 23 surviving kinds, hashes exactly as this one.
#:
#: All three were re-pinned again by protocol version 5, on purpose:
#: every frame's version byte moved, and the generators came to draw a
#: session token for a query and rows named by id alone for a server
#: response.  With the generators as they were, both halves hashed as
#: before once each frame's version byte was read as 4, and the dict
#: forms did not move.
#:
#: The first half and :data:`GOLDEN_DICT_SHA256` were re-pinned when
#: the ``column_snapshot`` kind (a checkpoint's record, code 48) was
#: registered, and that kind is the only cause: with the corpus's kinds
#: and ``batch_response``'s slot draws restricted to the other 23, both
#: hash exactly as pinned before, and the second half did not move.
#:
#: Both halves were re-pinned by protocol version 6, on purpose: the
#: version byte of every frame moved, and a free-form field (a config,
#: telemetry sections, a string list) became JSON text.  Every frame of
#: the corpus decodes to the envelope its version-5 frame decoded to,
#: and :data:`GOLDEN_DICT_SHA256` did not move; 219 of the 288 frames
#: equal their version-5 frames but for the version byte, and the 69
#: others are exactly the ones holding a free-form field (``hello``,
#: ``hello_response``, ``create_column``, ``column_snapshot`` and
#: ``telemetry_response`` all 12, ``telemetry_request`` the 4 that
#: name sections, 2 ``batch_request`` and 3 ``batch_response`` with
#: such a slot).
#:
#: All three were re-pinned by protocol version 7, on purpose: the
#: version byte of every frame moved, the presence bitmap went, the
#: ``fetch_request`` / ``fetch_response`` kinds and the five mutation
#: replies' ``epoch`` were deleted, and ``fence`` and ``config`` became
#: always sent.  Eleven kinds hash as their version-6 frames did but for
#: the version byte, all 12 frames each.  The others moved only because
#: the generators stopped drawing an optional field's presence (and an
#: ``epoch``), which shifts their seeded streams: replayed through
#: version 7, each of the parent's envelopes of those kinds, minus the
#: deleted fields, re-encodes to its version-6 frame less the bitmap
#: byte and the epoch's bytes (the 8 ``telemetry_request`` frames that
#: left ``sections`` off now carry ``null``), and decodes back to it;
#: the exceptions are the 12 envelopes whose ``fence`` was ``None``,
#: which version 7 cannot say, and 3 batches holding a fetch slot.
#:
#: The first half is the 20 other kinds (``column_snapshot``, which
#: holds its cracks as a query, came after the split).
GOLDEN_CORPUS_SHA256 = "2e67a9bafa66a080dbf3a4ea3948f31f7eda920fb6a9699614f46b874d0ee7d6"

#: The second half: the kinds that can carry a query —
#: ``query_request``, and ``batch_request``, whose seeded stream
#: shifts for good at the first one it holds.
GOLDEN_QUERY_CORPUS_SHA256 = "0737f2280bee3c917167a50a6155b11241c513650cc4a9aef025f6e70a3ca616"

#: sha256 over ``json.dumps(dict form, sort_keys=True)`` of every
#: envelope of the corpus, first computed at the parent of the
#: positional frame codec: the envelopes and their dict forms did not
#: change with the frames.  Re-pinned with the halves above, each time
#: for the cause named there (the last time for the generators' draws).
GOLDEN_DICT_SHA256 = (
    "0a10e69e73a220c822f0d8657349d7e14df9c921718aaa5ff88303317a523c93"
)

QUERY_KINDS = ("query_request", "batch_request")


def golden_corpus():
    """``(spec, envelope)`` for GOLDEN_CASES seeded envelopes of every
    registered kind."""
    for spec in specs_sorted():
        rng = random.Random("%d:golden:%s" % (FUZZ_SEED, spec.kind))
        for _ in range(GOLDEN_CASES):
            yield spec, make_envelope(rng, spec)


def test_seeded_corpus_frames_match_the_pre_registry_golden():
    digests = {False: hashlib.sha256(), True: hashlib.sha256()}
    kinds = set()
    for spec, envelope in golden_corpus():
        kinds.add(spec.kind)
        digests[spec.kind in QUERY_KINDS].update(encode(envelope))
    assert len(kinds) == 22
    assert digests[False].hexdigest() == GOLDEN_CORPUS_SHA256
    assert digests[True].hexdigest() == GOLDEN_QUERY_CORPUS_SHA256


def test_seeded_corpus_dict_forms_match_the_parent():
    digest = hashlib.sha256()
    for spec, envelope in golden_corpus():
        digest.update(
            json.dumps(to_dict(spec, envelope), sort_keys=True).encode()
        )
    assert digest.hexdigest() == GOLDEN_DICT_SHA256


# -- mutation fuzzing -----------------------------------------------------------


def mutate(rng, frame):
    """One random structural mutation of a frame's bytes."""
    data = bytearray(frame)
    choice = rng.randrange(6)
    if choice == 0 and data:  # flip one byte
        index = rng.randrange(len(data))
        data[index] ^= rng.randint(1, 255)
    elif choice == 1:  # truncate
        data = data[: rng.randint(0, len(data))]
    elif choice == 2:  # drop a slice from the middle
        if len(data) >= 2:
            start = rng.randrange(len(data) - 1)
            end = rng.randint(start + 1, len(data))
            del data[start:end]
    elif choice == 3:  # insert random bytes
        index = rng.randint(0, len(data))
        junk = bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 8)))
        data[index:index] = junk
    elif choice == 4:  # duplicate a slice
        if data:
            start = rng.randrange(len(data))
            end = rng.randint(start, len(data))
            data[start:start] = data[start:end]
    else:  # append trailing garbage
        data += bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 8)))
    return bytes(data)


def decode_all_layers(frame):
    """Decode a frame all the way to a typed envelope, as any envelope
    and as a request.  The only acceptable failure at any layer is
    :class:`SerializationError`; a batch slot that does not decode is
    that error, in its slot."""
    envelope = decode(frame)
    if isinstance(envelope, BatchRequest):
        for slot in envelope.requests:
            assert type(slot) in ENVELOPES or isinstance(
                slot, SerializationError)
    try:
        decode_request(frame)
    except SerializationError:
        pass


class TestMutationFuzz:
    def _seed_frames(self):
        rng = random.Random("%d:%s" % (FUZZ_SEED, "mutation-seeds"))
        return [
            encode(make_envelope(rng, spec)) for spec in specs_sorted()
        ]

    def test_mutated_frames_never_escape_typed_errors(self, fuzz_cases):
        """Arbitrary corruption decodes cleanly or raises
        SerializationError — nothing else, at any decoding layer."""
        rng = random.Random("%d:%s" % (FUZZ_SEED, "mutation"))
        frames = self._seed_frames()
        for case in range(fuzz_cases):
            frame = bytearray(rng.choice(frames))
            for _ in range(rng.randint(1, 4)):
                frame = mutate(rng, bytes(frame))
            try:
                decode_all_layers(bytes(frame))
            except SerializationError:
                continue
            except Exception as exc:  # pragma: no cover - the bug trap
                pytest.fail(
                    "case %d: %s escaped the codec: %s"
                    % (case, type(exc).__name__, exc)
                )

    def test_random_garbage_never_escapes_typed_errors(self, fuzz_cases):
        """Pure noise (not derived from a valid frame) is also safe."""
        rng = random.Random("%d:%s" % (FUZZ_SEED, "garbage"))
        for case in range(fuzz_cases):
            length = rng.randint(0, 64)
            blob = bytes(rng.getrandbits(8) for _ in range(length))
            if rng.random() < 0.5:
                # Force the envelope decoder path with a valid header.
                blob = bytes((0xAE, PROTOCOL_VERSION)) + blob
            try:
                decode_all_layers(blob)
            except SerializationError:
                continue
            except Exception as exc:  # pragma: no cover - the bug trap
                pytest.fail(
                    "case %d: %s escaped the codec: %s"
                    % (case, type(exc).__name__, exc)
                )

    def test_deep_fuzz_nightly_scale(self, fuzz_cases):
        """The same mutation property at nightly volume.

        Only runs when ``--fuzz-cases`` is raised to 5000 or more (the
        CI fuzz job's nightly-style step); at the tier-1 default it
        skips, keeping the ordinary suite fast.
        """
        if fuzz_cases < 5000:
            pytest.skip("nightly scale only (--fuzz-cases=5000 or more)")
        rng = random.Random("%d:%s" % (FUZZ_SEED, "nightly"))
        frames = self._seed_frames()
        for case in range(fuzz_cases):
            frame = mutate(rng, rng.choice(frames))
            try:
                decode_all_layers(frame)
            except SerializationError:
                continue
            except Exception as exc:  # pragma: no cover - the bug trap
                pytest.fail(
                    "case %d: %s escaped the codec: %s"
                    % (case, type(exc).__name__, exc)
                )


class TestJsonFields:
    """A free-form field (``STR_LIST``, ``CONFIG``, ``SECTIONS``) and
    the trace section are JSON text — keys sorted, no spaces — read
    back as the value written, or refused with a typed error on either
    side."""

    def test_a_field_is_its_sorted_compact_text(self):
        request = protocol.CreateColumnRequest(
            column="c", rows=(), row_ids=(),
            config={"min_piece_size": 4, "engine": "scan"})
        text = b'{"engine":"scan","min_piece_size":4}'
        assert encode(request).endswith(bytes((len(text),)) + text)
        text = b'["binary","\\u03bb"]'
        assert encode(HelloRequest(codecs=("binary", "λ"))) == bytes(
            (0xAE, PROTOCOL_VERSION, 1, 0, len(text))) + text
        traced = encode(MergeRequest(column="c"), {"parent": "p",
                                                   "trace_id": "t"})
        text = b'{"parent":"p","trace_id":"t"}'
        assert traced[3:] == bytes((len(text),)) + text + b"\x01c"

    def test_a_long_text_takes_a_longer_count(self):
        names = ["k%03d" % index for index in range(200)]
        payload = {
            "wide": {name: index for index, name in enumerate(names)},
            "refs": names,
            "long key " * 20: "long value " * 20,
            "ints": [127, 128, -64, -65, 63, 64, 2 ** 14, -2 ** 14],
        }
        assert_value_round_trip(payload)
        assert field_bytes(payload)[0] >= 0x80  # a two-byte varint

    def test_an_int_is_not_a_bool_anywhere(self):
        payload = {
            "one": 1, "yes": True, "zero": 0, "no": False,
            "mixed": [1, True, 0, False],
            "ints": [1, 0, 1, 0],
            "flags": [True, False, True, False],
        }
        decoded = field_value(field_bytes(payload))
        assert decoded == payload
        for key, value in payload.items():
            got = decoded[key]
            if isinstance(value, list):
                assert list(map(type, got)) == list(map(type, value))
            else:
                assert type(got) is type(value)

    def test_subclasses_encode_as_what_they_are(self):
        import enum

        class Level(enum.IntEnum):
            HIGH = 7

        class Name(str):
            pass

        class Items(list):
            pass

        class Table(dict):
            pass

        fancy = Table({Name("key"): Items([Level.HIGH, Name("text"), 1.5]),
                       "tuple": (1, 2)})
        plain = {"key": [7, "text", 1.5], "tuple": [1, 2]}
        assert field_bytes(fancy) == field_bytes(plain)

    def test_floats_read_back_as_written(self):
        import math

        floats = [float("inf"), float("-inf"), -0.0, 0.1, 1e-300, 2.0 ** 70]
        decoded = field_value(field_bytes({"f": floats, "nan": float("nan")}))
        assert decoded["f"] == floats
        assert math.copysign(1.0, decoded["f"][2]) == -1.0
        assert math.isnan(decoded["nan"])

    def test_integers_up_to_the_digit_limit(self):
        widest = 10 ** 4299 - 1  # 4 299 digits
        assert field_value(field_bytes({"n": -widest})) == {"n": -widest}
        text = b'{"n":' + b"9" * 4301 + b"}"
        with pytest.raises(SerializationError, match="JSON field"):
            field_value(protocol.varints(len(text)) + text)

    def test_a_repro_top_snapshot_round_trips(self):
        """What ``repro top`` fetches — every section of a catalog that
        served queries, inserts and a merge — with floats, infinities,
        nested lists and unicode keys added, in one telemetry reply."""
        from repro.core.session import OutsourcedDatabase

        db = OutsourcedDatabase(list(range(2_000)), seed=3)
        for low in range(0, 1_900, 95):
            db.query(low, low + 60)
        db.insert(5)
        db.merge()
        sections = db.transport.catalog.telemetry()
        assert {"metrics", "tracer", "catalog"} <= set(sections)
        sections["λ-extra"] = {
            "数据": [[1.5, float("inf")], [float("-inf"), -0.0], []],
            "🗝️": {"nested": [{"deep": [2 ** 70, None, True]}]},
        }
        reply = protocol.TelemetryResponse(sections=sections)
        frame = encode(reply)
        assert len(frame) > 1_000
        assert decode(frame) == reply
        assert encode(decode(frame)) == frame

    @pytest.mark.parametrize("writer", ["field", "trace"])
    @pytest.mark.parametrize("payload", [
        {1: "a"}, {"a": {2: "b"}}, {"a": 1, 2: "b"}, {"a": {None: 1}},
        {"a": {("t",): 1}}, {"a": object()}, {"a": {1, 2}}, {"a": b"bytes"},
        {"a": {1.5: 1}}, {"a": [{True: 1}]},
        {"a": 10 ** 5000},
        "nested",
        "circular",
    ], ids=lambda payload: payload if isinstance(payload, str) else "")
    def test_what_does_not_encode_is_a_typed_error(self, payload, writer):
        """Whatever JSON would not read back as written — a key that
        ``json.dumps`` would make a string — or cannot write at all."""
        if payload == "nested":
            payload = {"a": []}
            for _ in range(10_000):
                payload = {"a": [payload]}
        elif payload == "circular":
            payload = {"a": []}
            payload["a"].append(payload)
        with pytest.raises(SerializationError):
            if writer == "field":
                field_bytes(payload)
            else:
                encode(MergeRequest(column="c"), payload)


# -- hostile JSON text -------------------------------------------------------------


#: JSON texts a field refuses, by what is wrong with them, each holding
#: ``key``; ``match`` names the layer that refuses: the JSON reader, the
#: UTF-8 check or the field's own check.
HOSTILE_TEXTS = {
    "duplicate-key": (b'{"%s":1,"%s":2}', "duplicate key"),
    "nested-10000": (b'{"%s":' + b"[" * 10_000 + b"]" * 10_000 + b"}",
                     "JSON field"),
    "digits-5000": (b'{"%s":' + b"7" * 5_000 + b"}", "JSON field"),
    "invalid-utf8": (b'{"%s":"\xff"}', "utf-8"),
    "truncated": (b'{"%s":{"a', "JSON field"),
    "nan": (b'{"%s":NaN}', "not a value the engine takes"),
}


def hostile(name, key):
    text, match = HOSTILE_TEXTS[name]
    return text.replace(b"%s", key.encode()), match


def spliced(frame, text, other):
    """``frame`` with its one JSON field of ``text`` holding ``other``."""
    field = protocol.varints(len(text)) + text
    assert frame.count(field) == 1
    return frame.replace(field, protocol.varints(len(other)) + other)


#: Per JSON field: a frame holding it, its text there, the key the
#: hostile texts use and the cases that apply (NaN is a float, which
#: telemetry may hold and a config may not).
JSON_FIELD_FRAMES = {
    "create_column.config": (
        lambda: encode(protocol.CreateColumnRequest(
            column="c", rows=(), row_ids=(), config={"engine": "scan"})),
        b'{"engine":"scan"}', "min_piece_size", sorted(HOSTILE_TEXTS)),
    "telemetry_response.sections": (
        lambda: encode(protocol.TelemetryResponse(sections={"metrics": {}})),
        b'{"metrics":{}}', "metrics",
        sorted(set(HOSTILE_TEXTS) - {"nan"})),
}

#: ``(field, case)`` of every hostile text a field is fed.
FIELD_CASES = [(where, case) for where, (_, _, _, cases)
               in sorted(JSON_FIELD_FRAMES.items()) for case in cases]


class TestHostileJsonFields:
    """Each hostile text in a ``create_column`` config and a telemetry
    reply's sections is a ``SerializationError`` — never another
    exception — in a frame and in a batch slot, where it fails alone;
    in a trace section it leaves the request untraced."""

    @pytest.mark.parametrize("where, case", FIELD_CASES,
                             ids=lambda value: value)
    def test_a_hostile_field_is_a_typed_error(self, where, case):
        make, text, key, _ = JSON_FIELD_FRAMES[where]
        frame = make()
        decode(frame)
        other, match = hostile(case, key)
        with pytest.raises(SerializationError, match=match):
            decode(spliced(frame, text, other))

    @pytest.mark.parametrize("case", sorted(HOSTILE_TEXTS))
    def test_a_hostile_config_fails_its_batch_slot_alone(self, case):
        make, text, key, _ = JSON_FIELD_FRAMES["create_column.config"]
        merge = MergeRequest(column="c")
        batch = encode(BatchRequest(requests=(
            merge, decode(make()), merge)))
        other, match = hostile(case, key)
        start, size = _slots(batch)[1]
        slot = spliced(batch[start:start + size], text, other)
        batch = (batch[:start - len(protocol.varints(size))]
                 + protocol.varints(len(slot)) + slot + batch[start + size:])
        first, middle, last = decode(batch).requests
        assert first == last == merge
        assert isinstance(middle, SerializationError)
        assert re.search(match, str(middle)), middle

    @pytest.mark.parametrize("where, case", FIELD_CASES,
                             ids=lambda value: value)
    def test_a_hostile_trace_section_dispatches_untraced(self, where, case,
                                                         small_catalog):
        from repro.net.transport import serve_frame

        frame = encode(MergeRequest(column="values"))
        assert frame[3] == 0  # an empty trace section
        other, _ = hostile(case, JSON_FIELD_FRAMES[where][2])
        traced = frame[:3] + protocol.varints(len(other)) + other + frame[4:]
        assert decode_request(traced) == (MergeRequest(column="values"), None)
        reply = decode(serve_frame(small_catalog, traced))
        assert isinstance(reply, protocol.MergeResponse)


@pytest.fixture(scope="module")
def small_catalog():
    """The catalog of a small session, for frames dispatched whole."""
    from repro.core.session import OutsourcedDatabase

    return OutsourcedDatabase(list(range(50)), seed=3).transport.catalog


# -- what a version-7 endpoint refuses, and what fails alone -----------------------


#: Kind codes of the deleted read-replica feed (``replicate_subscribe``
#: / ``_entries`` / ``_ack`` and their responses): a frame carrying one
#: is an unknown kind.  The deleted fetch kind's codes are refused
#: under :class:`TestWhatTheDecoderAccepts`.
RETIRED_CODES = (12, 13, 14, 44, 45, 46)


def _varint(value):
    out = bytearray()
    write_varint(out, value)
    return bytes(out)


def _slots(frame):
    """``(start, size)`` of every sub-frame of an untraced batch frame."""
    count, pos = read_varint(frame, 4)  # magic, version, code, no trace
    spans = []
    for _ in range(count):
        size, pos = read_varint(frame, pos)
        spans.append((pos, size))
        pos += size
    assert pos == len(frame)
    return spans


class TestVersionSevenFrames:
    """Anything but a version-7 frame is refused with a typed error —
    there is no JSON frame reader and no reader of versions 3 to 6 (6:
    :class:`TestWhatTheDecoderAccepts`) — and a batch slot that does
    not decode fails alone."""

    MERGE = MergeRequest(column="values")

    def test_a_json_frame_is_refused(self):
        frame = json.dumps(
            request_to_dict(self.MERGE), separators=(",", ":"), sort_keys=True
        ).encode()
        for read in (decode, decode_request):
            with pytest.raises(SerializationError, match="not a protocol"):
                read(frame)

    def test_a_version_3_frame_is_refused(self):
        # What version 3 sent: a header (magic, layout version 1, codec
        # id 1), then {"column": "values", "kind": "merge_request",
        # "version": 3} in that version's tagged value grammar.
        frame = (b"\xae\x01\x01\t\x03\x06\x06column\x06\x06values"
                 b"\x06\x04kind\x06\rmerge_request\x06\x07version\x03\x06")
        with pytest.raises(SerializationError, match="version: 1"):
            decode(frame)
        # Behind this version's header it still reads as nothing valid.
        with pytest.raises(SerializationError):
            decode(bytes((0xAE, PROTOCOL_VERSION)) + frame[3:])

    @pytest.mark.parametrize("version", [4, 5])
    def test_an_older_positional_frame_is_refused(self, version):
        frame = encode(self.MERGE)
        assert frame[1] == PROTOCOL_VERSION == 7
        with pytest.raises(SerializationError, match="version: %d" % version):
            decode(frame[:1] + bytes((version,)) + frame[2:])

    @pytest.mark.parametrize(
        "code", sorted((0, 15, 31, 47, 127, 128, 2 ** 20) + RETIRED_CODES)
    )
    def test_an_unknown_kind_code_is_refused(self, code):
        body = encode(self.MERGE)[3:]
        frame = bytes((0xAE, PROTOCOL_VERSION)) + _varint(code) + body
        with pytest.raises(SerializationError, match="kind code: %d" % code):
            decode(frame)

    def test_a_frame_is_read_to_its_last_byte(self):
        frame = encode(self.MERGE)
        assert decode(frame) == self.MERGE
        with pytest.raises(SerializationError, match="trailing"):
            decode(frame + b"\x00")
        for cut in range(len(frame)):
            with pytest.raises(SerializationError):
                decode(frame[:cut])

    def test_a_response_is_not_a_request(self):
        frame = encode(protocol.MergeResponse(delta=1))
        assert decode(frame) == protocol.MergeResponse(delta=1)
        with pytest.raises(SerializationError, match="request kind code"):
            decode_request(frame)

    @pytest.mark.parametrize("corrupt", [
        lambda body: bytes((99,)) + body[1:],          # an unknown kind
        lambda body: bytes((41,)) + body[1:],          # a response kind
        lambda body: bytes((2,)) + body[1:],           # a nested batch
        lambda body: body[:1] + bytes((0x7F,)) + body[2:],  # overlong name
        lambda body: body[:-1] + b"\xff",              # broken utf-8
    ] + [
        # The retired replica-feed kinds, requests and responses.
        (lambda code: lambda body: bytes((code,)) + body[1:])(code)
        for code in RETIRED_CODES
    ], ids=["unknown", "response", "nested", "overlong", "utf8"] + [
        "retired-%d" % code for code in RETIRED_CODES
    ])
    def test_a_corrupt_slot_fails_alone(self, corrupt):
        from repro.core.session import OutsourcedDatabase
        from repro.net.transport import serve_frame

        db = OutsourcedDatabase(list(range(100)), seed=3)
        catalog = db.transport.catalog
        batch = BatchRequest(requests=(
            protocol.QueryRequest(column="values",
                                  query=db.client.make_query(10, 19)),
            MergeRequest(column="values"),
            protocol.QueryRequest(column="values",
                                  query=db.client.make_query(40, 44)),
        ))
        frame = encode(batch)
        start, size = _slots(frame)[1]
        body = corrupt(frame[start:start + size])
        assert len(body) == size
        errors = catalog.obs.metrics.counter_value("net.errors")
        reply = decode(serve_frame(catalog, frame[:start] + body
                                   + frame[start + size:]))
        first, middle, last = reply.responses
        assert middle.code == "serialization"
        assert catalog.obs.metrics.counter_value("net.errors") == errors + 1
        for response, (low, high) in ((first, (10, 19)), (last, (40, 44))):
            result = db.client.decrypt_results(response.response.row_ids,
                                               response.response.rows)
            assert sorted(result.values.tolist()) == list(range(low,
                                                                high + 1))


class TestHelloEnvelopes:
    def test_version_mismatch_is_serialization_error(self):
        payload = request_to_dict(HelloRequest())
        payload["version"] = DICT_VERSION + 1
        with pytest.raises(SerializationError, match="version"):
            request_from_dict(payload)

    def test_nested_batches_rejected(self):
        inner = BatchRequest(requests=(MergeRequest(column="values"),))
        with pytest.raises(SerializationError, match="nest"):
            request_to_dict(BatchRequest(requests=(inner,)))
        with pytest.raises(SerializationError, match="nest"):
            encode(BatchRequest(requests=(inner,)))


# -- row blocks at the trust boundary ------------------------------------------------


def block_payload(**overrides):
    """A valid 2 x 3 block value, with fields replaced or (``None``)
    removed."""
    payload = {"length": 3, "numerators": [1, -2, 3, 4, 5, -6],
               "denominators": [1, 7]}
    payload.update(overrides)
    return {k: v for k, v in payload.items() if v is not None}


def insert_payload(rows):
    return {"kind": "insert_request", "version": DICT_VERSION,
            "column": "c", "rows": rows}


class TestRowBlockWire:
    """``ROWS`` / ``IDS`` / ``SERVER_RESPONSE`` accept plain ints in a
    consistent shape and nothing else; every refusal is a
    ``SerializationError``."""

    #: Numerator magnitudes hitting each width of a frame's run: 1, 2,
    #: 4 and 8 bytes, then 9, 10 (the default key's ~77 bits), 34, 255
    #: and 256 — a run has no cap.  The dict form takes each through a
    #: JSON field too.
    WIDTH_BITS = (6, 14, 30, 62, 64, 77, 270, 2039, 2040)

    @pytest.mark.parametrize("bits", WIDTH_BITS)
    @pytest.mark.parametrize("rows, length", [(0, 4), (1, 4), (1, 1), (150, 4)])
    def test_blocks_round_trip_at_every_width(self, bits, rows, length):
        rng = random.Random("%d:block:%d:%d" % (FUZZ_SEED, bits, rows))
        top = (1 << bits) - 1
        block = [
            ValueCiphertext(
                tuple(rng.choice((top, -top - 1, rng.randint(-top, top)))
                      for _ in range(length)),
                rng.choice((1, 1, top + 1)),
            )
            for _ in range(rows)
        ]
        request = protocol.InsertRequest(column="c", rows=tuple(block))
        payload = request_to_dict(request)
        assert set(map(type, payload["rows"]["numerators"])) <= {int}
        assert_value_round_trip(payload)
        for rebuilt in (decode(encode(request)), request_from_dict(payload)):
            assert rebuilt == request
            assert list(rebuilt.rows) == block

    #: An ``insert_request`` frame up to its ``ROWS`` field (column "c").
    INSERT_HEAD = bytes((0xAE, PROTOCOL_VERSION, 7, 0, 1)) + b"c"

    def test_a_block_frame_is_length_count_unit_then_runs(self):
        request = protocol.InsertRequest(column="c", rows=(
            ValueCiphertext((1, -2, 3)), ValueCiphertext((4, 5, -6), 7)))
        assert encode(request) == self.INSERT_HEAD + bytes(
            (3, 2, 0, 1, 1, 0xFE, 3, 4, 5, 0xFA, 1, 1, 7))
        unit = protocol.InsertRequest(column="c", rows=request.rows[:1])
        assert encode(unit) == self.INSERT_HEAD + bytes(
            (3, 1, 1, 1, 1, 0xFE, 3))

    @pytest.mark.parametrize("rows", [
        bytes((0, 2, 1, 1)),                   # two rows of no numerators
        bytes((3, 1, 2, 1, 1, 2, 3)),          # a unit flag of 2
        bytes((3, 1, 1, 0)),                   # run width 0
        bytes((3, 2, 1, 1, 1, 2, 3)),          # fewer bytes than 2 x 3
        bytes((3, 1, 0, 1, 1, 2, 3, 1, 0)),    # a zero denominator
        bytes((3, 1, 0, 1, 1, 2, 3, 1, 0xFF)),  # a negative one
        bytes((3, 1, 0, 1, 1, 2, 3)),          # no denominator run
        bytes((3, 1, 1, 1, 1, 2, 3, 0)),       # a trailing byte
        bytes((3, 0xFF, 0xFF, 0xFF, 0x7F, 1, 9)),  # a huge count
        bytes((3, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x08)),  # no row, 2^31 wide
    ])
    def test_malformed_block_frames_are_typed_errors(self, rows):
        with pytest.raises(SerializationError):
            decode(self.INSERT_HEAD + rows)
        assert decode(self.INSERT_HEAD + bytes((3, 1, 1, 1, 1, 2, 3))) == (
            protocol.InsertRequest(column="c",
                                   rows=(ValueCiphertext((1, 2, 3)),)))

    @pytest.mark.parametrize("rows", [
        block_payload(numerators=[1.9, "12", True, 4, 5, 6]),
        block_payload(numerators=[1, 2, 3, 4, 5, 6.0]),
        block_payload(numerators=(1, 2, 3, 4, 5, 6)),
        block_payload(numerators=[1, 2, 3, 4, 5]),          # not n * l
        block_payload(numerators=None),
        block_payload(length=0),                            # rows of nothing
        block_payload(length=-3),
        block_payload(length=True),
        block_payload(length="3"),
        block_payload(length=None),
        block_payload(denominators=[1]),                    # not in {0, n}
        block_payload(denominators=[1, 7, 1]),
        block_payload(denominators=[1, 0]),
        block_payload(denominators=[-1, 7]),
        block_payload(denominators=[1, 7.0]),
        block_payload(denominators="17"),
        [block_payload()],
        [{"kind": "value", "version": 1, "numerators": [1, 2, 3],
          "denominator": 1}],                               # the old layout
        None,
        7,
    ])
    def test_malformed_blocks_are_typed_errors(self, rows):
        with pytest.raises(SerializationError):
            request_from_dict(insert_payload(rows))
        body = {"kind": "response", "version": 1, "row_ids": [0, 1],
                "rows": rows}
        with pytest.raises(SerializationError):
            response_from_dict({"kind": "query_response",
                                "version": DICT_VERSION, "body": body})

    def test_absent_or_empty_denominators_mean_one(self):
        for denominators in (None, []):
            request = request_from_dict(
                insert_payload(block_payload(denominators=denominators))
            )
            assert list(request.rows) == [
                ValueCiphertext((1, -2, 3)), ValueCiphertext((4, 5, -6))
            ]

    def test_response_ids_must_match_the_block(self):
        body = {"kind": "response", "version": 1, "row_ids": [0],
                "rows": block_payload()}
        with pytest.raises(SerializationError, match="row ids"):
            response_from_dict({"kind": "query_response",
                                "version": DICT_VERSION, "body": body})

    @pytest.mark.parametrize("ids", [
        ["7", 1.9, True], [7.0], [float("inf")], [None], "12", None,
        (1, 2),
    ])
    def test_lenient_ids_are_refused(self, ids):
        """``int()`` would read these as ``(7, 1, 1)`` or raise a raw
        ``OverflowError``; a tampered id must not become another id."""
        with pytest.raises(SerializationError):
            request_from_dict({"kind": "delete_request",
                               "version": DICT_VERSION,
                               "column": "c", "row_ids": ids})
        body = {"kind": "response", "version": 1, "row_ids": ids,
                "rows": block_payload(length=3, numerators=[],
                                      denominators=None)}
        with pytest.raises(SerializationError):
            response_from_dict({"kind": "query_response",
                                "version": DICT_VERSION, "body": body})

    def test_lenient_ciphertext_components_are_refused(self):
        from repro.crypto.serialization import query_from_dict, rows_from_dict

        for bad in ([1.9, "12", True], [1, 2, 3.0]):
            with pytest.raises(SerializationError):
                rows_from_dict({"length": 3, "numerators": bad})
            with pytest.raises(SerializationError):
                query_from_dict({"kind": "query", "version": 2, "length": 3,
                                 "low_inclusive": True,
                                 "high_inclusive": True, "sides": "none",
                                 "eb": bad, "ev": [1, 2, 3, 1]})
        with pytest.raises(SerializationError):
            rows_from_dict({"length": 3, "numerators": [1, 2, 3],
                            "denominators": ["1"]})

    def test_ragged_or_foreign_rows_do_not_encode(self):
        from repro.crypto.ciphertext import BoundCiphertext

        ragged = (ValueCiphertext((1, 2, 3)), ValueCiphertext((1, 2)))
        foreign = (BoundCiphertext((1, 2, 3)),)
        for rows in (ragged, foreign, (7,)):
            with pytest.raises(SerializationError, match="rows"):
                request_to_dict(protocol.InsertRequest(column="c", rows=rows))

    def test_a_version_1_frame_is_refused_not_reinterpreted(self):
        payload = request_to_dict(
            protocol.InsertRequest(column="c",
                                   rows=(ValueCiphertext((1, 2, 3)),))
        )
        assert payload["version"] == DICT_VERSION == 3
        for older in (1, 2):
            payload["version"] = older
            with pytest.raises(SerializationError, match="version"):
                request_from_dict(payload)

    def test_mutated_block_frames_never_escape_typed_errors(self, fuzz_cases):
        """The mutation fuzz, aimed at block-carrying frames of both
        directions (query responses included)."""
        rng = random.Random("%d:%s" % (FUZZ_SEED, "block-mutation"))
        frames = []
        for kind in ("insert_request", "create_column", "query_response",
                     "rotate_begin_response"):
            spec = next(s for s in specs_sorted() if s.kind == kind)
            frames += [encode(make_envelope(rng, spec)) for _ in range(4)]
        for _ in range(fuzz_cases):
            frame = mutate(rng, rng.choice(frames))
            try:
                decode_all_layers(frame)
            except SerializationError:
                pass


# -- the query round trip's body codecs -----------------------------------------

#: Sessions whose query frames are pinned: a ``crack_cold``-shaped
#: column (100 000 rows, ten per answer), a ``range_tcp``-shaped one
#: (15 000 rows, 150 per answer: multi-byte varints, ids on the packed
#: path) and an ambiguity one (6 000 values, 60 per answer: twice the
#: rows, denominators other than 1).
QUERY_SESSIONS = {
    "crack_cold": dict(rows=100_000, answer=10, ambiguity=False),
    "range_tcp": dict(rows=15_000, answer=150, ambiguity=False),
    "ambiguity": dict(rows=6_000, answer=60, ambiguity=True),
}

#: The trace context of the one traced request frame of a session.
QUERY_TRACE = {"trace_id": "5eed" * 8, "parent": "0a0b0c0d", "sampled": True}

#: sha256 over each session's query exchanges, ``(requests, replies)``:
#: 200 seeded two-sided queries, a low-only, a high-only and a
#: none-sided one, a ``query_many`` batch of four, and — on the request
#: side — the first query's frame traced.  Every frame is prefixed with
#: its 4-byte length.  Computed at the parent of the kinds' body
#: codecs, which write and read the bytes the per-field path did.  The
#: request halves were re-pinned once, when query bounds came to be
#: drawn from the encryptor's pools: the ciphertexts moved, the replies
#: hash as before.  Both halves were re-pinned by protocol version 5: a
#: query carries its session token and a reply names the rows already
#: shipped to it by id alone.  With the token left off the queries and
#: every frame's version byte read as 4, both halves hash as before; with
#: it, the replies of the three sessions shrink from 8 079 999 / 2 305 119
#: / 2 708 671 bytes to 4 479 961 / 662 179 / 740 134.  Both halves
#: were re-pinned by protocol version 6: each of the 204 requests and
#: replies of a session equals its version-5 frame but for the version
#: byte, and only the traced frame's section (JSON text now) moved
#: beyond that — it decodes to the same request and context.  Both
#: halves were re-pinned by protocol version 7: each of the 204
#: requests and replies of a session, and the traced frame, equals its
#: version-6 frame but for the version byte (no query or reply kind had
#: an optional field).
QUERY_FRAME_SHA256 = {
    "crack_cold": (
        "103bd715ff067f50b8935d0e259034c8e29861a205ec233b0fdf0293dba63f41",
        "4debaf227ff900377f32894efe4ee7b2eca7f166f68231f5ce277551483878ae",
    ),
    "range_tcp": (
        "b6ab2929dc52bfe6ac9d712235cb8f578bfe55cb54275bf131898e2328cbe437",
        "9a732e8763735ccf00208e8654320b4ac963d56004951813cf5c3bfb93c10643",
    ),
    "ambiguity": (
        "ff1d2597ac41a320514c05e7eb21125257b150ad329e1350bb9b60d209091ab5",
        "9d46bc6555e5e3ee859e702a5921683737e1f2d8bd14098c2c686a6170f225c0",
    ),
}


class RecordingLoopback(Transport):
    """An in-process endpoint that keeps every exchange."""

    def __init__(self):
        from repro.net.catalog import ColumnCatalog

        self.catalog = ColumnCatalog()
        self.exchanges = []

    def exchange(self, frame, retryable=False):
        from repro.net.transport import serve_frame

        reply = serve_frame(self.catalog, frame)
        self.exchanges.append((frame, reply))
        return reply


@pytest.fixture(scope="module")
def query_exchanges():
    """Per session: its query exchanges (request frame, reply frame) in
    order — 200 queries, three open-sided ones, one batch — and the
    first query's request frame traced."""
    from repro.core.session import OutsourcedDatabase

    sessions = {}
    for name, shape in QUERY_SESSIONS.items():
        rng = np.random.default_rng(20160626)
        values = rng.permutation(np.unique(
            rng.integers(0, 50 * shape["rows"], size=2 * shape["rows"])
        ))[:shape["rows"]]
        ordered = np.sort(values)
        answer = shape["answer"]
        starts = rng.integers(0, len(values) - answer, size=200)
        spans = [(int(ordered[s]), int(ordered[s + answer - 1]))
                 for s in starts]
        transport = RecordingLoopback()
        db = OutsourcedDatabase([int(v) for v in values], seed=11,
                                ambiguity=shape["ambiguity"],
                                transport=transport)
        del transport.exchanges[:]
        for low, high in spans:
            db.query(low, high)
        middle = int(ordered[len(ordered) // 2])
        db.query(middle, None)
        db.query(None, middle)
        db.query()
        db.query_many(spans[:4])
        request, _ = decode_request(transport.exchanges[0][0])
        sessions[name] = (transport.exchanges, encode(request, QUERY_TRACE))
    return sessions


class TestQueryBodyCodecs:
    """``query_request`` and ``query_response`` frames: written and read
    field by field like every other kind, their bytes and checks
    pinned."""

    def test_every_field_type_is_a_parts_at_pair_and_no_kind_a_hook(self):
        from dataclasses import fields

        assert [f.name for f in fields(protocol.FieldType)] == [
            "name", "encode", "decode", "parts", "at"]
        types = {field.type for spec in ENVELOPES.values()
                 for field in spec.fields}
        assert {ftype.name for ftype in types} == set(GENERATORS)
        for ftype in types:
            assert callable(ftype.parts) and callable(ftype.at), ftype.name
        hooks = {f.name for f in fields(protocol.EnvelopeSpec)} - {
            "cls", "kind", "code", "fields", "reply", "idempotent",
            "journaled", "is_request", "code_bytes", "head"}
        assert hooks == set()

    @pytest.mark.parametrize("name", sorted(QUERY_SESSIONS))
    def test_query_frames_are_byte_identical(self, query_exchanges, name):
        exchanges, traced = query_exchanges[name]
        assert len(exchanges) == 204
        requests, replies = hashlib.sha256(), hashlib.sha256()
        for frame, reply in exchanges:
            requests.update(len(frame).to_bytes(4, "big") + frame)
            replies.update(len(reply).to_bytes(4, "big") + reply)
        requests.update(traced)
        assert (requests.hexdigest(), replies.hexdigest()) == (
            QUERY_FRAME_SHA256[name]
        )

    @pytest.mark.parametrize("name", sorted(QUERY_SESSIONS))
    def test_every_frame_decodes_to_what_was_sent(self, query_exchanges,
                                                  name):
        exchanges, traced = query_exchanges[name]
        request, trace = decode_request(traced)
        assert trace == QUERY_TRACE
        assert decode_request(exchanges[0][0]) == (request, None)
        for frame, reply in exchanges:
            request, _ = decode_request(frame)
            assert encode(request) == frame
            assert encode(decode(reply)) == reply

    @pytest.mark.parametrize("name", sorted(QUERY_SESSIONS))
    def test_every_cut_and_every_extra_byte_is_a_typed_error(
        self, query_exchanges, name
    ):
        """Each shape a session sends — a query and its reply, the
        traced query, a batch each way — cut at every offset, and with
        one byte appended, raises SerializationError and nothing else."""
        exchanges, traced = query_exchanges[name]
        (request, reply), (batch, batch_reply) = exchanges[0], exchanges[-1]
        for frame, read in ((request, decode_request), (traced,
                            decode_request), (batch, decode_request),
                            (reply, decode), (batch_reply, decode)):
            read(frame)
            for cut in range(len(frame)):
                with pytest.raises(SerializationError):
                    read(frame[:cut])
            with pytest.raises(SerializationError, match="trailing"):
                read(frame + b"\x00")

    def test_round_trips_of_every_query_shape(self):
        from repro.core.client import TrustedClient
        from repro.crypto.ciphertext import RowBlock

        client = TrustedClient(seed=11)
        bound = client.encrypt_query_bound
        shapes = (
            EncryptedQuery(low=bound(5), high=None),
            EncryptedQuery(low=None, high=bound(9), high_inclusive=False),
            EncryptedQuery(low=None, high=None),
            EncryptedQuery(low=bound(5), high=bound(9),
                           pivots=(bound(6), bound(7), bound(8))),
            EncryptedQuery(low=None, high=bound(9), pivots=(bound(3),)),
        )
        for query in shapes:
            request = protocol.QueryRequest(column="c", query=query)
            assert decode(encode(request)) == request
            batch = BatchRequest(requests=(request, request))
            assert decode(encode(batch)) == batch
        rows, _ = client.encrypt_dataset([1, 2, 3])
        ambiguous, _ = TrustedClient(seed=11, ambiguity=True).encrypt_dataset(
            [1, 2, 3]
        )
        assert (ambiguous.limbs[:, -1, 0] != 1).any()
        for block in (rows, ambiguous, rows.take(slice(0, 0)),
                      RowBlock.from_rows(())):
            reply = protocol.QueryResponse(response=ServerResponse(
                row_ids=np.arange(len(block), dtype=np.int64), rows=block,
            ))
            batch = BatchResponse(responses=(reply, reply))
            for rebuilt in (decode(encode(reply)).response,
                            decode(encode(batch)).responses[1].response):
                assert rebuilt.rows == block
                assert rebuilt.row_ids.tolist() == list(range(len(block)))


# -- what the decoder accepts ----------------------------------------------------

#: sha256 over the outcome of every seeded mutation of the corpus's
#: frames and of JSON fields: the sha256 of its re-encoding where it
#: decodes, ``refused`` where it does not.  Computed before the codec
#: had one field mechanism: a decoder that accepts more, or less, than
#: it did moves it, whatever the encoder writes.  Re-pinned by protocol
#: version 5 with the corpus above.  Over the version-4 corpus, each
#: frame and re-encoding read with its version byte as 4, two of 7 605
#: outcomes moved, both by design: a flip that wrote 5 into a version
#: byte now decodes, and a flip that made a reply's id negative is now
#: refused (the reply then ships more rows than it has whole ids).
#: Re-pinned once more with the corpus when ``column_snapshot`` was
#: registered: over the corpus restricted to the other 23 kinds it
#: hashes exactly as pinned before.
#:
#: Re-pinned by protocol version 6, whose free-form fields are JSON
#: text: the generic-value inputs became JSON-field inputs (the
#: corpus's dict forms as JSON fields, runs of integers and floats,
#: integers on each side of the 4 300-digit limit).  Mutating each
#: frame input off a seed of its own, 83 of 3 887 frame mutations
#: change outcome, all in kinds with a JSON field or in a traced frame
#: (where the free-form bytes, and so the bytes a mutation hits,
#: moved): ``telemetry_response`` 41, ``hello_response`` 18, ``hello``
#: 14, ``column_snapshot`` 2, ``create_column`` 1, ``batch_response``
#: 1, ``telemetry_request`` 1 and 5 in four traced requests; none in
#: the 16 kinds that hold no free-form field.
#:
#: Re-pinned by protocol version 7 with the corpus above, whose frames
#: and dict forms are this digest's inputs (7 072 outcomes, 5 088 of
#: them refusals, against 7 709 and 5 540 over the version-6 corpus,
#: which had the two fetch kinds and sent no field it left off).  What
#: version 7 refuses on purpose is stated by the tests below the digest.
ACCEPT_REFUSE_SHA256 = (
    "6379b6c12d3bc8d185354c04a55502242faf618c825b5c8a90d1222c728d3bd8"
)

#: Per input: the bytes themselves, eight byte flips, three truncations
#: and one appended byte.
FLIPS, CUTS = 8, 3


def field_inputs():
    """JSON fields as bytes: the corpus's dict forms, runs of integers
    narrow and wide, floats, and integers on each side of Python's
    4 300-digit limit."""
    inputs = [field_bytes(to_dict(spec, envelope))
              for spec, envelope in golden_corpus()]
    for run in (list(range(-30, 33)), [2 ** 70 + i for i in range(-3, 61)],
                [-(2 ** 69) + i for i in range(65)],
                [0.5, -0.0, float("inf"), float("-inf"), 1e300]):
        inputs.append(field_bytes({"run": run, "alone": run[0]}))
    inputs.append(field_bytes({"n": 10 ** 4299}))
    text = b'{"n":1' + b"0" * 4300 + b"}"
    inputs.append(protocol.varints(len(text)) + text)
    return inputs


def frame_inputs():
    """The corpus's frames, and its first request of each kind traced."""
    frames = [encode(envelope) for _, envelope in golden_corpus()]
    traced = {}
    for spec, envelope in golden_corpus():
        if spec.is_request:
            traced.setdefault(spec.kind, encode(envelope, QUERY_TRACE))
    return frames + [traced[kind] for kind in sorted(traced)]


def mutations(rng, data):
    """``data``, then its fixed set of seeded mutations."""
    yield data
    for _ in range(FLIPS):
        if data:
            index = rng.randrange(len(data))
            yield (data[:index] + bytes((data[index] ^ rng.randint(1, 255),))
                   + data[index + 1:])
    for _ in range(CUTS):
        yield data[:rng.randrange(len(data))] if data else data
    yield data + bytes((rng.getrandbits(8),))


def field_outcome(data):
    try:
        value = field_value(data)
    except SerializationError:
        return "refused"
    return hashlib.sha256(field_bytes(value)).hexdigest()


def frame_outcome(frame):
    try:
        envelope = decode(frame)
        trace = (decode_request(frame)[1] if spec_of(envelope).is_request
                 else None)
    except SerializationError:
        return "refused"
    slots = getattr(envelope, "requests", ())
    try:
        if any(isinstance(slot, SerializationError) for slot in slots):
            data = repr(trace).encode() + b"".join(
                b"refused" if isinstance(slot, SerializationError)
                else encode(slot) for slot in slots)
        else:
            data = encode(envelope, trace)
    except SerializationError:
        return "unencodable"
    return hashlib.sha256(data).hexdigest()


class TestWhatTheDecoderAccepts:
    def test_mutated_inputs_are_accepted_or_refused_as_pinned(self):
        rng = random.Random("%d:%s" % (FUZZ_SEED, "accept-refuse"))
        digest = hashlib.sha256()
        outcomes = {"refused": 0}
        for inputs, outcome in ((frame_inputs(), frame_outcome),
                                (field_inputs(), field_outcome)):
            for data in inputs:
                for mutated in mutations(rng, data):
                    result = outcome(mutated)
                    outcomes["refused"] += result == "refused"
                    digest.update(result.encode() + b"\n")
        assert digest.hexdigest() == ACCEPT_REFUSE_SHA256, outcomes

    def test_a_version_6_frame_is_refused(self):
        for _, envelope in golden_corpus():
            frame = encode(envelope)
            with pytest.raises(SerializationError, match="version: 6"):
                decode(frame[:1] + b"\x06" + frame[2:])

    @pytest.mark.parametrize("frame", [
        # fetch_request {column: "values", row_ids: 0..5}, untraced
        b"\xae\x07\x06\x00\x06values\x00\x06\x00\x01\x02\x03\x04\x05",
        # fetch_response {rows: no rows}
        b"\xae\x07\x26\x00\x00\x01\x01",
    ], ids=["fetch_request", "fetch_response"])
    def test_the_fetch_kind_codes_are_refused(self, frame):
        with pytest.raises(SerializationError,
                           match="unknown envelope kind code: %d" % frame[2]):
            decode(frame)

    @pytest.mark.parametrize("bitmap", [0, 1])
    @pytest.mark.parametrize("envelope", [
        protocol.TelemetryRequest(sections=("metrics",)),
        protocol.CreateColumnRequest(
            column="values", rows=(ValueCiphertext((1, -2, 3)),),
            row_ids=(0,), config={}),
        protocol.RotateApplyRequest(
            column="values", rows=(ValueCiphertext((1, -2, 3)),),
            row_ids=(0,), fence=3),
        protocol.CreateColumnResponse(column="values", rows_stored=3),
        protocol.InsertResponse(row_ids=(3, 4, 5)),
        protocol.DeleteResponse(deleted=2),
        protocol.MergeResponse(delta=1),
        protocol.RotateBeginResponse(response=ServerResponse(
            row_ids=np.array([0]), rows=[ValueCiphertext((1, -2, 3))]),
            fence=3),
        protocol.RotateApplyResponse(rows_stored=3),
    ], ids=lambda envelope: spec_of(envelope).kind)
    def test_a_stray_bitmap_byte_is_refused(self, envelope, bitmap):
        """A version-7 frame of each kind that had an optional field,
        with the presence bitmap version 6 wrote after its head: every
        field behind it shifts by a byte.  (Shifted bytes that happen
        to read as another envelope would decode — the version byte,
        not the body, tells the versions apart.)"""
        frame = encode(envelope)
        head = len(spec_of(envelope).head)
        with pytest.raises(SerializationError):
            decode(frame[:head] + bytes((bitmap,)) + frame[head:])

    def test_a_version_6_wal_segment_or_checkpoint_is_refused(self,
                                                              tmp_path):
        from repro.core.persistence import (
            SNAPSHOT_FILENAME,
            load_snapshot,
            recover_catalog,
            save_snapshot,
            snapshot_catalog,
        )
        from repro.core.session import OutsourcedDatabase
        from repro.core.wal import WalWriter, _encode_record, write_atomic
        from repro.errors import PersistenceError

        def v6(frame):
            return frame[:1] + b"\x06" + frame[2:]

        catalog = OutsourcedDatabase(list(range(20)), seed=3).transport.catalog
        log = tmp_path / "log"
        with WalWriter(str(log), fsync="never") as writer:
            writer.append("values", 1,
                          v6(encode(MergeRequest(column="values"))))
        with pytest.raises(PersistenceError, match="version: 6"):
            recover_catalog(str(log))
        (snapshot,) = snapshot_catalog(catalog)
        path = str(tmp_path / SNAPSHOT_FILENAME)
        write_atomic(path, _encode_record(1, 1, "values",
                                          v6(encode(snapshot))))
        with pytest.raises(PersistenceError, match="version: 6"):
            load_snapshot(path)
        save_snapshot(path, [snapshot])
        os.rename(path, str(tmp_path / "snapshot-v7.wal"))
        with pytest.raises(PersistenceError, match="snapshot-v7.wal"):
            recover_catalog(str(tmp_path))
