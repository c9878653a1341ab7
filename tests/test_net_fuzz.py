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
* *golden* — the frames of a fixed seeded corpus of all 23 kinds hash
  to a pinned value, and so do its dict forms.
* *mutation* — valid frames are flipped, truncated, and spliced at
  random; every outcome must be a clean decode or a typed
  :class:`~repro.errors.SerializationError` — never a hang, a wrong
  value accepted silently at the envelope layer, or a raw
  ``struct.error`` / ``OverflowError`` / ``UnicodeDecodeError``.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.core.query import EncryptedBound, EncryptedQuery
from repro.core.server import ServerResponse
from repro.crypto.ciphertext import BoundCiphertext, ValueCiphertext
from repro.errors import SerializationError
from repro.net import protocol
from repro.net.binframe import (
    Reader,
    write_varint,
)
from repro.net.protocol import (
    COLUMN,
    DICT_VERSION,
    ENVELOPES,
    INT,
    OPT_INT,
    OPT_STR_LIST,
    PROTOCOL_VERSION,
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

from generic_values import LEGACY_HEADER, decode_value, encode_value

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
    as two flat runs), any subset of sides, a few pivots."""
    width = rng.randint(1, 6)
    return EncryptedQuery(
        low=make_bound(rng, width) if rng.random() < 0.8 else None,
        high=make_bound(rng, width) if rng.random() < 0.8 else None,
        low_inclusive=rng.random() < 0.5,
        high_inclusive=rng.random() < 0.5,
        pivots=tuple(
            make_bound(rng, width) for _ in range(rng.randint(0, 3))
        ),
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
    rows = make_rows(rng)
    return ServerResponse(
        row_ids=np.array(
            [rng.choice(BOUNDARY_IDS) for _ in rows], dtype=np.int64
        ),
        rows=list(rows),
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
    "OPT_INT": lambda rng: rng.choice((None, 0, 1, 7, 2 ** 40)),
    "IDS": make_ids,
    "UPLOAD_IDS": make_ids,
    "ROWS": make_rows,
    "QUERY": make_query,
    "SERVER_RESPONSE": make_server_response,
    "STR_LIST": lambda rng: tuple(
        rng.sample(("binary", "json", "future-codec"), rng.randint(1, 3))
    ),
    "OPT_STR_LIST": lambda rng: rng.choice((
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
    """One hostile-but-valid envelope of a registered kind.  Optional
    fields are sometimes left at their dataclass default."""
    values = {}
    for field in spec.fields:
        if field.optional and rng.random() < 0.25:
            continue
        values[field.attribute] = GENERATORS[field.type.name](rng)
    return spec.cls(**values)


def to_dict(spec, envelope):
    encode = request_to_dict if spec.is_request else response_to_dict
    return encode(envelope)


def from_dict(spec, payload):
    decode = request_from_dict if spec.is_request else response_from_dict
    return decode(payload)


# -- round-trip fuzzing ---------------------------------------------------------


def assert_value_round_trip(payload):
    """``decode(encode(payload))`` must be ``payload`` in the generic
    grammar (WAL records, free-form fields), deterministically."""
    frame = encode_value(payload)
    assert encode_value(payload) == frame
    assert decode_value(frame) == payload


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
        touching this file": all 23 envelopes are parametrized above
        straight from the registry, and every field type any of them
        uses can be generated."""
        assert len(ENVELOPES) == 23
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
    tags: Optional[Tuple[str, ...]] = wire(
        OPT_STR_LIST, optional=True, default=None
    )


@dataclass(frozen=True)
class PingResponse:
    nonce: int = wire(INT)
    epoch: Optional[int] = wire(OPT_INT, optional=True, default=None)


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
            "column": "c", "nonce": 7,
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
        transport.reply = PingResponse(nonce=7, epoch=3)
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
#: The first half is the 21 kinds that cannot carry a query.
GOLDEN_CORPUS_SHA256 = "5235ef452dca6cf4ec0255cc8499f6f5013829757337a4e3ecd50327554eadc9"

#: The second half: the kinds that can carry a query —
#: ``query_request``, and ``batch_request``, whose seeded stream
#: shifts for good at the first one it holds.
GOLDEN_QUERY_CORPUS_SHA256 = "1f626f0bbc5f55b4f0cd3a095e2f660d0907fd292edeec85208fa0a4e364a907"

#: sha256 over ``json.dumps(dict form, sort_keys=True)`` of every
#: envelope of the corpus, first computed at the parent of the
#: positional frame codec: the envelopes and their dict forms did not
#: change with the frames.  Re-pinned with the halves above, both times
#: for the cause named there.
GOLDEN_DICT_SHA256 = (
    "2a1b581d819f7a3631fe0eecfd843999703d9b1c7484a7d7019a9dd965194517"
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
    assert len(kinds) == 23
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


class TestBinaryInnerLoops:
    """The cases the generic grammar's fast paths introduce (it carries
    WAL records and every free-form envelope field): a dict key is read
    by a key-only path, one-byte varints without the loop, and values
    are told apart by exact type."""

    @pytest.mark.parametrize("key", [
        b"\x03\x02",              # an int
        b"\x08\x00",              # a list
        b"\x09\x00",              # a nested dict
        b"\x0a\x00\x00",          # an int array
        b"\x00", b"\x01", b"\x02",  # None, False, True
        b"\x05" + b"\x00" * 8,     # a float
        b"\x0b",                  # no tag at all
    ], ids=lambda key: key.hex())
    def test_a_dict_key_is_a_string_or_nothing(self, key):
        frame = b"\x09\x01" + key + b"\x00"
        with pytest.raises(SerializationError, match="dict key"):
            decode_value(frame)
        for cut in range(len(frame)):
            with pytest.raises(SerializationError):
                decode_value(frame[:cut])

    def test_a_key_back_reference_past_the_table(self):
        one = b"\x09\x02\x06\x01a\x00"
        assert decode_value(one + b"\x06\x01b\x07\x00") == {
            "a": None, "b": "a"}
        for index in (b"\x01", b"\x7f", b"\x80\x01", b"\xff\xff\x03"):
            with pytest.raises(SerializationError, match="back-reference"):
                decode_value(one + b"\x07" + index + b"\x00")
        # ... and a key that repeats one by reference is a duplicate.
        with pytest.raises(SerializationError, match="duplicate"):
            decode_value(one + b"\x07\x00\x00")

    def test_two_byte_varints_where_one_is_typical(self):
        # What the encoder writes once a count, a length or a
        # back-reference passes 127 ...
        names = ["k%03d" % index for index in range(200)]
        payload = {
            "wide": {name: index for index, name in enumerate(names)},
            "refs": names,
            "long key " * 20: "long value " * 20,
            "ints": [127, 128, -64, -65, 63, 64, 2 ** 14, -2 ** 14],
        }
        assert_value_round_trip(payload)
        # ... and what it never writes but the grammar allows: a small
        # number padded to two bytes reads as the one-byte form does.
        plain = b"\x09\x01\x06\x01a\x03\x02"
        padded = b"\x09\x81\x00\x06\x81\x00a\x03\x82\x00"
        assert decode_value(plain) == decode_value(padded) == {"a": 1}
        padded_ref = (b"\x09\x02\x06\x01a\x00"
                      b"\x06\x01b\x07\x80\x00")
        assert decode_value(padded_ref) == {"a": None, "b": "a"}
        with pytest.raises(SerializationError, match="varint"):
            decode_value(b"\x09" + b"\x80" * 10 + b"\x00")

    def test_an_int_is_not_a_bool_anywhere(self):
        payload = {
            "one": 1, "yes": True, "zero": 0, "no": False,
            "mixed": [1, True, 0, False],
            "ints": [1, 0, 1, 0],
            "flags": [True, False, True, False],
        }
        decoded = decode_value(encode_value(payload))
        assert decoded == payload
        for key, value in payload.items():
            got = decoded[key]
            if isinstance(value, list):
                assert list(map(type, got)) == list(map(type, value))
            else:
                assert type(got) is type(value)
        # Only the run of plain ints may take the packed-array form.
        from repro.net.binframe import _TAG_INTARRAY

        assert _TAG_INTARRAY in encode_value({"a": [1, 0, 1, 0]})
        for run in ([1, True, 0, False], [True, False, True, False]):
            assert bytes([_TAG_INTARRAY]) not in encode_value(
                {"a": run})

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
        assert encode_value(fancy) == encode_value(plain)

    @pytest.mark.parametrize("payload", [
        {1: "a"}, {"a": {2: "b"}}, {"a": 1, 2: "b"}, {"a": {None: 1}},
        {"a": {("t",): 1}}, {"a": object()}, {"a": {1, 2}}, {"a": b"bytes"},
    ], ids=repr)
    def test_what_does_not_encode_is_a_typed_error(self, payload):
        with pytest.raises(SerializationError):
            encode_value(payload)


# -- what a version-4 endpoint refuses, and what fails alone -----------------------


#: Kind codes of the deleted read-replica feed (``replicate_subscribe``
#: / ``_entries`` / ``_ack`` and their responses): a frame carrying one
#: is an unknown kind.
RETIRED_CODES = (12, 13, 14, 44, 45, 46)


def _varint(value):
    out = bytearray()
    write_varint(out, value)
    return bytes(out)


def _slots(frame):
    """``(start, size)`` of every sub-frame of an untraced batch frame."""
    reader = Reader(frame, 4)  # magic, version, batch code, no trace
    spans = []
    for _ in range(reader.varint()):
        size = reader.varint()
        spans.append((reader.pos, size))
        reader.pos += size
    assert reader.pos == len(frame)
    return spans


class TestVersionFourFrames:
    """Anything but a version-4 frame is refused with a typed error —
    there is no JSON reader and no version-3 reader — and a batch slot
    that does not decode fails alone."""

    MERGE = MergeRequest(column="values")

    def test_a_json_frame_is_refused(self):
        frame = json.dumps(
            request_to_dict(self.MERGE), separators=(",", ":"), sort_keys=True
        ).encode()
        for read in (decode, decode_request):
            with pytest.raises(SerializationError, match="not a protocol"):
                read(frame)

    def test_a_version_3_frame_is_refused(self):
        # What version 3 sent: the generic grammar over the envelope dict.
        frame = LEGACY_HEADER + encode_value(
            dict(request_to_dict(self.MERGE), version=3))
        with pytest.raises(SerializationError, match="version: 1"):
            decode(frame)
        # Behind this version's header it still reads as nothing valid.
        with pytest.raises(SerializationError):
            decode(bytes((0xAE, PROTOCOL_VERSION)) + frame[3:])

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

    #: Numerator magnitudes hitting each width of a frame's run and of
    #: the generic grammar's int arrays (a WAL record of the block):
    #: struct-packed 1/2/4/8 bytes, then the wide mode at 9, 10 (the
    #: default key's ~77 bits), 34 and its 255-byte cap, then past it
    #: (a generic list; a frame's run has no cap).
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

    def test_wide_mode_bytes(self):
        """One tag, the wide code, the width, the count, then fixed
        two's-complement runs — nothing per value."""
        frame = encode_value({"n": [2 ** 63, -1, 0, -(2 ** 70)]})
        body = frame[frame.index(b"\x0a"):]
        assert body[:4] == bytes((0x0A, 0x04, 9, 4))
        assert len(body) == 4 + 4 * 9
        assert body[4:13] == (2 ** 63).to_bytes(9, "big", signed=True)
        assert decode_value(frame) == {
            "n": [2 ** 63, -1, 0, -(2 ** 70)]}

    @pytest.mark.parametrize("tail", [
        bytes((0x0A, 0x04, 0, 1)),                 # width 0
        bytes((0x0A, 0x05, 1, 1, 0)),              # width code past wide
        bytes((0x0A, 0x04, 9, 2)) + b"\0" * 17,    # count * width > left
        bytes((0x0A, 0x04, 9, 1)) + b"\0" * 10,    # trailing byte
        bytes((0x0A, 0x04, 255, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)),  # huge count
        bytes((0x0A, 0x04)),                       # truncated header
    ])
    def test_malformed_wide_arrays_are_typed_errors(self, tail):
        head = encode_value({"n": 0})[:-2]  # ...key, no value
        with pytest.raises(SerializationError):
            decode_value(head + tail)

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
        for kind in ("fetch_request", "delete_request"):
            with pytest.raises(SerializationError):
                request_from_dict({"kind": kind, "version": DICT_VERSION,
                                   "column": "c", "row_ids": ids})
        body = {"kind": "response", "version": 1, "row_ids": ids,
                "rows": block_payload(length=3, numerators=[],
                                      denominators=None)}
        with pytest.raises(SerializationError):
            response_from_dict({"kind": "query_response",
                                "version": DICT_VERSION, "body": body})

    def test_lenient_ciphertext_components_are_refused(self):
        from repro.crypto.serialization import ciphertext_from_dict

        for bad in ([1.9, "12", True], [1, 2, 3.0]):
            with pytest.raises(SerializationError):
                ciphertext_from_dict({"kind": "value", "version": 1,
                                      "numerators": bad, "denominator": 1})
            with pytest.raises(SerializationError):
                ciphertext_from_dict({"kind": "bound", "version": 1,
                                      "vector": bad})
        with pytest.raises(SerializationError):
            ciphertext_from_dict({"kind": "value", "version": 1,
                                  "numerators": [1, 2, 3],
                                  "denominator": "1"})

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
                     "fetch_response"):
            spec = next(s for s in specs_sorted() if s.kind == kind)
            frames += [encode(make_envelope(rng, spec)) for _ in range(4)]
        for _ in range(fuzz_cases):
            frame = mutate(rng, rng.choice(frames))
            try:
                decode_all_layers(frame)
            except SerializationError:
                pass
