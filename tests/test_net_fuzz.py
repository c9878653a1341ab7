"""Codec fuzzing: round-trip, mutation, and differential tests.

Envelopes are generated from the protocol's own registry
(:data:`repro.net.protocol.ENVELOPES`): one seeded generator per
*field type*, so every registered envelope is fuzzed and a new one
needs no edit here.  Four layers of confidence in the wire formats:

* *round-trip* — hostile-but-valid envelopes (256-bit numerators,
  empty row lists, unicode column names, boundary ids) must satisfy
  ``decode(encode(x)) == x`` in both codecs, hundreds of cases per
  envelope kind (``--fuzz-cases`` scales it; 5000+ enables the deep
  nightly run).
* *golden* — the frames of a fixed seeded corpus of all 29 kinds hash
  to the value the hand-written codecs produced before the registry
  replaced them.
* *mutation* — valid frames are flipped, truncated, and spliced at
  random; every outcome must be a clean decode or a typed
  :class:`~repro.errors.SerializationError` — never a hang, a wrong
  value accepted silently at the envelope layer, or a raw
  ``struct.error`` / ``OverflowError`` / ``UnicodeDecodeError``.
* *differential* — the same workload over loopback with the JSON and
  binary codecs must produce identical query results and identical
  decoded envelope dicts, with the binary transcript under half the
  JSON byte volume (the tentpole's reason to exist).
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
from repro.core.session import OutsourcedDatabase
from repro.crypto.ciphertext import BoundCiphertext, ValueCiphertext
from repro.errors import SerializationError
from repro.net import protocol
from repro.net.protocol import (
    COLUMN,
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
    decode_frame,
    encode_frame,
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


def make_epochs(rng):
    return {
        rng.choice(COLUMN_NAMES): rng.choice(BOUNDARY_IDS)
        for _ in range(rng.randint(0, 4))
    }


def make_shard(rng):
    if rng.random() < 0.3:
        return None
    count = rng.randint(1, 8)
    return {
        "of": rng.choice(COLUMN_NAMES),
        "index": rng.randrange(count),
        "count": count,
        "physical_per_value": rng.choice((1, 2)),
    }


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


def make_wal_entries(rng):
    """Valid WAL entry dicts, each carrying one journaled request.

    Containers are JSON-normalized (lists, not tuples) so an entry
    compares equal after a frame round trip.
    """
    journaled = [spec for spec in specs_sorted() if spec.journaled]
    entries = []
    for seq in range(1, rng.randint(1, 4)):
        request = json.loads(json.dumps(
            request_to_dict(make_envelope(rng, rng.choice(journaled)))
        ))
        entries.append({
            "seq": seq,
            "column": request["column"],
            "epoch": rng.choice((0, 1, 7, 2 ** 40)),
            "request": request,
        })
    return tuple(entries)


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
    "FLAG": lambda rng: rng.random() < 0.3,
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
    "OPT_SHARD": make_shard,
    "REPLICA_ID": lambda rng: rng.choice(
        ("r1", "replica-λ", "10.0.0.7:9402", "r" * 100)
    ),
    "EPOCHS": make_epochs,
    "SECTIONS": make_telemetry_sections,
    "SNAPSHOT": lambda rng: {"version": 3, "columns": [],
                             "epochs": make_epochs(rng)},
    "WAL_ENTRIES": make_wal_entries,
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


def assert_frame_round_trip(payload):
    """``decode(encode(payload))`` must be ``payload`` in both codecs,
    and both encodings must be deterministic."""
    for codec in ("json", "binary"):
        frame = encode_frame(payload, codec=codec)
        assert encode_frame(payload, codec=codec) == frame
        assert decode_frame(frame) == payload


def assert_envelope_round_trips(spec, cases):
    """``cases`` seeded envelopes of one kind survive both codecs and
    decode back to an envelope that encodes to the same dict.  (The
    comparison is dict-level: ``ServerResponse`` holds numpy arrays,
    whose dataclass equality is ambiguous.)"""
    rng = random.Random("%d:%s" % (FUZZ_SEED, spec.kind))
    for _ in range(cases):
        envelope = make_envelope(rng, spec)
        payload = to_dict(spec, envelope)
        assert_frame_round_trip(payload)
        rebuilt = from_dict(spec, payload)
        assert type(rebuilt) is spec.cls
        assert to_dict(spec, rebuilt) == payload
        if spec.is_request:
            assert rebuilt == envelope


class TestRegistryRoundTrips:
    @pytest.mark.parametrize(
        "spec", specs_sorted(), ids=lambda spec: spec.kind
    )
    def test_envelopes_round_trip(self, spec, fuzz_cases):
        assert_envelope_round_trips(spec, fuzz_cases)

    def test_every_field_type_has_a_generator(self):
        """The completeness half of "a new envelope is fuzzed without
        touching this file": all 29 envelopes are parametrized above
        straight from the registry, and every field type any of them
        uses can be generated."""
        assert len(ENVELOPES) == 29
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
        register(PingRequest, "ping", PingResponse, idempotent=True,
                 replica_readable=True, mutates=True, journaled=True)
        register(PingResponse, "ping_response")
        yield spec_of(PingRequest(column="c", nonce=1))
        for cls in (PingRequest, PingResponse):
            del ENVELOPES[cls]
        del protocol._REQUEST_SPECS["ping"]
        del protocol._RESPONSE_SPECS["ping_response"]

    def test_it_round_trips_and_is_fuzzed(self, ping, fuzz_cases):
        request = PingRequest(column="c", nonce=7)
        assert request_to_dict(request) == {
            "kind": "ping", "version": PROTOCOL_VERSION,
            "column": "c", "nonce": 7,
        }
        assert_envelope_round_trips(ping, fuzz_cases)
        assert_envelope_round_trips(spec_of(PingResponse(nonce=1)), fuzz_cases)
        assert ping in specs_sorted()  # so batches and mutation seeds too
        with pytest.raises(SerializationError, match="malformed ping"):
            request_from_dict({"kind": "ping", "version": PROTOCOL_VERSION,
                               "column": "c"})

    def test_it_is_classified_everywhere(self, ping):
        from repro.core.wal import entry_from_wire
        from repro.errors import ProtocolError, ReadOnlyError
        from repro.net import ColumnCatalog, RemoteColumn, ReplicaSet

        request = PingRequest(column="c", nonce=7)
        payload = request_to_dict(request)

        class Echo(Transport):
            """Records ``retryable``; answers with the scripted reply."""

            def exchange(self, frame, retryable=False):
                self.retryable = retryable
                return encode_frame(response_to_dict(self.reply))

            def close(self):
                pass

        transport = Echo()
        remote = RemoteColumn(transport, "c", codec="json")
        transport.reply = PingResponse(nonce=7, epoch=3)
        assert remote.call(request) == transport.reply  # the paired reply
        assert transport.retryable  # idempotent -> the client may retry
        transport.reply = HelloResponse()
        with pytest.raises(ProtocolError, match="expected PingResponse"):
            remote.call(request)
        # replica_readable -> a ReplicaSet would route it to a replica
        assert ReplicaSet._read_columns(payload, "ping") == ["c"]
        # journaled -> the WAL accepts it as an entry
        entry = {"seq": 1, "column": "c", "epoch": 1, "request": payload}
        assert entry_from_wire(entry) == entry
        # mutates -> a read replica refuses it (before looking for a
        # handler, which this catalog does not have)
        catalog = ColumnCatalog()
        with pytest.raises(ProtocolError, match="unhandled request kind"):
            catalog.handle(request)
        catalog.set_read_only("primary:1")
        with pytest.raises(ReadOnlyError, match="send ping to the primary"):
            catalog.handle(request)


# -- the wire-compatibility golden ------------------------------------------------

#: Envelopes per kind in the pinned corpus.
GOLDEN_CASES = 12

#: sha256 over the frames (JSON then binary, per envelope) of the
#: seeded corpus below, in two halves.  Each moves only if the wire
#: format, the registry's rows, or a generator changes.
#:
#: The first half is the 27 kinds that cannot carry a query.  It was
#: computed at f4a3f82 — the commit before queries went flat — with
#: that commit's ``PROTOCOL_VERSION`` set to 3 and nothing else
#: touched: apart from the version tag every envelope states, the flat
#: query and the rewritten binframe loops changed no byte of any other
#: frame (so none of a WAL record, which holds such envelopes, either).
GOLDEN_CORPUS_SHA256 = "efaf2c8a38b88a23d190d0e9fa686dd21ace6825d0dc298cc352648003ec72c2"

#: The second half: the kinds that can carry a query —
#: ``query_request``, and ``batch_request``, whose seeded stream
#: shifts for good at the first one it holds.  Re-pinned by the
#: flat-query PR, which changed the ``QUERY`` field type and
#: ``make_query`` (one ciphertext length per query; bounds of
#: different lengths no longer encode) on purpose.
GOLDEN_QUERY_CORPUS_SHA256 = "6b84cc135de2d5914cc6660bc7b7d9dad6da33653a5074ec8dbff7f1326452dc"

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
        payload = to_dict(spec, envelope)
        for codec in ("json", "binary"):
            digests[spec.kind in QUERY_KINDS].update(
                encode_frame(payload, codec=codec)
            )
    assert len(kinds) == 29
    assert digests[False].hexdigest() == GOLDEN_CORPUS_SHA256
    assert digests[True].hexdigest() == GOLDEN_QUERY_CORPUS_SHA256


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
    """Decode a frame all the way to a typed envelope, as both a
    request and a response.  The only acceptable failure at any layer
    is :class:`SerializationError`."""
    payload = decode_frame(frame)
    for decoder in (request_from_dict, response_from_dict):
        try:
            decoder(payload)
        except SerializationError:
            pass


class TestMutationFuzz:
    def _seed_frames(self):
        rng = random.Random("%d:%s" % (FUZZ_SEED, "mutation-seeds"))
        frames = []
        for spec in specs_sorted():
            payload = to_dict(spec, make_envelope(rng, spec))
            frames.append(encode_frame(payload, codec="json"))
            frames.append(encode_frame(payload, codec="binary"))
        return frames

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
                # Force the binary decoder path with a valid header.
                blob = b"\xae\x01\x01" + blob
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
    """The cases the binary codec's fast paths introduce: a dict key
    is read by a key-only path, one-byte varints without the loop, and
    values are told apart by exact type."""

    HEADER = b"\xae\x01\x01"

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
        frame = self.HEADER + b"\x09\x01" + key + b"\x00"
        with pytest.raises(SerializationError, match="dict key"):
            decode_frame(frame)
        for cut in range(len(self.HEADER), len(frame)):
            with pytest.raises(SerializationError):
                decode_frame(frame[:cut])

    def test_a_key_back_reference_past_the_table(self):
        one = self.HEADER + b"\x09\x02\x06\x01a\x00"
        assert decode_frame(one + b"\x06\x01b\x07\x00") == {
            "a": None, "b": "a"}
        for index in (b"\x01", b"\x7f", b"\x80\x01", b"\xff\xff\x03"):
            with pytest.raises(SerializationError, match="back-reference"):
                decode_frame(one + b"\x07" + index + b"\x00")
        # ... and a key that repeats one by reference is a duplicate.
        with pytest.raises(SerializationError, match="duplicate"):
            decode_frame(one + b"\x07\x00\x00")

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
        assert_frame_round_trip(payload)
        # ... and what it never writes but the grammar allows: a small
        # number padded to two bytes reads as the one-byte form does.
        plain = self.HEADER + b"\x09\x01\x06\x01a\x03\x02"
        padded = self.HEADER + b"\x09\x81\x00\x06\x81\x00a\x03\x82\x00"
        assert decode_frame(plain) == decode_frame(padded) == {"a": 1}
        padded_ref = (self.HEADER + b"\x09\x02\x06\x01a\x00"
                      b"\x06\x01b\x07\x80\x00")
        assert decode_frame(padded_ref) == {"a": None, "b": "a"}
        with pytest.raises(SerializationError, match="varint"):
            decode_frame(self.HEADER + b"\x09" + b"\x80" * 10 + b"\x00")

    def test_an_int_is_not_a_bool_anywhere(self):
        payload = {
            "one": 1, "yes": True, "zero": 0, "no": False,
            "mixed": [1, True, 0, False],
            "ints": [1, 0, 1, 0],
            "flags": [True, False, True, False],
        }
        for codec in ("json", "binary"):
            decoded = decode_frame(encode_frame(payload, codec=codec))
            assert decoded == payload
            for key, value in payload.items():
                got = decoded[key]
                if isinstance(value, list):
                    assert list(map(type, got)) == list(map(type, value))
                else:
                    assert type(got) is type(value)
        # Only the run of plain ints may take the packed-array form.
        from repro.net.binframe import _TAG_INTARRAY, encode_binary_frame

        assert _TAG_INTARRAY in encode_binary_frame({"a": [1, 0, 1, 0]})[3:]
        for run in ([1, True, 0, False], [True, False, True, False]):
            assert bytes([_TAG_INTARRAY]) not in encode_binary_frame(
                {"a": run})[3:]

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
        assert encode_frame(fancy, codec="binary") == encode_frame(
            plain, codec="binary")

    @pytest.mark.parametrize("payload", [
        {1: "a"}, {"a": {2: "b"}}, {"a": 1, 2: "b"}, {"a": {None: 1}},
        {"a": {("t",): 1}}, {"a": object()}, {"a": {1, 2}}, {"a": b"bytes"},
    ], ids=repr)
    def test_what_does_not_encode_is_a_typed_error(self, payload):
        with pytest.raises(SerializationError):
            encode_frame(payload, codec="binary")


# -- differential codec test ----------------------------------------------------


class RecordingTransport(Transport):
    """Wraps a transport; keeps every frame that crosses it."""

    def __init__(self, inner):
        self.inner = inner
        self.sent = []
        self.received = []

    @property
    def negotiated_codec(self):
        return getattr(self.inner, "negotiated_codec", None)

    @negotiated_codec.setter
    def negotiated_codec(self, value):
        if self.inner is not None:
            self.inner.negotiated_codec = value

    def exchange(self, frame, retryable=False):
        self.sent.append(frame)
        reply = self.inner.exchange(frame, retryable=retryable)
        self.received.append(reply)
        return reply

    def close(self):
        self.inner.close()


class TestDifferentialCodecs:
    # A fig-6-style smoke workload: a burst of range queries over a
    # shuffled unique column, cracking the index from cold.
    VALUES = list(np.random.default_rng(626).permutation(300))
    WORKLOAD = [
        (10, 60), (200, 290), (5, 150), (42, 43), (0, 299), (77, 180),
        (150, 151), (20, 280),
    ]

    def _run(self, codec):
        db = OutsourcedDatabase(self.VALUES, seed=16, codec=codec)
        recorder = RecordingTransport(db.transport)
        db._remote._transport = recorder
        results = [
            sorted(db.query(low, high).values.tolist())
            for low, high in self.WORKLOAD
        ]
        db.insert(10 ** 6)
        db.merge()
        results.append(sorted(db.query(10 ** 5, 10 ** 7).values.tolist()))
        return results, recorder

    def test_codecs_agree_and_binary_is_half_the_bytes(self):
        json_results, json_rec = self._run("json")
        binary_results, binary_rec = self._run("binary")

        # Same decrypted answers...
        assert json_results == binary_results
        expected = [
            sorted(v for v in self.VALUES if low <= v <= high)
            for low, high in self.WORKLOAD
        ] + [[10 ** 6]]
        assert json_results == expected

        # ...from byte-for-byte different frames carrying identical
        # envelope dicts in both directions.
        assert len(json_rec.sent) == len(binary_rec.sent)
        for json_frame, binary_frame in zip(json_rec.sent, binary_rec.sent):
            assert decode_frame(json_frame) == decode_frame(binary_frame)
        for json_frame, binary_frame in zip(
            json_rec.received, binary_rec.received
        ):
            assert decode_frame(json_frame) == decode_frame(binary_frame)

        # The binary transcript is well under the JSON byte volume.
        # The bound was 0.5 while JSON spelled four field names per
        # row; with row blocks both transcripts shrank (JSON 124,433 ->
        # 67,153 B, binary 55,133 -> 36,905 B on this workload) and
        # what separates them now is digits against bytes plus the
        # query envelopes, ~0.55.
        json_bytes = sum(
            len(f) for f in json_rec.sent + json_rec.received
        )
        binary_bytes = sum(
            len(f) for f in binary_rec.sent + binary_rec.received
        )
        assert binary_bytes < 0.6 * json_bytes

    def test_mixed_codec_sessions_share_one_server(self):
        """A JSON client and a binary client can talk to the same
        catalog endpoint at the same time."""
        from repro.net.catalog import ColumnCatalog
        from repro.net.transport import LoopbackTransport

        catalog = ColumnCatalog()
        json_db = OutsourcedDatabase(
            self.VALUES[:100], seed=17, codec="json",
            transport=LoopbackTransport(catalog), column="json-col",
        )
        binary_db = OutsourcedDatabase(
            self.VALUES[:100], seed=17, codec="binary",
            transport=LoopbackTransport(catalog), column="binary-col",
        )
        for low, high in self.WORKLOAD[:4]:
            assert (
                sorted(json_db.query(low, high).values.tolist())
                == sorted(binary_db.query(low, high).values.tolist())
            )


class TestHelloEnvelopes:
    def test_version_mismatch_is_serialization_error(self):
        payload = request_to_dict(HelloRequest())
        payload["version"] = PROTOCOL_VERSION + 1
        with pytest.raises(SerializationError, match="version"):
            request_from_dict(payload)

    def test_nested_batches_rejected(self):
        inner = BatchRequest(requests=(MergeRequest(column="values"),))
        with pytest.raises(SerializationError, match="nest"):
            request_to_dict(BatchRequest(requests=(inner,)))


# -- row blocks at the trust boundary ------------------------------------------------


def block_payload(**overrides):
    """A valid 2 x 3 block value, with fields replaced or (``None``)
    removed."""
    payload = {"length": 3, "numerators": [1, -2, 3, 4, 5, -6],
               "denominators": [1, 7]}
    payload.update(overrides)
    return {k: v for k, v in payload.items() if v is not None}


def insert_payload(rows):
    return {"kind": "insert_request", "version": PROTOCOL_VERSION,
            "column": "c", "rows": rows}


class TestRowBlockWire:
    """``ROWS`` / ``IDS`` / ``SERVER_RESPONSE`` accept plain ints in a
    consistent shape and nothing else; every refusal is a
    ``SerializationError``."""

    #: Numerator magnitudes hitting each int-array width: struct-packed
    #: 1/2/4/8 bytes, then the wide mode at 9, 10 (the default key's
    #: ~77 bits), 34 and its 255-byte cap, then past it (generic list).
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
        assert_frame_round_trip(payload)
        for codec in ("json", "binary"):
            rebuilt = request_from_dict(
                decode_frame(encode_frame(payload, codec=codec))
            )
            assert rebuilt == request
            assert list(rebuilt.rows) == block

    def test_wide_mode_bytes(self):
        """One tag, the wide code, the width, the count, then fixed
        two's-complement runs — nothing per value."""
        frame = encode_frame({"n": [2 ** 63, -1, 0, -(2 ** 70)]}, "binary")
        body = frame[frame.index(b"\x0a"):]
        assert body[:4] == bytes((0x0A, 0x04, 9, 4))
        assert len(body) == 4 + 4 * 9
        assert body[4:13] == (2 ** 63).to_bytes(9, "big", signed=True)
        assert decode_frame(frame) == {"n": [2 ** 63, -1, 0, -(2 ** 70)]}

    @pytest.mark.parametrize("tail", [
        bytes((0x0A, 0x04, 0, 1)),                 # width 0
        bytes((0x0A, 0x05, 1, 1, 0)),              # width code past wide
        bytes((0x0A, 0x04, 9, 2)) + b"\0" * 17,    # count * width > left
        bytes((0x0A, 0x04, 9, 1)) + b"\0" * 10,    # trailing byte
        bytes((0x0A, 0x04, 255, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)),  # huge count
        bytes((0x0A, 0x04)),                       # truncated header
    ])
    def test_malformed_wide_arrays_are_typed_errors(self, tail):
        head = encode_frame({"n": 0}, "binary")[:-2]  # ...key, no value
        with pytest.raises(SerializationError):
            decode_frame(head + tail)

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
                                "version": PROTOCOL_VERSION, "body": body})

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
                                "version": PROTOCOL_VERSION, "body": body})

    @pytest.mark.parametrize("ids", [
        ["7", 1.9, True], [7.0], [float("inf")], [None], "12", None,
        (1, 2),
    ])
    def test_lenient_ids_are_refused(self, ids):
        """``int()`` would read these as ``(7, 1, 1)`` or raise a raw
        ``OverflowError``; a tampered id must not become another id."""
        for kind in ("fetch_request", "delete_request"):
            with pytest.raises(SerializationError):
                request_from_dict({"kind": kind, "version": PROTOCOL_VERSION,
                                   "column": "c", "row_ids": ids})
        body = {"kind": "response", "version": 1, "row_ids": ids,
                "rows": block_payload(length=3, numerators=[],
                                      denominators=None)}
        with pytest.raises(SerializationError):
            response_from_dict({"kind": "query_response",
                                "version": PROTOCOL_VERSION, "body": body})

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
        assert payload["version"] == PROTOCOL_VERSION == 3
        for older in (1, 2):
            payload["version"] = older
            with pytest.raises(SerializationError, match="version"):
                request_from_dict(payload)

    def test_mutated_block_frames_never_escape_typed_errors(self, fuzz_cases):
        """The mutation fuzz, aimed at block-carrying frames of both
        codecs and both directions (query responses included)."""
        rng = random.Random("%d:%s" % (FUZZ_SEED, "block-mutation"))
        frames = []
        for kind in ("insert_request", "create_column", "query_response",
                     "fetch_response"):
            spec = next(s for s in specs_sorted() if s.kind == kind)
            for _ in range(4):
                payload = to_dict(spec, make_envelope(rng, spec))
                frames += [encode_frame(payload, codec=codec)
                           for codec in ("json", "binary")]
        for _ in range(fuzz_cases):
            frame = mutate(rng, rng.choice(frames))
            try:
                decode_all_layers(frame)
            except SerializationError:
                pass
