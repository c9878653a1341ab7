"""Unit tests for the wire-protocol envelopes and frame codec."""

import numpy as np
import pytest

from repro.core.client import TrustedClient
from repro.core.server import ServerResponse
from repro.crypto.serialization import ciphertext_to_dict
from repro.errors import (
    ProtocolError,
    QueryError,
    SerializationError,
    TransportError,
    UpdateError,
)
from repro.net import protocol
from repro.net.protocol import (
    CONFIG_DEFAULTS,
    DICT_VERSION,
    PROTOCOL_VERSION,
    CreateColumnRequest,
    CreateColumnResponse,
    DeleteRequest,
    DeleteResponse,
    ErrorResponse,
    FetchRequest,
    FetchResponse,
    InsertRequest,
    InsertResponse,
    MergeRequest,
    MergeResponse,
    QueryRequest,
    QueryResponse,
    RotateApplyRequest,
    RotateApplyResponse,
    RotateBeginRequest,
    RotateBeginResponse,
    decode,
    decode_frame,
    encode,
    encode_frame,
    error_response_for,
    raise_error_response,
    request_from_dict,
    request_to_dict,
    response_from_dict,
    response_to_dict,
)


@pytest.fixture(scope="module")
def client():
    return TrustedClient(seed=41)


@pytest.fixture(scope="module")
def rows(client):
    encrypted, __ = client.encrypt_dataset([10, 20, 30])
    return tuple(encrypted)


def sample_requests(client, rows):
    query = client.make_query(5, 25)
    return [
        CreateColumnRequest(
            column="c", rows=rows, row_ids=(0, 1, 2),
            config={"engine": "adaptive", "min_piece_size": 2},
        ),
        QueryRequest(column="c", query=query),
        FetchRequest(column="c", row_ids=(2, 0)),
        InsertRequest(column="c", rows=rows[:1]),
        DeleteRequest(column="c", row_ids=(1,)),
        MergeRequest(column="c"),
        RotateBeginRequest(column="c"),
        RotateApplyRequest(column="c", rows=rows, row_ids=(0, 1, 2)),
    ]


def sample_responses(rows):
    body = ServerResponse(
        row_ids=np.array([2, 0], dtype=np.int64), rows=list(rows[:2])
    )
    return [
        CreateColumnResponse(column="c", rows_stored=3),
        QueryResponse(response=body),
        FetchResponse(rows=rows[:2]),
        InsertResponse(row_ids=(3, 4)),
        DeleteResponse(deleted=2),
        MergeResponse(delta=1),
        RotateBeginResponse(response=body),
        RotateApplyResponse(rows_stored=3),
        ErrorResponse(code="query", message="unknown column: 'x'"),
    ]


class TestRequestRoundTrip:
    def test_every_request_kind(self, client, rows):
        for request in sample_requests(client, rows):
            frame = encode(request)
            assert frame[:2] == bytes((0xAE, PROTOCOL_VERSION))
            rebuilt = decode(frame)
            assert type(rebuilt) is type(request)
            assert rebuilt.column == request.column
            assert encode(rebuilt) == frame
            data = request_to_dict(request)
            assert data["version"] == DICT_VERSION
            assert request_to_dict(request_from_dict(data)) == data

    def test_query_request_preserves_bounds(self, client):
        request = QueryRequest(column="c", query=client.make_query(5, 25))
        rebuilt = decode(encode(request))
        assert rebuilt.query.low is not None
        assert rebuilt.query.high is not None
        assert rebuilt.query.low_inclusive == request.query.low_inclusive

    def test_unbounded_query_round_trips(self, client):
        request = QueryRequest(
            column="c", query=client.make_query(None, None)
        )
        rebuilt = decode(encode(request))
        assert rebuilt.query.low is None and rebuilt.query.high is None


class TestResponseRoundTrip:
    def test_every_response_kind(self, rows):
        for response in sample_responses(rows):
            frame = encode(response)
            rebuilt = decode(frame)
            assert type(rebuilt) is type(response)
            assert encode(rebuilt) == frame
            data = response_to_dict(response)
            assert data["version"] == DICT_VERSION
            assert response_to_dict(response_from_dict(data)) == data

    def test_query_response_preserves_ids(self, rows):
        response = QueryResponse(
            response=ServerResponse(
                row_ids=np.array([4, 1], dtype=np.int64), rows=list(rows[:2])
            )
        )
        rebuilt = decode(encode(response))
        assert rebuilt.response.row_ids.tolist() == [4, 1]
        assert len(rebuilt.response.rows) == 2


class TestMalformedPayloads:
    """Malformed inputs raise ``SerializationError``, never ``KeyError``
    / ``TypeError`` leaking through the seam."""

    def test_missing_column(self):
        with pytest.raises(SerializationError):
            request_from_dict(
                {"kind": "merge_request", "version": DICT_VERSION}
            )

    def test_empty_column_name(self):
        with pytest.raises(SerializationError):
            request_from_dict(
                {"kind": "merge_request", "version": DICT_VERSION,
                 "column": ""}
            )

    def test_unknown_kind(self):
        with pytest.raises(SerializationError):
            request_from_dict(
                {"kind": "drop_table", "version": DICT_VERSION,
                 "column": "c"}
            )
        with pytest.raises(SerializationError):
            response_from_dict(
                {"kind": "nope_response", "version": DICT_VERSION}
            )

    def test_wrong_version(self):
        with pytest.raises(SerializationError):
            request_from_dict(
                {"kind": "merge_request", "version": 99, "column": "c"}
            )

    def test_non_dict_envelope(self):
        with pytest.raises(SerializationError):
            request_from_dict([1, 2, 3])

    def test_bound_ciphertext_rejected_as_row(self, client):
        bound = client.make_query(5, 25).low
        payload = {
            "kind": "insert_request",
            "version": DICT_VERSION,
            "column": "c",
            "rows": [ciphertext_to_dict(bound.eb)],
        }
        with pytest.raises(SerializationError):
            request_from_dict(payload)

    def test_unknown_config_keys(self, rows):
        payload = request_to_dict(
            CreateColumnRequest(
                column="c", rows=rows, row_ids=(0, 1, 2), config={}
            )
        )
        payload["config"] = {"compression": "zstd"}
        with pytest.raises(SerializationError):
            request_from_dict(payload)

    def test_non_integer_row_ids(self):
        with pytest.raises(SerializationError):
            request_from_dict(
                {"kind": "delete_request", "version": DICT_VERSION,
                 "column": "c", "row_ids": ["zero"]}
            )

    def test_invalid_frame_bytes(self):
        for frame in (b"\xff\xfe not json", b"[1, 2, 3]", b"", b"\xae"):
            with pytest.raises(SerializationError):
                decode(frame)

    def test_a_create_frame_marking_the_retired_shard_field(self, rows):
        """``create_column`` once carried an optional second field, a
        shard descriptor (presence bit ``1 << 1``).  The frame the old
        codec wrote for it is a typed refusal, not a silent drop."""
        from generic_values import encode_value
        from repro.net.binframe import write_varint

        request = CreateColumnRequest(
            column="c", rows=rows, row_ids=(0, 1, 2),
            config={"engine": "scan"},
        )
        frame = encode(request)
        code = bytearray()
        write_varint(code, protocol.spec_of(request).code)
        # magic, version, kind code, an empty trace section: the bitmap.
        at = 2 + len(code) + 1
        assert frame[at] == 1 << 0
        old = (frame[:at] + bytes((1 << 0 | 1 << 1,)) + frame[at + 1:]
               + encode_value({"of": "c", "index": 0, "count": 2,
                               "physical_per_value": 1}))
        with pytest.raises(SerializationError, match="does not have"):
            decode(old)

    def test_unencodable_frame(self):
        with pytest.raises(SerializationError):
            encode(InsertRequest(column="c", rows=(object(),)))
        with pytest.raises(SerializationError):
            encode({"payload": object()})
        with pytest.raises(SerializationError):
            encode_frame({"payload": object()})


class TestConfigAtTheTrustBoundary:
    """A ``create_column``'s engine knobs are checked where they arrive
    — on a frame and in the dict form a WAL replays — not coerced:
    ``bool("false")`` would turn three-way cracking *on*."""

    @pytest.mark.parametrize("key, value", [
        ("engine", "btree"),
        ("engine", 1),
        ("auto_merge_threshold", "5"),
        ("auto_merge_threshold", 0),
        ("auto_merge_threshold", 2.0),
        ("auto_merge_threshold", True),
        ("min_piece_size", 1.9),
        ("min_piece_size", True),
        ("min_piece_size", 0),
        ("min_piece_size", "4"),
        ("use_three_way", "false"),
        ("use_three_way", 0),
        ("use_three_way", None),
    ], ids=repr)
    def test_a_value_the_engine_does_not_take_is_refused(self, rows, key,
                                                         value):
        from repro.net import ColumnCatalog, LoopbackTransport, RemoteColumn

        request = CreateColumnRequest(
            column="c", rows=rows, row_ids=(0, 1, 2), config={key: value}
        )
        with pytest.raises(SerializationError, match=key):
            request_from_dict(request_to_dict(request))
        with pytest.raises(SerializationError, match=key):
            decode(encode(request))
        catalog = ColumnCatalog()
        remote = RemoteColumn(LoopbackTransport(catalog), "c")
        with pytest.raises(SerializationError, match=key):
            remote.create(rows, (0, 1, 2), {key: value})
        assert catalog.column_names == []

    @pytest.mark.parametrize("config", [
        {},
        {"engine": "scan"},
        {"auto_merge_threshold": None, "use_three_way": False},
        {"engine": "adaptive", "auto_merge_threshold": 5,
         "min_piece_size": 8, "use_three_way": True},
    ], ids=repr)
    def test_the_values_the_engine_takes_pass(self, rows, config):
        request = CreateColumnRequest(
            column="c", rows=rows, row_ids=(0, 1, 2), config=config
        )
        assert decode(encode(request)).config == config
        assert request_from_dict(request_to_dict(request)).config == config


class TestIntegersAtTheTrustBoundary:
    """``INT`` / ``OPT_INT`` in a dict form are integers or refused:
    ``int()`` would read ``"7"``, ``7.9`` and ``True`` as 7, 7 and 1."""

    ENVELOPES = (
        (InsertResponse(row_ids=(1,), epoch=7), ("epoch",)),
        (DeleteResponse(deleted=1, epoch=2), ("deleted", "epoch")),
        (protocol.MergeResponse(delta=-3, epoch=4), ("delta", "epoch")),
        (protocol.CreateColumnResponse(column="c", rows_stored=3, epoch=0),
         ("rows_stored", "epoch")),
    )

    @pytest.mark.parametrize("value", ["7", 7.9, True], ids=repr)
    def test_a_non_integer_is_refused(self, value, rows):
        cases = self.ENVELOPES + ((
            RotateApplyRequest(column="c", rows=rows, row_ids=(0, 1, 2),
                               fence=7), ("fence",)),)
        for envelope, keys in cases:
            is_request = protocol.spec_of(envelope).is_request
            to_dict = request_to_dict if is_request else response_to_dict
            from_dict = request_from_dict if is_request else response_from_dict
            payload = to_dict(envelope)
            assert to_dict(from_dict(payload)) == payload
            for key in keys:
                with pytest.raises(SerializationError, match="integer"):
                    from_dict(dict(payload, **{key: value}))


class TestDeterministicFrames:
    def test_key_order_does_not_matter(self):
        a = encode_frame(
            {"kind": "merge_request", "version": DICT_VERSION, "column": "c"})
        b = encode_frame(
            {"column": "c", "version": DICT_VERSION, "kind": "merge_request"})
        assert a == b == encode(MergeRequest(column="c"))

    def test_no_keys(self):
        """A frame is positional: the kind code, then the fields."""
        frame = encode(MergeRequest(column="c"))
        assert frame == bytes((0xAE, PROTOCOL_VERSION, 9, 0, 1)) + b"c"
        assert b"column" not in frame

    def test_same_request_same_bytes(self, client, rows):
        request = InsertRequest(column="c", rows=rows)
        assert encode(request) == encode(request)
        assert encode(decode(encode(request))) == encode(request)


class TestErrorEnvelopes:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (QueryError("q"), "query"),
            (UpdateError("u"), "update"),
            (SerializationError("s"), "serialization"),
            (TransportError("t"), "transport"),
            (ProtocolError("p"), "protocol"),
        ],
    )
    def test_exception_to_code(self, exc, code):
        assert error_response_for(exc).code == code

    def test_transport_error_beats_protocol(self):
        # TransportError subclasses ProtocolError; the specific code wins.
        assert error_response_for(TransportError("boom")).code == "transport"

    def test_raise_error_response_types(self):
        with pytest.raises(QueryError, match="unknown column"):
            raise_error_response(
                ErrorResponse(code="query", message="unknown column: 'x'")
            )
        with pytest.raises(UpdateError):
            raise_error_response(ErrorResponse(code="update", message="no"))

    def test_unknown_code_degrades_to_protocol_error(self):
        with pytest.raises(ProtocolError):
            raise_error_response(ErrorResponse(code="future", message="?"))

    def test_the_retired_read_only_code_degrades_to_protocol_error(self):
        """What a read replica answered a mutation with: a typed
        ``ProtocolError`` now, not a silent pass."""
        assert "read_only" not in protocol.ERROR_CLASSES
        with pytest.raises(ProtocolError, match="send merge_request"):
            raise_error_response(ErrorResponse(
                code="read_only",
                message="send merge_request to the primary at h:1"))

    def test_foreign_exception_maps_to_internal(self):
        assert error_response_for(RuntimeError("boom")).code == "internal"


class TestSizeEstimates:
    def test_config_defaults_match_server_signature(self):
        from inspect import signature

        from repro.core.server import SecureServer

        params = signature(SecureServer.__init__).parameters
        for name, default in CONFIG_DEFAULTS.items():
            assert params[name].default == default


def test_frame_dict_round_trip():
    """The dict-level adapter older callers use: ``encode_frame`` is
    ``encode`` of the envelope a dict describes, ``decode_frame`` the
    dict form of a frame's envelope."""
    payload = request_to_dict(MergeRequest(column="c"))
    assert decode_frame(encode_frame(payload)) == payload
    assert encode_frame(payload, codec="auto") == encode(MergeRequest("c"))


class TestBinaryFrames:
    """The one codec against the same sample envelopes."""

    def test_every_frame_is_binary(self, client, rows):
        from repro.net.protocol import frame_codec

        frame = encode(MergeRequest(column="c"))
        assert frame_codec(frame) == "binary"
        with pytest.raises(SerializationError, match="not a protocol"):
            decode_frame(b'{"column":"c","kind":"merge_request"}')

    def test_every_envelope_round_trips_in_binary(self, client, rows):
        from repro.net.protocol import (
            BatchRequest,
            BatchResponse,
            HelloRequest,
            HelloResponse,
        )

        requests = sample_requests(client, rows) + [
            HelloRequest(),
            BatchRequest(requests=(MergeRequest(column="c"),)),
        ]
        for request in requests:
            data = request_to_dict(request)
            assert decode_frame(encode_frame(data, codec="binary")) == data
            assert request_to_dict(decode(encode(request))) == data
        responses = sample_responses(rows) + [
            HelloResponse(),
            BatchResponse(responses=(MergeResponse(delta=0),)),
        ]
        for response in responses:
            data = response_to_dict(response)
            assert decode_frame(encode_frame(data, codec="binary")) == data
            assert response_to_dict(decode(encode(response))) == data

    def test_frames_are_smaller_than_the_generic_grammar(self, client):
        """Positional frames drop every key and tag the generic grammar
        (what version 3 sent) spells out: a query request at about half
        its size, a reply smaller at any row count."""
        from generic_values import encode_value

        request = QueryRequest(column="c", query=client.make_query(5, 25))
        assert len(encode(request)) * 1.8 <= len(
            encode_value(request_to_dict(request))
        )
        for count in (1, 10, 50):
            bulk, __ = client.encrypt_dataset(list(range(1000, 1000 + count)))
            reply = QueryResponse(response=ServerResponse(
                row_ids=np.arange(count, dtype=np.int64), rows=list(bulk)
            ))
            assert len(encode(reply)) < len(
                encode_value(response_to_dict(reply))
            )

    def test_a_query_request_is_one_flat_block(self, monkeypatch):
        """The count-based gate CI runs by name.  Under the e2e
        benchmark's key a two-sided query is 18 integers in two runs
        behind a flags byte, a length and a bound count: at most 160
        bytes and not one generic value.  Written in the generic grammar
        (keys, tags, interning) it was 271 bytes and 12 values, nested
        one object per ciphertext 372 bytes and 59 values; going back
        only reads slower, so it fails here instead."""
        from repro.net import binframe

        query = TrustedClient(seed=11).make_query(1000, 1010)
        request = QueryRequest(column="values", query=query)
        write_value = binframe._write_value
        written = []

        def counted(out, value, interned, depth):
            written.append(value)
            write_value(out, value, interned, depth)

        monkeypatch.setattr(binframe, "_write_value", counted)
        frame = encode(request)
        assert len(frame) <= 160
        assert written == []
        assert decode(frame) == request

    def test_unknown_codec_rejected(self):
        payload = request_to_dict(MergeRequest(column="c"))
        for codec in ("xml", "json"):
            with pytest.raises(SerializationError, match="codec"):
                encode_frame(payload, codec=codec)

    def test_hello_round_trip(self):
        from repro.net.protocol import CODECS, HelloRequest, HelloResponse

        request = HelloRequest(codecs=("binary", "json"))
        assert decode(encode(request)) == request
        assert request_from_dict(request_to_dict(request)) == request
        response = HelloResponse(codecs=CODECS)
        assert decode(encode(response)) == response
        assert CODECS == ("binary",)


class TestIntArrayFastPath:
    """The struct-packed encoding for homogeneous int lists (tag 0x0A)."""

    @staticmethod
    def _encode(value):
        from generic_values import encode_value

        return encode_value({"a": value})

    @staticmethod
    def _decode(frame):
        from generic_values import decode_value

        return decode_value(frame)

    def test_round_trip_at_every_width(self):
        cases = [
            [0, 1, 2, 3],                                # 1-byte
            [-128, 127, 0, 5],                           # 1-byte bounds
            [-129, 128, 300, -4], [32767, -32768, 0, 1],  # 2-byte
            [1 << 20, -(1 << 20), 3, 4],                 # 4-byte
            [(1 << 31) - 1, -(1 << 31), 0, 9],           # 4-byte bounds
            [1 << 40, -(1 << 40), 1, 2],                 # 8-byte
            [(1 << 63) - 1, -(1 << 63), 0, 1],           # 8-byte bounds
        ]
        for values in cases:
            decoded = self._decode(self._encode(values))["a"]
            assert decoded == values
            assert all(type(item) is int for item in decoded)

    def test_fast_path_used_and_smaller(self):
        from repro.net.binframe import _TAG_INTARRAY

        values = list(range(200))
        frame = self._encode(values)
        assert _TAG_INTARRAY in frame
        # 200 small ints: ~2 bytes each struct-packed vs 2-3 tagged.
        assert len(frame) < 2 * 200 + 32

    def test_ineligible_arrays_fall_back(self):
        from repro.net.binframe import _TAG_INTARRAY

        ineligible = [
            [1, 2, 3],                      # too short
            [1, 2, 3, True],                # bool is not a plain int
            [1, 2, 3, 4.0],                 # float
            [1, 2, 3, 1 << 63],             # beyond 64-bit signed
            [1, 2, 3, -(1 << 63) - 1],
            [1, 2, 3, "x"],
        ]
        for values in ineligible:
            frame = self._encode(values)
            assert self._decode(frame)["a"] == values
            # Re-encode sanity: the round-tripped value still matches.
            assert self._decode(self._encode(self._decode(frame)["a"]))

    def test_bad_width_code_rejected(self):
        from repro.errors import SerializationError
        from repro.net.binframe import _TAG_INTARRAY

        frame = self._encode([1, 2, 3, 4])
        position = frame.index(_TAG_INTARRAY)
        broken = bytearray(frame)
        broken[position + 1] = 9  # only codes 0-3 are defined
        with pytest.raises(SerializationError, match="width code"):
            self._decode(bytes(broken))

    def test_truncated_payload_rejected(self):
        from repro.errors import SerializationError

        frame = self._encode([1, 2, 3, 4])
        with pytest.raises(SerializationError):
            self._decode(frame[:-2])

    def test_oversized_count_rejected(self):
        from repro.errors import SerializationError
        from repro.net.binframe import _TAG_INTARRAY

        # Hand-build a value whose count claims more payload than exists.
        body = bytearray()
        body.append(_TAG_INTARRAY)
        body.append(3)  # 8-byte width
        body.append(0x7F)  # count=127 -> needs 1016 bytes; none follow
        with pytest.raises(SerializationError, match="exceeds"):
            self._decode(bytes(body))


class TestEnvelopeRegistry:
    """The registry is the one definition of what a message is; these
    tests pin its classification and keep the documentation equal to
    it."""

    FLAGS = ("idempotent", "journaled")

    @staticmethod
    def flagged(flag):
        from repro.net.protocol import ENVELOPES

        return {
            spec.kind for spec in ENVELOPES.values() if getattr(spec, flag)
        }

    def test_request_classification_is_pinned(self):
        journaled = {
            "create_column", "insert_request", "delete_request",
            "merge_request", "rotate_apply",
        }
        assert self.flagged("journaled") == journaled
        assert self.flagged("idempotent") == {
            "hello", "telemetry_request", "query_request", "fetch_request",
        }

    def test_every_request_has_a_registered_reply(self):
        from repro.net.protocol import ENVELOPES

        requests = [s for s in ENVELOPES.values() if s.is_request]
        replies = {ENVELOPES[s.reply].kind for s in requests}
        assert len(requests) == 11
        # Every response but the error envelope answers one request.
        assert replies == {
            s.kind for s in ENVELOPES.values() if not s.is_request
        } - {"error_response"}
        for spec in ENVELOPES.values():
            if not spec.is_request:
                assert not any(getattr(spec, flag) for flag in self.FLAGS)

    def test_protocol_doc_table_equals_the_registry(self):
        import os
        import re

        from repro.net.protocol import ENVELOPES

        def cell(items):
            return ", ".join(items) or "—"

        expected = []
        for spec in ENVELOPES.values():
            expected.append("| %d | `%s` | %s | %s | %s | %s |" % (
                spec.code,
                spec.kind,
                cell("`%s: %s`" % (f.key, f.type.name) for f in spec.fields),
                cell("`%s`" % f.key for f in spec.fields if f.optional),
                "`%s`" % ENVELOPES[spec.reply].kind if spec.is_request
                else "—",
                cell(flag for flag in self.FLAGS if getattr(spec, flag)),
            ))
        path = os.path.join(
            os.path.dirname(__file__), os.pardir, "docs", "protocol.md"
        )
        with open(path, encoding="utf-8") as handle:
            documented = [
                line.rstrip("\n") for line in handle
                if re.match(r"\| \d+ \| `", line)
            ]
        assert documented == expected


def test_a_converged_query_makes_at_most_1100_python_calls():
    """The count-based gate CI runs by name for the frame codec: one
    converged ``crack_cold``-shaped query (100 000 rows, ten per
    answer, the benchmark's key, loopback) from ``make_query`` to
    decrypted result, counted by ``cProfile`` — the median of nine.
    Through envelope dicts and the generic grammar these nine made a
    median of 1 549 calls (1 477-1 622), the four codec steps 822 of a
    10-row query's; written positionally, 951 (912-1 022) and 182.
    Going back only reads slower, so it fails here instead."""
    import cProfile
    import pstats
    import statistics

    from repro.core.session import OutsourcedDatabase

    rng = np.random.default_rng(20160626)
    values = np.unique(rng.integers(0, 5_000_000, size=200_000))
    values = rng.permutation(values)[:100_000]
    ordered = np.sort(values)
    starts = rng.integers(0, len(values) - 10, size=2_000)
    queries = [(int(ordered[s]), int(ordered[s + 9])) for s in starts]
    db = OutsourcedDatabase([int(v) for v in values], seed=11)
    for low, high in queries[:1_991]:
        db.query(low, high)
    counts = []
    for low, high in queries[1_991:]:
        profile = cProfile.Profile()
        profile.enable()
        result = db.query(low, high)
        profile.disable()
        assert len(result.values) == 10
        counts.append(pstats.Stats(profile).total_calls)
    assert statistics.median(counts) <= 1_100, counts
