"""Unit tests for the wire-protocol envelopes and frame codec."""

import json
import random

import numpy as np
import pytest

from repro.core.client import TrustedClient
from repro.core.server import ServerResponse
from repro.core.session import OutsourcedDatabase
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
        InsertRequest(column="c", rows=rows[:1]),
        DeleteRequest(column="c", row_ids=(1,)),
        MergeRequest(column="c"),
        RotateBeginRequest(column="c"),
        RotateApplyRequest(column="c", rows=rows, row_ids=(0, 1, 2), fence=5),
    ]


def sample_responses(rows):
    body = ServerResponse(
        row_ids=np.array([2, 0], dtype=np.int64), rows=list(rows[:2])
    )
    return [
        CreateColumnResponse(column="c", rows_stored=3),
        QueryResponse(response=body),
        InsertResponse(row_ids=(3, 4)),
        DeleteResponse(deleted=2),
        MergeResponse(delta=1),
        RotateBeginResponse(response=body, fence=5),
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
            "rows": [{"kind": "bound", "version": 1,
                      "vector": list(bound.eb.vector)}],
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
    """``INT`` in a dict form is an integer or refused: ``int()`` would
    read ``"7"``, ``7.9`` and ``True`` as 7, 7 and 1."""

    ENVELOPES = (
        (DeleteResponse(deleted=1), ("deleted",)),
        (protocol.MergeResponse(delta=-3), ("delta",)),
        (protocol.CreateColumnResponse(column="c", rows_stored=3),
         ("rows_stored",)),
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

    def test_frames_are_smaller_than_the_dict_forms_json(self, client):
        """Positional frames drop every key and write integers as bytes,
        not digits: a query request and a reply of any row count are
        a fraction of the JSON text of their dict forms."""

        def json_size(payload):
            return len(json.dumps(payload, sort_keys=True,
                                  separators=(",", ":")))

        request = QueryRequest(column="c", query=client.make_query(5, 25))
        assert len(encode(request)) * 1.8 <= json_size(
            request_to_dict(request))
        for count in (1, 10, 50):
            bulk, __ = client.encrypt_dataset(list(range(1000, 1000 + count)))
            reply = QueryResponse(response=ServerResponse(
                row_ids=np.arange(count, dtype=np.int64), rows=list(bulk)
            ))
            assert len(encode(reply)) * 1.8 <= json_size(
                response_to_dict(reply))

    def test_a_query_request_is_one_flat_block(self, monkeypatch):
        """The count-based gate CI runs by name.  Under the e2e
        benchmark's key a two-sided query is 18 integers in two runs
        behind a flags byte, a length, a bound count and the client's
        8-byte session token: at most 160 bytes (144 in fact, 136
        without the token) and not one free-form value (a JSON field's
        text).  Written in the old tagged value grammar (keys, tags,
        interning) it was 271 bytes and 12 values, nested one object
        per ciphertext 372 bytes and 59 values; going back only reads
        slower, so it fails here instead."""
        dumps = protocol._dumps
        written = []

        def counted(value):
            written.append(value)
            return dumps(value)

        query = TrustedClient(seed=11).make_query(1000, 1010)
        request = QueryRequest(column="values", query=query)
        monkeypatch.setattr(protocol, "_dumps", counted)
        assert encode(CreateColumnRequest(
            column="values", rows=(), row_ids=(), config={})) and written
        del written[:]
        frame = encode(request)
        assert len(frame) <= 160
        assert written == []
        assert decode(frame) == request

    def test_a_repeated_reply_ships_no_ciphertext(self):
        """The count-based gate CI runs by name.  A ``range_tcp``-shaped
        query (15 000 rows under the e2e benchmark's key, a 150-row
        answer) sent twice by one session: the second reply names its
        rows by id alone, a frame of at most a quarter of the first's
        bytes (310 against 5 711 in fact; the same 5 711 when every
        reply shipped its rows whole).  Shipping them again answers as
        correctly and only moves more bytes."""
        values = random.Random(3).sample(range(2 ** 31), 15_000)
        db = OutsourcedDatabase(values, seed=11)
        ordered = sorted(values)
        low, high = ordered[7_000], ordered[7_149]
        first = db.query(low, high)
        whole = db.remote.last_received_bytes
        again = db.query(low, high)
        repeated = db.remote.last_received_bytes
        assert first.returned_rows == again.returned_rows == 150
        assert sorted(again.values.tolist()) == ordered[7_000:7_150]
        assert repeated <= whole / 4, (repeated, whole)

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
            "hello", "telemetry_request", "query_request",
        }

    def test_every_request_has_a_registered_reply(self):
        from repro.net.protocol import ENVELOPES

        requests = [s for s in ENVELOPES.values() if s.is_request]
        replies = {ENVELOPES[s.reply].kind for s in requests}
        assert len(requests) == 10
        # Every response but the error envelope and a checkpoint's
        # column snapshot answers one request.
        assert replies == {
            s.kind for s in ENVELOPES.values() if not s.is_request
        } - {"error_response", "column_snapshot"}
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
            expected.append("| %d | `%s` | %s | %s | %s |" % (
                spec.code,
                spec.kind,
                cell("`%s: %s`" % (f.key, f.type.name) for f in spec.fields),
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


@pytest.fixture(scope="module")
def converged_crack_cold():
    """A ``crack_cold``-shaped session (100 000 rows, ten per answer, the
    benchmark's key, loopback) after 1 991 of its queries, and nine more
    such queries."""
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
    return db, queries[1_991:]


def _median_calls(step, arguments):
    """The median, over ``arguments``, of the Python calls ``cProfile``
    counts in ``step(*each)``."""
    import cProfile
    import pstats
    import statistics

    counts = []
    for each in arguments:
        profile = cProfile.Profile()
        profile.enable()
        step(*each)
        profile.disable()
        counts.append(pstats.Stats(profile).total_calls)
    return statistics.median(counts), counts


def test_a_converged_query_makes_at_most_600_python_calls(converged_crack_cold):
    """The count-based gate CI runs by name for the query path: one
    converged ``crack_cold``-shaped query from ``make_query`` to
    decrypted result, counted by ``cProfile`` — the median of nine.
    Through envelope dicts and the generic grammar these nine made a
    median of 1 549 calls (1 477-1 622), the four codec steps 822 of a
    10-row query's; written positionally, 951 (912-1 022) and 182;
    field by field through the dict forms of a query and a reply, 773
    (773-785); by the two kinds' straight-line body codecs, 666
    (666-678); with every field a ``parts`` / ``at`` pair and no body
    codec, 674 (674-686); with bounds off the encryptor's pools and one
    engine pass booked once, 516 (516-522); 462 since.  Going back only
    reads slower, so it fails here instead."""
    db, queries = converged_crack_cold

    def query(low, high):
        assert len(db.query(low, high).values) == 10

    median, counts = _median_calls(query, queries)
    assert median <= 600, counts


@pytest.fixture(scope="module")
def converged_ambiguity_range():
    """An ``ambiguity_range``-shaped session (6 000 values from a
    300 000-wide domain, 1 % ranges, ambiguity on, the benchmark's key,
    loopback) after 5 000 of its queries, which leave some 5 800
    indexed cracks, and nine more such queries."""
    from repro.core.session import OutsourcedDatabase

    rng = np.random.default_rng(20160626)
    values = np.unique(rng.integers(0, 300_000, size=12_000))
    values = rng.permutation(values)[:6_000]
    ordered = np.sort(values)
    starts = rng.integers(0, len(values) - 59, size=5_009)
    queries = [(int(ordered[s]), int(ordered[s + 59])) for s in starts]
    db = OutsourcedDatabase([int(v) for v in values], seed=11, ambiguity=True)
    for low, high in queries[:5_000]:
        db.query(low, high)
    return db, queries[5_000:]


def test_a_converged_ambiguity_query_makes_at_most_650_python_calls(
    converged_ambiguity_range,
):
    """The gate above over the ambiguity column, where the server's
    cracker index is largest: one converged query, ``make_query`` to
    decrypted result, 502 calls in the median of nine with each probe of
    the index one written-out product (551 with each a
    ``compare_encrypted_keys`` call; 640 when this gate was set, with
    the cracks one sorted list under a binary search; 669 with them in
    an AVL tree whose insert walked its rebalancing chain back up)."""
    db, queries = converged_ambiguity_range
    assert len(db.server.engine.cracks) > 5_000

    def query(low, high):
        assert len(db.query(low, high).values) == 60

    median, counts = _median_calls(query, queries)
    assert median <= 650, counts


def test_a_crack_index_probe_is_a_product_not_a_call(
    converged_ambiguity_range,
):
    """The index alone under the gate above: a ``locate`` on the
    converged ambiguity index (5 830 keys, 12-13 probes) makes 4 Python
    calls in the median of nine, whatever its depth — the locate, its
    search written out for the column's ciphertext length, one ``len``
    and the profiler's own ``disable`` (27 when each probe called
    ``compare_encrypted_keys`` and its ``sum``)."""
    db, queries = converged_ambiguity_range
    cracks = db.server.engine.cracks
    assert len(cracks) > 5_000
    keys = [(db.client.make_query(*bounds).left_key,) for bounds in queries]
    median, counts = _median_calls(cracks.locate, keys)
    assert median <= 4, counts


def test_make_query_makes_at_most_40_python_calls(converged_crack_cold):
    """The client's half of the gate above: a two-sided ``make_query``
    takes both forms of each bound off the encryptor's pools, 18 calls
    in the median of nine (64 when each bound was encrypted twice by the
    scalar ``encrypt_bound`` / ``encrypt_value``, eight dot products in
    Python)."""
    db, queries = converged_crack_cold
    median, counts = _median_calls(db.client.make_query, queries)
    assert median <= 40, counts


def test_a_converged_dispatch_makes_at_most_300_python_calls(
    converged_crack_cold,
):
    """The server's half: ``ColumnCatalog.dispatch`` of a converged
    ``crack_cold`` query, decoded, is one engine pass booked once — 209
    calls in the median of nine (354 when the engine and the server
    each charged the products and the registry was written name by
    name)."""
    db, queries = converged_crack_cold
    requests = [
        (QueryRequest(column="values", query=db.client.make_query(*bounds)),)
        for bounds in queries
    ]
    catalog = db._catalog
    median, counts = _median_calls(catalog.dispatch, requests)
    assert median <= 300, counts
    assert len(catalog.dispatch(requests[0][0]).response.rows) == 10


def _codec_calls(catalog, request):
    """The Python calls of a mutation's four codec steps — the sender's
    ``encode(request)``, the catalog's ``decode_request(frame)`` and
    ``encode(reply)``, the sender's ``decode(reply_frame)`` — each
    counted by ``cProfile`` on its own, summed, the median of nine."""
    import cProfile
    import pstats
    import statistics

    from repro.net.transport import serve_frame

    frame = encode(request)
    reply_frame = serve_frame(catalog, frame)
    reply = decode(reply_frame)
    assert not isinstance(reply, ErrorResponse), reply
    steps = (lambda: encode(request), lambda: protocol.decode_request(frame),
             lambda: encode(reply), lambda: decode(reply_frame))
    counts = []
    for _ in range(9):
        total = 0
        for step in steps:
            profile = cProfile.Profile()
            profile.enable()
            step()
            profile.disable()
            total += pstats.Stats(profile).total_calls
        counts.append(total)
    return statistics.median(counts)


def test_a_mutation_codec_round_trip_makes_at_most_120_and_95_calls():
    """The count-based gate CI runs by name for a mutation's frames:
    under the benchmark's key a one-row insert's four codec steps make
    at most 120 Python calls and a one-id delete's at most 95.  Field by
    field through a ``Reader`` cursor and bytearray writers they made
    129 (29 + 43 + 30 + 27) and 103 (25 + 34 + 24 + 20); as ``parts`` /
    ``at`` pairs, 115 (27 + 37 + 30 + 21) and 90 (24 + 27 + 23 + 16).
    Going back only reads slower, so it fails here instead."""
    from repro.net.catalog import ColumnCatalog
    from repro.net.transport import serve_frame

    client = TrustedClient(seed=11)
    catalog = ColumnCatalog()
    rows, row_ids = client.encrypt_dataset(list(range(0, 3_000, 3)))
    serve_frame(catalog, encode(CreateColumnRequest(
        column="values", rows=rows, row_ids=row_ids, config={})))
    insert = _codec_calls(catalog, InsertRequest(
        column="values", rows=client.encryptor.encrypt_values([1_000_001])))
    delete = _codec_calls(catalog, DeleteRequest(column="values",
                                                 row_ids=(7,)))
    assert insert <= 120 and delete <= 95, (insert, delete)


def _repeated_reply_calls():
    """A ``range_tcp``-shaped session (15 000 rows under the benchmark's
    key, loopback) that sent ``query(3000, 3447)`` — 150 rows — once,
    and the Python calls of that query sent again, all of whose rows the
    reply names by id alone: its reply's encode, decode and the
    session's ``_decrypt`` (each counted on its own, summed), and the
    whole query, each the median of nine."""
    import cProfile
    import pstats
    import statistics

    from repro.net.transport import serve_frame

    db = OutsourcedDatabase(list(range(0, 45_000, 3)), seed=11)
    assert len(db.query(3_000, 3_447).values) == 150
    message = db.client.make_query(3_000, 3_447)
    reply_frame = serve_frame(db._catalog, encode(
        QueryRequest(column="values", query=message)))
    reply = decode(reply_frame)
    response = reply.response
    assert len(response.row_ids) == 150 and len(response.rows) == 0
    steps = (lambda: encode(reply), lambda: decode(reply_frame),
             lambda: db._decrypt(response, message))
    counts = []
    for _ in range(9):
        total = 0
        for step in steps:
            profile = cProfile.Profile()
            profile.enable()
            step()
            profile.disable()
            total += pstats.Stats(profile).total_calls
        counts.append(total)

    def query():
        result = db.query(3_000, 3_447)
        assert result.values.tolist() == list(range(3_000, 3_448, 3))

    whole, _ = _median_calls(query, [()] * 9)
    return statistics.median(counts), whole


def test_a_repeated_reply_costs_its_ids():
    """The count-based gate CI runs by name for the id-only path: a
    repeated 150-row reply's encode, decode and the session's decrypt
    make at most 85 Python calls, and the whole query at most 360, each
    the median of nine (84 and 337 in fact).  With every step doing the
    work of a reply that carries rows — an empty block measured, written
    and read like a full one, the held rows' ids rebuilt from their
    complements — they made 131 and 388.  Going back only reads slower,
    so it fails here instead."""
    steps, whole = _repeated_reply_calls()
    assert steps <= 85 and whole <= 360, (steps, whole)


@pytest.mark.parametrize("length", [4, 200])
def test_an_empty_block_reads_as_the_general_reader_reads_it(length):
    """A block of no rows is written and read from its header bytes; the
    short cut takes the bytes a writer gives (flag 1 and one empty run,
    or flag 0 and two) and leaves every other spelling to the general
    reader, which gives the same block or the same refusal."""
    head = protocol.varints(length, 0)
    empty = protocol.RowBlock._of(np.zeros((0, length + 1, 1), np.uint64))
    assert b"".join(protocol._block_parts(empty)) == head + b"\x01\x01"
    read = {
        spelling: protocol._block_at(head + spelling + b"!", 0)
        for spelling in (b"\x01\x01", b"\x00\x01\x01",  # the short cut's
                         b"\x01\x81\x00", b"\x00\x01\x81\x00")  # general
    }
    for spelling, (block, end) in read.items():
        assert end == len(head) + len(spelling)
        assert block.limbs.shape == (0, length + 1, 1)
        assert block.limbs.dtype == np.uint64 and block.numerator_bits is None
        assert not block.limbs.flags.writeable
    for spelling in (b"\x01\x02", b"\x00\x01\x02", b"\x00\x02\x01", b"\x01",
                     b"\x00\x01", b"\x02\x01", b"\x01\x00"):
        with pytest.raises(SerializationError):
            protocol._block_at(head + spelling, 0)
