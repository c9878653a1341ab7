"""Unit tests for key serialization and the payloads' dict forms."""

import json

import pytest

from repro.crypto.serialization import (
    dumps,
    key_from_dict,
    key_to_dict,
    loads,
)
from repro.errors import SerializationError


class TestKeyRoundTrip:
    def test_round_trip(self, key4):
        assert key_from_dict(key_to_dict(key4)) == key4

    def test_json_round_trip(self, key4):
        assert loads(dumps(key4)) == key4

    def test_big_key_round_trip(self, key8):
        assert loads(dumps(key8)) == key8

    def test_wrong_kind_rejected(self, key4):
        data = key_to_dict(key4)
        data["kind"] = "something_else"
        with pytest.raises(SerializationError):
            key_from_dict(data)

    def test_wrong_version_rejected(self, key4):
        data = key_to_dict(key4)
        data["version"] = 99
        with pytest.raises(SerializationError):
            key_from_dict(data)

    def test_missing_field_rejected(self, key4):
        data = key_to_dict(key4)
        del data["matrix"]
        with pytest.raises(SerializationError):
            key_from_dict(data)


def ciphertext_dict(ciphertext):
    """The per-ciphertext dict form payloads used to nest (gone from the
    package: ciphertexts travel and rest only as frames)."""
    if hasattr(ciphertext, "vector"):
        return {"kind": "bound", "version": 1,
                "vector": list(ciphertext.vector)}
    return {"kind": "value", "version": 1,
            "numerators": list(ciphertext.numerators),
            "denominator": ciphertext.denominator}


class TestCiphertextRoundTrip:
    """A ciphertext crosses a frame: a row in a row block, a bound in a
    query."""

    @staticmethod
    def through_rows(ciphertext):
        from repro.net.protocol import InsertRequest, decode, encode

        request = InsertRequest(column="c", rows=[ciphertext])
        return decode(encode(request)).rows[0]

    def test_value_round_trip(self, encryptor):
        ciphertext = encryptor.encrypt_value(12345)
        assert self.through_rows(ciphertext) == ciphertext

    def test_bound_round_trip(self, encryptor):
        from repro.core.query import EncryptedBound, EncryptedQuery
        from repro.net.protocol import QueryRequest, decode, encode

        bound = EncryptedBound(eb=encryptor.encrypt_bound(-9876),
                               ev=encryptor.encrypt_value(-9876))
        query = EncryptedQuery(low=None, high=None, pivots=(bound,))
        frame = encode(QueryRequest(column="c", query=query))
        assert decode(frame).query.pivots == (bound,)

    def test_decrypts_after_round_trip(self, encryptor):
        ciphertext = self.through_rows(encryptor.encrypt_value(31337))
        assert encryptor.decrypt_value(ciphertext) == 31337

    def test_big_integers_survive(self, encryptor):
        ciphertext = encryptor.encrypt_value(10 ** 30)
        assert self.through_rows(ciphertext) == ciphertext


class TestLoads:
    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            loads("{not json")

    def test_non_object(self):
        with pytest.raises(SerializationError):
            loads("[1, 2, 3]")

    def test_wire_format_is_json(self, key4):
        payload = json.loads(dumps(key4))
        assert payload["kind"] == "secret_key"
        assert payload["version"] == 1

    def test_a_ciphertext_is_not_a_key(self, encryptor):
        text = json.dumps(ciphertext_dict(encryptor.encrypt_value(5)))
        with pytest.raises(SerializationError, match="secret_key"):
            loads(text)


class TestProtocolWireFormat:
    def test_query_round_trip(self):
        import json

        from repro.core.client import TrustedClient
        from repro.crypto.serialization import query_from_dict, query_to_dict

        client = TrustedClient(seed=9)
        query = client.make_query(3, 9, low_inclusive=False, pivots=(5, 7))
        restored = query_from_dict(
            json.loads(json.dumps(query_to_dict(query)))
        )
        assert restored == query

    def test_one_sided_query_round_trip(self):
        from repro.core.client import TrustedClient
        from repro.crypto.serialization import query_from_dict, query_to_dict

        client = TrustedClient(seed=9)
        query = client.make_query(high=9)
        restored = query_from_dict(query_to_dict(query))
        assert restored.low is None
        assert restored == query

    def test_response_round_trip(self):
        import json

        import numpy as np

        from repro.core.client import TrustedClient
        from repro.core.server import SecureServer
        from repro.crypto.serialization import (
            response_from_dict,
            response_to_dict,
        )

        client = TrustedClient(seed=10)
        rows, ids = client.encrypt_dataset([4, 8, 15])
        server = SecureServer(rows, ids)
        response = server.execute(client.make_query(5, 20))
        restored = response_from_dict(
            json.loads(json.dumps(response_to_dict(response)))
        )
        assert np.array_equal(restored.row_ids, response.row_ids)
        values = sorted(
            client.encryptor.decrypt_value(row) for row in restored.rows
        )
        assert values == [8, 15]

    def test_full_protocol_over_the_wire(self):
        import json

        from repro.core.client import TrustedClient
        from repro.core.server import SecureServer
        from repro.crypto.serialization import (
            query_from_dict,
            query_to_dict,
            response_from_dict,
            response_to_dict,
        )

        client = TrustedClient(seed=11, ambiguity=True)
        rows, ids = client.encrypt_dataset([10, 20, 30, 40])
        server = SecureServer(rows, ids)
        wire_query = json.dumps(query_to_dict(client.make_query(15, 35)))
        response = server.execute(query_from_dict(json.loads(wire_query)))
        wire_response = json.dumps(response_to_dict(response))
        restored = response_from_dict(json.loads(wire_response))
        result = client.decrypt_results(restored.row_ids, restored.rows)
        assert sorted(result.values.tolist()) == [20, 30]

    def test_query_wrong_kind_rejected(self):
        from repro.crypto.serialization import query_from_dict

        with pytest.raises(SerializationError):
            query_from_dict({"kind": "response", "version": 1})

    def test_response_bound_rows_rejected(self):
        from repro.core.client import TrustedClient
        from repro.crypto.serialization import response_from_dict

        client = TrustedClient(seed=12)
        bad = {
            "kind": "response",
            "version": 1,
            "row_ids": [0],
            "rows": [ciphertext_dict(client.encryptor.encrypt_bound(1))],
        }
        with pytest.raises(SerializationError):
            response_from_dict(bad)


class TestMalformedProtocolPayloads:
    """Every malformed wire payload fails as ``SerializationError`` —
    ``KeyError`` / ``TypeError`` / ``ValueError`` never cross the seam."""

    def test_response_non_numeric_row_ids(self):
        from repro.core.client import TrustedClient
        from repro.crypto.serialization import response_from_dict

        client = TrustedClient(seed=13)
        bad = {
            "kind": "response",
            "version": 1,
            "row_ids": ["zero"],
            "rows": [ciphertext_dict(client.encryptor.encrypt_value(1))],
        }
        with pytest.raises(SerializationError):
            response_from_dict(bad)

    def test_response_missing_rows(self):
        from repro.crypto.serialization import response_from_dict

        with pytest.raises(SerializationError):
            response_from_dict(
                {"kind": "response", "version": 1, "row_ids": []}
            )

    def test_response_rows_not_a_list(self):
        from repro.crypto.serialization import response_from_dict

        with pytest.raises(SerializationError):
            response_from_dict(
                {"kind": "response", "version": 1, "row_ids": [], "rows": 7}
            )

    def test_query_non_iterable_pivots(self):
        # Pivots are the tail of the two runs: a run that is no list.
        from repro.core.client import TrustedClient
        from repro.crypto.serialization import query_from_dict, query_to_dict

        client = TrustedClient(seed=13)
        payload = query_to_dict(client.make_query(1, 5, pivots=(3,)))
        payload["eb"] = 5
        with pytest.raises(SerializationError):
            query_from_dict(payload)

    def test_query_truncated_bound(self):
        from repro.core.client import TrustedClient
        from repro.crypto.serialization import query_from_dict, query_to_dict

        client = TrustedClient(seed=13)
        payload = query_to_dict(client.make_query(1, 5))
        del payload["ev"][-1]
        with pytest.raises(SerializationError):
            query_from_dict(payload)

    def test_query_non_numeric_ciphertext(self):
        from repro.core.client import TrustedClient
        from repro.crypto.serialization import query_from_dict, query_to_dict

        client = TrustedClient(seed=13)
        payload = query_to_dict(client.make_query(1, 5))
        payload["ev"][0] = "abc"
        with pytest.raises(SerializationError):
            query_from_dict(payload)


def _client():
    from repro.core.client import TrustedClient

    return TrustedClient(seed=13)


def _queries():
    """The shapes a query takes, by name."""
    client = _client()
    return {
        "two_sided": client.make_query(1, 5),
        "exclusive": client.make_query(
            1, 5, low_inclusive=False, high_inclusive=False
        ),
        "low_only": client.make_query(low=1),
        "high_only": client.make_query(high=5, high_inclusive=False),
        "select_all": client.make_query(),
        "pivots": client.make_query(1, 9, pivots=(3, 7)),
        "pivots_only": client.make_query(pivots=(3,)),
        # 20 bounds: both runs are long enough for the binary codec to
        # hand them back packed.
        "long_runs": client.make_query(1, 99, pivots=tuple(range(2, 20))),
    }


def _through(payload, codec):
    """A dict form after a trip through plain JSON, or through a
    frame's JSON field (sorted keys, no spaces, a repeated key
    refused)."""
    from repro.net.protocol import SECTIONS

    if codec == "json":
        return json.loads(json.dumps(payload))
    frame = b"".join(SECTIONS.parts({"p": payload}))
    return SECTIONS.at(frame, 0)[0]["p"]


@pytest.mark.parametrize("codec", ["json", "field"])
class TestFlatQuery:
    """A query's dict form is one flat block: two integer runs, a
    length, the flags and which sides are there."""

    @pytest.mark.parametrize("shape", sorted(_queries()))
    def test_round_trip(self, shape, codec):
        from repro.net.protocol import (
            QueryRequest,
            request_from_dict,
            request_to_dict,
        )

        query = _queries()[shape]
        request = QueryRequest(column="c", query=query)
        payload = request_to_dict(request)
        assert set(payload["query"]) - {"sides", "token"} == {
            "kind", "version", "length", "low_inclusive", "high_inclusive",
            "eb", "ev",
        }
        assert payload["query"].get("token", 0) == query.token
        restored = request_from_dict(_through(payload, codec))
        assert restored == request
        assert restored.query == query

    def test_a_run_may_arrive_packed_or_plain(self, codec):
        from repro.crypto.serialization import query_from_dict, query_to_dict
        from repro.linalg.limbs import PackedInts, from_ints

        queries = _queries()
        for shape in ("two_sided", "long_runs"):
            payload = _through(query_to_dict(queries[shape]), codec)
            for run in ("eb", "ev"):
                plain = list(payload[run])
                for form in (plain, PackedInts(from_ints(plain))):
                    assert query_from_dict(
                        dict(payload, **{run: form})
                    ) == queries[shape]

    @pytest.mark.parametrize(
        "token", ["7", -1, 2 ** 64, 1.0, True, None], ids=repr
    )
    def test_a_token_is_checked_not_coerced(self, token, codec):
        from repro.crypto.serialization import query_from_dict, query_to_dict

        payload = query_to_dict(_queries()["two_sided"])
        payload["token"] = token
        with pytest.raises(SerializationError, match="token"):
            query_from_dict(_through(payload, codec))

    @pytest.mark.parametrize("flag", ["low_inclusive", "high_inclusive"])
    @pytest.mark.parametrize(
        "value", ["false", "true", 0, 1, 1.0, None, []], ids=repr
    )
    def test_flags_are_checked_not_coerced(self, value, flag, codec):
        from repro.net.protocol import (
            QueryRequest,
            request_from_dict,
            request_to_dict,
        )

        payload = request_to_dict(
            QueryRequest(column="c", query=_queries()["two_sided"])
        )
        payload["query"][flag] = value
        with pytest.raises(SerializationError, match="boolean"):
            request_from_dict(_through(payload, codec))
        del payload["query"][flag]
        with pytest.raises(SerializationError, match="boolean"):
            request_from_dict(_through(payload, codec))

    @pytest.mark.parametrize("name, shape, mangle", [
        ("missing_eb", "two_sided", lambda q: q.pop("eb")),
        ("missing_ev", "two_sided", lambda q: q.pop("ev")),
        ("eb_not_whole_bounds", "two_sided", lambda q: q["eb"].pop()),
        ("eb_one_bound_short", "two_sided",
         lambda q: q.update(eb=q["eb"][q["length"]:])),
        ("ev_one_bound_long", "two_sided",
         lambda q: q.update(ev=q["ev"] + q["ev"][:q["length"] + 1])),
        ("both_sides_one_bound", "low_only", lambda q: q.pop("sides")),
        ("a_side_no_bound", "select_all", lambda q: q.update(sides="high")),
        ("unknown_sides", "low_only", lambda q: q.update(sides="left")),
        ("sides_not_a_string", "low_only", lambda q: q.update(sides=1)),
        ("sides_a_list", "low_only", lambda q: q.update(sides=["low"])),
        ("length_zero", "two_sided", lambda q: q.update(length=0)),
        ("length_negative", "two_sided", lambda q: q.update(length=-4)),
        ("length_true", "pivots_only", lambda q: q.update(length=True)),
        ("length_float", "two_sided", lambda q: q.update(length=4.0)),
        ("length_missing", "two_sided", lambda q: q.pop("length")),
        ("length_of_another_key", "two_sided", lambda q: q.update(length=3)),
        ("bool_in_eb", "two_sided", lambda q: q["eb"].__setitem__(2, True)),
        ("float_in_eb", "two_sided", lambda q: q["eb"].__setitem__(0, 1.0)),
        ("string_in_eb", "two_sided", lambda q: q["eb"].__setitem__(7, "7")),
        ("bool_in_ev", "two_sided", lambda q: q["ev"].__setitem__(4, True)),
        ("float_in_ev", "two_sided", lambda q: q["ev"].__setitem__(1, 1.0)),
        ("none_in_ev", "two_sided", lambda q: q["ev"].__setitem__(1, None)),
        ("eb_a_dict", "two_sided", lambda q: q.update(eb={"0": 1})),
        ("ev_a_string", "two_sided", lambda q: q.update(ev="12345")),
        ("zero_denominator", "two_sided",
         lambda q: q["ev"].__setitem__(q["length"], 0)),
        ("negative_denominator", "pivots",
         lambda q: q["ev"].__setitem__(len(q["ev"]) - 1, -1)),
        ("payload_version_1", "two_sided", lambda q: q.update(version=1)),
        ("wrong_kind", "two_sided", lambda q: q.update(kind="response")),
    ], ids=lambda value: value if isinstance(value, str) else "")
    def test_malformed_forms_are_typed_errors(self, name, shape, mangle,
                                              codec):
        from repro.net.protocol import (
            QueryRequest,
            request_from_dict,
            request_to_dict,
        )

        payload = request_to_dict(
            QueryRequest(column="c", query=_queries()[shape])
        )
        mangle(payload["query"])
        with pytest.raises(SerializationError):
            request_from_dict(_through(payload, codec))

    @pytest.mark.parametrize("query", [[1, 2], 7, None, "query"], ids=repr)
    def test_a_query_that_is_no_object(self, query, codec):
        from repro.net.protocol import (
            QueryRequest,
            request_from_dict,
            request_to_dict,
        )

        payload = request_to_dict(
            QueryRequest(column="c", query=_queries()["two_sided"])
        )
        payload["query"] = query
        with pytest.raises(SerializationError):
            request_from_dict(_through(payload, codec))

    def test_the_nested_form_is_refused(self, codec):
        """The payload this one replaced — the only place left that
        spells it out — and a whole frame of the version that had it."""
        from repro.net.protocol import (
            DICT_VERSION,
            QueryRequest,
            request_from_dict,
            request_to_dict,
        )

        query = _queries()["two_sided"]

        def nested(bound):
            return {
                "eb": ciphertext_dict(bound.eb),
                "ev": ciphertext_dict(bound.ev),
            }

        old_query = {
            "kind": "query", "version": 1,
            "low": nested(query.low), "high": nested(query.high),
            "low_inclusive": True, "high_inclusive": True, "pivots": [],
        }
        payload = request_to_dict(QueryRequest(column="c", query=query))
        assert payload["version"] == DICT_VERSION == 3
        for version, body in ((3, old_query), (2, old_query),
                              (2, payload["query"])):
            frame = dict(payload, version=version, query=body)
            with pytest.raises(SerializationError, match="version"):
                request_from_dict(_through(frame, codec))


class TestQueryFrames:
    """A query on a frame: a flags byte, ``length``, the bound count and
    the two runs — checked as its dict form is."""

    #: A ``query_request`` frame up to its ``QUERY`` field (column "c").
    HEAD = bytes((0xAE, 7, 5, 0, 1)) + b"c"

    @pytest.mark.parametrize("shape", sorted(_queries()))
    def test_round_trip(self, shape):
        from repro.net.protocol import QueryRequest, decode, encode

        request = QueryRequest(column="c", query=_queries()[shape])
        assert decode(encode(request)) == request

    def test_layout(self):
        from repro.core.query import EncryptedBound, EncryptedQuery
        from repro.crypto.ciphertext import BoundCiphertext, ValueCiphertext
        from repro.net.protocol import QueryRequest, decode, encode

        low = EncryptedBound(BoundCiphertext((5,)), ValueCiphertext((-3,), 2))
        request = QueryRequest(column="c", query=EncryptedQuery(
            low=low, high=None, low_inclusive=True, high_inclusive=False,
        ))
        # flags: low inclusive (1) | a low bound (4); length 1; 1 bound;
        # eb run of width 1: 5; ev run of width 1: -3, 2.
        frame = self.HEAD + bytes((5, 1, 1, 1, 5, 1, 0xFD, 2))
        assert encode(request) == frame
        assert decode(frame) == request
        # A session token sets flag bit 4 and follows the bound count
        # as 8 bytes, big-endian.
        tokened = QueryRequest(column="c", query=EncryptedQuery(
            low=low, high=None, low_inclusive=True, high_inclusive=False,
            token=0x0102030405060708,
        ))
        frame = self.HEAD + bytes((0x15, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8,
                                   1, 5, 1, 0xFD, 2))
        assert encode(tokened) == frame
        assert decode(frame) == tokened

    @pytest.mark.parametrize("query", [
        bytes((0x25, 1, 1, 1, 5, 1, 0xFD, 2)),   # an unknown flag bit
        bytes((0x15, 1, 1, 1, 5, 1, 0xFD, 2)),   # a truncated token
        bytes((0x15, 1, 1)) + bytes(8) + bytes((1, 5, 1, 0xFD, 2)),  # 0
        bytes((0x0D, 1, 1, 1, 5, 1, 0xFD, 2)),   # two sides, one bound
        bytes((5, 1, 1, 1, 5, 1, 0xFD, 0)),      # a zero denominator
        bytes((5, 1, 1, 1, 5, 1, 0xFD, 0xFE)),   # a negative one
        bytes((4, 0, 1, 1, 1, 2)),               # a bound of length 0
        bytes((5, 1, 1, 1, 5, 1, 0xFD)),         # a truncated ev run
        bytes((5, 1, 1, 0, 1, 0xFD, 2)),         # run width 0
        bytes((5, 1, 1, 1, 5, 1, 0xFD, 2, 0)),   # a trailing byte
        bytes((5, 1, 0xFF, 0xFF, 0xFF, 0x7F, 1, 5)),  # a huge count
        bytes((0, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x08, 1, 0)),  # no bound
        # of a huge width
    ])
    def test_malformed_frames_are_typed_errors(self, query):
        from repro.net.protocol import decode

        with pytest.raises(SerializationError):
            decode(self.HEAD + query)

    @pytest.mark.parametrize("query", [
        bytes((0, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x08, 1)),  # eb 2^31 wide
        bytes((0, 1, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x08)),  # ev 2^31 wide
    ])
    def test_an_empty_run_of_a_huge_width_allocates_nothing(self, query):
        import tracemalloc

        from repro.net.protocol import decode

        unbounded = decode(self.HEAD + bytes((0, 1, 0, 1, 1))).query
        assert unbounded.low is None and unbounded.high is None
        tracemalloc.start()
        try:
            with pytest.raises(SerializationError, match="empty run"):
                decode(self.HEAD + query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestQueryDoesNotEncode:
    def test_bounds_of_different_lengths(self):
        from repro.core.client import TrustedClient
        from repro.core.query import EncryptedQuery
        from repro.crypto.serialization import query_to_dict

        short = TrustedClient(seed=13).make_query(1, 5)
        long = TrustedClient(seed=13, key_length=6).make_query(1, 5)
        for query in (
            EncryptedQuery(low=short.low, high=long.high),
            EncryptedQuery(low=long.low, high=None, pivots=(short.high,)),
        ):
            with pytest.raises(SerializationError, match="length"):
                query_to_dict(query)

    def test_bounds_that_are_not_bounds(self):
        from repro.core.query import EncryptedQuery
        from repro.crypto.serialization import query_to_dict

        for query in (EncryptedQuery(low=7, high=None),
                      EncryptedQuery(low=None, high=None, pivots=5), 7):
            with pytest.raises(SerializationError):
                query_to_dict(query)
