"""``Encryptor.encrypt_values`` in arrays, pinned to the per-value path.

A column is encrypted by drawing per value and doing everything after
the draw as one exact digit product per chunk.  What must not move is
the bits: every sha256 below was computed at the parent commit (11bbf70,
whose ``encrypt_values`` built each pre-image in Python tuples and
multiplied them boxed), by running this file's own ``*_digest``
functions against that checkout — they use nothing the parent lacks.
The differentials rebuild the parent's per-value construction from
``linalg.vectors.orthogonal_vector`` and compare ciphertexts and the
generator's state after.
"""

import hashlib
import json
import random
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.core import client as client_module
from repro.core import session as session_module
from repro.core.client import TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.session import OutsourcedDatabase
from repro.crypto import scheme
from repro.crypto.ciphertext import RowBlock, ValueCiphertext
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor
from repro.errors import EncryptionError, IndexStateError, QueryError
from repro.linalg.intmat import mat_vec
from repro.linalg.limbs import PackedInts, carry_digits, to_objects
from repro.linalg.vectors import orthogonal_vector, scale
from repro.net.protocol import (
    CreateColumnRequest,
    encode,
    request_to_dict,
)
from repro.obs import Observability

CHUNK = 4096


def block_digest(digest, block, rng):
    """A block's integers and the generator's next draw."""
    digest.update(repr(to_objects(block.limbs).tolist()).encode())
    digest.update(repr(rng.random()).encode())


# -- (a) pins computed at the parent: the array path, not only the fallback ----------

#: l in {4, 6, 16} x 10 000 word-sized values (two chunk boundaries),
#: each followed by the generator's next draw.
WORD_SIZED_SHA256 = (
    "6a945b9198f56126f27bb49f3f5a38de1ccae92bc98b9d0e3ba16678f4b70f05"
)
#: A dataset whose second chunk alone holds a value past a word: an
#: array chunk, a boxed chunk, an array chunk, one unbroken stream.
MIXED_WIDTH_SHA256 = (
    "086a7f11747e3296aeec4aa3d95f360d4a772f24c9d110de919db86b05a1e735"
)
#: 2 000 rounds of ``encrypt_value`` / ``encrypt_bound`` / ``make_query``
#: (a pivot every seventh) at the benchmark's key, then the next draw.
SCALAR_STREAM_SHA256 = (
    "6077288746f6ef3f1ba887e149ac512e9fd5893f2e3aceedc145174c512216dd"
)
#: The audit events of 600 mixed operations on an audited session.
AUDIT_STREAM_SHA256 = (
    "cb8813dec67ac00d62336d15d8f474faeb9abce0e28aab82ac45b62be39e3ac5"
)


def word_sized_digest():
    digest = hashlib.sha256()
    draw = random.Random(41)
    values = [draw.randrange(-2 ** 40, 2 ** 40) for _ in range(10_000)]
    for length in (4, 6, 16):
        encryptor = Encryptor(generate_key(length, seed=800 + length), seed=6)
        block_digest(digest, encryptor.encrypt_values(values), encryptor._rng)
    return digest.hexdigest()


def mixed_width_values():
    draw = random.Random(42)
    values = [draw.randrange(10 ** 9) for _ in range(3 * CHUNK - 100)]
    values[CHUNK + 17] = 2 ** 70
    return values


def mixed_width_digest():
    digest = hashlib.sha256()
    client = TrustedClient(seed=11)
    rows, ids = client.encrypt_dataset(mixed_width_values())
    block_digest(digest, rows, client.encryptor._rng)
    digest.update(repr(list(ids)).encode())
    return digest.hexdigest()


def scalar_stream_digest():
    digest = hashlib.sha256()
    client = TrustedClient(seed=11)
    draw = random.Random(43)
    for step in range(2_000):
        value = draw.randrange(-10 ** 7, 10 ** 7)
        digest.update(repr((
            client.encryptor.encrypt_value(value),
            client.encryptor.encrypt_bound(value),
            client.encrypt_value(value),
            client.make_query(
                value, value + draw.randrange(1000),
                pivots=(value + 1,) if step % 7 == 0 else (),
            ),
        )).encode())
    digest.update(repr(client.encryptor._rng.random()).encode())
    return digest.hexdigest()


def audit_stream_digest():
    draw = random.Random(44)
    db = OutsourcedDatabase(
        draw.sample(range(10 ** 6), 5_000), seed=11, min_piece_size=1,
        auto_merge_threshold=32, obs=Observability(audit=True),
    )
    live = list(range(5_000))
    for _ in range(600):
        kind = draw.random()
        if kind < 0.5:
            low = draw.randrange(10 ** 6)
            db.query(low, low + draw.randrange(20_000))
        elif kind < 0.85 or not live:
            live.append(db.insert(draw.randrange(10 ** 6)))
        else:
            db.delete(live.pop(draw.randrange(len(live))))
    db.server.engine.check_invariants()
    return hashlib.sha256(db.obs.audit.to_jsonl().encode()).hexdigest()


class TestParentPins:
    def test_word_sized_datasets_across_chunk_boundaries(self):
        assert word_sized_digest() == WORD_SIZED_SHA256

    def test_a_wide_value_in_the_second_chunk_alone(self, monkeypatch):
        paths = []
        images = Encryptor._images

        def watched(self, values, *drawn):
            limbs = images(self, values, *drawn)
            paths.append("boxed" if limbs is None else "arrays")
            return limbs

        monkeypatch.setattr(Encryptor, "_images", watched)
        assert mixed_width_digest() == MIXED_WIDTH_SHA256
        assert paths == ["arrays", "boxed", "arrays"]

    def test_scalar_stream(self):
        assert scalar_stream_digest() == SCALAR_STREAM_SHA256

    def test_audit_stream_of_600_mixed_operations(self):
        assert audit_stream_digest() == AUDIT_STREAM_SHA256


# -- the per-value construction the parent ran, kept here as the reference ---------------


def reference_rows(key, rng, values, multiplier_bound=1 << 16,
                   noise_magnitude=1 << 16):
    """``[Ev(v)]`` as the parent built them: per value ``randrange`` for
    ``xi``, ``orthogonal_vector`` for the noise, tuples through ``M^-1``."""
    rows = []
    for value in values:
        xi = 2 * rng.randrange((multiplier_bound + 1) // 2) + 1
        noise = orthogonal_vector(key.u, rng, magnitude=noise_magnitude)
        rows.append(ValueCiphertext(mat_vec(
            key.matrix_inverse,
            key.assemble(xi * value, -xi, scale(noise, xi)),
        )))
    return rows


def assert_matches_reference(key, values, make_rng=lambda: random.Random(77),
                             expect=None, **parameters):
    """``encrypt_values`` and ``encrypt_value`` against the reference:
    same rows, same generator state after.  ``expect`` names the path
    every chunk must have taken."""
    reference_rng = make_rng()
    expected = reference_rows(key, reference_rng, values, **parameters)

    encryptor = Encryptor(key, rng=make_rng(), **parameters)
    paths = set()
    images = encryptor._images

    def watched(*args):
        limbs = images(*args)
        paths.add("boxed" if limbs is None else "arrays")
        return limbs

    encryptor._images = watched
    block = encryptor.encrypt_values(values)
    assert isinstance(block, RowBlock)
    assert list(block) == expected
    assert encryptor._rng.getstate() == reference_rng.getstate()
    if expect is not None:
        assert paths == {expect}

    one_by_one = Encryptor(key, rng=make_rng(), **parameters)
    assert [one_by_one.encrypt_value(v) for v in values] == expected
    assert one_by_one._rng.getstate() == reference_rng.getstate()
    return block


VALUES = [random.Random(5).randrange(-10 ** 9, 10 ** 9) for _ in range(700)]


class TestArraysMatchThePerValuePath:
    @pytest.mark.parametrize("length", (3, 4, 5, 8, 16, 32, 64))
    def test_every_key_length_of_figure_12(self, length):
        # Past l = 16 the scaled pre-image outgrows a word and is
        # carried in three digits: still arrays, still the same bits.
        key = generate_key(length, seed=900 + length)
        values = VALUES[:700 if length <= 16 else 150]
        assert_matches_reference(key, values, expect="arrays")

    @pytest.mark.parametrize("length", (4, 5, 16))
    def test_noise_magnitude_one_redraws_constantly(self, length):
        # w in {-1, 0, 1}^(l-2): a ninth of the l = 4 draws are zero
        # and are drawn again before the next value draws.
        key = generate_key(length, seed=900 + length)
        assert_matches_reference(
            key, VALUES, expect="arrays", noise_magnitude=1
        )

    @pytest.mark.parametrize("length", (4, 6))
    def test_noise_magnitude_zero_spends_every_attempt(self, length):
        # Every w is zero: 64 attempts each, then the fixed (u_j, -u_i).
        key = generate_key(length, seed=900 + length)
        values = VALUES[:60]
        block = assert_matches_reference(
            key, values, expect="arrays", noise_magnitude=0
        )
        encryptor = Encryptor(key, seed=1, noise_magnitude=0)
        xis, ws, spent = encryptor._draw(5)
        assert spent == [0, 1, 2, 3, 4] and not any(ws)
        pre_image, _ = encryptor.pre_image(block[0])
        noise = key.noise_projection(pre_image)
        assert any(noise) and sum(a * b for a, b in zip(key.u, noise)) == 0

    def test_the_spent_vector_skips_leading_zeros_of_u(self):
        assert scheme._fixed_orthogonal((0, 0, 5, 7)) == (5, 0, 0, 0)
        assert scheme._fixed_orthogonal((3, 0, 5)) == (0, -3, 0)
        assert scheme._fixed_orthogonal((4,)) == (0,)

    def test_multiplier_bound_one(self):
        key = generate_key(4, seed=904)
        block = assert_matches_reference(
            key, VALUES, expect="arrays", multiplier_bound=1
        )
        encryptor = Encryptor(key, seed=0)
        assert set(encryptor.decrypt_block(block)[2]) == {1}

    def test_wide_parameters(self):
        key = generate_key(5, seed=905)
        assert_matches_reference(
            key, VALUES, expect="arrays",
            multiplier_bound=1 << 30, noise_magnitude=1 << 30,
        )

    def test_a_subclass_is_called_as_written(self):
        calls = []

        class Recording(random.Random):
            def randrange(self, *args, **kwargs):
                calls.append(("randrange",) + args)
                return super().randrange(*args, **kwargs)

            def randint(self, a, b):
                calls.append(("randint", a, b))
                return super().randint(a, b)

        key = generate_key(4, seed=904)
        assert_matches_reference(
            key, VALUES[:50], make_rng=lambda: Recording(77), expect="boxed"
        )
        reference, bulk, single = (
            calls[i * len(calls) // 3:(i + 1) * len(calls) // 3]
            for i in range(3)
        )
        assert reference == bulk == single
        assert ("randrange", 1 << 15) in bulk
        assert ("randint", -(1 << 16), 1 << 16) in bulk

    def test_a_subclass_that_answers_out_of_range_is_taken_as_given(self):
        class Loud(random.Random):
            def randrange(self, *args, **kwargs):
                return 10 ** 30

        key = generate_key(4, seed=904)
        assert_matches_reference(
            key, VALUES[:20], make_rng=lambda: Loud(3), expect="boxed"
        )

    def test_empty_and_single(self):
        key = generate_key(4, seed=904)
        encryptor = Encryptor(key, seed=3)
        state = encryptor._rng.getstate()
        empty = encryptor.encrypt_values([])
        assert (len(empty), empty.length) == (0, 4)
        assert encryptor._rng.getstate() == state
        assert_matches_reference(key, [12345])


# -- (b) the draws against random.Random, word for word ---------------------------------


class TestDraws:
    @pytest.mark.parametrize(
        "stop", (1, 2, 1 << 15, (1 << 16) - 1, 1 << 16, (1 << 30) + 1)
    )
    def test_the_multiplier_is_randrange(self, stop):
        # half = stop: xi = 2 * randrange(stop) + 1.
        key = generate_key(3, seed=903)  # l = 3: xi is all that is drawn
        encryptor = Encryptor(key, seed=stop, multiplier_bound=2 * stop - 1)
        reference = random.Random(stop)
        xis, _, _ = encryptor._draw(100_000)
        assert xis == [2 * reference.randrange(stop) + 1 for _ in xis]
        assert encryptor._rng.getstate() == reference.getstate()
        assert min(xis) >= 1 and max(xis) <= 2 * stop - 1

    @pytest.mark.parametrize(
        "magnitude", (1, (1 << 15) - 1, 1 << 15, 1 << 16, 1 << 29)
    )
    def test_the_noise_is_randint(self, magnitude):
        # Spans 3, 2^16 - 1, 2^16 + 1, 2^17 + 1, 2^30 + 1.
        key = generate_key(6, seed=906)
        encryptor = Encryptor(key, seed=9, noise_magnitude=magnitude)
        reference = random.Random(9)
        xis, ws, spent = encryptor._draw(25_000)
        expected_xis, expected_ws = [], []
        for _ in xis:
            expected_xis.append(2 * reference.randrange(1 << 15) + 1)
            while True:
                w = [reference.randint(-magnitude, magnitude) for _ in key.u]
                if any(orthogonal_projection(key.u, w)):
                    break
            expected_ws += w
        assert (xis, ws, spent) == (expected_xis, expected_ws, [])
        assert encryptor._rng.getstate() == reference.getstate()

    def test_a_collinear_draw_is_redrawn(self):
        # u = (1, 1), magnitude 1: (0, 0), (1, 1) and (-1, -1) project
        # to zero — a third of all draws.
        key = generate_key(4, seed=904)
        key = replace(key, u=(1, 1), ambiguity_row=tuple(
            a + b for a, b in zip(*(key.matrix[p] for p in key.noise_positions))
        ))
        encryptor = Encryptor(key, seed=2, noise_magnitude=1)
        _, ws, spent = encryptor._draw(3_000)
        pairs = list(zip(ws[0::2], ws[1::2]))
        assert not spent and all(a != b for a, b in pairs)
        assert_matches_reference(key, VALUES[:300], noise_magnitude=1)


def orthogonal_projection(u, w):
    uu = sum(x * x for x in u)
    uw = sum(x * y for x, y in zip(u, w))
    return [uu * w_i - uw * u_i for w_i, u_i in zip(w, u)]


# -- head-room: proven from bit-lengths, boxed one bit past ------------------------------


class TestHeadRoom:
    def test_values_up_to_a_word_go_through_arrays(self):
        key = generate_key(4, seed=904)
        edge = [2 ** 63 - 1, -2 ** 63, 0, 2 ** 62, -2 ** 62 - 1] * 20
        assert_matches_reference(key, edge, expect="arrays")

    def test_a_value_one_bit_past_a_word_is_boxed(self):
        key = generate_key(4, seed=904)
        for wide in (2 ** 63, -2 ** 63 - 1):
            assert_matches_reference(key, [1, wide, 3] * 20, expect="boxed")

    def test_the_scaled_pre_image_at_the_edge_of_a_word(self, monkeypatch):
        # bits(multiplier_bound) + bits(widest) == 63 multiplies in
        # place; one bit more is carried in three digits.
        key = generate_key(4, seed=904)
        encryptor = Encryptor(key, seed=0)
        assert encryptor._multiplier_bound.bit_length() == 17
        assert encryptor._noise_bound.bit_length() < 46
        carried = []
        monkeypatch.setattr(
            scheme, "carry_digits",
            lambda sums: carried.append(len(sums)) or carry_digits(sums),
        )
        for widest_bits, digits in ((46, []), (47, [2])):
            values = [2 ** widest_bits - 1, -(2 ** widest_bits - 1)] * 50
            del carried[:]
            Encryptor(key, seed=1).encrypt_values(values)
            assert carried == digits
            assert_matches_reference(key, values, expect="arrays")

    def test_the_multiplier_at_the_edge_of_a_digit_factor(self):
        key = generate_key(4, seed=904)
        assert_matches_reference(
            key, VALUES[:200], expect="arrays",
            multiplier_bound=(1 << 31) - 1,
        )
        assert_matches_reference(
            key, VALUES[:200], expect="boxed", multiplier_bound=1 << 31
        )

    def test_the_noise_at_the_edge_of_a_word(self):
        key = generate_key(4, seed=904)
        per_unit = Encryptor(key, seed=0, noise_magnitude=1)._noise_bound
        inside = ((1 << 63) - 1) // per_unit
        assert Encryptor(key, noise_magnitude=inside)._noise_bound < 1 << 63
        assert_matches_reference(
            key, VALUES[:200], expect="arrays", noise_magnitude=inside
        )
        assert_matches_reference(
            key, VALUES[:200], expect="boxed", noise_magnitude=inside + 1
        )

    def test_a_key_past_the_digit_product_is_boxed(self):
        key = generate_key(4, seed=904)
        encryptor = Encryptor(key, seed=4)
        encryptor._inverse_operand = None
        reference = Encryptor(key, seed=4)
        assert (
            encryptor.encrypt_values(VALUES) == reference.encrypt_values(VALUES)
        )

    def test_a_huge_u_is_boxed_not_overflowed(self):
        key = generate_key(4, seed=904, u_magnitude=1 << 70)
        assert_matches_reference(key, VALUES[:100], expect="boxed")
        assert_matches_reference(
            key, VALUES[:100], expect="boxed", noise_magnitude=0
        )


# -- the owner's inputs are checked, not coerced -------------------------------------------


class TestInputsAreIntegers:
    def test_a_float_column_is_refused(self):
        with pytest.raises(EncryptionError):
            OutsourcedDatabase([1.5, 2.9, 7])
        with pytest.raises(EncryptionError):
            TrustedClient(seed=1).encrypt_dataset([1, 2.0, 3])
        with pytest.raises(EncryptionError):
            TrustedClient(seed=1, ambiguity=True).encrypt_dataset([1, "2"])

    @pytest.mark.parametrize("bad", (1.5, 2.0, "7", None, 3 + 0j))
    def test_every_entry_point(self, bad):
        client = TrustedClient(seed=1)
        ambiguous = TrustedClient(seed=1, ambiguity=True, fake_domain=(0, 9))
        state = client.encryptor._rng.getstate()
        for refused in (
            lambda: client.encryptor.encrypt_value(bad),
            lambda: client.encryptor.encrypt_values([1, bad]),
            lambda: client.encryptor.encrypt_bound(bad),
            lambda: client.encrypt_value(bad),
            lambda: ambiguous.encrypt_value(bad),
            lambda: ambiguous.encryptor.encrypt_values_ambiguous([bad]),
        ):
            with pytest.raises(EncryptionError):
                refused()
        if bad is not None:  # None is "no bound"
            with pytest.raises(QueryError):
                client.make_query(bad, 5)
            with pytest.raises(QueryError):
                client.make_query(1, bad)
        with pytest.raises(QueryError):
            client.make_query(1, 5, pivots=(bad,))
        # A refusal draws nothing.
        assert client.encryptor._rng.getstate() == state

    def test_the_session_refuses_too(self):
        db = OutsourcedDatabase([1, 2, 7], seed=3)
        with pytest.raises(QueryError):
            db.query(1.2, 2.95)
        with pytest.raises(EncryptionError):
            db.insert(2.5)
        assert len(db) == 3
        assert sorted(db.query(1, 2).values.tolist()) == [1, 2]

    def test_python_and_numpy_integers_pass_unchanged(self):
        plain = [5, -3, 2 ** 40, 0]
        expected = TrustedClient(seed=2).encrypt_dataset(plain)[0]
        for same in (
            tuple(plain),
            np.array(plain, dtype=np.int64),
            [np.int64(v) for v in plain],
            iter(plain),
        ):
            assert TrustedClient(seed=2).encrypt_dataset(same)[0] == expected
        assert (
            TrustedClient(seed=2).encrypt_dataset([True, 2])[0]
            == TrustedClient(seed=2).encrypt_dataset([1, 2])[0]
        )
        client, other = TrustedClient(seed=2), TrustedClient(seed=2)
        assert (
            client.make_query(np.int32(4), np.int64(9))
            == other.make_query(4, 9)
        )
        db = OutsourcedDatabase(np.arange(50), seed=3)
        assert db.insert(np.int64(7)) == 50
        assert sorted(db.query(7, 7).values.tolist()) == [7, 7]

    def test_a_checked_list_is_not_copied(self):
        values = [1, 2, 3]
        assert scheme.as_integers(values) is values
        assert scheme.as_integers((1, 2)) == [1, 2]

    @pytest.mark.parametrize("ambiguity", (False, True))
    def test_an_upload_checks_its_column_once(self, monkeypatch, ambiguity):
        # Every public entry point checks (the refusals above); the
        # session's upload checks once and hands the checked list down.
        scans = []
        checked = scheme.as_integers

        def counted(values):
            scans.append(len(values))
            return checked(values)

        for module in (scheme, client_module, session_module):
            monkeypatch.setattr(module, "as_integers", counted)
        values = random.Random(6).sample(range(10 ** 6), 700)
        db = OutsourcedDatabase(values, seed=3, ambiguity=ambiguity)
        assert scans == [700]
        assert sorted(db.query(0, 10 ** 6).values.tolist()) == sorted(values)
        del scans[:]
        TrustedClient(seed=3, ambiguity=ambiguity).encrypt_dataset(values)
        Encryptor(generate_key(4, seed=1), seed=1).encrypt_values(values)
        assert scans == [700, 700]

    def test_parameters_are_validated_at_construction(self):
        key = generate_key(4, seed=1)
        with pytest.raises(EncryptionError):
            Encryptor(key, noise_magnitude=-3)
        with pytest.raises(EncryptionError):
            Encryptor(key, multiplier_bound=0)
        Encryptor(key, noise_magnitude=0, multiplier_bound=1)


# -- an upload's ids are one run from encrypt_dataset to the frame -------------------------


class TestUploadIds:
    def test_encrypt_dataset_hands_back_one_run(self):
        rows, ids = TrustedClient(seed=1).encrypt_dataset(range(100, 300))
        assert type(ids) is PackedInts
        assert ids == list(range(200)) and len(ids) == len(rows)
        assert [int(i) for i in ids] == list(range(200))
        array = np.asarray(ids, dtype=np.int64)
        assert array.dtype == np.int64 and array.tolist() == list(range(200))
        _, doubled = TrustedClient(seed=1, ambiguity=True).encrypt_dataset(
            range(100, 120)
        )
        assert doubled == list(range(40))

    @pytest.mark.parametrize("codec", ("binary", "json"))
    @pytest.mark.parametrize("count", (3, 64, 5_000))
    def test_the_create_frame_is_the_boxed_one(self, codec, count):
        rows, ids = TrustedClient(seed=1).encrypt_dataset(range(count))
        assert type(ids) is PackedInts

        def frame(row_ids):
            request = CreateColumnRequest(
                column="values", rows=rows, row_ids=row_ids, config={}
            )
            if codec == "json":  # the dict form, as JSON writes it
                return json.dumps(request_to_dict(request), sort_keys=True)
            return encode(request)

        assert frame(ids) == frame(tuple(range(count)))

    @pytest.mark.parametrize("seed", (3, 11))
    def test_the_width_the_owner_measured_is_the_boxed_rows_width(self, seed):
        # The frame codec takes an encrypted block's numerator width from
        # the block instead of measuring it again: same bytes either way.
        rows, ids = TrustedClient(seed=seed).encrypt_dataset(range(-900, 4000))
        boxed = list(rows)
        assert rows.numerator_bits == max(
            x.bit_length() for row in boxed for x in row.numerators
        )

        def frame(block):
            return encode(CreateColumnRequest(
                column="values", rows=block, row_ids=ids, config={}
            ))

        assert frame(rows) == frame(boxed)
        assert rows.take(slice(0, 10)).numerator_bits is None

    def test_a_column_takes_the_run_and_stays_strict(self):
        rows, ids = TrustedClient(seed=1).encrypt_dataset(range(300))
        column = EncryptedColumn(rows, ids)
        assert column.row_ids.tolist() == list(range(300))
        shuffled = list(range(300))
        random.Random(1).shuffle(shuffled)
        assert EncryptedColumn(rows, shuffled).row_ids.tolist() == shuffled
        for duplicated in (
            [0] + list(range(299)),          # ascending but for one repeat
            shuffled[:-1] + shuffled[:1],    # unordered with a repeat
            [7] * 300,
        ):
            with pytest.raises(IndexStateError):
                EncryptedColumn(rows, duplicated)


# -- by count, so it cannot flake: a value costs no Python frame ---------------------------


def test_encrypting_a_value_makes_at_most_four_python_calls():
    """CI's gate on the array path (30 Python-level calls per value at
    the parent): a pre-image boxed again — a per-value helper, a
    generator, a comprehension per row — shows up here as a count, not
    as a slower benchmark."""
    client = TrustedClient(seed=11)  # the e2e benchmark's key
    values = random.Random(1).sample(range(10 ** 7), CHUNK)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        block = client.encryptor.encrypt_values(values)
    finally:
        sys.setprofile(None)
    assert len(block) == CHUNK
    # A few dozen per chunk in fact; one per value would be 4 096.
    assert calls <= 4 * CHUNK, calls
