"""``Encryptor.encrypt_values`` in arrays, pinned to a per-value reference.

A column is encrypted by drawing a chunk's ``xi`` and ``w`` from one
SHAKE-256 call and doing everything after the draw as one exact digit
product per chunk.  The differentials rebuild each chunk's draws here,
from ``hashlib`` and the specification alone (:class:`ReferenceStream`,
:func:`reference_draw`), and the rows from them the way the per-value
construction always built them: the noise by ``orthogonal_projection``,
tuples through ``M^-1``.  Then they compare ciphertexts and the
sequential stream's next word.

The first three sha256 pins below were computed by this file's own
``*_digest`` functions when the owner's draws moved from the caller's
Mersenne Twister to the keyed stream, which moved every ciphertext
(CHANGES.md gives the values before and after).  The audit pin did not
move: its events hold positions and counts, which the draws do not
change.
"""

import hashlib
import json
import random
import struct
import sys
from dataclasses import replace
from itertools import chain

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
from repro.linalg.vectors import scale
from repro.net.protocol import (
    CreateColumnRequest,
    encode,
    request_to_dict,
)
from repro.obs import Observability

CHUNK = 4096


def block_digest(digest, block, encryptor):
    """A block's integers and the stream's next word."""
    digest.update(repr(to_objects(block.limbs).tolist()).encode())
    digest.update(repr(next(encryptor._words)).encode())


# -- (a) pins: the array path, not only the fallback -----------------------------------

#: l in {4, 6, 16} x 10 000 word-sized values (two chunk boundaries),
#: each followed by the stream's next word.
WORD_SIZED_SHA256 = (
    "fecf9fce61982bca502d295f98c2b026bd21761b955935e3db5f96e82ce383df"
)
#: A dataset whose second chunk alone holds a value past a word: an
#: array chunk, a boxed chunk, an array chunk, one unbroken stream.
MIXED_WIDTH_SHA256 = (
    "cfb78906a44c29769c32878de1c2976f1a14c4039bb3826d7fef6b5fae57c9da"
)
#: 2 000 rounds of ``encrypt_value`` / ``encrypt_bound`` / ``make_query``
#: (a pivot every seventh) at the benchmark's key, then the next word.
#: Re-pinned once when ``make_query`` came to draw its bounds from the
#: encryptor's pools: the queries' ciphertexts moved, and so did every
#: later word of the sequential stream, which queries no longer read.
#: Re-pinned again when a query came to carry its client's session
#: token: only the queries' repr moved (``token=...``); with it left
#: out, the digest is the one before, 3e39277e...a1c5bf91c.
SCALAR_STREAM_SHA256 = (
    "40219e8e8a8de55f7afc5ef6601000cfb4a5a62dc35969fe010ca408e96db7c8"
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
        block_digest(digest, encryptor.encrypt_values(values), encryptor)
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
    block_digest(digest, rows, client.encryptor)
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
    digest.update(repr(next(client.encryptor._words)).encode())
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


class TestPins:
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


# -- the draws and the per-value construction, kept here as the reference -------------


def shake_words(key, label, size):
    """``size`` little-endian 64-bit words of SHAKE-256(key ‖ label)."""
    digest = hashlib.shake_256(key + label).digest(8 * size)
    return [
        int.from_bytes(digest[at:at + 8], "little")
        for at in range(0, len(digest), 8)
    ]


class ReferenceStream:
    """An encryptor's words as the scheme specifies them: its key is
    ``getrandbits(256)`` of ``random.Random(seed)``, little-endian; the
    sequential stream is SHAKE-256 of key ‖ "stream" ‖ counter, 256
    words a counter; block ``b``'s chunk ``c`` is SHAKE-256 of key ‖
    "block" ‖ b ‖ c.  ``rig`` may rewrite any call's words, as a test
    rewrites the scheme's."""

    def __init__(self, seed, rig=None):
        self.key = random.Random(seed).getrandbits(256).to_bytes(32, "little")
        self.rig = rig or (lambda label, words: words)
        self.counter = 0
        self.buffered = iter(())

    def words(self, label, size):
        return self.rig(label, shake_words(self.key, label, size))

    def block(self, block, chunk, size):
        return self.words(b"block" + struct.pack("<QQ", block, chunk), size)

    def __iter__(self):
        return self

    def __next__(self):
        for word in self.buffered:
            return word
        label = b"stream" + struct.pack("<Q", self.counter)
        self.counter += 1
        self.buffered = iter(self.words(label, 256))
        return next(self.buffered)


def reference_below(words, stop):
    """Uniform below ``stop``: the next word kept below the largest
    multiple of ``stop`` under 2^64, reduced modulo ``stop``."""
    multiple = 2 ** 64 - 2 ** 64 % stop
    for word in words:
        if word < multiple:
            return word % stop
    raise AssertionError("the words ran out")


def reference_draw(words, key, multiplier_bound, noise_magnitude):
    """One value's ``(xi, w)`` off ``words``; ``w`` None where 64 draws
    were all collinear with ``u`` (and at l = 3, where none is made)."""
    xi = 2 * reference_below(words, (multiplier_bound + 1) // 2) + 1
    if len(key.u) > 1:
        for _ in range(64):
            w = [
                reference_below(words, 2 * noise_magnitude + 1)
                - noise_magnitude
                for _ in key.u
            ]
            if any(orthogonal_projection(key.u, w)):
                return xi, w
    return xi, None


def orthogonal_projection(u, w):
    uu = sum(x * x for x in u)
    uw = sum(x * y for x, y in zip(u, w))
    return [uu * w_i - uw * u_i for w_i, u_i in zip(w, u)]


def reference_rows(key, stream, values, block=None, multiplier_bound=1 << 16,
                   noise_magnitude=1 << 16):
    """``[Ev(v)]`` from the reference draws: each chunk's from block
    ``block``, one value after another off its ``1 + (l - 2)`` words
    and then the sequential stream — or, with ``block`` None, each value
    off the sequential stream alone, as ``encrypt_value`` draws.  The
    rows as the per-value construction built them."""
    draws = []
    width = len(key.u) if len(key.u) > 1 else 0
    for chunk, start in enumerate(range(0, len(values), CHUNK)):
        size = len(values[start:start + CHUNK])
        if block is None:
            rows = [stream] * size
        else:
            words = stream.block(block, chunk, size * (1 + width))
            rows = [
                chain(words[at:at + 1 + width], stream)
                for at in range(0, len(words), 1 + width)
            ]
        draws += [
            reference_draw(row, key, multiplier_bound, noise_magnitude)
            for row in rows
        ]
    rows = []
    for value, (xi, w) in zip(values, draws):
        if w is None:
            noise = scheme._fixed_orthogonal(key.u)
        else:
            noise = orthogonal_projection(key.u, w)
        rows.append(ValueCiphertext(mat_vec(
            key.matrix_inverse,
            key.assemble(xi * value, -xi, scale(noise, xi)),
        )))
    return rows


def rigged(monkeypatch, rig):
    """The scheme's words rewritten by ``rig``, as the reference's are."""
    original = scheme._shake_words

    def rewritten(key, label, size):
        words = rig(label, original(key, label, size).tolist())
        return np.array(words, dtype=np.uint64)

    monkeypatch.setattr(scheme, "_shake_words", rewritten)


def assert_matches_reference(key, values, expect=None, rig=None,
                             **parameters):
    """``encrypt_values`` and ``encrypt_value`` against the reference:
    same rows, same next word of the stream.  ``expect`` names the path
    every chunk must have taken."""
    stream = ReferenceStream(77, rig)
    expected = reference_rows(key, stream, values, 1, **parameters)

    encryptor = Encryptor(key, seed=77, **parameters)
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
    assert next(encryptor._words) == next(stream)
    if expect is not None:
        assert paths == {expect}

    stream = ReferenceStream(77, rig)
    one_by_one = Encryptor(key, seed=77, **parameters)
    assert [one_by_one.encrypt_value(v) for v in values] == (
        reference_rows(key, stream, values, **parameters)
    )
    assert next(one_by_one._words) == next(stream)
    return block


VALUES = [random.Random(5).randrange(-10 ** 9, 10 ** 9) for _ in range(700)]


def u_of_ones(key):
    """``key`` with ``u = (1, 1)``: at magnitude 1, (0, 0), (1, 1) and
    (-1, -1) project to zero — a third of all draws."""
    return replace(key, u=(1, 1), ambiguity_row=tuple(
        a + b for a, b in zip(*(key.matrix[p] for p in key.noise_positions))
    ))


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
        _, ws, spent = encryptor._block_draws(1, 0, 5)
        assert spent.all() and not ws.any()
        assert encryptor._draw(encryptor._words)[1] is None
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

    def test_the_widest_parameters_are_one_word_a_draw(self):
        key = generate_key(4, seed=904)
        assert_matches_reference(
            key, VALUES[:100], expect="boxed",
            multiplier_bound=1 << 63, noise_magnitude=(1 << 63) - 1,
        )

    def test_empty_and_single(self):
        key = generate_key(4, seed=904)
        encryptor, twin = Encryptor(key, seed=3), Encryptor(key, seed=3)
        empty = encryptor.encrypt_values([])
        assert (len(empty), empty.length) == (0, 4)
        assert next(encryptor._words) == next(twin._words)
        assert_matches_reference(key, [12345])


@pytest.mark.parametrize("length", (3, 4, 5, 8))
@pytest.mark.parametrize("magnitude", (0, 1, 1 << 16, (1 << 31) - 1))
@pytest.mark.parametrize(
    "bound", (1, 2, 3, 1 << 16, (1 << 16) + 1, (1 << 31) - 1, 1 << 32)
)
def test_every_block_draws_what_the_reference_draws(bound, magnitude, length):
    """The draws themselves, per chunk, at the edges of every span: one
    word a span, spans of 1, spans just past a power of two (the most
    words past a top), and w redrawn or spent."""
    key = generate_key(length, seed=900 + length)
    sizes = (1, 700) if magnitude or length == 3 else (1, 20)
    encryptor = Encryptor(
        key, seed=7, multiplier_bound=bound, noise_magnitude=magnitude
    )
    stream = ReferenceStream(7)
    width = len(key.u) if length > 3 else 0
    for chunk, size in enumerate(sizes):
        xis, ws, spent = encryptor._block_draws(3, chunk, size)
        words = stream.block(3, chunk, size * (1 + width))
        expected = [
            reference_draw(
                chain(words[at:at + 1 + width], stream), key, bound, magnitude
            )
            for at in range(0, len(words), 1 + width)
        ]
        assert xis.tolist() == [xi for xi, _ in expected]
        assert spent.tolist() == [w is None for _, w in expected]
        kept = [w for w, is_spent in zip(ws.tolist(), spent) if not is_spent]
        assert kept == [w for _, w in expected if w is not None]
    assert next(encryptor._words) == next(stream)


def reference_block(stream, key, block, sizes, multiplier_bound,
                    noise_magnitude):
    """The reference ``(xi, w)`` of block ``block``'s chunks of
    ``sizes``, chunk after chunk, each value off its block words and
    then the sequential stream."""
    width = len(key.u) if len(key.u) > 1 else 0
    for chunk, size in enumerate(sizes):
        words = stream.block(block, chunk, size * (1 + width))
        yield [
            reference_draw(
                chain(words[at:at + 1 + width], stream),
                key, multiplier_bound, noise_magnitude,
            )
            for at in range(0, len(words), 1 + width)
        ]


def chunk_sizes(count):
    return [min(CHUNK, count - start) for start in range(0, count, CHUNK)]


class TestDraws:
    """Long runs of block draws, chunk after chunk, at spans around a
    power of two: each equals the reference and stays in its range."""

    @pytest.mark.parametrize(
        "stop", (1, 2, 1 << 15, (1 << 16) - 1, 1 << 16, (1 << 30) + 1)
    )
    def test_the_multiplier_is_the_reference_draw(self, stop):
        # multiplier_bound = 2 stop - 1: xi = 2 * below(stop) + 1.
        key = generate_key(3, seed=903)  # l = 3: xi is all that is drawn
        bound = 2 * stop - 1
        encryptor = Encryptor(key, seed=stop, multiplier_bound=bound)
        stream = ReferenceStream(stop)
        sizes = chunk_sizes(100_000)
        xis = []
        for chunk, expected in enumerate(
            reference_block(stream, key, 5, sizes, bound, 0)
        ):
            drawn, _, spent = encryptor._block_draws(5, chunk, sizes[chunk])
            assert drawn.tolist() == [xi for xi, _ in expected]
            assert spent.all()
            xis += drawn.tolist()
        assert next(encryptor._words) == next(stream)
        assert len(xis) == 100_000
        assert min(xis) >= 1 and max(xis) <= bound
        assert all(xi % 2 for xi in xis)
        if stop <= 2:
            assert set(xis) == set(range(1, bound + 1, 2))

    @pytest.mark.parametrize(
        "magnitude", (1, (1 << 15) - 1, 1 << 15, 1 << 16, 1 << 29)
    )
    def test_the_noise_is_the_reference_draw(self, magnitude):
        # Spans 3, 2^16 - 1, 2^16 + 1, 2^17 + 1, 2^30 + 1.
        key = generate_key(6, seed=906)
        encryptor = Encryptor(key, seed=9, noise_magnitude=magnitude)
        stream = ReferenceStream(9)
        sizes = chunk_sizes(25_000)
        ws = []
        for chunk, expected in enumerate(
            reference_block(stream, key, 5, sizes, 1 << 16, magnitude)
        ):
            xis, drawn, spent = encryptor._block_draws(5, chunk, sizes[chunk])
            assert xis.tolist() == [xi for xi, _ in expected]
            assert not spent.any()
            assert drawn.tolist() == [w for _, w in expected]
            ws += drawn.ravel().tolist()
        assert next(encryptor._words) == next(stream)
        assert len(ws) == 25_000 * len(key.u)
        assert min(ws) >= -magnitude and max(ws) <= magnitude
        if magnitude == 1:
            assert set(ws) == {-1, 0, 1}


# -- (b) the rare branches, forced through rigged words ------------------------------------


class TestRiggedWords:
    def test_a_word_past_its_top_is_passed_over(self, monkeypatch):
        # Spans 2^15 + 1 and 2^17 + 1: 2^64 - 1 is past both tops.
        # Every seventh word of every call, the stream's included.
        def rig(label, words):
            return [
                2 ** 64 - 1 if at % 7 == 3 else word
                for at, word in enumerate(words)
            ]

        rigged(monkeypatch, rig)
        key = generate_key(4, seed=904)
        block = assert_matches_reference(
            key, VALUES, expect="arrays", rig=rig,
            multiplier_bound=(1 << 16) + 1,
        )
        encryptor = Encryptor(key, seed=0)
        is_real, values, _ = encryptor.decrypt_block(block)
        assert all(is_real) and values == VALUES

    def test_a_value_spends_its_attempts_on_collinear_words(
        self, monkeypatch
    ):
        # Every stream word, and the w words of rows 0 and 5, draw
        # w = 0; the stream's words count up, so its position shows.
        magnitude = 1 << 16
        span = 2 * magnitude + 1

        def rig(label, words):
            if label.startswith(b"stream"):
                (counter,) = struct.unpack("<Q", label[6:])
                first = 256 * counter
                return [magnitude + span * (first + at) for at in range(256)]
            for row in (0, 5):
                words[3 * row + 1:3 * row + 3] = [magnitude, magnitude]
            return words

        rigged(monkeypatch, rig)
        key = generate_key(4, seed=904)
        encryptor = Encryptor(key, seed=77)
        _, _, spent = encryptor._block_draws(1, 0, 10)
        assert np.flatnonzero(spent).tolist() == [0, 5]
        # The block's words were each row's first attempt: 63 more of
        # two words for each.
        assert next(encryptor._words) == magnitude + span * 2 * 63 * 2
        assert_matches_reference(key, VALUES[:10], expect="arrays", rig=rig)

    def test_a_collinear_draw_is_redrawn(self):
        key = u_of_ones(generate_key(4, seed=904))
        encryptor = Encryptor(key, seed=2, noise_magnitude=1)
        _, ws, spent = encryptor._block_draws(1, 0, 3_000)
        assert not spent.any() and (ws[:, 0] != ws[:, 1]).all()
        assert_matches_reference(key, VALUES[:300], noise_magnitude=1)

    def test_a_huge_u_only_redraws_zero(self):
        # |u / gcd(u)| past the magnitude: no nonzero w is a multiple.
        key = generate_key(4, seed=904, u_magnitude=1 << 70)
        encryptor = Encryptor(key, seed=2, noise_magnitude=1)
        _, ws, spent = encryptor._block_draws(1, 0, 3_000)
        assert not spent.any() and ws.any(axis=1).all()
        assert_matches_reference(key, VALUES[:300], noise_magnitude=1)


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
        encryptor._inverse.digits = None  # past the digit product's head-room
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
        client, twin = TrustedClient(seed=1), TrustedClient(seed=1)
        ambiguous = TrustedClient(seed=1, ambiguity=True, fake_domain=(0, 9))
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
        assert next(client.encryptor._words) == next(twin.encryptor._words)

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
        # Past these, a draw would be more than one 64-bit word.
        with pytest.raises(EncryptionError):
            Encryptor(key, multiplier_bound=(1 << 63) + 1)
        with pytest.raises(EncryptionError):
            Encryptor(key, noise_magnitude=1 << 63)
        Encryptor(key, noise_magnitude=0, multiplier_bound=1)
        Encryptor(key, noise_magnitude=(1 << 63) - 1, multiplier_bound=1 << 63)


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
