"""The owner's draws read off the generator's word stream, pinned to the loop.

A block of values draws its ``(xi, w)`` through
:class:`repro.crypto.draws.DrawStream` — numpy's MT19937 words, parsed in
arrays — where every draw is one word of a plain ``random.Random`` and
the block repays opening the stream.  :meth:`Encryptor._draw` reads the
same words one ``getrandbits`` at a time and is the reference: every
case below compares the draws chunk by chunk, the generator's state
afterwards and its next ``random()``.  The ciphertexts these draws feed
are pinned separately (``tests/test_encrypt_arrays.py``,
``tests/test_rowblock.py``), by sha256s computed before the stream
existed.
"""

import random
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.core.client import TrustedClient
from repro.crypto import scheme
from repro.crypto.draws import DrawStream, _untemper
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor

CHUNK = scheme._ENCRYPT_CHUNK
BREAK_EVEN = scheme._STREAM_MIN_VALUES
BLOCKS = (
    1, BREAK_EVEN - 1, BREAK_EVEN, BREAK_EVEN + 1, CHUNK, CHUNK + 1, 10_000
)


def mt_state(rng):
    """The 624 words and the position of ``rng``'s MT19937 state."""
    state = rng.getstate()[1]
    return list(state[:-1]), state[-1]


def numpy_twin(rng):
    """numpy's MT19937 set to ``rng``'s state."""
    key, position = mt_state(rng)
    bits = np.random.MT19937(0)
    bits.state = {
        "bit_generator": "MT19937", "state": {"key": key, "pos": position},
    }
    return bits


def one_word_before_a_twist(rng):
    """``rng`` with ``gauss_next`` set and one word left in its state, so
    a block's words straddle the twist to the next."""
    rng.gauss(0.0, 1.0)
    assert rng.getstate()[2] is not None
    for _ in range((623 - mt_state(rng)[1]) % 624):
        rng.getrandbits(32)
    assert mt_state(rng)[1] == 623


def chunk_sizes(count):
    return [len(chunk) for chunk in scheme._chunks([0] * count)]


def assert_block_matches_the_loop(key, count, **parameters):
    """The draws of a ``count``-value block against ``_draw``, chunk by
    chunk; then the generators.  Returns whether the stream opened."""
    streamed = Encryptor(key, seed=7, **parameters)
    looped = Encryptor(key, seed=7, **parameters)
    for encryptor in (streamed, looped):
        one_word_before_a_twist(encryptor._rng)
    opened = []
    original = scheme.DrawStream

    def recording(*args):
        opened.append(True)
        return original(*args)

    scheme.DrawStream = recording
    try:
        drawn = list(streamed._chunk_draws(chunk_sizes(count)))
    finally:
        scheme.DrawStream = original
    for (xis, ws, spent), size in zip(drawn, chunk_sizes(count)):
        expected = looped._draw(size)
        assert (list(map(int, xis)), list(map(int, ws)), spent) == expected
    assert streamed._rng.getstate() == looped._rng.getstate()
    assert streamed._rng.random() == looped._rng.random()
    return bool(opened)


# -- the words ------------------------------------------------------------------------


class TestTheWords:
    def test_numpy_reads_the_words_cpython_draws(self):
        rng = random.Random(2024)
        for _ in range(1001):
            rng.getrandbits(17)
        words = numpy_twin(rng).random_raw(5_000).tolist()
        assert words == [rng.getrandbits(32) for _ in range(5_000)]

    @pytest.mark.parametrize("drawn", (1, 623, 624, 625, 1_247, 1_248, 5_000))
    def test_the_state_is_the_untempered_words(self, drawn):
        # Back the other way: after any number of words CPython's state
        # is the current 624 words of the stream, untempered.
        # Inside the state it started from, that state is unchanged.
        rng = random.Random(99)
        rng.getrandbits(32)
        opening, start = mt_state(rng)
        words = numpy_twin(rng).random_raw(drawn + 624).astype(np.uint32)
        for _ in range(drawn):
            rng.getrandbits(32)
        key, position = mt_state(rng)
        at = start + drawn
        if at <= 624:
            assert (key, position) == (opening, at)
            return
        begin = 624 * ((at - 1) // 624)
        assert position == at - begin
        begin -= start
        assert _untemper(words[begin:begin + 624]).tolist() == key

    def test_a_draw_below_a_stop_is_one_comparison_per_word(self):
        # getrandbits(k) >= stop  <=>  word >= stop << (32 - k).
        rng = random.Random(5)
        words = numpy_twin(rng).random_raw(20_000).astype(np.uint32)
        for stop in (1, 3, 1 << 15, (1 << 17) + 1, (1 << 32) - 1):
            shift = 32 - stop.bit_length()
            accepted = words < np.uint32(stop << shift)
            assert ((words >> shift) < stop).tolist() == accepted.tolist()


# -- the block, against the loop --------------------------------------------------------


@pytest.mark.parametrize("length", (3, 4, 5, 8))
@pytest.mark.parametrize("magnitude", (0, 1, 1 << 16, (1 << 31) - 1))
@pytest.mark.parametrize(
    "bound", (1, 2, 3, 1 << 16, (1 << 16) + 1, (1 << 31) - 1, 1 << 32)
)
def test_every_block_draws_what_the_loop_draws(bound, magnitude, length):
    key = generate_key(length, seed=900 + length)
    blocks = BLOCKS
    if magnitude == 0 and length > 3:
        # Every w is zero: the stream stops at the first value and the
        # loop spends 64 redraws on each — past the threshold's edges a
        # bigger block only times the loop.
        blocks = (1, BREAK_EVEN - 1, BREAK_EVEN)
    for count in blocks:
        opened = assert_block_matches_the_loop(
            key, count, multiplier_bound=bound, noise_magnitude=magnitude
        )
        assert opened == (count >= BREAK_EVEN)


def test_a_collinear_w_hands_the_block_to_the_loop():
    # u = (1, 1), magnitude 1: (0, 0), (1, 1) and (-1, -1) are drawn
    # again — a third of all draws, the first within a few values.
    key = generate_key(4, seed=904)
    key = replace(key, u=(1, 1), ambiguity_row=tuple(
        a + b for a, b in zip(*(key.matrix[p] for p in key.noise_positions))
    ))
    encryptor = Encryptor(key, seed=2, noise_magnitude=1)
    stream = DrawStream(
        encryptor._rng, encryptor._xi_span, encryptor._noise_span, 1,
        key.u, 2,
    )
    xis, _ = stream.draw(CHUNK)
    assert len(xis) < CHUNK and stream.closed
    assert assert_block_matches_the_loop(
        key, 2 * CHUNK + 5, noise_magnitude=1
    )


def test_a_huge_u_only_redraws_zero():
    # |u / gcd(u)| past the magnitude: no nonzero w is a multiple.
    key = generate_key(4, seed=904, u_magnitude=1 << 70)
    assert assert_block_matches_the_loop(key, 3_000)
    assert assert_block_matches_the_loop(key, 3_000, noise_magnitude=1)


def test_the_loop_draws_what_the_stream_cannot_read():
    key = generate_key(4, seed=904)
    # A span past one word is several words a draw.
    for parameters in (
        {"multiplier_bound": 1 << 33},
        {"noise_magnitude": 1 << 31},
    ):
        assert not assert_block_matches_the_loop(key, 5_000, **parameters)

    # A subclass is called as written.
    class Subclassed(random.Random):
        pass

    encryptor = Encryptor(key, rng=Subclassed(3))
    assert not encryptor._streamed
    reference = Encryptor(key, rng=Subclassed(3))
    drawn = list(encryptor._chunk_draws([CHUNK, 10]))
    assert drawn == [reference._draw(CHUNK), reference._draw(10)]


def test_an_interrupted_block_hands_the_generator_back():
    key = generate_key(4, seed=904)
    encryptor, reference = Encryptor(key, seed=3), Encryptor(key, seed=3)
    draws = encryptor._chunk_draws([CHUNK, CHUNK])
    next(draws)
    draws.close()
    reference._draw(CHUNK)
    assert encryptor._rng.getstate() == reference._rng.getstate()


# -- by count, so it cannot flake: no getrandbits call ------------------------------------


def test_encrypting_a_column_calls_getrandbits_zero_times():
    """CI's gate on the word stream (24 666 calls per 4 096 values when
    every draw was its own ``getrandbits``): a block that falls back to
    the loop — a subclassed generator check, a span test, a threshold
    gone wrong — answers as correctly and only reads slower."""
    client = TrustedClient(seed=11)  # the e2e benchmark's key
    values = random.Random(1).sample(range(10 ** 7), CHUNK)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "c_call" and getattr(arg, "__name__", "") == (
            "getrandbits"
        )

    sys.setprofile(count)
    try:
        block = client.encryptor.encrypt_values(values)
    finally:
        sys.setprofile(None)
    assert len(block) == CHUNK
    assert calls == 0, calls
