"""The owner's randomness: one keyed SHAKE-256 stream per encryptor.

An :class:`~repro.crypto.scheme.Encryptor` reads 256 bits from its
caller's generator once, at construction, and draws everything else —
``xi``, ``w``, ``lambda``, the steering choices — from SHAKE-256 under
that key.  These tests hold the contract from outside: keys are the
generator's alone, an encryptor reads its generator once, equal seeds
give equal bytes, a column costs one SHAKE call a chunk, and every draw
is uniform on its range.  The uniformity tests run at fixed seeds, so
they decide the same way every run: each compares a histogram of at
least 10^5 draws with its expectation by a chi-square test at p =
0.001.

``tests/test_encrypt_arrays.py`` holds the block draws to a reference
that reads SHAKE-256 through ``hashlib`` alone.
"""

import hashlib
import random
import sys
from collections import Counter

import numpy as np
import pytest

from repro.core.client import TrustedClient
from repro.crypto import scheme
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor, generate_steerable_key
from repro.linalg.limbs import to_objects

CHUNK = scheme._ENCRYPT_CHUNK
DRAWS = 100_000


# -- keys come from the key generator's own generator ---------------------------------------


def key_bytes(key):
    return repr((
        key.length, key.payload_positions, key.noise_positions, key.u,
        key.matrix, key.matrix_inverse, key.ambiguity_row,
    )).encode()


#: ``generate_key`` at every seed the tests pin, computed before the
#: owner's draws left the Mersenne Twister and unchanged by that move.
KEYS_SHA256 = (
    "01b28c354d269510062903eed897adc1ff42027197f0df1c9b492a15189aae9c"
)
KEY_SEEDS = list(range(40)) + [
    904, 905, 13, 87, 150, 119, 94, 19, 146, 7, 106, 140,
]

#: ``generate_steerable_key(4, domain, seed=11)`` over the
#: ``ambiguity_range`` benchmark's domains at input seeds 1 and 4 (both
#: accept attempt 0, ``generate_key(4, seed=11)``), and over ``(0,
#: 2^31)`` at ``(length, seed)`` (4, 1) and (6, 3) — computed at the
#: same parent.  Steerability is a property of the key, so a probe
#: that draws otherwise accepts the same one.
STEERABLE_SHA256 = {
    ((4, 299_889), 11, 4):
        "4734304dfa325f8241a60e59d8e6e4f49ee15f25698571cf9938cc4239e0d7c7",
    ((37, 300_000), 11, 4):
        "4734304dfa325f8241a60e59d8e6e4f49ee15f25698571cf9938cc4239e0d7c7",
    ((0, 2 ** 31), 1, 4):
        "1cc6efdc1c403f00276af6f70ec8b5d43c449802e8ebeed393ac08eb20951c6f",
    ((0, 2 ** 31), 3, 6):
        "340b4732f82195263b762e79bdb74aaaae89cf1674d5e2eeae4963d409e49cb2",
}


def test_generated_keys_are_the_parents():
    digest = hashlib.sha256()
    for length in (3, 4, 5, 6, 8, 16):
        for seed in KEY_SEEDS[:40] + [800 + length, 900 + length] + (
            KEY_SEEDS[40:]
        ):
            digest.update(key_bytes(generate_key(length, seed=seed)))
    assert digest.hexdigest() == KEYS_SHA256


@pytest.mark.parametrize("domain, seed, length", sorted(STEERABLE_SHA256))
def test_steerable_keys_are_the_parents(domain, seed, length):
    key = generate_steerable_key(length, domain, seed=seed)
    assert hashlib.sha256(key_bytes(key)).hexdigest() == (
        STEERABLE_SHA256[domain, seed, length]
    )


# -- one read of the caller's generator, then the stream --------------------------------------


class Recording(random.Random):
    """A generator that logs every draw made of it."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls.append(("getrandbits", k))
        return super().getrandbits(k)

    def random(self):
        self.calls.append(("random",))
        return super().random()


def test_an_encryptor_reads_its_generator_once():
    rng = Recording(12)
    encryptor = Encryptor(generate_key(4, seed=11), rng=rng)
    assert rng.calls == [("getrandbits", 256)]
    encryptor.encrypt_values(range(5_000))
    encryptor.encrypt_value(7)
    encryptor.encrypt_bound(7)
    encryptor.encrypt_values_ambiguous(range(50), (0, 1000))
    assert rng.calls == [("getrandbits", 256)]
    # seed=s is rng=random.Random(s).
    twin = Encryptor(generate_key(4, seed=11), seed=12)
    assert twin.encrypt_values(range(5_000)) == (
        Encryptor(generate_key(4, seed=11), rng=Recording(12))
        .encrypt_values(range(5_000))
    )


def test_without_a_seed_the_key_is_os_urandom(monkeypatch):
    key = generate_key(4, seed=1)
    assert Encryptor(key).encrypt_values(range(100)) != (
        Encryptor(key).encrypt_values(range(100))
    )
    sizes = []
    monkeypatch.setattr(
        scheme.os, "urandom", lambda size: sizes.append(size) or bytes(size)
    )
    assert Encryptor(key).encrypt_values(range(100)) == (
        Encryptor(key).encrypt_values(range(100))
    )
    assert sizes == [32, 32]


def blocks_of(seed):
    """Every kind of output of an encryptor at ``seed``, as bytes."""
    encryptor = Encryptor(generate_key(4, seed=11), seed=seed)
    values = list(range(-3_000, 6_000, 7))
    return [
        encryptor.encrypt_values(values).limbs.tobytes(),
        encryptor.encrypt_values_ambiguous(values[-300:], (0, 300_000))
        .limbs.tobytes(),
        repr([encryptor.encrypt_bound(v) for v in values[:100]]).encode(),
        repr([encryptor.encrypt_value(v) for v in values[:100]]).encode(),
    ]


def test_equal_seeds_give_identical_bytes_and_different_seeds_do_not():
    same, other = blocks_of(12), blocks_of(13)
    assert blocks_of(12) == same
    assert all(a != b for a, b in zip(same, other))


def test_a_column_is_one_shake_call_a_chunk_and_no_generator_read():
    """CI's gate on the block draw, by count so it cannot flake: under
    the benchmark's key 4 096 values make one SHAKE-256 call and read
    the caller's generator 0 times (the Mersenne-Twister mirror this
    replaced made 0 calls of ``getrandbits`` — once 24 666 — but parsed
    and handed back the generator's state).  Drawn value by value off
    the sequential stream the upload answers as correctly and only
    reads slower."""
    client = TrustedClient(seed=11)
    values = random.Random(1).sample(range(10 ** 7), CHUNK)
    calls = Counter()

    def count(frame, event, arg):
        if event == "c_call":
            calls[getattr(arg, "__name__", "")] += 1

    sys.setprofile(count)
    try:
        block = client.encryptor.encrypt_values(values)
    finally:
        sys.setprofile(None)
    assert len(block) == CHUNK
    shake = sum(n for name, n in calls.items() if "shake_256" in name)
    assert shake == 1, calls
    assert calls["getrandbits"] + calls["random"] == 0, calls


# -- every draw uniform on its range, at fixed seeds ------------------------------------------


def chi_square_limit(df):
    """The chi-square statistic ``df`` degrees of freedom exceed with
    probability 0.001 (Wilson-Hilferty, z = 3.09)."""
    return df * (1 - 2 / (9 * df) + 3.09 * (2 / (9 * df)) ** 0.5) ** 3


def assert_uniform(draws, support):
    """``draws`` all in ``support``, spread over it evenly."""
    counts = Counter(draws)
    assert set(counts) <= set(support)
    expected = len(draws) / len(support)
    statistic = sum(
        (counts[value] - expected) ** 2 / expected for value in support
    )
    assert statistic < chi_square_limit(len(support) - 1), statistic


def test_xi_is_odd_and_uniform():
    encryptor = Encryptor(generate_key(3, seed=903), seed=1, multiplier_bound=31)
    xis, _, _ = encryptor._block_draws(1, 0, DRAWS)
    assert_uniform(xis.tolist(), range(1, 32, 2))
    # At the paper's bound, over 16 bands of [1, 2^16].
    encryptor = Encryptor(generate_key(4, seed=904), seed=2)
    xis, _, _ = encryptor._block_draws(1, 0, DRAWS)
    assert (xis % 2 == 1).all() and xis.min() >= 1 and xis.max() < 1 << 16
    assert_uniform((xis >> 12).tolist(), range(16))
    singles = [encryptor._draw(encryptor._words)[0] for _ in range(DRAWS)]
    assert_uniform([xi >> 12 for xi in singles], range(16))


def test_each_component_of_w_is_uniform():
    # Magnitude 7 at l = 6: four components on [-7, 7].
    encryptor = Encryptor(generate_key(6, seed=906), seed=3, noise_magnitude=7)
    _, ws, spent = encryptor._block_draws(1, 0, DRAWS)
    assert not spent.any()
    for component in ws.T:
        assert_uniform(component.tolist(), range(-7, 8))
    singles = [encryptor._draw(encryptor._words)[1] for _ in range(DRAWS)]
    for component in zip(*singles):
        assert_uniform(list(component), range(-7, 8))


def test_lambda_is_nonzero_and_uniform():
    encryptor = Encryptor(generate_key(4, seed=904), seed=4, multiplier_bound=8)
    lambdas = [encryptor._draw_nonzero() for _ in range(DRAWS)]
    assert_uniform(lambdas, [x for x in range(-8, 9) if x])


@pytest.fixture(scope="module")
def steered():
    """``DRAWS`` values steered into a domain of 10^6: the block, the
    key and the domain."""
    domain = (0, 10 ** 6)
    key = generate_steerable_key(4, domain, seed=11)
    encryptor = Encryptor(key, seed=5)
    values = [value % domain[1] for value in range(0, 37 * DRAWS, 37)]
    block = encryptor.encrypt_values_ambiguous(values, domain)
    assert encryptor.steering_fallbacks == 0
    return encryptor, block, domain


def test_the_real_window_is_a_fair_coin(steered):
    encryptor, block, _ = steered
    is_real, _ = encryptor.open_block(block)
    prefix_real = int(is_real[0::2].sum())
    assert (is_real[0::2] != is_real[1::2]).all()
    # Within 4 standard deviations of DRAWS / 2.
    assert abs(prefix_real - DRAWS / 2) < 4 * (DRAWS / 4) ** 0.5


def test_counterfeits_are_uniform_over_the_domain(steered):
    encryptor, block, domain = steered
    key = encryptor.key
    is_real, _ = encryptor.open_block(block)
    rows = to_objects(block.limbs)[~is_real, :-1]
    p0, p1 = key.payload_positions
    payload0 = rows @ np.array(key.matrix[p0], dtype=object)
    payload1 = rows @ np.array(key.matrix[p1], dtype=object)
    # A counterfeit accepted on a uniform target is that target.
    counterfeits = [
        numerator // -denominator
        for numerator, denominator in zip(payload0.tolist(), payload1.tolist())
        if numerator % denominator == 0
    ]
    assert len(counterfeits) > 0.99 * DRAWS
    assert min(counterfeits) >= domain[0] and max(counterfeits) < domain[1]
    assert_uniform([c * 20 // domain[1] for c in counterfeits], range(20))
