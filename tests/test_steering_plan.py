"""Steered counterfeits from a per-key plan, pinned to the eliminating path.

``Encryptor._solve_steered`` reads each value's nullspace off a plan the
key fixes: the first column triple whose 3 x 3 minor ``D(v) = d0 +
v * d1`` is not identically zero, and the basis as Cramer cofactors
linear in ``v``.  Only where ``D(v) == 0`` does it eliminate.  What must
not move is the bits: every sha256 below was first computed at the
parent of the plan (0cd5530, which ran ``integer_nullspace`` for every
value and verified both windows through an object matrix) by running
this file's own ``*_digest`` functions against that checkout, and
re-pinned once, with the same functions, when the owner's draws moved
from the caller's Mersenne Twister to a keyed SHAKE-256 stream
(CHANGES.md gives both values).  Each covers the stream's next word and
``steering_fallbacks``.

The keys are chosen so that the pins reach what a plan can get wrong:
pivots other than the leading triple (the leading minor vanishes
identically on one window offset of ``(5, 905)``, ``(6, 3)``, ``(8, 7)``
...), and integral ``v* = -d0 / d1`` on both offsets, which every block
below encrypts.
"""

import hashlib
import random
import sys
from itertools import combinations

import pytest

from repro.core.client import TrustedClient
from repro.crypto import scheme
from repro.crypto.ciphertext import AmbiguousCiphertext
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor
from repro.errors import AmbiguityError
from repro.linalg.intmat import determinant
from repro.linalg.limbs import to_objects

DOMAIN = (0, 10 ** 6)

#: Per ciphertext length, three key seeds steerable into ``DOMAIN``:
#: ``(5, 905)`` is DESIGN's vanishing-minor case (value 0, both
#: offsets), and each length has a key whose plan pivots past the
#: leading triple.
PLAN_KEYS = {
    4: (13, 87, 150),
    5: (905, 119, 94),
    6: (3, 19, 146),
    8: (7, 106, 140),
}

#: A key whose counterfeits cannot reach ``DOMAIN``: its values fall
#: back to the unsteered construction.
UNREACHABLE = dict(length=4, key_seed=19)

#: Per length, 3 keys x 2 000 values (each plan's integral ``v*``
#: first), the next word and ``steering_fallbacks`` after each block.
STEERED_SHA256 = {
    4: "64906fb0f3a6e905d3f94d9cf4fee20896e92b61c0f4aed16c9a0f5f94bea386",
    5: "b27f0976a4abe6278673bafe4712c7412804bffe037f8ae2181ddae023361d61",
    6: "48fb769d907f49f6e6ee4fe3ded1d8529e647391509de40bb18530b043d1866e",
    8: "8aecb5bf89bd29ef378a788f0520bdc94aa21b4792be9bae7d3e58452d09ce5a",
}
#: The unsteered fallback, unsteered blocks and the strict
#: ``fake_value`` error, each followed by the next word.
FALLBACK_SHA256 = (
    "8185055c7c3d3151980cca01a5a007a6b299048261ebe0660f5bcf7fa8971338"
)


def window_row(row, offset):
    """A key row placed in the ``offset`` window of an ``(l+1)``-vector."""
    return (0,) * offset + tuple(row) + (0,) * (1 - offset)


def plan_of(key, real_offset):
    """``(pivots, d0, d1)``: the first column triple, in
    ``combinations`` order, whose minor of the steering system is not
    identically zero in the value, and that minor's two coefficients —
    computed here from the key alone, not by the code under test."""
    p0, p1 = key.payload_positions
    noise = (
        window_row(key.ambiguity_row, real_offset),
        window_row(key.ambiguity_row, 1 - real_offset),
    )
    systems = [
        (window_row(key.matrix[p], real_offset),) + noise for p in (p0, p1)
    ]
    for pivots in combinations(range(key.length + 1), 3):
        d0, d1 = (
            determinant(tuple(tuple(row[c] for c in pivots) for row in system))
            for system in systems
        )
        if d0 or d1:
            return pivots, d0, d1
    return None, 0, 0


def vanishing_value(key, real_offset):
    """The integer where the plan's minor vanishes, or None."""
    _, d0, d1 = plan_of(key, real_offset)
    if d1 and d0 % d1 == 0:
        return -d0 // d1
    return None


def vanishing_values(key):
    return sorted({
        value
        for value in (vanishing_value(key, offset) for offset in (0, 1))
        if value is not None
    })


def block_digest(digest, block, encryptor):
    """A block's integers, the stream's next word and the fallbacks."""
    digest.update(repr(to_objects(block.limbs).tolist()).encode())
    digest.update(repr(
        (next(encryptor._words), encryptor.steering_fallbacks)
    ).encode())


def steered_digest(length):
    digest = hashlib.sha256()
    for key_seed in PLAN_KEYS[length]:
        key = generate_key(length, seed=key_seed)
        stars = vanishing_values(key)
        values = stars + random.Random(key_seed).sample(
            range(*DOMAIN), 2_000 - len(stars)
        )
        encryptor = Encryptor(key, seed=key_seed + 1)
        block_digest(
            digest, encryptor.encrypt_values_ambiguous(values, DOMAIN), encryptor
        )
    return digest.hexdigest()


def fallback_digest():
    digest = hashlib.sha256()
    key = generate_key(UNREACHABLE["length"], seed=UNREACHABLE["key_seed"])
    encryptor = Encryptor(key, seed=5)
    values = vanishing_values(key) + random.Random(5).sample(range(*DOMAIN), 20)
    block_digest(
        digest, encryptor.encrypt_values_ambiguous(values, DOMAIN), encryptor
    )
    block_digest(digest, encryptor.encrypt_values_ambiguous(values), encryptor)
    for value in values[:6]:
        try:
            ciphertext = encryptor.encrypt_value_ambiguous(
                value, fake_value=2 ** 30, max_attempts=4
            )
            outcome = (ciphertext.numerators, ciphertext.denominator)
        except AmbiguityError:
            outcome = "refused"
        digest.update(repr(
            (outcome, next(encryptor._words), encryptor.steering_fallbacks)
        ).encode())
    return digest.hexdigest()


class TestPins:
    @pytest.mark.parametrize("length", sorted(PLAN_KEYS))
    def test_steered_blocks(self, length):
        assert steered_digest(length) == STEERED_SHA256[length]

    def test_unsteered_fallback_and_strict_error(self):
        assert fallback_digest() == FALLBACK_SHA256


# -- the guard: an elimination only where the plan's minor vanishes ------------------------


def counting_eliminations(monkeypatch):
    """The systems :func:`integer_nullspace` is handed by the scheme."""
    systems = []
    eliminate = scheme.integer_nullspace

    def counted(rows):
        systems.append(rows)
        return eliminate(rows)

    monkeypatch.setattr(scheme, "integer_nullspace", counted)
    return systems


@pytest.mark.parametrize("length", sorted(PLAN_KEYS))
def test_only_a_vanishing_minor_is_eliminated(monkeypatch, length):
    eliminated = counting_eliminations(monkeypatch)
    for key_seed in PLAN_KEYS[length]:
        key = generate_key(length, seed=key_seed)
        encryptor = Encryptor(key, seed=key_seed)
        values = set(vanishing_values(key)) | set(range(-9, 10))
        values |= {10 ** 6, -(2 ** 70)}
        for real_offset in (0, 1):
            _, d0, d1 = plan_of(key, real_offset)
            assert encryptor._plans[real_offset][:2] == (d0, d1)
            star = vanishing_value(key, real_offset)
            for value in sorted(values):
                before = len(eliminated)
                encryptor._solve_steered(value, DOMAIN, real_offset)
                assert len(eliminated) - before == (value == star), (
                    key_seed, real_offset, value
                )


def test_a_block_without_vanishing_values_eliminates_nothing(monkeypatch):
    eliminated = counting_eliminations(monkeypatch)
    key = generate_key(4, seed=PLAN_KEYS[4][0])
    stars = set(vanishing_values(key))
    values = [
        value
        for value in random.Random(2).sample(range(-100, 10 ** 6), 500)
        if value not in stars
    ]
    encryptor = Encryptor(key, seed=3)
    block = encryptor.encrypt_values_ambiguous(values, DOMAIN)
    assert len(block) == 2 * len(values) and eliminated == []
    encryptor.encrypt_values_ambiguous(sorted(stars), DOMAIN)
    assert eliminated


# -- the owner still verifies every value, as decrypt_block would ------------------------------


def opened_as_rows(encryptor, numerators, denominator, real_offset):
    """What :meth:`Encryptor.decrypt_block` says of the real, then the
    fake window, as ``_open_windows`` reports it."""
    rows = AmbiguousCiphertext(numerators, denominator).interpretations()
    is_real, values, xi = encryptor.decrypt_block(
        (rows[real_offset], rows[1 - real_offset])
    )
    values = iter(values)
    return [(next(values) if real else None, x) for real, x in zip(is_real, xi)]


class TestTheOwnerStillVerifies:
    def test_the_check_is_decrypt_blocks(self):
        draw = random.Random(9)
        for length in sorted(PLAN_KEYS):
            key = generate_key(length, seed=PLAN_KEYS[length][1])
            encryptor = Encryptor(key, seed=length)
            for value in draw.sample(range(*DOMAIN), 20):
                ciphertext = encryptor.encrypt_value_ambiguous(
                    value, fake_domain=DOMAIN
                )
                numerators = list(ciphertext.numerators)
                denominator = ciphertext.denominator
                tampered = list(numerators)
                tampered[draw.randrange(length + 1)] += draw.choice((-1, 1))
                for vector, scale in (
                    (numerators, 1), (tampered, 1), (numerators, 3),
                ):
                    for real_offset in (0, 1):
                        case = (tuple(vector), denominator * scale, real_offset)
                        assert encryptor._open_windows(*case) == (
                            opened_as_rows(encryptor, *case)
                        )

    def test_an_inconsistent_counterfeit_is_refused(self, monkeypatch):
        """A parameter that gives the fake window a negative multiplier
        solves every constraint, and still never leaves the owner."""

        def inconsistent(self, fake_domain, p, q, c0, c1, a0, a1):
            for num in range(-64, 65):
                if (p + q * num) * (c0 + c1 * num) < 0:
                    return num, 1
            return None

        monkeypatch.setattr(Encryptor, "_pick_parameter", inconsistent)
        key = generate_key(4, seed=PLAN_KEYS[4][0])
        encryptor = Encryptor(key, seed=1)
        with pytest.raises(AmbiguityError):
            encryptor.encrypt_value_ambiguous(
                123, fake_value=456, max_attempts=3
            )
        ciphertext = encryptor.encrypt_value_ambiguous(
            123, fake_domain=DOMAIN, max_attempts=3
        )
        assert encryptor.steering_fallbacks == 1
        opened = [
            encryptor.decrypt_row(row) for row in ciphertext.interpretations()
        ]
        assert sorted(row.value for row in opened if row.is_real) == [123]
        assert sum(row.is_real for row in opened) == 1

    def test_a_tampered_solution_is_refused(self, monkeypatch):
        solve = Encryptor._solve_steered

        def tampered(self, *args):
            solved = solve(self, *args)
            if solved is not None:
                numerators, denominator = solved
                solved = (numerators[0] + 1,) + numerators[1:], denominator
            return solved

        monkeypatch.setattr(Encryptor, "_solve_steered", tampered)
        encryptor = Encryptor(generate_key(4, seed=PLAN_KEYS[4][0]), seed=1)
        with pytest.raises(AmbiguityError):
            encryptor.encrypt_value_ambiguous(
                123, fake_value=456, max_attempts=3
            )


# -- counterfeits are integers, checked once ---------------------------------------------


class Counted:
    """An integer-like domain end that counts how often it is read."""

    reads = 0

    def __init__(self, value):
        self.value = value

    def __index__(self):
        Counted.reads += 1
        return self.value


class TestCounterfeitsAreIntegers:
    @pytest.mark.parametrize("steering", [
        dict(fake_domain=(0.9, 1000.5)),
        dict(fake_domain=("3", "9")),
        dict(fake_value=7.8),
        dict(fake_value="7"),
    ])
    def test_refused_before_any_draw(self, steering):
        encryptor = Encryptor(generate_key(4, seed=13), seed=1)
        twin = Encryptor(generate_key(4, seed=13), seed=1)
        with pytest.raises(AmbiguityError):
            encryptor.encrypt_value_ambiguous(5, **steering)
        if "fake_domain" in steering:
            with pytest.raises(AmbiguityError):
                encryptor.encrypt_values_ambiguous([5], steering["fake_domain"])
        assert next(encryptor._words) == next(twin._words)

    def test_the_client_refuses_them(self):
        for fake_domain in ((0.5, 9), ("0", "9"), (9, 9)):
            with pytest.raises(AmbiguityError):
                TrustedClient(seed=1, ambiguity=True, fake_domain=fake_domain)

    def test_what_index_accepts_is_the_integer(self):
        key = generate_key(4, seed=13)
        Counted.reads = 0
        ends = [Counted(0), Counted(10 ** 6)]
        values = list(range(0, 10 ** 6, 20_000))
        block = Encryptor(key, seed=1).encrypt_values_ambiguous(
            values, tuple(ends)
        )
        # Once per call, not once per value.
        assert Counted.reads == 2
        assert block == Encryptor(key, seed=1).encrypt_values_ambiguous(
            values, DOMAIN
        )


# -- by count, so it cannot flake: a steered value is a few Python frames ---------------------


def test_steering_a_value_makes_at_most_twenty_python_calls():
    """CI's gate on the plan (47 Python-level calls per value when every
    value was eliminated and verified through an object matrix): an
    elimination, a generator or a helper per coefficient creeping back
    shows up here as a count, not as a slower set-up."""
    values = random.Random(1).sample(range(300_000), 4_096)
    domain = (min(values), max(values) + 1)
    # The e2e benchmark's key, re-drawn for the values' own domain as an
    # ambiguity session's upload does.
    client = TrustedClient(seed=11, ambiguity=True, fake_domain=domain)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        block = client.encryptor.encrypt_values_ambiguous(values, domain)
    finally:
        sys.setprofile(None)
    assert len(block) == 2 * len(values)
    assert client.encryptor.steering_fallbacks == 0
    assert calls <= 20 * len(values), calls / len(values)


if __name__ == "__main__":
    # Print the pins for the checkout on the path.
    for length in sorted(PLAN_KEYS):
        print(length, steered_digest(length))
    print("fallback", fallback_digest())
