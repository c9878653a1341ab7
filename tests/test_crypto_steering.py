"""Unit tests for steered counterfeits (the Figure 13a mechanism).

Steering runs in Python ints (``Encryptor._solve_steered`` over
``linalg.solve.integer_nullspace``).  The ``Fraction`` implementation
it replaced is kept here as :class:`FractionEncryptor` with its
``solve_affine``: the differential reference the integer path must
match bit for bit — ciphertext or typed error, the stream's next word,
and ``steering_fallbacks``.  Its code is the parent's but for its draws,
which read the encryptor's keyed stream as the integer path does: a bit
is a word's low bit, ``randint(-8, 8)`` is ``_below(17) - 8`` and
``randrange(n)`` is ``_below(n)``.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.session import OutsourcedDatabase
from repro.crypto.ciphertext import AmbiguousCiphertext, ValueCiphertext
from repro.crypto.key import generate_key
from repro.crypto.scheme import (
    Encryptor,
    generate_steerable_key,
    probe_steerable,
)
from repro.errors import AmbiguityError, KeyGenerationError
from repro.linalg.intmat import determinant, mat_vec
from repro.linalg.solve import integer_nullspace

DOMAIN = (0, 2 ** 31)


@pytest.fixture(scope="module")
def steerable_key():
    return generate_steerable_key(4, DOMAIN, seed=1)


@pytest.fixture()
def steer_encryptor(steerable_key):
    return Encryptor(steerable_key, seed=2)


def fake_pseudo_value(encryptor, ambiguous):
    """The counterfeit branch's pseudo-value, via the key."""
    key = encryptor.key
    rows = ambiguous.interpretations()
    fake = next(
        row for row in rows if not encryptor.decrypt_row(row).is_real
    )
    pre_image = mat_vec(key.matrix, fake.numerators)
    payload0, payload1 = key.payload_projection(pre_image)
    return Fraction(payload0, -payload1)


class TestSteering:
    def test_pinned_counterfeit(self, steer_encryptor):
        ambiguous = steer_encryptor.encrypt_value_ambiguous(
            1000, fake_value=777
        )
        assert fake_pseudo_value(steer_encryptor, ambiguous) == 777

    def test_real_branch_unaffected(self, steer_encryptor):
        ambiguous = steer_encryptor.encrypt_value_ambiguous(
            123456, fake_value=654321
        )
        real = next(
            row
            for row in ambiguous.interpretations()
            if steer_encryptor.decrypt_row(row).is_real
        )
        assert steer_encryptor.decrypt_value(real) == 123456

    def test_domain_counterfeits_land_in_domain(self, steer_encryptor):
        for value in (5, 10 ** 6, 2 ** 31 - 9):
            ambiguous = steer_encryptor.encrypt_value_ambiguous(
                value, fake_domain=DOMAIN
            )
            pseudo = fake_pseudo_value(steer_encryptor, ambiguous)
            assert DOMAIN[0] <= pseudo <= DOMAIN[1]
        assert steer_encryptor.steering_fallbacks == 0

    def test_fake_multiplier_positive_not_odd_integer(self, steer_encryptor):
        ambiguous = steer_encryptor.encrypt_value_ambiguous(
            42, fake_domain=DOMAIN
        )
        fake = next(
            steer_encryptor.decrypt_row(row)
            for row in ambiguous.interpretations()
            if not steer_encryptor.decrypt_row(row).is_real
        )
        assert fake.multiplier > 0
        is_odd_integer = (
            fake.multiplier.denominator == 1
            and fake.multiplier.numerator % 2 == 1
        )
        assert not is_odd_integer

    def test_counterfeits_vary(self, steer_encryptor):
        pseudos = {
            fake_pseudo_value(
                steer_encryptor,
                steer_encryptor.encrypt_value_ambiguous(9, fake_domain=DOMAIN),
            )
            for _ in range(8)
        }
        assert len(pseudos) > 1

    def test_negative_domain(self, steer_encryptor):
        domain = (-(10 ** 6), 0)
        ambiguous = steer_encryptor.encrypt_value_ambiguous(
            -500, fake_domain=domain
        )
        pseudo = fake_pseudo_value(steer_encryptor, ambiguous)
        assert domain[0] <= pseudo <= domain[1]


class TestSteerableKeyGeneration:
    def test_probe_accepts_generated_key(self, steerable_key):
        assert probe_steerable(steerable_key, DOMAIN, seed=0)

    def test_probe_rejects_short_key(self):
        assert not probe_steerable(generate_key(length=3, seed=0), DOMAIN)

    def test_generated_key_has_requested_length(self):
        key = generate_steerable_key(6, DOMAIN, seed=3)
        assert key.length == 6

    def test_impossible_budget_raises(self, monkeypatch):
        import repro.crypto.scheme as scheme_module

        monkeypatch.setattr(
            scheme_module, "probe_steerable", lambda *a, **k: False
        )
        with pytest.raises(KeyGenerationError):
            generate_steerable_key(4, DOMAIN, seed=0, max_attempts=3)


class TestSteeringFallback:
    def test_unreachable_domain_falls_back(self):
        # Find a key whose counterfeit range misses the huge positive
        # domain (about 15% of random keys); falling back must still
        # produce a valid two-faced ciphertext and bump the counter.
        for seed in range(40):
            key = generate_key(4, seed=seed)
            if probe_steerable(key, DOMAIN, seed=seed):
                continue
            encryptor = Encryptor(key, seed=seed)
            ambiguous = encryptor.encrypt_value_ambiguous(
                12345, fake_domain=DOMAIN
            )
            flags = [
                encryptor.decrypt_row(row).is_real
                for row in ambiguous.interpretations()
            ]
            assert sum(flags) == 1
            assert encryptor.steering_fallbacks >= 1
            return
        pytest.skip("no non-steerable key in the seed range")

    def test_strict_fake_value_raises_when_unreachable(self):
        for seed in range(40):
            key = generate_key(4, seed=seed)
            if probe_steerable(key, DOMAIN, seed=seed):
                continue
            encryptor = Encryptor(key, seed=seed)
            with pytest.raises(AmbiguityError):
                encryptor.encrypt_value_ambiguous(
                    12345, fake_value=2 ** 30, max_attempts=4
                )
            return
        pytest.skip("no non-steerable key in the seed range")


# -- the parent's Fraction path, kept as the reference ---------------------------


def solve_affine(
    coefficients: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> Optional[Tuple[List[Fraction], List[List[Fraction]]]]:
    """Parent commit's ``repro.linalg.solve.solve_affine``: Gauss-Jordan
    over Fractions, ``(particular, nullspace_basis)`` or None."""
    rows = [
        [Fraction(c) for c in row] + [Fraction(b)]
        for row, b in zip(coefficients, rhs)
    ]
    if len(rows) != len(rhs):
        raise ValueError("coefficient rows and rhs lengths differ")
    unknowns = len(rows[0]) - 1 if rows else 0
    if any(len(row) != unknowns + 1 for row in rows):
        raise ValueError("ragged coefficient matrix")

    pivot_cols: List[int] = []
    rank = 0
    for col in range(unknowns):
        pivot_row = next(
            (r for r in range(rank, len(rows)) if rows[r][col] != 0), None
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        rows[rank] = [x / pivot for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        pivot_cols.append(col)
        rank += 1
        if rank == len(rows):
            break
    for r in range(rank, len(rows)):
        if all(x == 0 for x in rows[r][:unknowns]) and rows[r][unknowns] != 0:
            return None

    particular = [Fraction(0)] * unknowns
    for r, col in enumerate(pivot_cols):
        particular[col] = rows[r][unknowns]

    free_cols = [c for c in range(unknowns) if c not in pivot_cols]
    basis: List[List[Fraction]] = []
    for free in free_cols:
        vector = [Fraction(0)] * unknowns
        vector[free] = Fraction(1)
        for r, col in enumerate(pivot_cols):
            vector[col] = -rows[r][free]
        basis.append(vector)
    return particular, basis


class FractionEncryptor(Encryptor):
    """Steered encryption exactly as the commit before the integer
    path computed it (docstrings dropped, code untouched): a
    ``solve_affine`` per value, ``Fraction`` forms, ``Fraction`` ``t``."""

    def encrypt_value_ambiguous(
        self,
        value: int,
        fake_domain: Tuple[int, int] = None,
        fake_value: int = None,
        max_attempts: int = 64,
    ) -> AmbiguousCiphertext:
        value = int(value)  # exact big-int arithmetic, never numpy scalars
        if fake_value is not None or fake_domain is not None:
            if fake_value is not None:
                fake_value = int(fake_value)
            if fake_domain is not None:
                fake_domain = (int(fake_domain[0]), int(fake_domain[1]))
            return self._encrypt_ambiguous_steered(
                value, fake_domain, fake_value, max_attempts
            )
        for _ in range(max_attempts):
            real = self.encrypt_value(value)
            theta_as_suffix = bool(next(self._words) & 1)
            ambiguous = self._attach_theta(real, theta_as_suffix)
            prefix, suffix = ambiguous.interpretations()
            real_row = prefix if theta_as_suffix else suffix
            fake_row = suffix if theta_as_suffix else prefix
            is_real, _, _ = self.decrypt_block((real_row, fake_row))
            if not is_real[0]:
                raise AmbiguityError("real branch failed the odd-xi check")
            if not is_real[1]:
                return ambiguous
        raise AmbiguityError(
            "fake branch kept decrypting like a real row after %d attempts"
            % max_attempts
        )

    def _encrypt_ambiguous_steered(
        self,
        value: int,
        fake_domain: Tuple[int, int],
        fake_value: int,
        max_attempts: int,
    ) -> AmbiguousCiphertext:
        if self.key.length < 4:
            raise AmbiguityError(
                "steered counterfeits need ciphertext length >= 4"
            )
        strict = fake_value is not None
        if fake_value is not None:
            fake_domain = (fake_value, fake_value + 1)
        for _ in range(max_attempts):
            first_variant = bool(next(self._words) & 1)
            for theta_as_suffix in (first_variant, not first_variant):
                ambiguous = self._solve_steered(
                    value, fake_domain, theta_as_suffix
                )
                if ambiguous is None:
                    continue
                prefix, suffix = ambiguous.interpretations()
                real_row = prefix if theta_as_suffix else suffix
                fake_row = suffix if theta_as_suffix else prefix
                is_real, values, xi = self.decrypt_block((real_row, fake_row))
                if not is_real[0] or values[0] != value:
                    continue
                # The counterfeit must fail the odd-integer convention
                # yet keep a positive multiplier (xi's numerator is over
                # a positive denominator).
                if is_real[1] or xi[1] <= 0:
                    continue
                return ambiguous
        if strict:
            raise AmbiguityError(
                "no admissible steered ciphertext in %d attempts" % max_attempts
            )
        # The achievable counterfeit range is key-dependent (see
        # generate_steerable_key); for keys that cannot reach this
        # domain, degrade to the unsteered construction rather than
        # fail — the row stays two-faced, the counterfeit just never
        # matches realistic queries.
        self.steering_fallbacks += 1
        return self.encrypt_value_ambiguous(value, max_attempts=max_attempts)

    def _solve_steered(
        self,
        value: int,
        fake_domain: Tuple[int, int],
        theta_as_suffix: bool,
    ) -> Optional[AmbiguousCiphertext]:
        length = self.key.length
        p0, p1 = self.key.payload_positions
        matrix = self.key.matrix
        r = self.key.ambiguity_row
        real_offset = 0 if theta_as_suffix else 1
        fake_offset = 1 - real_offset
        unknowns = length + 1

        def window_row(coeffs, offset: int) -> list:
            row = [Fraction(0)] * unknowns
            for j, c in enumerate(coeffs):
                row[offset + j] += c
            return row

        real_payload0 = window_row(matrix[p0], real_offset)
        real_payload1 = window_row(matrix[p1], real_offset)
        coefficients = [
            # payload0 + v * payload1 == 0: the real window decodes to v.
            [a + value * b for a, b in zip(real_payload0, real_payload1)],
            window_row(r, real_offset),
            window_row(r, fake_offset),
        ]
        solution = solve_affine(coefficients, [Fraction(0)] * len(coefficients))
        if solution is None:
            return None
        __, basis = solution
        if len(basis) < 2:
            return None
        b1, b2 = self._random_pencil(basis)

        def form(row) -> Tuple[Fraction, Fraction]:
            return (
                sum(m * x for m, x in zip(row, b1)),
                sum(m * x for m, x in zip(row, b2)),
            )

        # mu_re(t) = p + q t, mu_fk(t) = c0 + c1 t, P0_fk(t) = a0 + a1 t.
        p, q = form([-x for x in real_payload1])
        c0, c1 = form([-x for x in window_row(matrix[p1], fake_offset)])
        a0, a1 = form(window_row(matrix[p0], fake_offset))
        t = self._pick_parameter(fake_domain, p, q, c0, c1, a0, a1)
        if t is None:
            return None
        vector = [x + t * y for x, y in zip(b1, b2)]
        real_multiplier = p + q * t
        if real_multiplier == 0:
            return None
        if real_multiplier < 0:
            vector = [-x for x in vector]
            real_multiplier = -real_multiplier
        # Scale so the real multiplier becomes a random odd integer.
        scale_factor = Fraction(self._draw_odd_multiplier()) / real_multiplier
        vector = [x * scale_factor for x in vector]
        denominator = 1
        for entry in vector:
            denominator = denominator * entry.denominator // gcd(
                denominator, entry.denominator
            )
        numerators = tuple(int(entry * denominator) for entry in vector)
        if all(n == 0 for n in numerators):
            return None
        return AmbiguousCiphertext(numerators, denominator)

    def _random_pencil(self, basis) -> Tuple[list, list]:
        if len(basis) == 2:
            return list(basis[0]), list(basis[1])
        while True:
            coeffs1 = [self._below(17) - 8 for _ in basis]
            coeffs2 = [self._below(17) - 8 for _ in basis]
            # Independence of the coefficient vectors implies
            # independence of the combinations (basis is independent).
            cross_ok = any(
                coeffs1[i] * coeffs2[j] != coeffs1[j] * coeffs2[i]
                for i in range(len(basis))
                for j in range(i + 1, len(basis))
            )
            if not cross_ok:
                continue
            b1 = [
                sum(c * row[k] for c, row in zip(coeffs1, basis))
                for k in range(len(basis[0]))
            ]
            b2 = [
                sum(c * row[k] for c, row in zip(coeffs2, basis))
                for k in range(len(basis[0]))
            ]
            if any(b1) and any(b2):
                return b1, b2

    def _pick_parameter(
        self,
        fake_domain: Tuple[int, int],
        p: Fraction,
        q: Fraction,
        c0: Fraction,
        c1: Fraction,
        a0: Fraction,
        a1: Fraction,
        uniform_tries: int = 12,
    ) -> Optional[Fraction]:
        domain_lo = Fraction(fake_domain[0])
        domain_hi = Fraction(fake_domain[1] - 1)
        if domain_hi < domain_lo:
            domain_hi = domain_lo

        def feasible(t: Fraction, strict_domain: bool = False) -> bool:
            mu_re = p + q * t
            mu_fk = c0 + c1 * t
            if mu_re * mu_fk <= 0:
                return False
            payload0 = a0 + a1 * t
            lower = payload0 - domain_lo * mu_fk
            upper = payload0 - domain_hi * mu_fk
            return lower * upper <= 0

        # Accept-reject on uniform integer counterfeits: invert the
        # fractional-linear map c = P0 / mu_fk at the target.
        span = fake_domain[1] - fake_domain[0]
        for _ in range(uniform_tries):
            target = fake_domain[0] + self._below(max(1, span))
            denominator = a1 - target * c1
            if denominator == 0:
                continue
            t = Fraction(target * c0 - a0, denominator)
            if (p + q * t) * (c0 + c1 * t) > 0:
                return t
        # Fallback: candidate points around the roots of all factors.
        roots = []
        for constant, slope in (
            (p, q),
            (c0, c1),
            (a0 - domain_lo * c0, a1 - domain_lo * c1),
            (a0 - domain_hi * c0, a1 - domain_hi * c1),
        ):
            if slope != 0:
                roots.append(-constant / slope)
        roots = sorted(set(roots))
        candidates = []
        if roots:
            candidates.append(roots[0] - 1)
            for left, right in zip(roots, roots[1:]):
                candidates.append((left + right) / 2)
            candidates.append(roots[-1] + 1)
            candidates.extend(roots)
        else:
            candidates.append(Fraction(0))
        feasible_points = [t for t in candidates if feasible(t)]
        if not feasible_points:
            return None
        return feasible_points[self._below(len(feasible_points))]

    def _attach_theta(
        self, real: ValueCiphertext, theta_as_suffix: bool
    ) -> AmbiguousCiphertext:
        r = self.key.ambiguity_row
        ev = real.numerators
        length = self.key.length
        if theta_as_suffix:
            shifted = sum(r[i] * ev[i + 1] for i in range(length - 1))
            theta = Fraction(-shifted, r[-1])
        else:
            shifted = sum(r[i] * ev[i - 1] for i in range(1, length))
            theta = Fraction(-shifted, r[0])
        denominator = theta.denominator
        scaled = tuple(e * denominator for e in ev)
        if theta_as_suffix:
            numerators = scaled + (theta.numerator,)
        else:
            numerators = (theta.numerator,) + scaled
        return AmbiguousCiphertext(numerators, denominator)



# -- integer path == Fraction reference ----------------------------------------------

LENGTHS = (4, 5, 6, 8)
EDGE_VALUES = (0, 1, -1, 10 ** 6, -(10 ** 6), 2 ** 70, -(2 ** 65))

#: The leading 3 x 3 minor of the constraint system vanishes here, so a
#: closed-form (Cramer) plan on the first three columns has no solution
#: while RREF simply pivots further right.
DEGENERATE = dict(length=5, key_seed=905, encryptor_seed=0, value=0)


@lru_cache(maxsize=None)
def key_for(length, key_seed):
    return generate_key(length=length, seed=key_seed)


def steering_of(value, mode, width):
    """``(fake_domain, fake_value)`` for a drawn steering mode."""
    if mode == "around":
        return (value - width, value + width), None
    if mode == "wide":
        return DOMAIN, None
    return None, value + width  # pinned counterfeit


def pair(length, key_seed, encryptor_seed):
    """The reference and the integer encryptor on one key, one seed."""
    key = key_for(length, key_seed)
    return (
        FractionEncryptor(key, seed=encryptor_seed),
        Encryptor(key, seed=encryptor_seed),
    )


def counting_fractions(monkeypatch, counts, armed):
    """Count ``Fraction`` constructions while ``armed`` is non-empty."""
    real = Fraction.__new__

    def wrapper(*args, **kwargs):
        if armed:
            counts["Fraction"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", wrapper)


cases = dict(
    length=st.sampled_from(LENGTHS),
    key_seed=st.integers(0, 2 ** 10),
    encryptor_seed=st.integers(0, 2 ** 16),
    value=st.sampled_from(EDGE_VALUES) | st.integers(-(10 ** 6), 10 ** 6),
    mode=st.sampled_from(("around", "wide", "pinned")),
    width=st.integers(1, 1000),
)


def test_integer_path_matches_fraction_reference(monkeypatch):
    """One attempt (both variants) and whole encryptions agree with the
    parent's ``Fraction`` solve — and the run exercised both rare
    branches: the root-candidate fallback and the unsteered fallback."""
    reached = Counter()
    fractions_built = Counter()
    armed = []
    counting_fractions(monkeypatch, fractions_built, armed)

    @given(max_attempts=st.sampled_from((1, 2, 4)), **cases)
    @example(mode="around", width=50, max_attempts=4, **DEGENERATE)
    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    def compare(length, key_seed, encryptor_seed, value, mode, width,
                max_attempts):
        fake_domain, fake_value = steering_of(value, mode, width)
        domain = fake_domain or (fake_value, fake_value + 1)

        # One steering attempt, each variant.
        for theta_as_suffix in (True, False):
            reference, integer = pair(length, key_seed, encryptor_seed)
            expected = reference._solve_steered(value, domain, theta_as_suffix)
            if expected is not None:
                expected = (expected.numerators, expected.denominator)
            before = fractions_built["Fraction"]
            armed.append(True)
            solved = integer._solve_steered(
                value, domain, 0 if theta_as_suffix else 1
            )
            armed.clear()
            assert solved == expected
            assert next(integer._words) == next(reference._words)
            if fractions_built["Fraction"] > before:
                reached["root_candidates"] += 1

        # The whole encryption: retries, verification, fallback, errors.
        outcomes = []
        for encryptor in pair(length, key_seed, encryptor_seed):
            try:
                ciphertext = encryptor.encrypt_value_ambiguous(
                    value, fake_domain=fake_domain, fake_value=fake_value,
                    max_attempts=max_attempts,
                )
                result = (ciphertext.numerators, ciphertext.denominator)
            except AmbiguityError:
                result = AmbiguityError
                reached["strict_errors"] += 1
            outcomes.append((
                result, encryptor.steering_fallbacks, next(encryptor._words)
            ))
        assert outcomes[0] == outcomes[1]
        reached["unsteered_fallback"] += outcomes[1][1]

    compare()
    assert reached["root_candidates"] and reached["unsteered_fallback"]
    assert reached["strict_errors"]


def test_degenerate_case_has_a_vanishing_leading_minor():
    """What makes :data:`DEGENERATE` degenerate, stated on the system
    itself (suffix variant: the real window is the prefix)."""
    key = key_for(DEGENERATE["length"], DEGENERATE["key_seed"])
    p0, p1 = key.payload_positions
    value = DEGENERATE["value"]
    system = (
        tuple(a + value * b for a, b in zip(key.matrix[p0], key.matrix[p1]))
        + (0,),
        key.ambiguity_row + (0,),
        (0,) + key.ambiguity_row,
    )
    assert determinant(tuple(row[:3] for row in system)) == 0
    basis, scale = integer_nullspace(system)
    assert basis[0][2] == scale  # column 2 is free: the pivots are 0, 1, 3
    __, expected = solve_affine(system, [0, 0, 0])
    assert [[Fraction(x, scale) for x in vector] for vector in basis] == expected
    # ... and the attempt built on it agrees, whatever it decides.
    reference, integer = pair(
        DEGENERATE["length"], DEGENERATE["key_seed"],
        DEGENERATE["encryptor_seed"],
    )
    for value in range(-50, 50):
        expected = reference._solve_steered(value, (-50, 50), True)
        if expected is not None:
            expected = (expected.numerators, expected.denominator)
        assert integer._solve_steered(value, (-50, 50), 0) == expected


def test_fractions_are_built_only_by_the_root_candidates(
    steerable_key, monkeypatch
):
    """A dataset's worth of steered encryptions constructs no
    ``Fraction`` outside ``_pick_parameter`` (whose root-candidate
    fallback is the one place left that may), and none at all for a
    value accepted on a uniform target."""
    encryptor = Encryptor(steerable_key, seed=5)
    counts, armed = Counter(), [True]
    counting_fractions(monkeypatch, counts, armed)
    pick = Encryptor._pick_parameter

    def unarmed_pick(self, *args):
        armed.clear()
        try:
            return pick(self, *args)
        finally:
            armed.append(True)

    monkeypatch.setattr(Encryptor, "_pick_parameter", unarmed_pick)
    values = range(0, 4000, 13)
    block = encryptor.encrypt_values_ambiguous(values, DOMAIN)
    assert len(block) == 2 * len(values)
    assert encryptor.steering_fallbacks == 0
    assert counts == {}
    monkeypatch.setattr(Encryptor, "_pick_parameter", pick)
    encryptor.encrypt_value_ambiguous(1, fake_domain=DOMAIN)
    assert counts == {}  # first variant, first target: all in ints


class TestBlockEncryption:
    def test_block_is_the_per_value_path(self, steerable_key):
        values = [7, 10 ** 6, 2 ** 31 - 2, 7]
        block = Encryptor(steerable_key, seed=4).encrypt_values_ambiguous(
            values, DOMAIN
        )
        one_by_one = Encryptor(steerable_key, seed=4)
        rows = [
            row
            for value in values
            for row in one_by_one.encrypt_value_ambiguous(
                value, fake_domain=DOMAIN
            ).interpretations()
        ]
        assert block == rows

    @pytest.mark.parametrize("fake_domain", [None, DOMAIN])
    def test_empty_block_keeps_the_key_length(self, steerable_key, fake_domain):
        block = Encryptor(steerable_key, seed=4).encrypt_values_ambiguous(
            [], fake_domain
        )
        assert len(block) == 0 and block.length == steerable_key.length

    def test_empty_ambiguity_session_still_works(self):
        db = OutsourcedDatabase([], ambiguity=True, seed=3)
        rows, row_ids = db.client.encrypt_dataset([])
        assert (len(rows), rows.length, row_ids) == (0, db.client.key.length, [])
        assert db.query(0, 100).values.tolist() == []
        db.insert(42)
        db.insert(7)
        assert sorted(db.query(0, 100).values.tolist()) == [7, 42]
        assert db.query(8, 41).values.tolist() == []


class TestEmptyDomain:
    @pytest.mark.parametrize("fake_domain", [(10, 10), (10, 5)])
    def test_refused_before_any_draw(
        self, steer_encryptor, steerable_key, fake_domain
    ):
        twin = Encryptor(steerable_key, seed=2)
        with pytest.raises(AmbiguityError):
            steer_encryptor.encrypt_value_ambiguous(3, fake_domain=fake_domain)
        with pytest.raises(AmbiguityError):
            steer_encryptor.encrypt_values_ambiguous([3], fake_domain)
        assert next(steer_encryptor._words) == next(twin._words)

    def test_one_value_domain_is_that_value(self, steer_encryptor):
        ambiguous = steer_encryptor.encrypt_value_ambiguous(
            3, fake_domain=(10, 11)
        )
        assert fake_pseudo_value(steer_encryptor, ambiguous) == 10

    def test_probe_refuses_it_too(self, steerable_key):
        with pytest.raises(AmbiguityError):
            probe_steerable(steerable_key, (10, 10))
