"""Unit tests for the Section 3.5 attack simulations."""

import random

import pytest

from repro.crypto.attacks import (
    BoundRecoveryAttack,
    ValueRecoveryAttack,
    pairs_needed_to_break,
    recover_payload_positions,
)
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor
from repro.errors import AttackError


def observations_for(encryptor, count, rng):
    """Pre-matrix (bound, value) noisy vector pairs, as the noise-layer
    adversary of Section 3.5 would observe them."""
    pairs = []
    for _ in range(count):
        bound = rng.randrange(0, 2 ** 31)
        value = rng.randrange(0, 2 ** 31)
        pairs.append(
            (
                encryptor.bound_pre_image(encryptor.encrypt_bound(bound)),
                encryptor.pre_image(encryptor.encrypt_value(value))[0],
            )
        )
    return pairs


class TestNoiseLayerAttack:
    def test_recovers_positions(self, encryptor, rng):
        result = recover_payload_positions(observations_for(encryptor, 6, rng))
        assert result.unique
        assert set(result.consistent_hypotheses[0]) == set(
            encryptor.key.payload_positions
        )

    def test_hypothesis_count_is_l_choose_2(self, encryptor, rng):
        result = recover_payload_positions(observations_for(encryptor, 3, rng))
        length = encryptor.key.length
        assert result.hypotheses_tested == length * (length - 1) // 2

    def test_large_keys(self, encryptor8, rng):
        result = recover_payload_positions(
            observations_for(encryptor8, 8, rng)
        )
        assert result.unique
        assert set(result.consistent_hypotheses[0]) == set(
            encryptor8.key.payload_positions
        )

    def test_single_observation_may_be_ambiguous(self, encryptor, rng):
        result = recover_payload_positions(observations_for(encryptor, 1, rng))
        # The true hypothesis always survives, whatever else does.
        assert any(
            set(h) == set(encryptor.key.payload_positions)
            for h in result.consistent_hypotheses
        )

    def test_empty_observations_rejected(self):
        with pytest.raises(AttackError):
            recover_payload_positions([])

    def test_inconsistent_lengths_rejected(self, encryptor, encryptor8, rng):
        mixed = observations_for(encryptor, 1, rng) + observations_for(
            encryptor8, 1, rng
        )
        with pytest.raises(AttackError):
            recover_payload_positions(mixed)


class TestBoundRecovery:
    def test_breaks_with_constant_pairs(self, encryptor, rng):
        # Bound ciphertexts live in a 3-dimensional subspace whatever
        # the key length: three generic leaked pairs suffice.
        holdout = [
            (b, encryptor.encrypt_bound(b))
            for b in (rng.randrange(0, 2 ** 31) for _ in range(10))
        ]
        pairs = pairs_needed_to_break(
            BoundRecoveryAttack(),
            (
                (b, encryptor.encrypt_bound(b))
                for b in iter(lambda: rng.randrange(0, 2 ** 31), None)
            ),
            holdout,
            limit=10,
        )
        assert pairs is not None and pairs <= 4

    def test_constant_in_key_length(self, rng):
        for length in (4, 8, 16):
            encryptor = Encryptor(generate_key(length, seed=length), seed=1)
            holdout = [
                (b, encryptor.encrypt_bound(b))
                for b in (rng.randrange(0, 2 ** 31) for _ in range(10))
            ]
            pairs = pairs_needed_to_break(
                BoundRecoveryAttack(),
                (
                    (b, encryptor.encrypt_bound(b))
                    for b in iter(lambda: rng.randrange(0, 2 ** 31), None)
                ),
                holdout,
                limit=10,
            )
            assert pairs is not None and pairs <= 5

    def test_decrypt_before_fit_rejected(self, encryptor):
        attack = BoundRecoveryAttack()
        with pytest.raises(AttackError):
            attack.decrypt_bound(encryptor.encrypt_bound(1))

    def test_inconsistent_observations_do_not_fit(self, encryptor):
        # One ciphertext claimed under two plaintexts: no functional
        # satisfies both, and the fit says so instead of guessing.
        attack = BoundRecoveryAttack()
        ciphertext = encryptor.encrypt_bound(7)
        attack.observe(7, ciphertext)
        assert attack.fit() and attack.decrypt_bound(ciphertext) == 7
        attack.observe(8, ciphertext)
        assert not attack.fit() and attack.functional is None

    def test_mixed_lengths_rejected(self, encryptor, encryptor8):
        attack = BoundRecoveryAttack()
        attack.observe(1, encryptor.encrypt_bound(1))
        with pytest.raises(AttackError):
            attack.observe(2, encryptor8.encrypt_bound(2))

    def test_fit_empty_returns_false(self):
        assert not BoundRecoveryAttack().fit()


class TestValueRecovery:
    def test_breaks_and_decrypts(self, encryptor, rng):
        attack = ValueRecoveryAttack()
        for _ in range(2 * encryptor.key.length + 4):
            value = rng.randrange(0, 2 ** 31)
            attack.observe(value, encryptor.encrypt_value(value))
        assert attack.fit()
        fresh_value = 123456789
        recovered = attack.decrypt_value(encryptor.encrypt_value(fresh_value))
        assert recovered == fresh_value

    def test_pairs_scale_with_key_length(self, rng):
        # The paper: O(l) known pairs; concretely about 2l - 3.
        needed = {}
        for length in (4, 6, 8):
            encryptor = Encryptor(generate_key(length, seed=length), seed=2)
            holdout = [
                (v, encryptor.encrypt_value(v))
                for v in (rng.randrange(0, 2 ** 31) for _ in range(10))
            ]
            needed[length] = pairs_needed_to_break(
                ValueRecoveryAttack(),
                (
                    (v, encryptor.encrypt_value(v))
                    for v in iter(lambda: rng.randrange(0, 2 ** 31), None)
                ),
                holdout,
                limit=4 * length,
            )
            assert needed[length] is not None
        assert needed[4] < needed[6] < needed[8]
        assert needed[8] >= 8  # grows at least linearly

    def test_underfit_does_not_generalise(self, encryptor, rng):
        attack = ValueRecoveryAttack()
        attack.observe(5, encryptor.encrypt_value(5))
        if attack.fit():
            fresh = encryptor.encrypt_value(424242)
            try:
                assert attack.decrypt_value(fresh) != 424242
            except AttackError:
                pass  # vanishing denominator is also a failure to break

    def test_decrypt_before_fit_rejected(self, encryptor):
        attack = ValueRecoveryAttack()
        with pytest.raises(AttackError):
            attack.decrypt_value(encryptor.encrypt_value(1))

    def test_mixed_lengths_rejected(self, encryptor, encryptor8):
        attack = ValueRecoveryAttack()
        attack.observe(1, encryptor.encrypt_value(1))
        with pytest.raises(AttackError):
            attack.observe(2, encryptor8.encrypt_value(2))


class TestRankMatchingAttack:
    def test_fully_decrypts_opes(self, rng):
        from repro.crypto.attacks import rank_matching_attack
        from repro.crypto.opes import OpesCipher, generate_opes_key

        cipher = OpesCipher(generate_opes_key((0, 10 ** 6), seed=9))
        values = [rng.randrange(10 ** 6) for _ in range(200)]
        ciphertexts = [cipher.encrypt(v) for v in values]
        mapping = rank_matching_attack(ciphertexts, values)
        assert all(
            mapping[ct] == v for ct, v in zip(ciphertexts, values)
        )

    def test_duplicates_preserved(self):
        from repro.crypto.attacks import rank_matching_attack
        from repro.crypto.opes import OpesCipher, generate_opes_key

        cipher = OpesCipher(generate_opes_key((0, 100), seed=10))
        values = [5, 5, 5, 80, 80, 13]
        ciphertexts = [cipher.encrypt(v) for v in values]
        mapping = rank_matching_attack(ciphertexts, values)
        assert mapping[cipher.encrypt(5)] == 5
        assert mapping[cipher.encrypt(80)] == 80

    def test_wrong_background_knowledge_rejected(self):
        from repro.crypto.attacks import rank_matching_attack
        from repro.errors import AttackError
        import pytest as _pytest

        with _pytest.raises(AttackError):
            rank_matching_attack([1, 2, 3], [10, 20])

    def test_useless_against_the_papers_scheme(self, encryptor, rng):
        # The scheme is probabilistic and order-free: sorting raw
        # ciphertext components aligns with nothing, so rank matching
        # recovers garbage.  (Each encryption of the same value also
        # differs, so there is no frequency channel either.)
        from repro.crypto.attacks import rank_matching_attack

        values = sorted(rng.randrange(10 ** 6) for _ in range(50))
        ciphertexts = [encryptor.encrypt_value(v) for v in values]
        first_components = [ct.numerators[0] for ct in ciphertexts]
        if len(set(first_components)) != len(set(values)):
            return  # trivially no alignment possible
        mapping = rank_matching_attack(first_components, values)
        correct = sum(
            1
            for component, value in zip(first_components, values)
            if mapping[component] == value
        )
        assert correct < len(values) // 2
