"""Property-based tests (hypothesis) on the core invariants.

These pin the contracts everything else rests on:

* the scheme's comparison identity ``sign(Eb(b) . Ev(v)) == sign(v-b)``
  for arbitrary integers, including adversarially close ones;
* cracking partitions (in-place and vectorised) preserve multisets and
  respect predicates for arbitrary inputs;
* the cracker index stays ordered under arbitrary crack sequences;
* adaptive engines return exactly the reference result set for
  arbitrary data and query sequences.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cracking.algorithms import crack_in_two, partition_order
from repro.cracking.column import CrackerColumn
from repro.cracking.cracks import CrackIndex
from repro.cracking.index import AdaptiveIndex
from repro.crypto.key import generate_key
from repro.crypto.scheme import Encryptor, compare

from conftest import reference_positions

# One shared key/encryptor: hypothesis runs many examples and key
# generation is the expensive part.
_KEY = generate_key(length=4, seed=777)
_ENCRYPTOR = Encryptor(_KEY, seed=778)

ints = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)


class TestSchemeProperties:
    @given(value=ints)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, value):
        assert _ENCRYPTOR.decrypt_value(_ENCRYPTOR.encrypt_value(value)) == value

    @given(value=ints, bound=ints)
    @settings(max_examples=60, deadline=None)
    def test_comparison_identity(self, value, bound):
        sign = compare(
            _ENCRYPTOR.encrypt_bound(bound), _ENCRYPTOR.encrypt_value(value)
        )
        assert sign == (value > bound) - (value < bound)

    @given(value=ints, delta=st.integers(min_value=-2, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_adjacent_exactness(self, value, delta):
        bound = value + delta
        sign = compare(
            _ENCRYPTOR.encrypt_bound(bound), _ENCRYPTOR.encrypt_value(value)
        )
        assert sign == (value > bound) - (value < bound)

    @given(value=st.integers(min_value=-(2 ** 20), max_value=2 ** 20))
    @settings(max_examples=25, deadline=None)
    def test_ambiguity_single_real_branch(self, value):
        ambiguous = _ENCRYPTOR.encrypt_value_ambiguous(value)
        decrypted = [
            _ENCRYPTOR.decrypt_row(row)
            for row in ambiguous.interpretations()
        ]
        assert sum(d.is_real for d in decrypted) == 1
        real = next(d for d in decrypted if d.is_real)
        assert real.value == value


class TestCrackingProperties:
    @given(
        values=st.lists(st.integers(0, 100), max_size=60),
        pivot=st.integers(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_crack_in_two_partitions(self, values, pivot):
        data = list(values)

        def belongs_left(i):
            return data[i] < pivot

        def swap(i, j):
            data[i], data[j] = data[j], data[i]

        split = crack_in_two(belongs_left, swap, 0, len(data) - 1)
        assert sorted(data) == sorted(values)
        assert all(v < pivot for v in data[:split])
        assert all(v >= pivot for v in data[split:])

    @given(
        values=st.lists(st.integers(-50, 50), max_size=60),
        pivot=st.integers(-50, 50),
        inclusive=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_column_crack_invariant(self, values, pivot, inclusive):
        column = CrackerColumn(values)
        split = column.crack(0, len(values), pivot, inclusive)
        assert column.check_partition(split, pivot, inclusive)
        assert sorted(column.values.tolist()) == sorted(values)
        base = np.array(values, dtype=np.int64)
        assert np.array_equal(base[column.positions], column.values)

    @given(mask=st.lists(st.booleans(), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_partition_order_is_permutation(self, mask):
        order = partition_order(np.array(mask, dtype=bool))
        assert sorted(order.tolist()) == list(range(len(mask)))


class TestCrackIndexProperties:
    @given(keys=st.lists(st.integers(0, 10 ** 6), max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_index_invariants(self, keys):
        index = CrackIndex(lambda a, b: (a > b) - (a < b))
        for key in keys:
            index.add(key, key + 1, 10 ** 6 + 2)
        index.check_invariants(10 ** 6 + 2)
        assert index.keys == sorted(set(keys))


class TestEngineProperties:
    @given(
        data=st.lists(
            st.integers(-1000, 1000), min_size=1, max_size=120
        ),
        queries=st.lists(
            st.tuples(
                st.integers(-1000, 1000),
                st.integers(0, 200),
                st.booleans(),
                st.booleans(),
            ),
            min_size=1,
            max_size=15,
        ),
        min_piece=st.sampled_from([1, 4, 1000]),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_adaptive_index_matches_reference(self, data, queries, min_piece):
        index = AdaptiveIndex(data, min_piece_size=min_piece)
        for low, span, low_inclusive, high_inclusive in queries:
            high = low + span
            result = np.sort(index.query(low, high, low_inclusive, high_inclusive))
            expected = reference_positions(
                data, low, high, low_inclusive, high_inclusive
            )
            assert np.array_equal(result, expected)
        index.check_invariants()

    @given(
        data=st.lists(st.integers(0, 200), min_size=1, max_size=40),
        queries=st.lists(
            st.tuples(
                st.integers(0, 200),
                st.integers(0, 40),
                st.booleans(),
                st.booleans(),
                st.sampled_from(["both", "low", "high"]),
            ),
            min_size=1,
            max_size=6,
        ),
        min_piece=st.sampled_from([1, 4, 16]),
        three_way=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_secure_index_matches_plain(self, data, queries, min_piece, three_way):
        """The two engines are one driver: same results, same physical
        reorganisation, same cost counters, query by query."""
        from repro.core.client import TrustedClient
        from repro.core.encrypted_column import EncryptedColumn
        from repro.core.secure_index import SecureAdaptiveIndex

        client = TrustedClient(key=_KEY, seed=5)
        rows, row_ids = client.encrypt_dataset(data)
        config = dict(min_piece_size=min_piece, use_three_way=three_way)
        secure = SecureAdaptiveIndex(EncryptedColumn(rows, row_ids), **config)
        plain = AdaptiveIndex(data, **config)
        for low, span, low_inclusive, high_inclusive, sides in queries:
            args = dict(low_inclusive=low_inclusive, high_inclusive=high_inclusive)
            if sides != "high":
                args["low"] = low
            if sides != "low":
                args["high"] = low + span
            secure_ids, __ = secure.query(client.make_query(**args))
            plain_ids = plain.query(**args)
            assert sorted(int(i) for i in secure_ids) == sorted(
                plain_ids.tolist()
            )
            assert secure.piece_boundaries() == plain.piece_boundaries()
            for name in ("cracks", "cracked_rows", "comparisons", "result_count"):
                assert getattr(secure.stats_log[-1], name) == getattr(
                    plain.stats_log[-1], name
                ), name
        assert secure.column.row_ids.tolist() == plain.column.positions.tolist()
        secure.check_invariants()
        plain.check_invariants()


class TestOneSidedProperties:
    @given(
        data=st.lists(st.integers(-500, 500), min_size=1, max_size=100),
        bound=st.integers(-600, 600),
        inclusive=st.booleans(),
        below=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_sided_matches_reference(self, data, bound, inclusive, below):
        index = AdaptiveIndex(data)
        values = np.array(data, dtype=np.int64)
        if below:
            result = index.query(high=bound, high_inclusive=inclusive)
            mask = values <= bound if inclusive else values < bound
        else:
            result = index.query(low=bound, low_inclusive=inclusive)
            mask = values >= bound if inclusive else values > bound
        assert np.array_equal(np.sort(result), np.flatnonzero(mask))
        index.check_invariants()


class TestSteeredAmbiguityProperties:
    @given(
        value=st.integers(0, 2 ** 31 - 1),
        domain_start=st.integers(0, 2 ** 30),
        domain_width=st.integers(1, 2 ** 30),
    )
    @settings(max_examples=15, deadline=None)
    def test_counterfeit_lands_in_domain(
        self, value, domain_start, domain_width
    ):
        from repro.crypto.scheme import Encryptor, generate_steerable_key
        from repro.linalg.intmat import mat_vec
        from fractions import Fraction

        domain = (domain_start, domain_start + domain_width)
        key = _STEERABLE_KEY
        encryptor = Encryptor(key, seed=value % 1000)
        ambiguous = encryptor.encrypt_value_ambiguous(
            value, fake_domain=domain
        )
        decrypted = [
            encryptor.decrypt_row(row)
            for row in ambiguous.interpretations()
        ]
        assert sum(d.is_real for d in decrypted) == 1
        real = next(d for d in decrypted if d.is_real)
        assert real.value == value
        if encryptor.steering_fallbacks == 0:
            fake_row = ambiguous.interpretations()[
                0 if decrypted[1].is_real else 1
            ]
            pre_image = mat_vec(key.matrix, fake_row.numerators)
            p0, p1 = key.payload_projection(pre_image)
            pseudo = Fraction(p0, -p1)
            assert domain[0] <= pseudo <= domain[1]


class TestOpesProperties:
    @given(
        values=st.lists(
            st.integers(0, 10 ** 6), min_size=2, max_size=50, unique=True
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_opes_order_preserved(self, values):
        ciphertexts = [_OPES.encrypt(v) for v in values]
        order_plain = sorted(range(len(values)), key=lambda i: values[i])
        order_cipher = sorted(
            range(len(values)), key=lambda i: ciphertexts[i]
        )
        assert order_plain == order_cipher
        for value, ciphertext in zip(values, ciphertexts):
            assert _OPES.decrypt(ciphertext) == value


# Shared expensive fixtures for the property classes above.
from repro.crypto.opes import OpesCipher, generate_opes_key
from repro.crypto.scheme import generate_steerable_key as _gsk

_OPES = OpesCipher(generate_opes_key((0, 10 ** 6 + 1), seed=99))
_STEERABLE_KEY = _gsk(4, (0, 2 ** 31), seed=123)
