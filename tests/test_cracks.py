"""Unit tests for the cracker index and the encrypted key order.

:class:`~repro.cracking.cracks.CrackIndex` is held to a brute-force scan
over its own keys: ``locate``'s rank is the number of keys below the
searched one, ``piece`` runs from the floor key's position to the
ceiling key's.  The generic cases run twice, over integer keys and over
encrypted bound keys ordered by scalar products (Section 4.3), the two
comparators the engines pass.
"""

import math
import random

import pytest

from repro.core.query import (
    EncryptedBound,
    EncryptedBoundKey,
    compare_encrypted_keys,
)
from repro.cracking.cracks import CrackIndex
from repro.errors import IndexStateError


def int_cmp(a, b):
    return (a > b) - (a < b)


def make_key(encryptor, bound, inclusive=False):
    return EncryptedBoundKey(
        EncryptedBound(
            eb=encryptor.encrypt_bound(bound),
            ev=encryptor.encrypt_value(bound),
        ),
        inclusive=inclusive,
    )


class Flavour:
    """Keys of one comparator, made from plaintext integer bounds."""

    def __init__(self, name, encryptor):
        self.name = name
        self._encryptor = encryptor

    def index(self):
        return CrackIndex(int_cmp if self.name == "plain" else compare_encrypted_keys)

    def key(self, bound):
        if self.name == "plain":
            return bound
        return make_key(self._encryptor, bound)

    def build(self, cracks, size=10**6):
        """An index holding ``{bound: position}``, added in dict order."""
        index = self.index()
        for bound, position in cracks.items():
            index.add(self.key(bound), position, size)
        return index


@pytest.fixture(params=("plain", "encrypted"))
def flavour(request, encryptor):
    return Flavour(request.param, encryptor)


def brute_locate(bounds, probe):
    """``(exact, rank)`` from a scan over the sorted indexed bounds."""
    return probe in bounds, sum(bound < probe for bound in bounds)


def brute_piece(cracks, probe, size):
    """The piece from the floor bound's position (or 0) to the ceiling
    bound's (or ``size``), by a scan over every indexed bound."""
    below = [bound for bound in cracks if bound <= probe]
    above = [bound for bound in cracks if bound >= probe]
    return (
        cracks[max(below)] if below else 0,
        cracks[min(above)] if above else size,
    )


def monotone_cracks(rng, count, spread=100000):
    """``count`` distinct bounds, each at a position rising with it."""
    bounds = rng.sample(range(0, spread, 7), count)
    return {bound: bound + 1 for bound in bounds}


class TestLocateAndPiece:
    def test_empty_index_is_the_whole_column(self, flavour):
        index = flavour.index()
        located = index.locate(flavour.key(42))
        assert len(index) == 0
        assert located == (False, 0)
        assert index.piece(located, 1000) == (0, 1000)
        assert index.comparison_count == 0

    def test_between_two_bounds(self, flavour):
        index = flavour.build({10: 100, 20: 200})
        assert index.piece(index.locate(flavour.key(15)), 1000) == (100, 200)

    def test_below_every_bound(self, flavour):
        index = flavour.build({10: 100, 20: 200})
        assert index.piece(index.locate(flavour.key(5)), 1000) == (0, 100)

    def test_beyond_every_bound(self, flavour):
        index = flavour.build({10: 100, 20: 200})
        assert index.piece(index.locate(flavour.key(50)), 1000) == (200, 1000)

    def test_an_indexed_bound_is_exact(self, flavour):
        index = flavour.build({10: 100, 20: 200, 30: 300})
        for rank, bound in enumerate((10, 20, 30)):
            exact, found = index.locate(flavour.key(bound))
            assert exact and found == rank
            assert index.positions[found] == 100 * (rank + 1)

    def test_many_bounds(self, flavour):
        index = flavour.build({10: 100, 20: 200, 30: 300, 40: 400})
        for probe, piece in ((25, (200, 300)), (35, (300, 400)),
                             (5, (0, 100)), (45, (400, 1000))):
            assert index.piece(index.locate(flavour.key(probe)), 1000) == piece

    def test_agrees_with_a_brute_force_scan(self, flavour, rng):
        sizes = (0, 1, 2, 7, 60, 300) if flavour.name == "plain" else (0, 1, 5, 40)
        for count in sizes:
            cracks = monotone_cracks(rng, count)
            index, bounds = flavour.build(cracks), sorted(cracks)
            probes = rng.sample(range(-3, 100003), 60) + bounds[:10]
            for probe in probes:
                located = index.locate(flavour.key(probe))
                assert located == brute_locate(bounds, probe)
                if not located[0]:
                    assert index.piece(located, 10**6) == (
                        brute_piece(cracks, probe, 10**6)
                    )

    def test_a_search_makes_at_most_log2_n_plus_1_comparisons(self, flavour, rng):
        """The bound a binary search keeps, and the cost-model claim."""
        counts = range(0, 130) if flavour.name == "plain" else (0, 1, 2, 3, 8, 31, 33)
        for count in counts:
            cracks = monotone_cracks(rng, count)
            index = flavour.build(cracks)
            bound = math.ceil(math.log2(count + 1))
            probes = rng.sample(range(-3, 100003), 20) + sorted(cracks)[:5]
            for probe in probes:
                before = index.comparison_count
                index.locate(flavour.key(probe))
                assert index.comparison_count - before <= bound

    def test_one_search_serves_lookup_piece_and_add(self, flavour, rng):
        index = flavour.build(monotone_cracks(rng, 50))
        key = flavour.key(50001)
        before = index.comparison_count
        located = index.locate(key)
        walked = index.comparison_count - before
        piece = index.piece(located, 10**6)
        index.add(key, 50002, 10**6, located)
        assert 0 < walked <= math.ceil(math.log2(51))
        # Neither the piece nor the add at the located rank compares.
        assert index.comparison_count - before == walked
        assert piece[0] < 50002 < piece[1]
        assert index.locate(key) == (True, located[1])
        index.check_invariants(10**6)

    def test_a_compare_given_to_locate_replaces_the_comparator(self, flavour):
        """Merge routing's search: a side rule that never ties."""
        index = flavour.build({10: 100, 20: 200, 30: 300})
        bounds = [10, 20, 30]

        def right_of(value, key):
            bound = bounds[index.keys.index(key)]
            return -1 if value <= bound else 1

        for value, rank in ((5, 0), (10, 0), (11, 1), (20, 1), (29, 2), (31, 3)):
            assert index.locate(value, right_of) == (False, rank)
        assert index.locate(flavour.key(20)) == (True, 1)


class TestAdd:
    def test_boundary_positions_are_not_stored(self, flavour):
        index = flavour.index()
        index.add(flavour.key(10), 0, 1000)
        index.add(flavour.key(10), 1000, 1000)
        index.add(flavour.key(10), -4, 1000)
        assert len(index) == 0 and index.comparison_count == 0

    def test_a_fresh_key_goes_in(self, flavour):
        index = flavour.index()
        index.add(flavour.key(10), 100, 1000)
        assert len(index) == 1 and index.positions == [100]
        assert index.locate(flavour.key(10)) == (True, 0)

    def test_an_indexed_key_gets_its_position_refreshed(self, flavour):
        index = flavour.build({10: 100, 20: 200})
        index.add(flavour.key(10), 120, 1000)
        assert len(index) == 2 and index.positions == [120, 200]

    def test_a_neighbour_below_at_the_position_is_kept(self, flavour):
        # No values between bounds 10 and 12: the crack position is the
        # same, so the new bound adds nothing.
        index = flavour.build({10: 100})
        index.add(flavour.key(12), 100, 1000)
        assert len(index) == 1 and index.locate(flavour.key(10)) == (True, 0)

    def test_a_neighbour_above_at_the_position_is_kept(self, flavour):
        index = flavour.build({12: 100})
        index.add(flavour.key(10), 100, 1000)
        assert len(index) == 1 and index.locate(flavour.key(12)) == (True, 0)

    def test_distinct_positions_make_distinct_cracks(self, flavour):
        index = flavour.build({10: 100, 20: 200, 15: 150})
        assert len(index) == 3 and index.positions == [100, 150, 200]
        assert index.piece(index.locate(flavour.key(12)), 1000) == (100, 150)

    def test_keys_stay_in_order_under_random_adds(self, flavour, rng):
        count = 200 if flavour.name == "plain" else 40
        index, cracks = flavour.index(), {}
        for _ in range(count):
            bound = rng.randrange(0, 100000)
            index.add(flavour.key(bound), bound + 1, 10**6)
            cracks[bound] = bound + 1
        assert index.positions == [cracks[bound] for bound in sorted(cracks)]
        index.check_invariants(10**6)

    def test_matches_a_brute_force_add(self, flavour, rng):
        """The four cases against a dict of bounds, positions drawn from
        a few values so that every case happens."""
        index, cracks, size = flavour.index(), {}, 50
        for _ in range(80 if flavour.name == "plain" else 30):
            bound = rng.randrange(0, 60)
            below = [cracks[b] for b in cracks if b < bound]
            above = [cracks[b] for b in cracks if b > bound]
            position = rng.randint(max(below, default=0), min(above, default=size))
            index.add(flavour.key(bound), position, size)
            if not 0 < position < size:
                continue
            if bound in cracks or position not in (
                max(below, default=None), min(above, default=None)
            ):
                cracks[bound] = position
            assert index.positions == [cracks[b] for b in sorted(cracks)]
        index.check_invariants(size)


class TestCheckInvariants:
    def test_a_built_index_passes(self, flavour, rng):
        flavour.build(monotone_cracks(rng, 30)).check_invariants(10**6)

    def test_keys_out_of_order_are_refused(self, flavour):
        index = flavour.build({10: 100, 20: 200})
        index.keys.reverse()
        with pytest.raises(IndexStateError):
            index.check_invariants(1000)

    def test_a_repeated_key_is_refused(self, flavour):
        index = flavour.build({10: 100})
        index.keys.append(flavour.key(10))
        index.positions.append(100)
        with pytest.raises(IndexStateError):
            index.check_invariants(1000)

    @pytest.mark.parametrize("positions", ([-1, 200], [100, 1001], [200, 100]))
    def test_positions_out_of_range_or_order_are_refused(self, flavour, positions):
        index = flavour.build({10: 100, 20: 200})
        index.positions[:] = positions
        with pytest.raises(IndexStateError):
            index.check_invariants(1000)

    def test_equal_neighbour_positions_pass(self, flavour):
        """Deletes can empty a piece: two cracks on one position."""
        index = flavour.build({10: 100, 20: 200})
        index.positions[:] = [150, 150]
        index.check_invariants(1000)

    def test_the_order_check_makes_n_minus_1_comparisons(self):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return int_cmp(a, b)

        index = CrackIndex(counting)
        for bound in range(1, 41):
            index.add(bound, bound, 100)
        calls.clear()
        index.check_invariants(100)
        assert len(calls) == 39


class TestEncryptedKeyOrder:
    def test_orders_by_plaintext(self, encryptor):
        small = make_key(encryptor, 10)
        large = make_key(encryptor, 20)
        assert compare_encrypted_keys(small, large) < 0
        assert compare_encrypted_keys(large, small) > 0

    def test_equal_bounds_tie_break_on_flavour(self, encryptor):
        strict = make_key(encryptor, 10, inclusive=False)
        inclusive = make_key(encryptor, 10, inclusive=True)
        assert compare_encrypted_keys(strict, inclusive) < 0
        assert compare_encrypted_keys(inclusive, strict) > 0
        assert compare_encrypted_keys(strict, strict) == 0

    def test_fresh_encryptions_of_same_bound_compare_equal(self, encryptor):
        first = make_key(encryptor, 10)
        second = make_key(encryptor, 10)
        assert compare_encrypted_keys(first, second) == 0

    def test_total_order_on_random_bounds(self, encryptor, rng):
        bounds = rng.sample(range(1, 10 ** 6), 40)
        index = CrackIndex(compare_encrypted_keys)
        for bound in bounds:
            index.add(make_key(encryptor, bound), bound, 10 ** 6)
        assert index.positions == sorted(bounds)
        index.check_invariants(10 ** 6)

    def test_ties_on_flavour_locate_like_tuples(self, encryptor):
        """Encrypted keys order like ``(bound, inclusive)`` tuples."""
        rng = random.Random(4)
        plain, encrypted = CrackIndex(int_cmp), CrackIndex(compare_encrypted_keys)
        for _ in range(60):
            bound, inclusive = rng.randrange(40), rng.random() < 0.5
            position = 2 * bound + inclusive + 1
            plain.add((bound, inclusive), position, 100)
            encrypted.add(make_key(encryptor, bound, inclusive), position, 100)
            for probe in ((bound, False), (bound, True), (bound + 1, False)):
                assert encrypted.locate(make_key(encryptor, *probe)) == (
                    plain.locate(probe)
                )
        assert encrypted.positions == plain.positions


# -- one search per key, three-way engines too ----------------------------------


def _three_way_engines():
    """A plaintext and a secure three-way engine over one 4 000-value
    column, each with the cracks of one three-way query."""
    from repro.core.client import TrustedClient
    from repro.core.encrypted_column import EncryptedColumn
    from repro.core.secure_index import SecureAdaptiveIndex
    from repro.cracking.index import AdaptiveIndex

    values = random.Random(8).sample(range(10_000), 4_000)
    client = TrustedClient(seed=3)
    plain = AdaptiveIndex(values, use_three_way=True)
    secure = SecureAdaptiveIndex(
        EncryptedColumn(*client.encrypt_dataset(values)),
        min_piece_size=1, use_three_way=True,
    )
    plain.query(1_000, 9_000)
    secure.query(client.make_query(1_000, 9_000))
    return (
        (plain, lambda low, high: plain.query(low, high)),
        (secure, lambda low, high: secure.query(client.make_query(low, high))),
    )


@pytest.mark.parametrize("engine", range(2), ids=["plain", "secure"])
def test_a_declined_three_way_crack_searches_each_key_once(engine,
                                                           monkeypatch):
    """Bounds in two pieces crack two-way: the three-way check's two
    searches are all the query makes (it made four when the placement
    searched again), and a repeat of it makes two."""
    index, query = _three_way_engines()[engine]
    searched = []
    locate = CrackIndex.locate

    def spy(self, key, compare=None):
        searched.append(key)
        return locate(self, key, compare)

    monkeypatch.setattr(CrackIndex, "locate", spy)
    cracks = len(index.cracks)
    query(500, 4_000)
    assert len(index.cracks) == cracks + 2  # each bound cracked its piece
    assert len(searched) == 2
    del searched[:]
    query(500, 4_000)
    assert len(searched) == 2
    index.check_invariants()
