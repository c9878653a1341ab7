"""The one scalar-product kernel: ``EncryptedColumn.products``.

Every server-side decision is the sign of an exact ``Eb . Ev`` product.
A row's product is taken in words (limb 0 of the store, wrapping 64-bit
matmul) only when the float64 acceptance inequality proves the word is
the product; every other row is boxed and multiplied in big-int
arithmetic.  The word path runs on arrays only, so ``filterwarnings =
error::RuntimeWarning`` is still the tripwire for an int64 *scalar*
leaking into the ciphertext path.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.client import TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.secure_index import SecureAdaptiveIndex
from repro.core.server import SecureServer
from repro.crypto.ciphertext import BoundCiphertext, RowBlock, ValueCiphertext
from repro.linalg import limbs
from repro.linalg.limbs import to_objects

NUMERATORS = st.integers(-(2 ** 256), 2 ** 256)
INT64 = range(-(2 ** 63), 2 ** 63)


def _column(rows, denominators=None):
    denominators = denominators or [1] * len(rows)
    return EncryptedColumn(
        [ValueCiphertext(tuple(row), d) for row, d in zip(rows, denominators)]
    )


def _products(rows, vector):
    return _column(rows).products(0, len(rows), BoundCiphertext(tuple(vector)))


def _dot(row, vector):
    return sum(x * y for x, y in zip(row, vector))


@st.composite
def boundary_case(draw):
    """Rows whose products sit on chosen targets — one step inside and
    one step past each end of int64, and a few anywhere — under operand
    widths that take the rounding bound from far below to past 2^62."""
    length = draw(st.integers(2, 5))
    row_bits = draw(st.integers(8, 100))
    bound_bits = draw(st.integers(1, 40))
    wide = st.integers(-(2 ** row_bits), 2 ** row_bits)
    vector = [1] + draw(st.lists(
        st.integers(-(2 ** bound_bits), 2 ** bound_bits),
        min_size=length - 1, max_size=length - 1,
    ))
    targets = draw(st.lists(
        st.one_of(
            st.sampled_from([2 ** 63 - 1, 2 ** 63, -(2 ** 63), -(2 ** 63) - 1, 0]),
            st.integers(-(2 ** 70), 2 ** 70),
        ),
        min_size=1, max_size=8,
    ))
    rows = []
    for target in targets:
        tail = draw(st.lists(wide, min_size=length - 1, max_size=length - 1))
        # The noise cancels, as in the scheme: the first component
        # absorbs whatever the others add up to.
        rows.append([target - _dot(tail, vector[1:])] + tail)
    denominators = draw(st.lists(
        st.integers(2, 2 ** 62), min_size=len(rows), max_size=len(rows)
    ))
    return rows, denominators, vector, targets


class TestExactProducts:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(1, 5).flatmap(
            lambda length: st.tuples(
                st.lists(
                    st.lists(NUMERATORS, min_size=length, max_size=length),
                    min_size=1,
                    max_size=8,
                ),
                st.lists(NUMERATORS, min_size=length, max_size=length),
            )
        )
    )
    def test_products_are_python_int_dot_products(self, case):
        rows, vector = case
        products = _products(rows, vector)
        assert products.tolist() == [_dot(row, vector) for row in rows]

    def test_exact_on_both_sides_of_the_int64_boundary(self):
        # Operands that fit a machine word, products one step inside
        # and one step past each end of int64: the wrapped word of the
        # outer two has the opposite sign, so they must be refused by
        # the acceptance test and computed in big-int arithmetic.
        half = 2 ** 62
        rows = [[half, half - 1], [half, half], [-half, -half], [-half, -half - 1]]
        column = _column(rows)
        products = column.products(0, 4, BoundCiphertext((1, 1)))
        assert products.dtype == object
        assert products.tolist() == [
            2 ** 63 - 1, 2 ** 63, -(2 ** 63), -(2 ** 63) - 1,
        ]
        assert column.product_counts() == (2, 2)
        inner = column.products(0, 1, BoundCiphertext((1, 1)))
        assert inner.dtype == np.int64 and inner.tolist() == [2 ** 63 - 1]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(boundary_case())
    def test_value_equal_at_the_representable_boundary(self, case):
        rows, denominators, vector, targets = case
        column = _column(rows, denominators)
        products = column.products(0, len(rows), BoundCiphertext(tuple(vector)))
        assert products.tolist() == targets == [_dot(row, vector) for row in rows]
        fast, exact = column.product_counts()
        assert fast + exact == len(rows)
        # A word-sized answer is only ever given for a product that
        # fits the word.
        assert fast <= sum(target in INT64 for target in targets)
        if products.dtype != object:
            assert (products.dtype, exact) == (np.int64, 0)
        column.check_invariants()

    def test_default_key_products_are_all_proven(self):
        client = TrustedClient(seed=3)
        rows, row_ids = client.encrypt_dataset(list(range(0, 2 ** 31, 2 ** 21)))
        column = EncryptedColumn(rows, row_ids)
        bound = client.encrypt_query_bound(2 ** 30).eb
        products = column.products(0, len(column), bound)
        assert products.dtype == np.int64
        assert column.product_counts() == (len(column), 0)
        assert products.tolist() == [
            _dot(row.numerators, bound.vector) for row in rows
        ]

    @pytest.mark.parametrize("bound_bits", [20, 37, 130])
    def test_long_pieces_no_word_holds_are_multiplied_in_digits(
        self, bound_bits, monkeypatch
    ):
        # Ambiguity-sized operands: 96+ rows are multiplied exactly in
        # 32-bit digits (one-digit and several-digit bounds), fewer are
        # boxed; the products are the same integers, the signs theirs,
        # and all of them count as exact.
        rng = np.random.default_rng(bound_bits)
        rows = [
            [int(x) << 53 | 1 for x in rng.integers(-(2 ** 62), 2 ** 62, 4)]
            for _ in range(200)
        ]
        rows[7] = [0, 0, 0, 0]
        vector = [int(x) << (bound_bits - 20)
                  for x in rng.integers(-(2 ** 19), 2 ** 19, 4)]
        bound = BoundCiphertext(tuple(vector))
        truth = [_dot(row, vector) for row in rows]
        column = _column(rows)
        boxed = []
        monkeypatch.setattr(
            limbs, "to_objects",
            lambda array: (boxed.append(array.shape), to_objects(array))[1],
        )
        for lo, hi in ((0, 200), (3, 99), (10, 50)):
            products = column.products(lo, hi, bound)
            assert products.dtype == object
            assert products.tolist() == truth[lo:hi]
            # In digits only the products are boxed (one a row), not the
            # rows (four numerators each).
            (shape,) = boxed
            assert shape[:2] == (hi - lo, 4 if hi - lo < 96 else 1), shape
            boxed.clear()
            for inclusive in (False, True):
                below = column.below(lo, hi, bound, inclusive)
                assert below.tolist() == [
                    p <= 0 if inclusive else p < 0 for p in truth[lo:hi]
                ]
                assert (not boxed) == (hi - lo >= 96)
                boxed.clear()
        assert column.product_counts() == (0, 3 * (200 + 96 + 40))
        assert column._floats is None

    def test_ambiguity_pieces_turn_to_digits_at_96_rows(self, monkeypatch):
        # The server's twin of the client's stage pins: an ambiguity
        # column's products are ruled out of words by bit-lengths, and
        # a piece goes to digits from 96 rows up, boxed below.
        client = TrustedClient(seed=11, ambiguity=True)
        values = np.random.default_rng(2).integers(0, 2 ** 31, 60)
        column = EncryptedColumn(*client.encrypt_dataset(values.tolist()))
        bound = client.encrypt_query_bound(2 ** 30).eb
        stages = []
        for name, stage in (("proven_products", "words"),
                            ("exact_products", "digits"),
                            ("boxed_products", "boxed")):
            def spy(first, *rest, _real=getattr(limbs, name), _stage=stage):
                rows = first.shape[1] if _stage == "digits" else len(first)
                stages.append((_stage, rows))
                return _real(first, *rest)
            monkeypatch.setattr(limbs, name, spy)
        for rows, stage in ((95, "boxed"), (96, "digits"), (97, "digits")):
            stages.clear()
            below = column.below(0, rows, bound, True)
            assert stages == [(stage, rows)]
            assert below.tolist() == [
                _dot(row.numerators, bound.vector) <= 0
                for row in column.rows_at(range(rows))
            ]
        assert column.product_counts() == (0, 95 + 96 + 97)

    @pytest.mark.parametrize("numerator", [2 ** 256, 2 ** 1024, -(2 ** 2000)])
    def test_wide_numerators_skip_the_mirror(self, numerator):
        # Past the bit bound no float plane is derived (2^1024 has no
        # float64) and no product is attempted in words.
        column = _column([[numerator, 3], [5, 7]])
        assert column.products(0, 2, BoundCiphertext((1, 2))).tolist() == [
            numerator + 6, 19,
        ]
        assert column.product_counts() == (0, 2)
        # ... and a narrow column gives its float plane up for good
        # once a wide row arrives.
        column = _column([[5, 7]])
        assert column.products(0, 1, BoundCiphertext((1, 2))).tolist() == [19]
        column.insert_block([1], RowBlock.from_rows([ValueCiphertext((numerator, 3))]), [1])
        assert column.products(0, 2, BoundCiphertext((1, 2))).tolist() == [
            19, numerator + 6,
        ]
        assert column.product_counts() == (1, 2)
        assert column._floats is None
        column.check_invariants()

    def test_ambiguity_rows_never_build_a_mirror(self):
        # Over the paper's 2^31 domain, numerators on a ~58-bit
        # denominator reach ~109 bits: no real bound keeps the rounding
        # bound under 2^62, so nothing is built, permuted or attempted
        # — the column is measured, once.
        client = TrustedClient(seed=3, ambiguity=True)
        values = np.random.default_rng(1).integers(0, 2 ** 31, 1000)
        rows, row_ids = client.encrypt_dataset([int(v) for v in values])
        column = EncryptedColumn(rows, row_ids)
        bound = client.encrypt_query_bound(2 ** 30).eb
        split = column.crack(0, len(column), bound, True)
        assert column.check_partition(split, bound, True)
        assert column._floats is None and column._bits > 100
        assert len(column._parallel_arrays()) == 2
        assert column.product_counts() == (0, 2 * len(column))
        column.check_invariants()

    def test_wide_bound_skips_the_mirror(self):
        column = _column([[5, 7], [1, -1]])
        bound = BoundCiphertext((2 ** 1024, 1))
        assert column.products(0, 2, bound).tolist() == [
            5 * 2 ** 1024 + 7, 2 ** 1024 - 1,
        ]
        assert column.product_counts() == (0, 2)


class TestForgedMirror:
    """The limbs are the rows; the float plane is the one piece of
    redundant state left beside them.  A plane that disagrees with the
    limbs makes the acceptance test refuse the row or is reported by
    ``check_invariants`` — the proof holds only as far as the invariant
    ties the plane to the limbs."""

    def _column(self, key_length=4):
        client = TrustedClient(seed=3, key_length=key_length)
        values = list(range(0, 4000, 37))
        rows, row_ids = client.encrypt_dataset(values)
        column = EncryptedColumn(rows, row_ids)
        assert column._floats is None  # nothing until a product is asked for
        column.products(0, 0, client.encrypt_query_bound(0).eb)
        return client, values, rows, column

    def test_two_planes_whatever_the_numerator_width(self):
        # Numerators inside a word and past it are served alike (the
        # default key draws either: seed 3 gives 58 bits in one limb,
        # seed 11 has 64 in two) — limb 0 and the float plane.
        for seed, limbs in ((3, 1), (11, 2)):
            client = TrustedClient(seed=seed)
            values = list(range(0, 2 ** 31, 2 ** 22))
            column = EncryptedColumn(*client.encrypt_dataset(values))
            bound = client.encrypt_query_bound(2 ** 30).eb
            assert column.below(0, len(column), bound, True).tolist() == [
                v <= 2 ** 30 for v in values
            ]
            assert (column._bits <= 63) == (limbs == 1)
            assert column._limbs.shape == (len(values), 5, limbs)
            assert (column._limbs.dtype, column._floats.dtype) == (
                np.uint64, np.float64,
            )
            assert column.product_counts() == (len(column), 0)
            column.check_invariants()
        # A wider arrival widens the store and joins it like any other row.
        narrow = _column([[5, 7], [1, -1]])
        assert narrow.products(0, 2, BoundCiphertext((1, 1))).tolist() == [12, 0]
        assert narrow._limbs.shape == (2, 3, 1)
        narrow.insert_block([1], RowBlock.from_rows([ValueCiphertext((2 ** 70, 3))]), [2])
        narrow.check_invariants()
        assert narrow._limbs.shape == (3, 3, 2)
        assert narrow._limbs[1, :-1, 0].tolist() == [0, 3]
        assert narrow.products(0, 3, BoundCiphertext((0, 1))).tolist() == [7, 3, -1]
        assert narrow.product_counts() == (5, 0)
        narrow.check_invariants()

    def test_a_low_word_off_by_half_the_ring_is_refused(self):
        client, values, rows, column = self._column()
        bound = client.encrypt_query_bound(2000).eb
        truth = [_dot(row.numerators, bound.vector) for row in rows]
        component = int(np.argmax([x % 2 for x in bound.vector]))  # an odd one
        # The stored numerator moves by 2^63 under a float plane that
        # still describes the old one: the word is off by half the ring
        # from what the plane predicts, so the row is refused — and
        # computed, exactly, from the limbs as they now are.
        column._limbs[5, component, 0] ^= np.uint64(2 ** 63)
        moved = int(column.rows_at([5])[0].numerators[component])
        truth[5] += (moved - rows[5].numerators[component]) * bound.vector[component]
        products = column.products(0, len(column), bound)
        assert products.tolist() == truth
        assert column.product_counts() == (len(column) - 1, 1)
        # (In a one-limb store bit 63 is the sign: the forged numerator
        # also outgrows the tracked bit-length, which is checked first.)
        with pytest.raises(AssertionError, match="tracked bit-length"):
            column.check_invariants()

    @pytest.mark.parametrize("plane, forged", [(0, 1), (1, 0.0)])
    def test_any_drift_fails_the_invariant_check(self, plane, forged):
        __, __, __, column = self._column()
        column.check_invariants()
        (column._limbs[:, :-1, 0], column._floats)[plane][7, 1] = forged
        with pytest.raises(AssertionError, match="float plane drifted"):
            column.check_invariants()

    def test_a_numerator_past_the_tracked_bit_length_is_reported(self):
        __, __, __, column = self._column()
        column._limbs[3, 0, 0] = 1 << (column._bits + 1)
        with pytest.raises(AssertionError, match="tracked bit-length"):
            column.check_invariants()

    def test_engine_check_runs_the_column_check_first(self):
        client, __, rows, column = self._column()
        engine = SecureAdaptiveIndex(column)
        engine.query(client.make_query(100, 900))
        engine.check_invariants()
        # A plane entry that vouches for another row's numerators: the
        # partition checks classify through ``below`` and would trust
        # it — the column's own check must come first and tell.
        column._floats[0] = column._floats[1]
        with pytest.raises(AssertionError, match="float plane drifted"):
            engine.check_invariants()


class TestBelowAtTheBound:
    def test_zero_product_follows_inclusive(self):
        """``v == b`` makes the product exactly 0 under the default key;
        only ``inclusive`` decides which side of the crack it falls."""
        client = TrustedClient(seed=5)
        values = [7, 8, 9, 8]
        rows, row_ids = client.encrypt_dataset(values)
        column = EncryptedColumn(rows, row_ids)
        bound = client.encrypt_query_bound(8).eb
        assert [p == 0 for p in column.products(0, 4, bound)] == [
            False, True, False, True,
        ]
        assert column.below(0, 4, bound, True).tolist() == [
            True, True, False, True,
        ]
        assert column.below(0, 4, bound, False).tolist() == [
            True, False, False, False,
        ]


class TestStatsEqualRegistryDelta:
    """``QueryStats.kernel_fast_products`` / ``kernel_exact_products``
    are the per-query deltas of the two ``kernel.*_products`` counters,
    whichever code path multiplied.  At the default key every batched
    product is proven in words; only merge routing multiplies one row
    at a time, in big-int arithmetic."""

    VALUES = [int(v) for v in np.random.default_rng(5).permutation(512)]

    def _server(self, min_piece_size=1, **config):
        client = TrustedClient(seed=3)
        rows, row_ids = client.encrypt_dataset(self.VALUES)
        return client, SecureServer(
            rows, row_ids, min_piece_size=min_piece_size, **config
        )

    def _query_delta(self, client, server, low, high):
        column = server.engine.column
        before = column.product_counts()
        server.execute(client.make_query(low, high))
        stats = server.stats_log[-1]
        after = column.product_counts()
        assert (stats.kernel_fast_products, stats.kernel_exact_products) == (
            after[0] - before[0], after[1] - before[1],
        )
        assert stats.kernel_exact_products == 0
        return stats

    def test_crack_query(self):
        client, server = self._server()
        stats = self._query_delta(client, server, 100, 200)
        assert stats.cracks == 2
        assert stats.kernel_fast_products == stats.cracked_rows

    def test_edge_scan_query(self):
        client, server = self._server(min_piece_size=16)
        # The left bound cracks the column; the right one then lands in
        # a piece at the threshold, which is scanned on both bounds.
        stats = self._query_delta(client, server, 496, 510)
        assert (stats.cracks, stats.cracked_rows) == (1, 512)
        assert stats.kernel_fast_products == 512 + 2 * 16

    def test_query_with_pending_rows(self):
        client, server = self._server()
        # The pending column is scanned as a block: both sides of the
        # range for every pending row, qualifying or not.
        server.insert(client.encrypt_value(150))
        server.insert(client.encrypt_value(50))
        stats = self._query_delta(client, server, 100, 200)
        assert stats.kernel_fast_products == stats.cracked_rows + 4

    def test_ripple_insert_counts_on_the_registry_only(self):
        client, server = self._server()
        for low in (100, 300):
            self._query_delta(client, server, low, low + 50)
        column = server.engine.column
        before = column.product_counts()
        server.engine.merge(RowBlock.from_rows(client.encrypt_value(1000)), [1000], ())
        routed = column.exact_products.value - before[1]
        # One binary search over the cracks, one product per probe.
        assert 0 < routed <= math.ceil(math.log2(len(server.engine.cracks) + 1))
        assert column.fast_products.value == before[0]
        self._query_delta(client, server, 150, 250)
        assert column.product_counts() == (
            sum(stats.kernel_fast_products for stats in server.stats_log),
            routed,
        )

    def test_a_merged_row_costs_at_most_log2_n_plus_1_products(self):
        """Merge routing is one binary search per row over the n cracks:
        at most ceil(log2(n + 1)) exact products a row, charged to the
        registry and to no query."""
        client, server = self._server()
        for low in range(0, 512, 19):
            self._query_delta(client, server, low, low + 7)
        cracks = len(server.engine.cracks)
        assert cracks > 40
        for value in range(3, 483, 12):
            server.insert(client.encrypt_value(value))
        column = server.engine.column
        before = column.product_counts()
        queries = len(server.stats_log)
        assert server.merge_pending() == 40
        routed = column.exact_products.value - before[1]
        assert 40 <= routed <= 40 * math.ceil(math.log2(cracks + 1))
        assert len(server.stats_log) == queries
        server.engine.check_invariants()
