"""The one scalar-product kernel: ``EncryptedColumn.products``.

Every server-side decision is the sign of an exact ``Eb . Ev`` product;
at the default key those products pass 2^63, so the kernel is big-int
arithmetic only.  ``filterwarnings = error::RuntimeWarning`` is the
tripwire for an int64 leaking back into it.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.client import TrustedClient
from repro.core.encrypted_column import EncryptedColumn
from repro.core.server import SecureServer
from repro.crypto.ciphertext import BoundCiphertext, ValueCiphertext

NUMERATORS = st.integers(-(2 ** 256), 2 ** 256)


def _products(rows, vector):
    column = EncryptedColumn([ValueCiphertext(tuple(row)) for row in rows])
    return column.products(0, len(rows), BoundCiphertext(tuple(vector)))


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
        assert products.dtype == object
        assert products.tolist() == [
            sum(x * y for x, y in zip(row, vector)) for row in rows
        ]

    def test_exact_on_both_sides_of_the_int64_boundary(self):
        # Operands that fit a machine word, products one step inside
        # and one step past each end of int64: a native accumulator
        # would wrap the outer two to the opposite sign.
        half = 2 ** 62
        rows = [[half, half - 1], [half, half], [-half, -half], [-half, -half - 1]]
        products = _products(rows, [1, 1])
        assert products.dtype == object
        assert products.tolist() == [
            2 ** 63 - 1, 2 ** 63, -(2 ** 63), -(2 ** 63) - 1,
        ]


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
    """``QueryStats.kernel_exact_products`` is the per-query delta of the
    ``kernel.exact_products`` counter, whichever code path multiplied."""

    VALUES = [int(v) for v in np.random.default_rng(5).permutation(512)]

    def _server(self, **config):
        client = TrustedClient(seed=3)
        rows, row_ids = client.encrypt_dataset(self.VALUES)
        return client, SecureServer(rows, row_ids, **config)

    def _query_delta(self, client, server, low, high):
        counter = server.engine.column.exact_products
        before = counter.value
        server.execute(client.make_query(low, high))
        stats = server.stats_log[-1]
        assert stats.kernel_exact_products == counter.value - before
        return stats

    def test_crack_query(self):
        client, server = self._server()
        stats = self._query_delta(client, server, 100, 200)
        assert stats.cracks == 2
        assert stats.kernel_exact_products == stats.cracked_rows

    def test_edge_scan_query(self):
        client, server = self._server(min_piece_size=16)
        # The left bound cracks the column; the right one then lands in
        # a piece at the threshold, which is scanned on both bounds.
        stats = self._query_delta(client, server, 496, 510)
        assert (stats.cracks, stats.cracked_rows) == (1, 512)
        assert stats.kernel_exact_products == 512 + 2 * 16

    def test_query_with_pending_rows(self):
        client, server = self._server()
        # The pending column is scanned as a block: both sides of the
        # range for every pending row, qualifying or not.
        server.insert(client.encrypt_value(150))
        server.insert(client.encrypt_value(50))
        stats = self._query_delta(client, server, 100, 200)
        assert stats.kernel_exact_products == stats.cracked_rows + 4

    def test_ripple_insert_counts_on_the_registry_only(self):
        client, server = self._server()
        for low in (100, 300):
            self._query_delta(client, server, low, low + 50)
        counter = server.engine.column.exact_products
        before = counter.value
        server.engine.insert_row(client.encrypt_value(1000)[0], 1000)
        routed = counter.value - before
        assert 0 < routed <= len(server.engine.tree)
        self._query_delta(client, server, 150, 250)
        assert counter.value == routed + sum(
            stats.kernel_exact_products for stats in server.stats_log
        )
