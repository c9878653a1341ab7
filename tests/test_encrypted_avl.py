"""Unit tests for the encrypted AVL key order and the paper-literal
``findpiece`` / ``addCrack`` transcriptions (Section 4.3)."""

import random

import pytest

from repro.cracking.avl import AVLTree
from repro.cracking.cracker_tree import add_crack, find_piece
from repro.core.encrypted_avl import add_crack_encrypted, find_piece_encrypted
from repro.core.query import (
    EncryptedBound,
    EncryptedBoundKey,
    compare_encrypted_keys,
)


def make_key(encryptor, bound, inclusive=False):
    return EncryptedBoundKey(
        EncryptedBound(
            eb=encryptor.encrypt_bound(bound),
            ev=encryptor.encrypt_value(bound),
        ),
        inclusive=inclusive,
    )


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
        bounds = rng.sample(range(10 ** 6), 40)
        keys = [make_key(encryptor, b) for b in bounds]
        tree = AVLTree(compare_encrypted_keys)
        for key, bound in zip(keys, bounds):
            tree.insert(key, bound)
        in_order = [node.position for node in tree.in_order()]
        assert in_order == sorted(bounds)
        tree.check_invariants()


class TestPaperLiteralEquivalence:
    """The pseudocode transcriptions must agree with the generic
    floor/ceiling helpers on every reachable state."""

    def build_random_tree(self, encryptor, rng, count=30):
        tree = AVLTree(compare_encrypted_keys)
        bounds = rng.sample(range(0, 100000, 7), count)
        for bound in bounds:
            # Positions: any monotone-in-bound assignment works for
            # findpiece; use the bound itself.
            add_crack(tree, make_key(encryptor, bound), bound, 10 ** 6)
        return tree, sorted(bounds)

    def test_find_piece_agrees(self, encryptor, rng):
        tree, bounds = self.build_random_tree(encryptor, rng)
        for _ in range(60):
            probe = rng.randrange(0, 100000)
            if probe in bounds:
                continue
            key = make_key(encryptor, probe)
            assert find_piece_encrypted(tree, key, 10 ** 6) == find_piece(
                tree, key, 10 ** 6
            )

    def test_find_piece_empty_tree(self, encryptor):
        tree = AVLTree(compare_encrypted_keys)
        key = make_key(encryptor, 5)
        assert find_piece_encrypted(tree, key, 100) == (0, 100)

    def test_find_piece_case1_beyond_max(self, encryptor, rng):
        tree, bounds = self.build_random_tree(encryptor, rng, count=10)
        key = make_key(encryptor, max(bounds) + 1)
        pos_lo, pos_hi = find_piece_encrypted(tree, key, 10 ** 6)
        assert pos_lo == max(bounds)
        assert pos_hi == 10 ** 6

    def test_find_piece_case2_below_min(self, encryptor, rng):
        tree, bounds = self.build_random_tree(encryptor, rng, count=10)
        key = make_key(encryptor, min(bounds) - 1)
        assert find_piece_encrypted(tree, key, 10 ** 6) == (0, min(bounds))

    def test_add_crack_agrees(self, encryptor, rng):
        generic_tree = AVLTree(compare_encrypted_keys)
        paper_tree = AVLTree(compare_encrypted_keys)
        total = 10 ** 6
        for _ in range(60):
            bound = rng.randrange(0, 100000)
            position = bound  # monotone
            key_generic = make_key(encryptor, bound)
            key_paper = make_key(encryptor, bound)
            add_crack(generic_tree, key_generic, position, total)
            add_crack_encrypted(paper_tree, key_paper, position, total)
            assert len(generic_tree) == len(paper_tree)
            assert [n.position for n in generic_tree.in_order()] == [
                n.position for n in paper_tree.in_order()
            ]
        paper_tree.check_invariants()

    def test_add_crack_boundary_skipped(self, encryptor):
        tree = AVLTree(compare_encrypted_keys)
        assert add_crack_encrypted(tree, make_key(encryptor, 5), 0, 100) is None
        assert (
            add_crack_encrypted(tree, make_key(encryptor, 5), 100, 100) is None
        )
        assert len(tree) == 0

    def test_add_crack_duplicate_position_reused(self, encryptor):
        tree = AVLTree(compare_encrypted_keys)
        add_crack_encrypted(tree, make_key(encryptor, 10), 50, 100)
        node = add_crack_encrypted(tree, make_key(encryptor, 11), 50, 100)
        assert len(tree) == 1
        assert node.position == 50

    def test_add_crack_exact_key_updates(self, encryptor):
        tree = AVLTree(compare_encrypted_keys)
        add_crack_encrypted(tree, make_key(encryptor, 10), 50, 100)
        node = add_crack_encrypted(tree, make_key(encryptor, 10), 60, 100)
        assert len(tree) == 1
        assert node.position == 60


class TestLocateOverEncryptedKeys:
    """``locate`` against the order the plaintext bounds define: the
    scalar-product comparator walks one path, the integers say where it
    must end."""

    def test_agrees_with_the_plaintext_order(self, encryptor, rng):
        tree = AVLTree(compare_encrypted_keys)
        indexed = {}
        for bound in rng.sample(range(0, 5000, 3), 40):
            inclusive = rng.random() < 0.5
            key = make_key(encryptor, bound, inclusive)
            indexed[(bound, inclusive)] = tree.insert(key, bound)
        ordered = sorted(indexed)
        probes = [(b, f) for b in rng.sample(range(-2, 5003), 80)
                  for f in (False, True)] + ordered[:10]
        for probe in probes:
            exact, floor_node, ceiling_node, __ = tree.locate(
                make_key(encryptor, *probe)
            )
            assert exact is indexed.get(probe)
            below = [k for k in ordered if k <= probe]
            above = [k for k in ordered if k >= probe]
            assert floor_node is (indexed[below[-1]] if below else None)
            assert ceiling_node is (indexed[above[0]] if above else None)

    def test_a_cracked_bound_walks_the_tree_once(self, encryptor, rng):
        tree = AVLTree(compare_encrypted_keys)
        for bound in rng.sample(range(0, 100000, 7), 50):
            add_crack(tree, make_key(encryptor, bound), bound, 10 ** 6)
        key = make_key(encryptor, 50001)
        expected_piece = find_piece_encrypted(tree, key, 10 ** 6)
        before = tree.comparison_count
        # Lookup, piece and registration, as the engine issues them.
        located = tree.locate(key)
        assert located[0] is None
        assert find_piece(tree, key, 10 ** 6, located) == expected_piece
        node = add_crack(tree, key, 50001, 10 ** 6, located)
        assert 0 < tree.comparison_count - before <= tree.height()
        assert tree.locate(key)[0] is node
        tree.check_invariants()
