"""Unit tests for the comparator-generic AVL tree."""

import random

import pytest

from repro.cracking.avl import AVLNode, AVLTree


def int_cmp(a, b):
    return (a > b) - (a < b)


@pytest.fixture()
def tree():
    return AVLTree(int_cmp)


class TestInsertAndFind:
    def test_empty(self, tree):
        assert len(tree) == 0
        assert tree.root is None
        assert tree.find(1) is None
        assert tree.min_node() is None
        assert tree.max_node() is None

    def test_single(self, tree):
        node = tree.insert(5, 50)
        assert len(tree) == 1
        assert tree.find(5) is node
        assert node.position == 50

    def test_duplicate_key_updates_position(self, tree):
        tree.insert(5, 50)
        node = tree.insert(5, 60)
        assert len(tree) == 1
        assert node.position == 60

    def test_many_inserts_sorted_iteration(self, tree):
        keys = random.Random(0).sample(range(1000), 200)
        for key in keys:
            tree.insert(key, key * 10)
        assert [n.key for n in tree.in_order()] == sorted(keys)
        assert len(tree) == 200

    def test_invariants_after_random_inserts(self, tree):
        rng = random.Random(1)
        for _ in range(300):
            tree.insert(rng.randrange(500), 0)
            tree.check_invariants()

    def test_height_is_logarithmic(self, tree):
        for key in range(1024):  # adversarial ascending order
            tree.insert(key, key)
        # AVL height bound: ~1.44 log2(n).
        assert tree.height() <= 15

    def test_min_max(self, tree):
        for key in (5, 2, 9, 7, 1):
            tree.insert(key, key)
        assert tree.min_node().key == 1
        assert tree.max_node().key == 9


class TestNavigation:
    @pytest.fixture()
    def populated(self, tree):
        for key in (10, 20, 30, 40, 50):
            tree.insert(key, key)
        return tree

    def test_floor(self, populated):
        assert populated.floor(25).key == 20
        assert populated.floor(20).key == 20
        assert populated.floor(5) is None
        assert populated.floor(99).key == 50

    def test_ceiling(self, populated):
        assert populated.ceiling(25).key == 30
        assert populated.ceiling(30).key == 30
        assert populated.ceiling(99) is None
        assert populated.ceiling(5).key == 10

    def test_successor_chain(self, populated):
        node = populated.min_node()
        seen = [node.key]
        while True:
            node = populated.successor(node)
            if node is None:
                break
            seen.append(node.key)
        assert seen == [10, 20, 30, 40, 50]

    def test_predecessor_chain(self, populated):
        node = populated.max_node()
        seen = [node.key]
        while True:
            node = populated.predecessor(node)
            if node is None:
                break
            seen.append(node.key)
        assert seen == [50, 40, 30, 20, 10]

    def test_navigation_matches_sorted_list(self):
        rng = random.Random(2)
        tree = AVLTree(int_cmp)
        keys = sorted(rng.sample(range(10000), 300))
        for key in keys:
            tree.insert(key, key)
        for probe in rng.sample(range(10000), 100):
            floor_node = tree.floor(probe)
            expected_floor = max((k for k in keys if k <= probe), default=None)
            assert (floor_node.key if floor_node else None) == expected_floor
            ceiling_node = tree.ceiling(probe)
            expected_ceiling = min((k for k in keys if k >= probe), default=None)
            assert (ceiling_node.key if ceiling_node else None) == expected_ceiling


class TestCustomComparator:
    def test_reversed_order(self):
        tree = AVLTree(lambda a, b: int_cmp(b, a))
        for key in (1, 2, 3):
            tree.insert(key, key)
        assert [n.key for n in tree.in_order()] == [3, 2, 1]
        assert tree.min_node().key == 3

    def test_tuple_keys(self):
        tree = AVLTree(lambda a, b: int_cmp(a, b))
        tree.insert((5, False), 1)
        tree.insert((5, True), 2)
        assert [n.key for n in tree.in_order()] == [(5, False), (5, True)]


# -- one descent per key ------------------------------------------------------


def ref_find(tree, key):
    """``AVLTree.find`` / ``floor`` / ``ceiling`` as the three separate
    walks they were before ``locate``: the reference it is held to."""
    node = tree.root
    while node is not None:
        sign = tree._comparator(key, node.key)
        if sign == 0:
            return node
        node = node.left if sign < 0 else node.right
    return None


def ref_floor(tree, key):
    node, best = tree.root, None
    while node is not None:
        sign = tree._comparator(key, node.key)
        if sign == 0:
            return node
        if sign > 0:
            best, node = node, node.right
        else:
            node = node.left
    return best


def ref_ceiling(tree, key):
    node, best = tree.root, None
    while node is not None:
        sign = tree._comparator(key, node.key)
        if sign == 0:
            return node
        if sign < 0:
            best, node = node, node.left
        else:
            node = node.right
    return best


def ref_insert(tree, node, key, position):
    """The recursive insert ``AVLTree.insert`` replaced (same rebalancing
    calls, bottom-up along the search path)."""
    if node is None:
        return AVLNode(key, position)
    sign = tree._comparator(key, node.key)
    if sign == 0:
        node.position = position
        return node
    if sign < 0:
        node.left = ref_insert(tree, node.left, key, position)
    else:
        node.right = ref_insert(tree, node.right, key, position)
    return tree._rebalance(node)


def shape(node):
    if node is None:
        return None
    return (node.key, node.position, node.height, shape(node.left), shape(node.right))


def assert_locate_agrees(tree, key):
    located = tree.locate(key)[:3]
    assert located == (ref_find(tree, key), ref_floor(tree, key), ref_ceiling(tree, key))
    assert (tree.find(key), tree.floor(key), tree.ceiling(key)) == located


class TestLocate:
    def test_agrees_with_the_three_walks_on_random_trees(self):
        rng = random.Random(3)
        for size in (0, 1, 2, 7, 60, 300):
            tree = AVLTree(int_cmp)
            for key in rng.sample(range(0, 2000, 2), size):
                tree.insert(key, key)
            for probe in rng.sample(range(-3, 2003), 150):
                assert_locate_agrees(tree, probe)

    def test_tuple_keys_with_ties(self):
        tree = AVLTree(int_cmp)
        rng = random.Random(4)
        keys = [(rng.randrange(40), rng.random() < 0.5) for _ in range(80)]
        for key in keys:
            tree.insert(key, 0)
            for probe in ((key[0], False), (key[0], True), (key[0] + 1, False)):
                assert_locate_agrees(tree, probe)

    def test_one_descent_serves_lookup_neighbours_and_insert(self, tree):
        for key in range(0, 200, 2):
            tree.insert(key, key)
        before = tree.comparison_count
        exact, floor_node, ceiling_node, path = tree.locate(101)
        walked = tree.comparison_count - before
        assert (exact, floor_node.key, ceiling_node.key) == (None, 100, 102)
        assert 0 < walked == len(path) <= tree.height()
        # Inserting down the located path compares nothing further.
        node = tree.insert(101, 7, path)
        assert tree.comparison_count - before == walked
        assert tree.find(101) is node and node.position == 7
        tree.check_invariants()

    def test_an_exact_match_ends_the_path_at_the_node(self, tree):
        for key in (10, 20, 30):
            tree.insert(key, key)
        node, floor_node, ceiling_node, __ = tree.locate(20)
        assert node is floor_node is ceiling_node and node.key == 20
        assert tree.insert(20, 99) is node and node.position == 99
        assert len(tree) == 3

    def test_same_shape_as_the_recursive_insert(self):
        rng = random.Random(5)
        for trial in range(30):
            tree, reference = AVLTree(int_cmp), AVLTree(int_cmp)
            root = None
            for _ in range(rng.randrange(1, 120)):
                key, position = rng.randrange(150), rng.randrange(1000)
                exact, __, __, path = tree.locate(key)
                if exact is None and rng.random() < 0.5:
                    tree.insert(key, position, path)  # down the located path
                else:
                    tree.insert(key, position)
                root = ref_insert(reference, root, key, position)
                assert shape(tree.root) == shape(root)
            tree.check_invariants()
            assert len(tree) == len({n.key for n in tree.in_order()})
