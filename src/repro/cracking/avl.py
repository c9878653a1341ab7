"""AVL tree with a pluggable key comparator.

Past adaptive-indexing work keeps track of column pieces with an
in-memory AVL tree (paper, Section 2.2: "we also need a data structure
to localize a piece of interest ... an in-memory AVL-tree"); the
encrypted design of Section 4.3 reuses the same structure with keys
compared through scalar products.  This implementation therefore takes
the comparator as a constructor argument: plaintext engines pass a
tuple comparison, the secure engine passes
``sign(Eb(new) . Ev(node))``-based comparison.

Each node maps an opaque key to an integer ``position`` (the crack
offset in the column) and keys are unique under the comparator.
Rebalancing is the classic height-balanced AVL scheme; all mutating
and searching operations are O(log n).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple, TypeVar

Key = TypeVar("Key")
Comparator = Callable[[Key, Key], int]


class AVLNode:
    """One tree node: an indexed crack bound and its column position."""

    __slots__ = ("key", "position", "left", "right", "height")

    def __init__(self, key, position: int) -> None:
        self.key = key
        self.position = position
        self.left: Optional[AVLNode] = None
        self.right: Optional[AVLNode] = None
        self.height = 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "AVLNode(key=%r, position=%d)" % (self.key, self.position)


class AVLTree:
    """Height-balanced search tree over comparator-ordered opaque keys.

    Args:
        comparator: total order on keys; returns negative / zero /
            positive like C's ``strcmp``.  For the secure engine this
            is the only place encrypted bounds are ever compared to
            each other — via their double encryption (Section 4.3).
    """

    def __init__(self, comparator: Comparator) -> None:
        self._comparator = comparator
        self._root: Optional[AVLNode] = None
        self._size = 0
        #: Total key comparisons performed (cost-model instrumentation;
        #: for the secure engine each one is a scalar product).
        self.comparison_count = 0

    def _cmp(self, a, b) -> int:
        self.comparison_count += 1
        return self._comparator(a, b)

    def __len__(self) -> int:
        return self._size

    @property
    def root(self) -> Optional[AVLNode]:
        """The root node (None for an empty tree)."""
        return self._root

    # -- queries ---------------------------------------------------------

    def locate(self, key) -> Tuple[
        Optional[AVLNode], Optional[AVLNode], Optional[AVLNode], list
    ]:
        """One descent for ``key``: ``(exact, floor, ceiling, path)``.

        ``exact`` is the node with this key, ``floor`` the largest node
        with ``node.key <= key``, ``ceiling`` the smallest with
        ``node.key >= key`` (each None when there is none; all three the
        same node on an exact match).  ``path`` is the ``(node,
        went_left)`` steps from the root to where ``key`` would hang:
        hand it to :meth:`insert` and a cracked bound is looked up,
        located in its piece and registered down this one walk.
        """
        compare = self._comparator
        node, floor, ceiling, path = self._root, None, None, []
        while node is not None:
            self.comparison_count += 1
            sign = compare(key, node.key)
            if sign == 0:
                floor = ceiling = node
                break
            path.append((node, sign < 0))
            if sign < 0:
                ceiling, node = node, node.left
            else:
                floor, node = node, node.right
        return node, floor, ceiling, path

    def find(self, key) -> Optional[AVLNode]:
        """Return the node with exactly this key, or None."""
        node = self._root
        while node is not None:
            sign = self._cmp(key, node.key)
            if sign == 0:
                return node
            node = node.left if sign < 0 else node.right
        return None

    def floor(self, key) -> Optional[AVLNode]:
        """Largest node with ``node.key <= key``, or None."""
        node, best = self._root, None
        while node is not None:
            sign = self._cmp(key, node.key)
            if sign == 0:
                return node
            if sign > 0:
                best = node
                node = node.right
            else:
                node = node.left
        return best

    def ceiling(self, key) -> Optional[AVLNode]:
        """Smallest node with ``node.key >= key``, or None."""
        node, best = self._root, None
        while node is not None:
            sign = self._cmp(key, node.key)
            if sign == 0:
                return node
            if sign < 0:
                best = node
                node = node.left
            else:
                node = node.right
        return best

    def min_node(self) -> Optional[AVLNode]:
        """Node with the smallest key, or None for an empty tree."""
        node = self._root
        while node is not None and node.left is not None:
            node = node.left
        return node

    def max_node(self) -> Optional[AVLNode]:
        """Node with the largest key, or None for an empty tree."""
        node = self._root
        while node is not None and node.right is not None:
            node = node.right
        return node

    def successor(self, node: AVLNode) -> Optional[AVLNode]:
        """In-order successor of ``node`` (search from the root)."""
        if node.right is not None:
            walk = node.right
            while walk.left is not None:
                walk = walk.left
            return walk
        candidate, walk = None, self._root
        while walk is not None and walk is not node:
            if self._cmp(node.key, walk.key) < 0:
                candidate = walk
                walk = walk.left
            else:
                walk = walk.right
        return candidate

    def predecessor(self, node: AVLNode) -> Optional[AVLNode]:
        """In-order predecessor of ``node`` (search from the root)."""
        if node.left is not None:
            walk = node.left
            while walk.right is not None:
                walk = walk.right
            return walk
        candidate, walk = None, self._root
        while walk is not None and walk is not node:
            if self._cmp(node.key, walk.key) > 0:
                candidate = walk
                walk = walk.right
            else:
                walk = walk.left
        return candidate

    def in_order(self) -> Iterator[AVLNode]:
        """Yield all nodes in ascending key order (iterative walk)."""
        stack: List[AVLNode] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node
            node = node.right

    def height(self) -> int:
        """Tree height (0 for an empty tree)."""
        return self._root.height if self._root is not None else 0

    def check_invariants(self) -> None:
        """Assert AVL balance and key ordering (used by tests).

        Raises:
            AssertionError: on any violated invariant.
        """
        keys = [node.key for node in self.in_order()]
        for a, b in zip(keys, keys[1:]):
            assert self._cmp(a, b) < 0, "in-order keys not strictly increasing"
        assert self._count(self._root) == self._size, "size drifted"
        self._check_balance(self._root)

    # -- mutation ---------------------------------------------------------

    def insert(self, key, position: int, path: list = None) -> AVLNode:
        """Insert ``key -> position``; update position if key exists.

        ``path`` is the key's :meth:`locate` path when the caller has
        just walked it, found no exact match and left the tree alone
        since; the key's place is looked up here otherwise.  The node
        hangs where the path ends and the tree rebalances back up it.
        Returns the (new or existing) node.
        """
        if path is None:
            exact, __, __, path = self.locate(key)
            if exact is not None:
                exact.position = position
                return exact
        fresh = subtree = AVLNode(key, position)
        for node, went_left in reversed(path):
            if went_left:
                node.left = subtree
            else:
                node.right = subtree
            height = node.height
            subtree = self._rebalance(node)
            if subtree is node and node.height == height:
                break  # as tall as before: nothing above can change
        else:
            self._root = subtree
        self._size += 1
        return fresh

    # -- balancing ----------------------------------------------------------

    @staticmethod
    def _height(node: Optional[AVLNode]) -> int:
        return node.height if node is not None else 0

    @classmethod
    def _update_height(cls, node: AVLNode) -> None:
        node.height = 1 + max(cls._height(node.left), cls._height(node.right))

    @classmethod
    def _balance_factor(cls, node: AVLNode) -> int:
        return cls._height(node.left) - cls._height(node.right)

    @classmethod
    def _rotate_right(cls, node: AVLNode) -> AVLNode:
        pivot = node.left
        node.left = pivot.right
        pivot.right = node
        cls._update_height(node)
        cls._update_height(pivot)
        return pivot

    @classmethod
    def _rotate_left(cls, node: AVLNode) -> AVLNode:
        pivot = node.right
        node.right = pivot.left
        pivot.left = node
        cls._update_height(node)
        cls._update_height(pivot)
        return pivot

    @classmethod
    def _rebalance(cls, node: AVLNode) -> AVLNode:
        cls._update_height(node)
        balance = cls._balance_factor(node)
        if balance > 1:
            if cls._balance_factor(node.left) < 0:
                node.left = cls._rotate_left(node.left)
            return cls._rotate_right(node)
        if balance < -1:
            if cls._balance_factor(node.right) > 0:
                node.right = cls._rotate_right(node.right)
            return cls._rotate_left(node)
        return node

    # -- invariant helpers ---------------------------------------------------

    @classmethod
    def _count(cls, node: Optional[AVLNode]) -> int:
        if node is None:
            return 0
        return 1 + cls._count(node.left) + cls._count(node.right)

    @classmethod
    def _check_balance(cls, node: Optional[AVLNode]) -> int:
        if node is None:
            return 0
        left = cls._check_balance(node.left)
        right = cls._check_balance(node.right)
        assert node.height == 1 + max(left, right), "stale height"
        assert abs(left - right) <= 1, "AVL balance violated"
        return node.height
