"""The cracker index: every crack bound, in key order, with its position.

Section 2.2 needs two things from the index of past cracks: the indexed
bounds on either side of a new bound (``findpiece``) and registering a
crack (``addCrack``); the paper keeps them in an AVL tree.  Here they
are two Python lists in key order — the keys and their column
positions — and one binary search: its worst case, ``ceil(log2(n + 1))``
comparisons, is no more than a balanced tree's, it needs no nodes and
no rotations, and it reveals the same thing, because the server learns
the keys' total order either way.  A ``list.insert`` moves the tail of the
lists, which loses to a tree only past some 20-30k keys (DESIGN.md).

A key ``k`` at ``position`` records that a past crack partitioned the
column there: every row before ``position`` sorts left of ``k``, every
row from ``position`` on does not.  The comparator is the engine's:
a tuple comparison for plaintext bounds, ``sign(Eb(new) . Ev(key))``
for encrypted ones (Section 4.3).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.errors import IndexStateError

#: ``compare(a, b)``: negative, zero or positive like C's ``strcmp``.
Comparator = Callable[[object, object], int]


class CrackIndex:
    """Crack bounds in key order: ``keys[i]`` splits at ``positions[i]``.

    Args:
        compare: total order on keys; for the secure engine the only
            place encrypted bounds are compared to each other.

    ``comparison_count`` counts every comparison :meth:`locate` makes,
    merge routing's included (the cost model's index term; for the
    secure engine each is a scalar product).
    """

    def __init__(self, compare: Comparator) -> None:
        self._compare = compare
        self.keys: List = []
        self.positions: List[int] = []
        self.comparison_count = 0

    def __len__(self) -> int:
        return len(self.keys)

    def locate(self, key, compare: Comparator = None) -> Tuple[bool, int]:
        """One binary search: ``(exact, rank)``.

        On an exact match ``keys[rank]`` equals ``key``; otherwise
        ``rank`` keys sort before it, the key's place in the lists.
        ``compare`` replaces the index's comparator for this search
        (merge routing orders a row against the keys).  A located rank
        is only good until the index next changes.
        """
        if compare is None:
            compare = self._compare
        keys = self.keys
        low, high, probes = 0, len(keys), 0
        while low < high:
            middle = (low + high) >> 1
            probes += 1
            sign = compare(key, keys[middle])
            if sign < 0:
                high = middle
            elif sign > 0:
                low = middle + 1
            else:
                self.comparison_count += probes
                return True, middle
        self.comparison_count += probes
        return False, low

    def piece(self, located: Tuple[bool, int], size: int) -> Tuple[int, int]:
        """The paper's ``findpiece``: the raw piece ``[lo, hi)`` a key
        that is not indexed falls in, from its :meth:`locate` result —
        from the crack before it (or the column start) to the crack
        after it (or the column end, ``size``)."""
        rank, positions = located[1], self.positions
        return (
            positions[rank - 1] if rank else 0,
            positions[rank] if rank < len(positions) else size,
        )

    def add(self, key, position: int, size: int, located=None) -> None:
        """The paper's ``addCrack``: register that the column of ``size``
        rows was just split at ``position`` around ``key``.

        * a boundary position (0 or ``size``) says nothing: skipped;
        * an indexed key gets its position refreshed;
        * when a neighbour already splits at ``position``, the piece
          between the two is empty and the key adds nothing: skipped;
        * otherwise the key goes in at its rank.

        ``located`` is ``locate(key)`` when the caller has it and the
        index has not changed since.
        """
        if not 0 < position < size:
            return
        exact, rank = self.locate(key) if located is None else located
        positions = self.positions
        if exact:
            positions[rank] = position
        elif not (
            (rank and positions[rank - 1] == position)
            or (rank < len(positions) and positions[rank] == position)
        ):
            self.keys.insert(rank, key)
            positions.insert(rank, position)

    def check_invariants(self, size: int) -> None:
        """Keys strictly increasing (``n - 1`` comparisons), positions
        non-decreasing and within ``[0, size]``.

        Raises:
            IndexStateError: on any violated invariant.
        """
        keys, positions, compare = self.keys, self.positions, self._compare
        if len(positions) != len(keys):
            raise IndexStateError("crack keys and positions differ in length")
        for before, after in zip(keys, keys[1:]):
            if compare(before, after) >= 0:
                raise IndexStateError("crack keys not strictly increasing")
        for before, after in zip([0] + positions, positions + [size]):
            if before > after:
                raise IndexStateError(
                    "crack positions not non-decreasing within [0, %d]" % size
                )
