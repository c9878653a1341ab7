"""Piece localisation and registration over the cracker AVL tree.

These two helpers realise the paper's ``findpiece`` and ``addCrack``
procedures (Section 4.3) in comparator-generic form, so the identical
logic drives the plaintext and the encrypted engines; the encrypted
engine additionally ships a pseudocode-literal transcription in
:mod:`repro.core.encrypted_avl`, and the test-suite asserts the two
formulations always agree.

A tree node ``(key, position)`` records that a past crack partitioned
the column at ``position`` around the bound ``key``: every row before
``position`` satisfies the bound's predicate, every row from
``position`` on does not.

Both read one :meth:`~repro.cracking.avl.AVLTree.locate` descent — the
caller's, when it hands one over: the engine looks a bound up, finds
its piece and registers its crack down a single walk.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cracking.avl import AVLNode, AVLTree


def find_piece(
    tree: AVLTree, key, total_size: int, located=None
) -> Tuple[int, int]:
    """Locate the piece ``[pos_lo, pos_hi)`` in which ``key`` falls.

    Equivalent to the paper's ``findpiece``: the lower bound comes from
    the largest indexed bound not exceeding ``key``, the upper bound
    from the smallest indexed bound not below it (whole column when the
    tree is empty or ``key`` lies outside the indexed range — the
    paper's Cases 1 and 2).

    For an exact match both ends collapse onto the node's position,
    which callers treat as "already indexed, nothing to crack".

    ``located`` is ``tree.locate(key)`` when the caller already has it.
    """
    if located is None:
        located = tree.locate(key)
    __, floor_node, ceiling_node, __ = located
    pos_lo = floor_node.position if floor_node is not None else 0
    pos_hi = ceiling_node.position if ceiling_node is not None else total_size
    return pos_lo, pos_hi


def add_crack(
    tree: AVLTree, key, position: int, total_size: int, located=None
) -> Optional[AVLNode]:
    """Register a crack ``key -> position``; return the node, or None.

    Mirrors the paper's ``addCrack``:

    * boundary positions (0 or the column size) carry no information
      and are not stored (pseudocode line 1);
    * if a node with an equal key exists, its position is refreshed
      (Case 3);
    * if the immediate neighbour bound already splits at the same
      position, no node is added — the piece between the two bounds is
      empty, so the new bound adds no discriminating power (Cases 1-2);
    * otherwise a fresh node is inserted, rebalancing as needed
      (Case 4).

    ``located`` is ``tree.locate(key)`` when the caller already has it
    and the tree has not changed since.
    """
    if position <= 0 or position >= total_size:
        return None
    if located is None:
        located = tree.locate(key)
    existing, floor_node, ceiling_node, path = located
    if existing is not None:
        existing.position = position
        return existing
    if floor_node is not None and floor_node.position == position:
        return floor_node
    if ceiling_node is not None and ceiling_node.position == position:
        return ceiling_node
    return tree.insert(key, position, path)
