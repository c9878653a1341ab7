"""Plaintext oracle: a sorted-multiset model of the outsourced column.

The benchmark replays every acknowledged op into this model *after*
the timed window and compares each query's decrypted values against
it.  A mismatch, a raised :class:`~repro.errors.ReproError` or a
refusal is counted as a failed op — never swallowed, never fatal.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterable, List, Sequence


class SortedMultiset:
    """The values the column should hold, kept sorted."""

    def __init__(self, values: Iterable[int]) -> None:
        self._items: List[int] = sorted(int(v) for v in values)

    def __len__(self) -> int:
        return len(self._items)

    def insert(self, value: int) -> None:
        insort(self._items, int(value))

    def delete(self, value: int) -> None:
        index = bisect_left(self._items, value)
        if index == len(self._items) or self._items[index] != value:
            raise KeyError(value)
        del self._items[index]

    def range(self, low: int = None, high: int = None) -> List[int]:
        """Values in ``[low, high]``; ``None`` leaves a side open."""
        start = 0 if low is None else bisect_left(self._items, low)
        stop = len(self._items) if high is None else bisect_right(
            self._items, high
        )
        return self._items[start:stop]


def replay(model: SortedMultiset, ops: Sequence[tuple],
           outcomes: Sequence) -> int:
    """Apply ``ops`` to ``model`` in order, checking every outcome.

    ``outcomes[i]`` is what op ``i`` produced: the decrypted values of
    a query, anything for an acknowledged mutation, or the exception
    it raised.  Returns the number of failed ops (raised, refused, or
    disagreeing with the model).  A mutation that raised is not
    applied: it was never acknowledged.
    """
    failed = 0
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, BaseException):
            failed += 1
        elif op[0] == "q":
            if sorted(int(v) for v in outcome) != model.range(op[1], op[2]):
                failed += 1
        elif op[0] == "i":
            model.insert(op[1])
        else:
            model.delete(op[2])
    return failed
