"""Ordered, epoch-aware membership of one cluster.

The committed members of a cluster are a sorted list of OID numbers
(the sequencing order of paper §3.2; append is the common case) plus a
short log of membership *changes* — creates and deletes, never updates
— each stamped with the commit epoch that made it, kept only while a
reader older than it is pinned (the store prunes at the MVCC
watermark).  A read as of epoch E bisects the list and undoes only
this cluster's logged changes newer than E, so a sequencing step, a
size and a bounded range cost O(log n + changes newer than E): none
for a reader at head, none on a read-only server.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import operator
from typing import AbstractSet, Iterator, List, Optional, Sequence, Tuple

_NOTHING_UNDONE: Tuple[AbstractSet[int], Sequence[int]] = (frozenset(), ())


def _past(numbers: Sequence[int], number: float,
          forward: bool) -> Iterator[int]:
    """Entries of sorted *numbers* strictly past *number*, nearest first."""
    if forward:
        indexes = range(bisect.bisect_right(numbers, number), len(numbers))
    else:
        indexes = range(bisect.bisect_left(numbers, number) - 1, -1, -1)
    return map(numbers.__getitem__, indexes)


class ClusterMembership:
    """One cluster's committed members and their recent change log."""

    __slots__ = ("database", "numbers", "log")

    def __init__(self, database: str):
        self.database = database
        self.numbers: List[int] = []
        #: ``(epoch, number, added)`` in commit order.
        self.log: List[Tuple[int, int, bool]] = []

    # -- writes (one commit at a time, epochs ascending) -----------------------

    def change(self, number: int, present: bool,
               epoch: Optional[int]) -> None:
        """Make *number* a member, or no longer one, as of *epoch*
        (``None``: no reader is pinned, so nothing is logged).
        Rewriting a member is not a membership change."""
        numbers = self.numbers
        index = bisect.bisect_left(numbers, number)
        found = index < len(numbers) and numbers[index] == number
        if present == found:
            return
        if present:
            numbers.insert(index, number)
        else:
            del numbers[index]
        if epoch is not None:
            self.log.append((epoch, number, present))

    def prune(self, watermark: int) -> None:
        """Forget changes no live reader can need undone."""
        log = self.log
        if log and log[0][0] <= watermark:
            del log[:bisect.bisect_right(log, watermark,
                                         key=operator.itemgetter(0))]

    # -- reads as of an epoch (``None`` = head) ---------------------------------

    def _undone(self, epoch: Optional[int],
                ) -> Tuple[AbstractSet[int], Sequence[int]]:
        """Undo the changes newer than *epoch*: the members to hide and
        the (sorted) non-members to put back."""
        log = self.log
        if epoch is None or not log or log[-1][0] <= epoch:
            return _NOTHING_UNDONE
        hidden: set = set()
        extra: set = set()
        for change_epoch, number, added in reversed(log):
            if change_epoch <= epoch:
                break
            undo_from, undo_into = (extra, hidden) if added else (hidden, extra)
            if number in undo_from:
                undo_from.remove(number)
            else:
                undo_into.add(number)
        return hidden, sorted(extra)

    def size(self, epoch: Optional[int]) -> int:
        hidden, extra = self._undone(epoch)
        return len(self.numbers) - len(hidden) + len(extra)

    def walk(self, epoch: Optional[int], number: float,
             forward: bool = True) -> Iterator[int]:
        """The members strictly past *number*, nearest first: ascending
        when *forward*, else descending.  Lazy — taking one is a
        sequencing step, taking k a bounded range — and valid only
        until the next write."""
        hidden, extra = self._undone(epoch)
        kept = _past(self.numbers, number, forward)
        if hidden:
            kept = itertools.filterfalse(hidden.__contains__, kept)
        if not extra:
            return kept
        return heapq.merge(kept, _past(extra, number, forward),
                           reverse=not forward)
