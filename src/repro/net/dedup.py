"""Bounded receiver-side duplicate suppression for control handlers.

Link faults can deliver one logical control message several times (and
retransmission reuses ``msg_id`` when its ack was the lost copy).  The
coordination handlers must be idempotent: a :class:`DedupWindow` records
the keys of recently *applied* messages so a handler can suppress a
second application of the same logical message before it double-assigns
a subsequence or double-serves a repair.

The window is bounded FIFO (oldest key evicted first) so memory stays
O(capacity) over arbitrarily long sessions; the default capacity is far
larger than any plausible in-flight control population, so eviction
never causes a false negative in practice.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

__all__ = ["DedupWindow"]


class DedupWindow:
    """Remember up to ``capacity`` recently seen keys, FIFO-evicted."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("dedup window capacity must be positive")
        self.capacity = capacity
        self._seen: "OrderedDict[Hashable, None]" = OrderedDict()
        #: duplicates suppressed so far (monotone counter)
        self.suppressed = 0

    def __len__(self) -> int:
        return len(self._seen)

    def seen(self, key: Hashable) -> bool:
        """Record ``key``; return True when it was already present."""
        if key in self._seen:
            self._seen.move_to_end(key)
            self.suppressed += 1
            return True
        self._seen[key] = None
        if len(self._seen) > self.capacity:
            self._seen.popitem(last=False)
        return False
