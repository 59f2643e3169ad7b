"""Vector clocks over a fixed member list, plus an observer-side tracker."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Mapping, Optional, Tuple


class VectorClock:
    """A logical clock with one component per group member.

    Components default to 0; instances are mutable (``tick`` / ``merge``)
    and :meth:`as_dict` is a snapshot, which is what a message carries.
    """

    __slots__ = ("members", "_counts")

    def __init__(
        self,
        members: Iterable[str],
        counts: Mapping[str, int] | None = None,
    ) -> None:
        self.members = frozenset(members)
        if not self.members:
            raise ValueError("vector clock needs at least one member")
        self._counts: Dict[str, int] = {m: 0 for m in self.members}
        if counts is not None:
            for member, value in counts.items():
                if member not in self.members:
                    raise KeyError(f"unknown member {member!r}")
                if value < 0:
                    raise ValueError("clock components must be >= 0")
                self._counts[member] = int(value)

    # ------------------------------------------------------------------
    def __getitem__(self, member: str) -> int:
        if member not in self.members:
            raise KeyError(f"unknown member {member!r}")
        return self._counts[member]

    def tick(self, member: str) -> "VectorClock":
        """Increment ``member``'s component (a local event); returns self."""
        if member not in self.members:
            raise KeyError(f"unknown member {member!r}")
        self._counts[member] += 1
        return self

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Component-wise max with ``other`` (receive event); returns self."""
        if other.members != self.members:
            raise ValueError("cannot merge clocks over different groups")
        for m in self.members:
            if other._counts[m] > self._counts[m]:
                self._counts[m] = other._counts[m]
        return self

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{m}:{self._counts[m]}" for m in sorted(self.members))
        return f"<VC {inner}>"


class CausalityTracker:
    """Reconstructs vector clocks for participants it only *observes*.

    The protocols under audit do not stamp clocks on their messages, so
    an external observer (the causal auditor, see :mod:`repro.obs.audit`)
    rebuilds them from the send/receive event stream: each send ticks the
    sender and snapshots its clock onto the channel, each receive merges
    the oldest in-flight snapshot for that channel into the receiver and
    ticks it.  Membership grows lazily as participants appear;
    :meth:`snapshot` gives every participant's clock.
    """

    def __init__(self, members: Iterable[str] = ()) -> None:
        self._counts: Dict[str, Dict[str, int]] = {m: {} for m in members}
        #: (src, dst) -> clock snapshots of sends not yet received
        self._in_flight: Dict[Tuple[str, str], Deque[Dict[str, int]]] = {}

    def _entry(self, member: str) -> Dict[str, int]:
        return self._counts.setdefault(member, {})

    def on_send(self, src: str, dst: Optional[str] = None) -> Dict[str, int]:
        """Record a send: tick ``src``, snapshot its clock in flight."""
        clock = self._entry(src)
        clock[src] = clock.get(src, 0) + 1
        snapshot = dict(clock)
        if dst is not None:
            self._in_flight.setdefault((src, dst), deque()).append(snapshot)
        return snapshot

    def on_recv(self, dst: str, src: str) -> bool:
        """Record a receive: merge the matching send snapshot, tick ``dst``.

        Returns False when no in-flight send from ``src`` to ``dst``
        exists — the observed receive has no causally prior send.
        """
        clock = self._entry(dst)
        queue = self._in_flight.get((src, dst))
        matched = bool(queue)
        if queue:
            snapshot = queue.popleft()
            for member, count in snapshot.items():
                if count > clock.get(member, 0):
                    clock[member] = count
        clock[dst] = clock.get(dst, 0) + 1
        return matched

    def members(self) -> list[str]:
        """Every participant observed so far, sorted."""
        return sorted(self._counts)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """All clocks as plain nested dicts (zero components omitted)."""
        return {
            m: dict(sorted(c.items())) for m, c in sorted(self._counts.items())
        }

    def __repr__(self) -> str:
        return f"<CausalityTracker {len(self._counts)} members>"
