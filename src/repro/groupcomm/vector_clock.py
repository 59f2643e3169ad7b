"""Vector clocks over a fixed member list."""

from __future__ import annotations

from typing import Dict, Iterable, Mapping


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

