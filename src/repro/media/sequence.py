"""Packet-sequence algebra from §2 of the paper.

A :class:`PacketSequence` is an ordered sequence of packets with the
operations the paper defines:

* union ``a | b`` — every packet in either sequence, in global label order;
* intersection ``a & b`` — packets present in both;
* ``prefix(t)`` — ``pkt<t]``: packets up to and including ``t``;
* ``postfix(t)`` — ``pkt[t>``: packets from ``t`` onward.

Order inside a sequence is positional (the transmission order); union and
intersection order packets by their label sort key, which coincides with
transmission order for subsequences of one enhanced sequence.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Optional, TypeVar, Union

from repro.media.packet import Label, Packet, label_sort_key

T = TypeVar("T")


class PacketSequence:
    """An immutable ordered sequence of unique-labelled packets."""

    __slots__ = ("_packets", "_index", "_derived")

    def __init__(self, packets: Iterable[Packet] = ()) -> None:
        self._packets: tuple[Packet, ...] = tuple(packets)
        self._index: dict[Label, int] = {}
        for pos, p in enumerate(self._packets):
            if p.label in self._index:
                raise ValueError(f"duplicate packet label {p.label!r} in sequence")
            self._index[p.label] = pos
        #: memo of :meth:`derived`; allocated on first use
        self._derived: Optional[dict] = None

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, computed once per ``key`` for this sequence object.

        The sequence is immutable, so a pure function of it (its parity
        enhancement, say) has one value however many holders of the
        object ask for it.  The memo hangs off the
        sequence: it is shared by exactly the holders of this object,
        freed with it, and left out of pickles.
        """
        memo = self._derived
        if memo is None:
            memo = self._derived = {}
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = build()
            return value

    def __reduce__(self):
        return (PacketSequence, (self._packets,))

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._packets)

    def __getitem__(
        self, idx: Union[int, slice]
    ) -> Union[Packet, tuple[Packet, ...]]:
        """The packet at ``idx``; a slice gives the packets as a tuple."""
        return self._packets[idx]

    def __contains__(self, item: Union[Packet, Label]) -> bool:
        label = item.label if isinstance(item, Packet) else item
        return label in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PacketSequence):
            return NotImplemented
        return [p.label for p in self] == [p.label for p in other]

    def __hash__(self) -> int:
        return hash(tuple(p.label for p in self._packets))

    def labels(self) -> list[Label]:
        return [p.label for p in self._packets]

    def position(self, item: Union[Packet, Label]) -> int:
        """Index of a packet (by identity label) within this sequence."""
        label = item.label if isinstance(item, Packet) else item
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"label {label!r} not in sequence") from None

    def find(self, label: Label) -> Optional[Packet]:
        pos = self._index.get(label)
        return None if pos is None else self._packets[pos]

    def data_count(self) -> int:
        """Number of (non-parity) data packets."""
        return sum(1 for p in self._packets if not p.is_parity)

    def parity_count(self) -> int:
        return sum(1 for p in self._packets if p.is_parity)

    def covered_seqs(self) -> frozenset[int]:
        """Every underlying data sequence number touched by this sequence."""
        out: set[int] = set()
        for p in self._packets:
            out |= p.covered_seqs()
        return frozenset(out)

    # ------------------------------------------------------------------
    # paper operations
    # ------------------------------------------------------------------
    def union(self, other: "PacketSequence") -> "PacketSequence":
        """``pkt_i ∪ pkt_j``: all packets of both, ordered by label key."""
        merged: dict[Label, Packet] = {p.label: p for p in self._packets}
        for p in other:
            merged.setdefault(p.label, p)
        ordered = sorted(merged.values(), key=lambda p: label_sort_key(p.label))
        return PacketSequence(ordered)

    __or__ = union

    def intersection(self, other: "PacketSequence") -> "PacketSequence":
        """``pkt_i ∩ pkt_j``: packets present in both sequences."""
        return PacketSequence(p for p in self._packets if p.label in other)

    __and__ = intersection

    def prefix(self, label: Label) -> "PacketSequence":
        """``pkt<t]`` — packets up to and including the one labelled ``t``."""
        pos = self.position(label)
        return PacketSequence(self._packets[: pos + 1])

    def postfix(self, label: Label) -> "PacketSequence":
        """``pkt[t>`` — packets from the one labelled ``t`` onward."""
        pos = self.position(label)
        return PacketSequence(self._packets[pos:])

    def after(self, label: Label) -> "PacketSequence":
        """Packets strictly after the one labelled ``t``."""
        pos = self.position(label)
        return PacketSequence(self._packets[pos + 1 :])

    def slice_from(self, index: int) -> "PacketSequence":
        """Packets from positional ``index`` (clamped) onward."""
        index = max(0, index)
        return PacketSequence(self._packets[index:])

    def __repr__(self) -> str:
        shown = ", ".join(str(p) for p in self._packets[:8])
        more = f", …(+{len(self) - 8})" if len(self) > 8 else ""
        return f"<PacketSequence [{shown}{more}]>"
