"""``Esq(pkt, h)``: insert one XOR parity packet per recovery segment."""

from __future__ import annotations

from typing import Iterator

from repro.fec.xor import xor_payloads
from repro.media.packet import Packet, ParityPacket
from repro.media.sequence import PacketSequence


def recovery_segments(seq: PacketSequence, h: int) -> Iterator[tuple[Packet, ...]]:
    """Split ``seq`` into consecutive segments of ``h`` packets.

    The final segment may be shorter when ``len(seq)`` is not a multiple of
    ``h``; it still receives a parity packet so the tail is protected.
    """
    if h < 1:
        raise ValueError(f"parity interval h must be >= 1, got {h}")
    packets = list(seq)
    for start in range(0, len(packets), h):
        yield tuple(packets[start : start + h])


def enhance(seq: PacketSequence, h: int) -> PacketSequence:
    """Build the enhanced sequence ``[pkt]^h``.

    For the ``(d+1)``-th recovery segment (``d ≥ 0``) one parity packet
    covering the segment is inserted at offset ``d mod (h+1)`` within the
    segment — the rotation the paper's Fig. 6 example exhibits (see the
    package docstring for why we depart from the formal ``d mod h`` rule).

    ``|[pkt]^h| = |pkt| · (h+1)/h`` for full segments.  Enhancing an already
    enhanced sequence nests labels (``t_<<1,2>,3,5>``), matching §3.6.
    """
    if h < 1:
        raise ValueError(f"parity interval h must be >= 1, got {h}")
    used = {p.label for p in seq}
    out: list[Packet] = []
    for d, segment in enumerate(recovery_segments(seq, h)):
        covers = tuple(p.label for p in segment)
        # Re-enhancing material that still contains older parity packets
        # can make the covers-tuple collide with an existing label; pick a
        # deterministic disambiguated form so parent and child (who run
        # this on the same basis) agree on every label.
        label = covers
        wrapped = False
        while label in used:
            label = ("p", d, covers) if not wrapped else ("p", label)
            wrapped = True
        used.add(label)
        parity = ParityPacket(
            covers=covers,
            payload=xor_payloads([p.payload for p in segment]),
            label=label,
        )
        offset = d % (h + 1)
        offset = min(offset, len(segment))  # short tail segment
        block = list(segment)
        block.insert(offset, parity)
        out.extend(block)
    return PacketSequence(out)


def shared_enhance(basis: PacketSequence, h: int) -> PacketSequence:
    """``Esq(basis, h)``, computed once for this basis object.

    §3.3 has the parent and each child of a handoff derive the same
    enhancement from the same basis; here they hold the same ``basis``
    object, so the first to ask computes it and the rest read it (see
    :meth:`PacketSequence.derived` for the memo's lifetime).  ``h == 0``
    is "no parity": the basis itself.
    """
    if h == 0:
        return basis
    return basis.derived(("esq", h), lambda: enhance(basis, h))
