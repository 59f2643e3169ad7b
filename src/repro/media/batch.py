"""Numpy-backed packet batches for vectorized media delivery.

The batched media plane (see ``docs/simulator.md``) replaces N per-packet
channel events with **one** delivery event per transmission slot: a
contents peer pops its whole per-slot subsequence, wraps it in a
:class:`PacketBatch` whose per-packet send offsets live in a numpy array,
and the channel applies per-packet fates (loss, link faults, latency) to
the batch before scheduling a single arrival.  The leaf unbatches into
exactly the per-packet ``media.rx`` / decoder / playback-buffer pipeline
the unbatched path uses, so receipt and delivery semantics are unchanged.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.media.packet import Packet

__all__ = ["PacketBatch"]


class PacketBatch:
    """An ordered group of packets sharing one delivery event.

    ``offsets_ms[i]`` is packet *i*'s time offset in milliseconds —
    relative to the batch *send* instant on the sending side (its nominal
    per-packet transmission time within the slot), and relative to the
    batch *delivery* instant minus the maximum arrival on the receiving
    side (its modeled arrival order).  ``dup[i]`` marks link-fault
    duplicate copies on a delivered batch (``None`` until the channel
    rewrites the batch with per-packet fates applied).
    """

    __slots__ = ("packets", "offsets_ms", "dup")

    def __init__(
        self,
        packets: Tuple[Packet, ...],
        offsets_ms,
        dup: Optional[np.ndarray] = None,
    ) -> None:
        self.packets = tuple(packets)
        self.offsets_ms = np.asarray(offsets_ms, dtype=np.float64)
        if self.offsets_ms.shape != (len(self.packets),):
            raise ValueError(
                f"offsets_ms has shape {self.offsets_ms.shape}, "
                f"expected ({len(self.packets)},)"
            )
        if dup is not None and len(dup) != len(self.packets):
            raise ValueError("dup mask length must match packet count")
        self.dup = dup

    def __len__(self) -> int:
        return len(self.packets)

    def __repr__(self) -> str:
        return f"<PacketBatch n={len(self.packets)}>"
