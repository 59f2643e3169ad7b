"""Multimedia content: a named byte blob segmented into data packets."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.media.packet import DataPacket
from repro.media.sequence import PacketSequence


class MediaContent:
    """A content ``C`` decomposed into ``n_packets`` fixed-size packets.

    Payload bytes are generated deterministically from ``seed`` so FEC
    round-trips are reproducible; pass ``with_payload=False`` for the
    symbolic (label-only) simulations used by the coordination figures,
    which saves memory and time for large sweeps.

    Parameters
    ----------
    content_id:
        Stable identifier, e.g. ``"movie-1"``.
    n_packets:
        Number of data packets ``l`` (the paper's ``|pkt|``).
    packet_size:
        Bytes per packet (only meaningful with payloads).
    rate:
        Content consumption rate τ in packets per millisecond.
    """

    def __init__(
        self,
        content_id: str,
        n_packets: int,
        packet_size: int = 1024,
        rate: float = 1.0,
        seed: int = 0,
        with_payload: bool = True,
    ) -> None:
        if n_packets < 1:
            raise ValueError("content needs at least one packet")
        if packet_size < 1:
            raise ValueError("packet_size must be positive")
        if rate <= 0:
            raise ValueError("content rate must be positive")
        self.content_id = content_id
        self.n_packets = int(n_packets)
        self.packet_size = int(packet_size)
        self.rate = float(rate)
        self.seed = seed
        self._payloads: Optional[np.ndarray] = None
        if with_payload:
            rng = np.random.default_rng(seed)
            self._payloads = rng.integers(
                0, 256, size=(n_packets, packet_size), dtype=np.uint8
            )

    @property
    def has_payload(self) -> bool:
        return self._payloads is not None

    def payload(self, seq: int) -> Optional[bytes]:
        """Bytes of data packet ``seq`` (1-based), or None if symbolic."""
        if self._payloads is None:
            return None
        if not 1 <= seq <= self.n_packets:
            raise IndexError(f"seq {seq} outside 1..{self.n_packets}")
        return self._payloads[seq - 1].tobytes()

    def packet(self, seq: int) -> DataPacket:
        return DataPacket(seq, self.payload(seq))

    def packet_sequence(self) -> PacketSequence:
        """The full packet sequence ``pkt = <t_1, …, t_l>``."""
        return PacketSequence(
            self.packet(seq) for seq in range(1, self.n_packets + 1)
        )

    def __repr__(self) -> str:
        return (
            f"MediaContent({self.content_id!r}, n_packets={self.n_packets}, "
            f"packet_size={self.packet_size}, rate={self.rate})"
        )
