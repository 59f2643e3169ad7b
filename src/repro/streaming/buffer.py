"""Leaf-side playback buffer with underrun accounting.

The leaf peer must *deliver* (play) data packets in order at the content
rate τ.  Arriving packets are held until played; a playback instant at
which the next in-order packet is unavailable is an **underrun** (stall) —
the failure mode parity and multi-source transmission exist to prevent.
§3.1's *overrun* (the naive broadcast's ``Hτ > ρ_s``) happens before a
packet gets here: the leaf's ρ_s bucket drops it
(:class:`~repro.streaming.leaf_peer.LeafPeerAgent`, ``buffer.overrun``).

The buffer keeps counts only; the leaf publishes when playback played,
stalled or skipped as ``buffer.*`` trace events, and a traced run's
time series rebuilds the buffer's level from them.
"""

from __future__ import annotations

from typing import Optional

#: consecutive underruns on one packet before playback gives it up
#: (:meth:`PlaybackBuffer.skip`) and moves on — the degrade-don't-deadlock
#: policy that keeps a partitioned leaf playing
SKIP_AFTER_MISSES = 4


class PlaybackBuffer:
    """In-order playback over out-of-order arrivals.

    ``offer(seq)`` registers an arrived (or FEC-recovered) data packet;
    ``play_next()`` is called by the playback clock once per packet
    period and returns the played seq or records an underrun.
    """

    def __init__(self, n_packets: int) -> None:
        if n_packets < 1:
            raise ValueError("n_packets must be positive")
        self.n_packets = n_packets
        self._held: set[int] = set()
        self._next = 1
        self._misses = 0
        self.played = 0
        self.underruns = 0
        self.skips = 0

    # ------------------------------------------------------------------
    @property
    def next_needed(self) -> int:
        return self._next

    @property
    def level(self) -> int:
        return len(self._held)

    @property
    def finished(self) -> bool:
        return self._next > self.n_packets

    def offer(self, seq: int) -> None:
        """Register arrival of data packet ``seq``; a duplicate, or a seq
        playback already moved past, is ignored."""
        if not 1 <= seq <= self.n_packets:
            raise ValueError(f"seq {seq} outside content")
        if seq >= self._next:
            self._held.add(seq)

    def play_next(self) -> Optional[int]:
        """Attempt to play the next in-order packet.

        Returns the played seq, or None (counting an underrun) when it is
        not buffered yet.
        """
        if self.finished:
            return None
        if self._next in self._held:
            self._held.discard(self._next)
            played = self._next
            self._next += 1
            self.played += 1
            self._misses = 0
            return played
        self.underruns += 1
        self._misses += 1
        return None

    @property
    def should_skip(self) -> bool:
        """The skip policy's verdict: the current packet has stalled
        playback for :data:`SKIP_AFTER_MISSES` consecutive periods."""
        return self._misses >= SKIP_AFTER_MISSES

    def skip(self) -> int:
        """Give up on the next packet (playback gap) and move on."""
        skipped = self._next
        self._next += 1
        self._misses = 0
        self.skips += 1
        return skipped

    def __repr__(self) -> str:
        return (
            f"<PlaybackBuffer next={self._next}/{self.n_packets} "
            f"level={self.level} under={self.underruns}>"
        )
