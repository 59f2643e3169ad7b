"""Leaf-side playback buffer with overrun/underrun accounting.

The leaf peer must *deliver* (play) data packets in order at the content
rate τ.  Arriving packets are held in a bounded buffer:

* an arrival that exceeds ``capacity`` is an **overrun** — the §3.1 failure
  mode of the naive broadcast coordination (``Hτ > ρ_s``);
* a playback instant at which the next in-order packet is unavailable is an
  **underrun** (stall) — the failure mode parity and multi-source
  transmission exist to prevent.

The buffer keeps counts only; the leaf publishes when playback played,
stalled or skipped as ``buffer.*`` trace events.
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

    def __init__(self, n_packets: int, capacity: float = float("inf")) -> None:
        if n_packets < 1:
            raise ValueError("n_packets must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.n_packets = n_packets
        self.capacity = capacity
        self._held: set[int] = set()
        self._next = 1
        self._misses = 0
        self.played = 0
        self.overruns = 0
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

    def offer(self, seq: int) -> bool:
        """Register arrival of data packet ``seq``.

        Returns False (and counts an overrun) when the buffer is full;
        duplicate or already-played packets are ignored.
        """
        if not 1 <= seq <= self.n_packets:
            raise ValueError(f"seq {seq} outside content")
        if seq < self._next or seq in self._held:
            return True  # stale or duplicate: no effect
        if len(self._held) >= self.capacity:
            self.overruns += 1
            return False
        self._held.add(seq)
        return True

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
            f"level={self.level} under={self.underruns} over={self.overruns}>"
        )
