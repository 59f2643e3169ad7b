"""Causally ordered broadcast over the overlay (ref [10]).

Implements the classic vector-clock causal broadcast: sender ``j`` ticks
its own component and attaches the clock; receiver ``i`` delivers a
message from ``j`` once

* ``msg.vc[j] == delivered[j] + 1``  (next from that sender), and
* ``msg.vc[k] <= delivered[k]`` for all ``k ≠ j``  (all causal
  predecessors already delivered),

buffering it otherwise.  Channels with jittered latencies reorder freely,
so the buffer genuinely fills; the tests force reorderings and check no
causal violation is ever exposed to the application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.groupcomm.vector_clock import VectorClock

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.overlay import Overlay


@dataclass
class CausalMessage:
    """Payload + vector clock, as carried on the wire."""

    sender: str
    vc_counts: Dict[str, int]
    payload: Any


class CausalBroadcaster:
    """One group member's causal-broadcast endpoint.

    Wire transport is the overlay (message kind ``"cbcast"`` by default);
    the owner must route incoming cbcast messages to :meth:`on_receive`.
    Delivery order is surfaced through the ``deliver`` callback.
    """

    def __init__(
        self,
        overlay: "Overlay",
        member_id: str,
        group: List[str],
        deliver: Callable[[str, Any], None],
        kind: str = "cbcast",
        size_bytes: int = 64,
        ctx: Optional[str] = None,
    ) -> None:
        if member_id not in group:
            raise ValueError(f"{member_id!r} not in its own group")
        self.overlay = overlay
        #: coordination-context tag stamped on every wire send (swarm
        #: runs share one physical node per member across leaf sessions)
        self.ctx = ctx
        self.member_id = member_id
        self.group = list(group)
        self.deliver = deliver
        self.kind = kind
        self.size_bytes = size_bytes
        self.clock = VectorClock(group)
        #: per-sender count of delivered broadcasts
        self.delivered = VectorClock(group)
        self._pending: List[CausalMessage] = []
        self.sent_count = 0
        self.delivered_count = 0
        #: stale copies discarded on receipt (duplicated links, replays)
        self.duplicates_discarded = 0

    # ------------------------------------------------------------------
    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every other group member (and self-deliver)."""
        self.clock.tick(self.member_id)
        counts = self.clock.as_dict()
        for member in self.group:
            if member == self.member_id:
                continue
            self.overlay.send(
                self.member_id,
                member,
                self.kind,
                body=CausalMessage(self.member_id, dict(counts), payload),
                size_bytes=self.size_bytes,
                ctx=self.ctx,
            )
            self.sent_count += 1
        # own broadcast is causally delivered immediately
        self.delivered.tick(self.member_id)
        self.delivered_count += 1
        self.deliver(self.member_id, payload)

    # ------------------------------------------------------------------
    def on_receive(self, message: CausalMessage) -> None:
        """Feed one incoming cbcast; delivers everything now ready.

        A copy whose sender component is already delivered is a
        duplicate (a duplicating link, or a replay): it must be
        discarded here, or it would sit in the pending buffer forever
        and — were it ever merged — corrupt no clock but leak memory.
        Idempotence costs one comparison.
        """
        if message.vc_counts.get(message.sender, 0) <= self.delivered[message.sender]:
            self.duplicates_discarded += 1
            return
        self._pending.append(message)
        self._drain()

    def _ready(self, msg: CausalMessage) -> bool:
        for member in self.group:
            expected = (
                self.delivered[member] + 1
                if member == msg.sender
                else self.delivered[member]
            )
            if msg.vc_counts.get(member, 0) > expected:
                return False
        # also require it to be the *next* message from its sender
        return msg.vc_counts.get(msg.sender, 0) == self.delivered[msg.sender] + 1

    def _drain(self) -> None:
        progress = True
        while progress:
            progress = False
            for i, msg in enumerate(self._pending):
                if self._ready(msg):
                    self._pending.pop(i)
                    self.delivered.tick(msg.sender)
                    self.clock.merge(
                        VectorClock(self.group, msg.vc_counts)
                    )
                    self.delivered_count += 1
                    self.deliver(msg.sender, msg.payload)
                    progress = True
                    break

    def __repr__(self) -> str:
        return (
            f"<CausalBroadcaster {self.member_id} delivered="
            f"{self.delivered_count} pending={len(self._pending)}>"
        )
