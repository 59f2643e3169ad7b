"""Broadcast coordination — the §3.1 "first broadcast way" baseline.

The leaf broadcasts the content request to *all* ``n`` contents peers; every
peer immediately starts transmitting the **whole** packet sequence, so the
leaf receives each packet up to ``n`` times (buffer overrun when
``nτ > ρ_s``).  While transmitting, each peer sends its service information
to every other peer (a simple group-communication round, ``n(n−1)`` control
packets); once a peer has heard from everyone it knows the full membership,
ranks peers by id, and reschedules onto its own ``1/n`` share of the
remaining sequence.

Synchronization takes a single round (everyone is active at δ), but the
control traffic is quadratic and the pre-reschedule redundancy is maximal —
the trade-off Figure 4(1) illustrates.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.base import (
    AssignmentMessage,
    CoordinationProtocol,
    divide_evenly,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.contents_peer import ContentsPeerAgent
    from repro.streaming.session import StreamingSession


class BroadcastCoordination(CoordinationProtocol):
    """Leaf floods everyone; peers gossip state, then de-duplicate."""

    name = "Broadcast"

    def first_wave(self, session: "StreamingSession"):
        # everyone, and each the whole sequence at the content rate
        whole = divide_evenly(
            session.content.packet_sequence(), session.config.tau, 1, 0
        ).assignments
        peers = session.peer_ids
        return peers, whole * len(peers), frozenset(peers)

    def handle_peer_message(self, agent: "ContentsPeerAgent", message) -> None:
        if message.kind == "request":
            self._on_request(agent, message.body)
        elif message.kind == "state":
            self._on_state(agent, message.body)

    def _on_request(self, agent: "ContentsPeerAgent", req: AssignmentMessage) -> None:
        agent.scratch["stream"] = self.activate(agent, req)
        agent.scratch["heard_from"] = set()
        # one group-communication round: tell everyone else we are active
        for pid in agent.session.peer_ids:
            if pid != agent.peer_id:
                agent.send_control(pid, "state", agent.peer_id)

    def _on_state(self, agent: "ContentsPeerAgent", sender: str) -> None:
        heard = agent.scratch.setdefault("heard_from", set())
        heard.add(sender)
        agent.merge_view([sender])
        n = agent.session.config.n
        if len(heard) == n - 1 and not agent.scratch.get("rescheduled"):
            agent.scratch["rescheduled"] = True
            self._reschedule(agent)

    def _reschedule(self, agent: "ContentsPeerAgent") -> None:
        """Switch to this peer's 1/n share of the remaining sequence.

        All peers transmit the same full plan, so they agree to switch at a
        fixed absolute position (past where any of them can be when the
        last state message lands, ≈2δ plus latency spread); every peer then
        keeps its own rank's share of the identical division, dropping the
        redundancy from n× to ≈1×.
        """
        session = agent.session
        cfg = session.config
        stream = agent.scratch.get("stream")
        if stream is None or stream.exhausted:
            return
        rank = session.peer_ids.index(agent.peer_id)
        n = cfg.n
        if n == 1:
            return
        switch_pos = math.ceil(
            cfg.delta * (2 * (1 + cfg.pair_latency_spread) + 1) * cfg.tau
        )
        stream.handoff(
            n_children=n - 1,
            fault_margin=cfg.fault_margin,
            delta=cfg.delta,
            own_index=rank,
            keep_packets=switch_pos - stream.sent_count,
        )
