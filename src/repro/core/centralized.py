"""Centralized 2PC-style coordination — the Itaya et al. [5] baseline.

One contents peer acts as the controller.  After the leaf's request it runs
a two-phase-commit-shaped exchange with every other peer:

1. ``prepare``: controller → all peers (can you serve this content?);
2. ``ready``: peers → controller;
3. ``start``: controller → all peers, carrying each peer's share of the
   division; the controller takes share 0 itself.

All peers therefore activate ≥3 δ-rounds after the controller learns of the
request — the paper's "it takes at least three rounds to synchronize
multiple contents peers" that motivates the distributed protocols.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.base import (
    CoordinationProtocol,
    divide_evenly,
    send_assignments,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.contents_peer import ContentsPeerAgent
    from repro.streaming.session import StreamingSession


class CentralizedCoordination(CoordinationProtocol):
    """Controller-led prepare / ready / start exchange."""

    name = "Centralized"

    def initiate(self, session: "StreamingSession") -> None:
        controller = session.leaf_select(1)[0]
        session.protocol_state["controller"] = controller
        if session.env.hooks.tracer is not None:
            session.env.hooks.tracer.wave_start(
                1, session.leaf.peer_id, targets=1, phase="request"
            )
        session.send_control(
            session.leaf.peer_id, controller, "request", None
        )

    def handle_peer_message(self, agent: "ContentsPeerAgent", message) -> None:
        if message.kind == "request":
            self._on_request(agent)
        elif message.kind == "prepare":
            agent.merge_view([message.body])
            agent.send_control(message.body, "ready", agent.peer_id)
        elif message.kind == "ready":
            self._on_ready(agent, message.body)
        elif message.kind == "start":
            self.activate(agent, message.body)

    def _on_request(self, agent: "ContentsPeerAgent") -> None:
        agent.scratch["is_controller"] = True
        agent.scratch["ready"] = set()
        others = [p for p in agent.session.peer_ids if p != agent.peer_id]
        agent.merge_view(others)
        if not others:
            self._start_all(agent)
            return
        if agent.env.hooks.tracer is not None:
            agent.env.hooks.tracer.wave_start(
                2, agent.peer_id, targets=len(others), phase="prepare"
            )
        for pid in others:
            agent.send_control(pid, "prepare", agent.peer_id)

    def _on_ready(self, agent: "ContentsPeerAgent", sender: str) -> None:
        ready = agent.scratch.setdefault("ready", set())
        ready.add(sender)
        others = len(agent.session.peer_ids) - 1
        if len(ready) == others and not agent.scratch.get("started"):
            agent.scratch["started"] = True
            self._start_all(agent)

    def _start_all(self, agent: "ContentsPeerAgent") -> None:
        session = agent.session
        cfg = session.config
        members = [agent.peer_id] + sorted(
            p for p in session.peer_ids if p != agent.peer_id
        )
        own, *shares = divide_evenly(
            session.content.packet_sequence(), cfg.tau, len(members),
            cfg.fault_margin,
        ).assignments
        if agent.env.hooks.tracer is not None:
            agent.env.hooks.tracer.wave_start(
                4, agent.peer_id, targets=len(members), phase="start"
            )
        # controller has collected every ready at round 3 and can start
        # transmitting immediately
        agent.activate_with(own, hops=3)
        send_assignments(
            session, agent.peer_id, "start", zip(members[1:], shares),
            frozenset(members), hops=4,
        )
