"""DCoP — the redundant distributed coordination protocol (§3.4).

Flow (one δ-round per wave):

1. The leaf selects ``H`` contents peers and sends each a content request
   carrying its share of the initial ``H``-way division of the enhanced
   packet sequence (and, per §2's coordinated ``Div``, the identity of the
   selected set — which doubles as the request's view).
2. On receipt, a peer activates, merges the carried view, selects up to
   ``H`` peers outside its view, splits its stream for them (Mark → Esq →
   Div) and sends each a control packet with its assignment.
3. On receipt of a control packet a peer activates another stream (it may
   already be active — redundant selection merges by running the streams
   side by side, which is exactly ``pkt_i ∪ pkt_ji`` since assignments are
   disjoint) and floods further while its view is not full.

A peer stops selecting when ``Select`` comes back empty (view covers all
``n`` peers), which is the paper's ``|VW_i| = n`` termination rule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.base import (
    AssignmentMessage,
    CoordinationProtocol,
    ProtocolConfig,
    divide_evenly,
    send_assignments,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.contents_peer import ContentsPeerAgent
    from repro.streaming.session import StreamingSession


class DCoP(CoordinationProtocol):
    """Redundant flooding coordination (a peer may have several parents)."""

    name = "DCoP"
    monitored_requests = True

    # fan-out used by peers when flooding; the unicast-chain baseline
    # overrides this to 1.
    def fanout(self, config: ProtocolConfig) -> int:
        return config.H

    def initial_count(self, config: ProtocolConfig) -> int:
        """How many peers the leaf contacts."""
        return config.H

    # ------------------------------------------------------------------
    def first_wave(self, session: "StreamingSession"):
        cfg = session.config
        selected = session.leaf_select(self.initial_count(cfg))
        view = frozenset(selected) if cfg.request_carries_view else frozenset()
        return selected, self.leaf_division(session, selected), view

    def leaf_division(self, session: "StreamingSession", selected: list[str]):
        """The initial division of the content among ``selected``."""
        cfg = session.config
        return divide_evenly(
            session.content.packet_sequence(), cfg.tau, len(selected),
            cfg.fault_margin,
        ).assignments

    # ------------------------------------------------------------------
    def handle_peer_message(self, agent: "ContentsPeerAgent", message) -> None:
        if message.kind == "request":
            self._on_request(agent, message.body)
        elif message.kind == "control":
            self._on_control(agent, message.body)
        # other kinds (media echoes etc.) are ignored

    def _on_request(self, agent: "ContentsPeerAgent", req: AssignmentMessage) -> None:
        stream = self.activate(agent, req)
        self._flood(agent, stream, next_hops=req.hops + 1)

    def _on_control(self, agent: "ContentsPeerAgent", ctl: AssignmentMessage) -> None:
        agent.merge_view([ctl.sender])
        stream = self.activate(agent, ctl)
        if not agent.view_full:
            self._flood(agent, stream, next_hops=ctl.hops + 1)

    # ------------------------------------------------------------------
    def _flood(self, agent: "ContentsPeerAgent", stream, next_hops: int) -> None:
        """Select children outside the view and hand the stream off."""
        children = agent.select_children(self.fanout(agent.session.config))
        if not children:
            return
        tracer = agent.env.hooks.tracer
        if tracer is not None:
            tracer.wave_start(next_hops, agent.peer_id, targets=len(children))
        assignments = agent.handoff_stream(stream, children)
        agent.merge_view(children)
        send_assignments(
            agent.session, agent.peer_id, "control",
            zip(children, assignments), frozenset(agent.view), next_hops,
        )
