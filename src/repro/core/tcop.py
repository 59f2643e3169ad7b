"""TCoP — the non-redundant tree-based coordination protocol (§3.5).

Every selection is a three-round handshake:

1. ``offer`` (the paper's ``c1``): "will you be my child?", carrying the
   selector's view;
2. ``confirm`` / ``reject`` (``cc1``): a dormant unclaimed peer accepts the
   *first* offer it receives and commits to that parent; anyone else
   rejects (our rejects are explicit messages — the paper's parent
   "collects the confirmations", which over an asynchronous network needs
   either negative acks or a timeout; we send the ack and also keep a
   timeout for lossy channels);
3. ``start`` (``c2``): the parent, knowing how many children confirmed,
   splits its stream among itself + the confirmed children and sends each
   its assignment.

The leaf's initial selection uses the same handshake (request = its offer),
so each wave costs three δ-rounds — the 3× round inflation over DCoP the
paper reports.  A parent whose candidates all rejected has still *learned*
(rejecters are someone's children already → merged into the view) and
retries with fresh candidates until its view is full — the extra control
traffic behind Figure 11.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.core.base import (
    AssignmentMessage,
    ConfirmMessage,
    CoordinationProtocol,
    OfferMessage,
    divide_evenly,
    pick,
    send_assignments,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.contents_peer import ContentsPeerAgent
    from repro.streaming.session import StreamingSession

#: how long an offer round waits for its replies, in δ units; a claimed
#: peer waits two δ more for its parent's start before it frees itself
OFFER_TIMEOUT_DELTAS = 4.0


class TCoP(CoordinationProtocol):
    """Tree-based coordination: at most one parent per contents peer."""

    name = "TCoP"

    def __init__(self) -> None:
        self._offer_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # leaf side
    # ------------------------------------------------------------------
    def initiate(self, session: "StreamingSession") -> None:
        session.env.process(self._leaf_handshake(session))

    def _offer_round(
        self,
        session: "StreamingSession",
        pending_map: dict,
        sender: str,
        targets: list[str],
        view: frozenset,
        kind: str,
        hops: int,
    ):
        """One offer wave: ask ``targets``, wait until all have answered or
        the offer times out, and return what was collected.  The round's
        event is succeeded by the last answer or by a timer, whichever
        comes first."""
        env = session.env
        oid = next(self._offer_ids)
        pending = {
            "expected": set(targets),
            "responded": set(),
            "confirmed": [],
            "event": env.event(),
        }
        pending_map[oid] = pending
        if env.hooks.tracer is not None:
            env.hooks.tracer.wave_start(
                hops, sender, targets=len(targets), phase="offer"
            )
        for pid in targets:
            session.send_control(
                sender, pid, kind, OfferMessage(sender, view, oid, hops=hops)
            )
        env.call_later(
            OFFER_TIMEOUT_DELTAS * session.config.delta, self._close, pending
        )
        yield pending["event"]
        del pending_map[oid]
        return pending

    def _leaf_handshake(self, session: "StreamingSession"):
        cfg = session.config
        leaf_id = session.leaf.peer_id
        confirmed: list[str] = []
        tried: set[str] = set()
        attempts = 0
        base_hops = 0
        while not confirmed and attempts < 5:
            attempts += 1
            base_hops = 3 * (attempts - 1)
            candidates = [p for p in session.peer_ids if p not in tried]
            if not candidates:
                break
            selected = pick(
                session.selection_rng, candidates, min(cfg.H, len(candidates))
            )
            tried.update(selected)
            pending = yield from self._offer_round(
                session, session.protocol_state, leaf_id, selected,
                frozenset(selected), "request", base_hops + 1,
            )
            confirmed = pending["confirmed"]

        if not confirmed:
            return  # no peers reachable; session ends unsynchronized

        plan = divide_evenly(
            session.content.packet_sequence(), cfg.tau, len(confirmed),
            cfg.fault_margin,
        )
        if session.env.hooks.tracer is not None:
            session.env.hooks.tracer.wave_start(
                base_hops + 3, leaf_id, targets=len(confirmed), phase="start"
            )
        send_assignments(
            session, leaf_id, "start", zip(confirmed, plan.assignments),
            frozenset(confirmed), hops=base_hops + 3,
        )

    def handle_leaf_message(self, session: "StreamingSession", message) -> None:
        body = message.body
        if isinstance(body, ConfirmMessage):
            self._record_response(session.protocol_state, body)

    # ------------------------------------------------------------------
    # peer side
    # ------------------------------------------------------------------
    def handle_peer_message(self, agent: "ContentsPeerAgent", message) -> None:
        body = message.body
        if message.kind in ("request", "offer"):
            self._on_offer(agent, body)
        elif message.kind == "start":
            self._on_start(agent, body)
        elif message.kind in ("confirm", "reject"):
            self._record_response(
                agent.scratch.setdefault("pending", {}), body
            )
            if body.accept:
                agent.merge_view([body.sender])

    def _on_offer(self, agent: "ContentsPeerAgent", offer: OfferMessage) -> None:
        agent.merge_view(offer.view)
        if offer.sender != agent.session.leaf.peer_id:
            agent.merge_view([offer.sender])
        accept = agent.parent is None and not agent.active
        if accept:
            agent.parent = offer.sender
            if agent.env.hooks.tracer is not None:
                agent.env.hooks.tracer.emit(
                    "peer.attach", agent.peer_id, parent=offer.sender
                )
            # if the parent's start never arrives (lost on a faulty
            # channel, or the parent crashed between collect and start),
            # release the claim so another parent can adopt this peer —
            # otherwise one lost message wedges the peer forever
            agent.env.call_later(
                (OFFER_TIMEOUT_DELTAS + 2) * agent.session.config.delta,
                self._release_claim, agent, offer.sender,
            )
        agent.send_control(
            offer.sender,
            "confirm" if accept else "reject",
            ConfirmMessage(agent.peer_id, offer.offer_id, accept),
        )

    @staticmethod
    def _release_claim(agent: "ContentsPeerAgent", parent_id: str) -> None:
        """The claim's watchdog: free a peer whose parent never started it."""
        if not agent.active and agent.parent == parent_id:
            agent.parent = None
            if agent.env.hooks.tracer is not None:
                agent.env.hooks.tracer.emit(
                    "peer.detach",
                    agent.peer_id,
                    parent=parent_id,
                    reason="watchdog",
                )

    def _on_start(self, agent: "ContentsPeerAgent", ctl: AssignmentMessage) -> None:
        stream = self.activate(agent, ctl)
        # idempotence under duplication/reordering: a second start (a
        # reissued residual, or a duplicate that slipped past the wire
        # dedup) adds its stream, but only one selection loop may offer
        # on this peer's behalf — two would double-claim children
        if agent.scratch.get("selecting"):
            return
        agent.scratch["selecting"] = True
        agent.env.process(self._selection_loop(agent, stream, ctl.hops))

    # ------------------------------------------------------------------
    # mid-stream re-coordination
    # ------------------------------------------------------------------
    def reissue(self, session: "StreamingSession", failed: str, assignments) -> None:
        """Hand the failed peer's residual to survivors as ``start``
        packets (the leaf adopts them directly), and re-attach the
        orphaned subtree: dormant peers still claimed by the dead parent
        are released so another parent's offer can adopt them."""
        for agent in session.peers.values():
            if agent.parent == failed and not agent.active:
                agent.parent = None
                if session.env.hooks.tracer is not None:
                    session.env.hooks.tracer.emit(
                        "peer.detach",
                        agent.peer_id,
                        parent=failed,
                        reason="reissue",
                    )
        send_assignments(
            session, session.leaf.peer_id, "start", assignments.items(),
            frozenset(assignments), hops=1,
        )

    @staticmethod
    def _record_response(pending_map: dict, resp: ConfirmMessage) -> None:
        pending = pending_map.get(resp.offer_id)
        if pending is None:
            return  # response landed after the collection window
        if resp.sender not in pending["expected"]:
            return
        pending["expected"].discard(resp.sender)
        pending["responded"].add(resp.sender)
        if resp.accept:
            pending["confirmed"].append(resp.sender)
        if not pending["expected"]:
            TCoP._close(pending)

    @staticmethod
    def _close(pending: dict) -> None:
        """End an offer round's wait, once."""
        if not pending["event"].triggered:
            pending["event"].succeed()

    # ------------------------------------------------------------------
    def _selection_loop(self, agent: "ContentsPeerAgent", stream, base_hops: int):
        """Repeated offer→collect→start waves until the view is full."""
        try:
            yield from self._selection_rounds(agent, stream, base_hops)
        finally:
            agent.scratch["selecting"] = False

    def _selection_rounds(self, agent: "ContentsPeerAgent", stream, base_hops: int):
        cfg = agent.session.config
        pending_map = agent.scratch.setdefault("pending", {})
        round_cursor = base_hops
        while not agent.view_full and not agent.crashed:
            children = agent.select_children(cfg.H)
            if not children:
                break
            pending = yield from self._offer_round(
                agent.session, pending_map, agent.peer_id, children,
                frozenset(agent.view), "offer", round_cursor + 1,
            )
            # everyone who answered is known-taken now (confirmed → mine;
            # rejected → someone else's child); non-responders after the
            # timeout are treated as unreachable so we never spin on them
            agent.merge_view(pending["responded"])
            agent.merge_view(pending["expected"])
            confirmed = pending["confirmed"]
            round_cursor += 3
            if not confirmed:
                continue
            assignments = agent.handoff_stream(stream, confirmed)
            send_assignments(
                agent.session, agent.peer_id, "start",
                zip(confirmed, assignments), frozenset(agent.view),
                hops=round_cursor,
            )
