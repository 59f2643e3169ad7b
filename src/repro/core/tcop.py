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
        session.env.call_soon(self._leaf_offer, session, set(), 0)

    def _offer_round(
        self,
        session: "StreamingSession",
        pending_map: dict,
        sender: str,
        targets: list[str],
        view: frozenset,
        kind: str,
        hops: int,
        then,
        *args,
    ) -> None:
        """One offer wave: ask ``targets`` and, once all have answered or
        the offer timed out, call ``then(*args, pending)`` with what was
        collected.  The last answer or the timer, whichever comes first,
        closes the round."""
        env = session.env
        oid = next(self._offer_ids)
        pending = {
            "expected": set(targets),
            "responded": set(),
            "confirmed": [],
            "env": env,
            "then": (pending_map, oid, then, args),
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

    @staticmethod
    def _close(pending: dict) -> None:
        """End an offer round's wait, once: its continuation runs after
        whatever is already due at this instant."""
        closing = pending.pop("then", None)
        if closing is not None:
            pending["env"].call_later(0, TCoP._collected, pending, *closing)

    @staticmethod
    def _collected(pending: dict, pending_map: dict, oid: int, then, args) -> None:
        del pending_map[oid]
        then(*args, pending)

    def _leaf_offer(
        self, session: "StreamingSession", tried: set, attempt: int
    ) -> None:
        """The leaf's selection: offer to up to H untried peers, at most
        five attempts, until one offer is confirmed."""
        cfg = session.config
        candidates = [p for p in session.peer_ids if p not in tried]
        if not candidates:
            return  # no peers reachable; session ends unsynchronized
        selected = pick(
            session.selection_rng, candidates, min(cfg.H, len(candidates))
        )
        tried.update(selected)
        self._offer_round(
            session, session.protocol_state, session.leaf.peer_id, selected,
            frozenset(selected), "request", 3 * attempt + 1,
            self._leaf_start, session, tried, attempt,
        )

    def _leaf_start(
        self, session: "StreamingSession", tried: set, attempt: int, pending
    ) -> None:
        cfg = session.config
        confirmed = pending["confirmed"]
        if not confirmed:
            if attempt + 1 < 5:
                self._leaf_offer(session, tried, attempt + 1)
            return
        base_hops = 3 * attempt
        leaf_id = session.leaf.peer_id
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
        agent.env.call_soon(self._offer, agent, stream, ctl.hops)

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

    # ------------------------------------------------------------------
    def _offer(self, agent: "ContentsPeerAgent", stream, round_cursor: int) -> None:
        """One offer→collect→start wave of a peer's selection; the waves
        repeat until the view is full, and the last clears the peer's
        ``selecting`` flag."""
        if agent.view_full or agent.crashed:
            agent.scratch["selecting"] = False
            return
        children = agent.select_children(agent.session.config.H)
        if not children:
            agent.scratch["selecting"] = False
            return
        self._offer_round(
            agent.session, agent.scratch.setdefault("pending", {}),
            agent.peer_id, children, frozenset(agent.view), "offer",
            round_cursor + 1, self._start_children, agent, stream, round_cursor,
        )

    def _start_children(
        self, agent: "ContentsPeerAgent", stream, round_cursor: int, pending
    ) -> None:
        # everyone who answered is known-taken now (confirmed → mine;
        # rejected → someone else's child); non-responders after the
        # timeout are treated as unreachable so we never spin on them
        agent.merge_view(pending["responded"])
        agent.merge_view(pending["expected"])
        confirmed = pending["confirmed"]
        round_cursor += 3
        if confirmed:
            assignments = agent.handoff_stream(stream, confirmed)
            send_assignments(
                agent.session, agent.peer_id, "start",
                zip(confirmed, assignments), frozenset(agent.view),
                hops=round_cursor,
            )
        self._offer(agent, stream, round_cursor)
