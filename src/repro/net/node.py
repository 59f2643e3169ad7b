"""Overlay node: an identity and the handler its messages go to."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.net.ledger import FaultLedger
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment


class Node:
    """A peer endpoint: identity + the synchronous ``on_deliver`` handler.

    Every arriving message is handed to ``on_deliver`` the instant it
    arrives, without a scheduling hop — the paper's peers act *on receipt*
    of a control packet (§3.3).

    A node can be marked *down* (crash fault): deliveries to a down node are
    discarded, and sends from it are suppressed by the agents.  Crashes,
    rejoins and those discarded deliveries are fault instances, filed in
    ``ledger`` (the overlay's; a private one otherwise).
    """

    def __init__(
        self,
        env: "Environment",
        node_id: str,
        on_deliver: Callable[[Message], None],
        ledger: Optional[FaultLedger] = None,
    ) -> None:
        if not node_id:
            raise ValueError("node_id must be non-empty")
        self.env = env
        self.node_id = node_id
        self.on_deliver = on_deliver
        self.ledger = ledger if ledger is not None else FaultLedger(env)
        self.down = False

    def deliver(self, message: Message, duplicate: bool = False) -> None:
        """Called by a channel when a message arrives.

        ``duplicate`` marks link-fault copies beyond the first; the recv
        trace carries the flag so auditors can exclude them from
        send/recv conservation counts.
        """
        if self.down:
            link = {"mid": message.msg_id} if message.msg_id is not None else {}
            self.ledger.record(
                "msg.drop",
                self.node_id,
                kind=message.kind,
                src=message.src,
                reason="dst_down",
                uid=message.uid,
                **link,
            )
            return
        tracer = self.env.hooks.tracer
        if tracer is not None:
            # uid/mid mirror the matching msg.send so span builders can
            # join the two ends of the wire without heuristics
            link = {"mid": message.msg_id} if message.msg_id is not None else {}
            if duplicate:
                tracer.emit(
                    "msg.recv", self.node_id, kind=message.kind,
                    src=message.src, dup=1, uid=message.uid, **link,
                )
            else:
                tracer.emit(
                    "msg.recv", self.node_id, kind=message.kind,
                    src=message.src, uid=message.uid, **link,
                )
        self.on_deliver(message)

    def crash(self) -> None:
        """Mark the node failed: it neither receives nor (by convention)
        sends from now on."""
        self.down = True
        self.ledger.record("peer.crash", self.node_id)

    def recover(self) -> None:
        self.down = False
        self.ledger.record("peer.rejoin", self.node_id)

    def __repr__(self) -> str:
        state = "down" if self.down else "up"
        return f"<Node {self.node_id} {state}>"
