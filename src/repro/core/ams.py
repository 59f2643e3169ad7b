"""AMS — the asynchronous multi-source streaming baseline (§1, refs [3-5]).

In the AMS model every contents peer transmits a disjoint part of the
content and *"is, possibly periodically exchanging state information on
which packets it has sent with all the other contents peers by using a
simple type of group communication protocol"*.  Here that protocol is a
numbered state report per member, sent to every other member each
period: a receiver keeps each member's newest report and drops any copy
numbered no higher than the one it holds, so a lost, duplicated or
reordered report costs nothing but its own content.  The paper's point:
this costs ``n·(n−1)`` control packets per exchange period, the overhead
DCoP/TCoP's selective flooding avoids.

Our AMS implementation is a complete baseline, not a strawman: the state
exchange buys real fault tolerance.  Every peer can recompute every other
peer's initial share deterministically; when a member falls silent for
``takeover_after_periods`` exchange periods, its ring successor (the next
recently-heard member) adopts the silent peer's remaining share from the
last reported cursor, so the leaf still receives the whole content without
any parity — at the price of quadratic chatter for the stream's lifetime.

One limit remains.  A member that has finished stops reporting once it
believes the group resolved; if that last report was lost on the way to
some member, that member presumes it silent and adopts the short tail
after the last cursor it heard, re-sending those few packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, FrozenSet, NamedTuple, Set

from repro.core.base import (
    Assignment,
    AssignmentMessage,
    CoordinationProtocol,
    divide_evenly,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.contents_peer import ContentsPeerAgent
    from repro.streaming.session import StreamingSession


class StateReport(NamedTuple):
    """One member's state report, as carried on the wire."""

    #: the sender's count of reports so far; a higher number is newer
    number: int
    #: packets of its own share the sender has sent
    cursor: int
    done: bool
    #: victims whose shares the sender has adopted
    covering: FrozenSet[str]


@dataclass
class MemberState:
    """What a peer knows about one group member: its newest report."""

    last_heard: float = -1.0
    number: int = 0
    cursor: int = 0
    done: bool = False
    #: victims whose shares this member reported adopting
    covering: Set[str] = field(default_factory=set)

    def merge(self, report: StateReport, now: float) -> None:
        """Take ``report`` if it is newer than the one held; a duplicate
        or late copy changes nothing."""
        if report.number <= self.number:
            return
        self.number = report.number
        self.cursor = report.cursor
        self.done = report.done
        self.covering |= report.covering
        self.last_heard = now


class AMSCoordination(CoordinationProtocol):
    """Disjoint shares + periodic state exchange + ring takeover.

    Parameters
    ----------
    state_period_deltas:
        State-exchange period, in units of the config's δ.
    takeover_after_periods:
        Silence threshold (in periods) after which a member is presumed
        crashed and its share adopted by its ring successor.
    """

    name = "AMS"

    def __init__(
        self,
        state_period_deltas: float = 2.0,
        takeover_after_periods: int = 3,
    ) -> None:
        if state_period_deltas <= 0:
            raise ValueError("state period must be positive")
        if takeover_after_periods < 1:
            raise ValueError("takeover threshold must be >= 1")
        self.state_period_deltas = float(state_period_deltas)
        self.takeover_after_periods = int(takeover_after_periods)

    # ------------------------------------------------------------------
    def first_wave(self, session: "StreamingSession"):
        cfg = session.config
        plan = divide_evenly(
            session.content.packet_sequence(), cfg.tau, cfg.n, cfg.fault_margin
        )
        return session.peer_ids, plan.assignments, frozenset(session.peer_ids)

    # ------------------------------------------------------------------
    def handle_peer_message(self, agent: "ContentsPeerAgent", message) -> None:
        if message.kind == "request":
            self._on_request(agent, message.body)
        elif message.kind == "cbcast":
            states = agent.scratch.get("states")
            if states is not None:
                states[message.src].merge(message.body, agent.env.now)

    def _on_request(self, agent: "ContentsPeerAgent", req: AssignmentMessage) -> None:
        agent.merge_view(req.view)
        if "states" in agent.scratch:
            # duplicate of the leaf's request (link fault or replay):
            # the member is already exchanging state — re-applying would
            # reset every member's state and spawn a second state loop
            return
        stream = agent.activate_with(req.assignment, hops=req.hops)
        agent.scratch["states"] = {
            pid: MemberState() for pid in agent.session.peer_ids
        }
        agent.scratch["assignment"] = req.assignment
        agent.scratch["adopted"] = set()
        agent.env.call_soon(self._report, agent, stream)

    # ------------------------------------------------------------------
    def _report(self, agent: "ContentsPeerAgent", own_stream) -> None:
        """One state round: cbcast this member's report to the others,
        then check the group one period later."""
        session = agent.session
        cfg = session.config
        env = agent.env
        # backstop so the simulation always drains even if members vanish
        # without successors (e.g. everyone crashed)
        deadline = 3 * cfg.content_packets / cfg.tau + 40 * cfg.delta
        if agent.crashed or env.now >= deadline:
            return
        states: Dict[str, MemberState] = agent.scratch["states"]
        adopted: Set[str] = agent.scratch["adopted"]
        own = states[agent.peer_id]
        done = all(s.exhausted for s in agent.streams)
        report = StateReport(
            own.number + 1, own_stream.sent_count, done, frozenset(adopted)
        )
        for member in session.peer_ids:
            if member == agent.peer_id:
                continue
            # old kind name kept: renaming moves the fault_free/ams trace and EX-G
            session.overlay.send(
                agent.peer_id, member, "cbcast", body=report,
                size_bytes=cfg.control_size, ctx=session.ctx,
            )
        own.merge(report, env.now)
        env.call_later(
            self.state_period_deltas * cfg.delta,
            self._check_group, agent, own_stream, done,
        )

    def _check_group(self, agent: "ContentsPeerAgent", own_stream, done: bool) -> None:
        if agent.crashed:
            return
        states: Dict[str, MemberState] = agent.scratch["states"]
        threshold = self.takeover_after_periods * (
            self.state_period_deltas * agent.session.config.delta
        )
        self._maybe_takeover(agent, states, agent.scratch["adopted"], threshold)
        if done and self._group_resolved(agent, states):
            return
        self._report(agent, own_stream)

    def _maybe_takeover(
        self,
        agent: "ContentsPeerAgent",
        states: Dict[str, MemberState],
        adopted: Set[str],
        threshold: float,
    ) -> None:
        session = agent.session
        now = agent.env.now
        members = session.peer_ids
        alive = [
            pid
            for pid in members
            if pid == agent.peer_id
            or now - states[pid].last_heard <= threshold
        ]
        for victim in members:
            if victim == agent.peer_id or victim in alive:
                continue
            state = states[victim]
            if state.done or state.last_heard < 0 and now < threshold:
                continue
            if any(victim in states[p].covering for p in members):
                continue  # someone already reported adopting it
            if victim in adopted:
                continue
            # ring successor: the next alive member after the victim
            idx = members.index(victim)
            successor = None
            for step in range(1, len(members)):
                candidate = members[(idx + step) % len(members)]
                if candidate in alive:
                    successor = candidate
                    break
            if successor != agent.peer_id:
                continue
            self._adopt(agent, victim, state)
            adopted.add(victim)

    def _adopt(
        self, agent: "ContentsPeerAgent", victim: str, state: MemberState
    ) -> None:
        """Take over a silent member's remaining share."""
        from repro.streaming.stream import Stream

        session = agent.session
        base: Assignment = agent.scratch["assignment"]
        plan = replace(base, index=session.peer_ids.index(victim)).build_plan()
        remaining = plan.slice_from(max(0, state.cursor))
        if len(remaining):
            agent.add_stream(Stream(remaining, base.rate))

    def _group_resolved(
        self, agent: "ContentsPeerAgent", states: Dict[str, MemberState]
    ) -> bool:
        """Everyone is done, or dead with their share adopted and done."""
        members = agent.session.peer_ids
        for pid in members:
            if pid == agent.peer_id:
                continue
            state = states[pid]
            if state.done:
                continue
            covered = any(pid in states[p].covering for p in members) or (
                pid in agent.scratch["adopted"]
            )
            if not covered:
                return False
        return True
