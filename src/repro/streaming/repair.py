"""Leaf-driven repair: re-request data that parity could not recover.

The paper's protocols guarantee delivery while losses stay within the
parity margin; beyond it (several peers crashing inside one recovery
segment, a long outage, margin 0) the leaf would simply miss data.  This
extension — in the spirit of the paper's reliability goal, though beyond
its text — closes that hole:

the leaf runs a :class:`RepairMonitor` that watches decoding progress;
after :data:`STALL_CHECKS` consecutive check periods without a newly held
data packet (while incomplete), it samples :data:`FANOUT` contents peers
and sends each a *repair request* for a slice of the missing sequence
numbers.
Contents peers hold the content, so they serve the slice directly (the
round's peers share the content rate); crashed peers stay silent and the
next stall triggers another round with a fresh sample, so any live peer
eventually covers every gap, or the monitor gives up after
:data:`MAX_ROUNDS` rounds.

Repair is orthogonal to the coordination protocol: the requests use a
dedicated ``"repair"`` message kind handled by the peer agent itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.core.base import pick
from repro.media.packet import DataPacket
from repro.media.sequence import PacketSequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession


#: how often the leaf checks progress, in δ units
CHECK_PERIOD_DELTAS = 3.0
#: consecutive no-progress checks before a repair round fires
STALL_CHECKS = 2
#: peers sampled per repair round
FANOUT = 3
#: the monitor gives up after this many repair rounds
MAX_ROUNDS = 50


@dataclass(frozen=True)
class RepairPolicy:
    """Arms the leaf's repair loop.

    The loop has no per-run tuning: its cadence, fanout and round budget
    are this module's constants.
    """


@dataclass
class RepairRequest:
    """Body of a ``"repair"`` message: serve these data seqs at ``rate``."""

    seqs: List[int]
    rate: float


class RepairMonitor:
    """Leaf-side stall detector + repair round issuer."""

    def __init__(self, session: "StreamingSession") -> None:
        self.session = session
        self.rounds_issued = 0
        self.gave_up = False
        self._rng = session.streams.get("repair/leaf")
        #: the leaf clock calls :meth:`check` every ``stride`` ticks
        self.stride = CHECK_PERIOD_DELTAS
        self._last_held = -1
        self._stalls = 0

    # ------------------------------------------------------------------
    def check(self) -> bool:
        """One progress check; wants the next until the leaf is complete
        or the round budget is spent."""
        held = len(self.session.leaf.decoder.data_seqs_held())
        if held == self._last_held:
            self._stalls += 1
        else:
            self._stalls = 0
            self._last_held = held
        if self._stalls >= STALL_CHECKS:
            self._stalls = 0
            if self.rounds_issued >= MAX_ROUNDS:
                self.gave_up = True
                return False
            self._issue_round()
        return not self.session.leaf.decoder.complete

    def _issue_round(self) -> None:
        session = self.session
        missing = sorted(session.leaf.decoder.missing_data_seqs())
        if not missing:
            return
        self.rounds_issued += 1
        peers = session.peer_ids
        avoid: set[str] = set()
        if session.detector is not None:
            # skip peers the failure detector already considers dead —
            # requests to them are silence by construction.
            avoid |= session.detector.suspects
        if session.health is not None:
            # likewise skip quarantined peers: they are alive but gray,
            # and repair traffic through them defeats the circuit breaker
            avoid |= set(session.health.quarantined)
        if avoid:
            # Fall back to the full list if suspicion + quarantine cover
            # everyone (a false mass accusation must not starve repair).
            filtered = [p for p in peers if p not in avoid]
            if filtered:
                peers = filtered
        k = min(FANOUT, len(peers))
        targets = pick(self._rng, peers, k)
        # the k peers of a round share the content rate between them
        rate = session.config.tau / k
        for i, pid in enumerate(targets):
            slice_seqs = missing[i::k]
            if not slice_seqs:
                continue
            session.overlay.send(
                session.leaf.peer_id,
                pid,
                "repair",
                body=RepairRequest(seqs=slice_seqs, rate=rate),
                size_bytes=session.config.control_size,
            )


def serve_repair(agent, request: RepairRequest) -> None:
    """Contents-peer side: transmit the requested slice from its copy.

    Called by :class:`~repro.streaming.contents_peer.ContentsPeerAgent`
    when a ``"repair"`` message arrives; crashed peers never get here
    (their node discards deliveries).
    """
    from repro.streaming.stream import Stream

    content = agent.session.content
    packets = [
        DataPacket(seq, content.payload(seq))
        for seq in request.seqs
        if 1 <= seq <= content.n_packets
    ]
    if packets:
        agent.add_stream(Stream(PacketSequence(packets), request.rate))
