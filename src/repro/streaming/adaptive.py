"""Rate adaptation: a degraded peer recruits a helper mid-stream.

The paper's §5 closes with "heterogeneous environment where each contents
peer may support different transmission rate **and even change the
rate**".  This extension implements the reactive half of that programme:

a session-level :class:`RateAdaptationMonitor` periodically compares each
active stream's *actual* rate against its nominal assignment; when a
stream has degraded below ``THRESHOLD × nominal`` (a QoS fault, modelled
by :meth:`~repro.streaming.faults.FaultPlan.degrade`), the affected peer
performs a *weighted handoff*: the remaining postfix is split between
itself and a freshly recruited helper **proportionally to their rates**
via the §2 time-slot allocator, so both parts finish together and the
aggregate throughput returns to nominal.  The helper receives an ``adapt``
message with its explicit plan and compensation rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.media.sequence import PacketSequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession
    from repro.streaming.stream import Stream


#: how often stream rates are checked, in δ units
CHECK_PERIOD_DELTAS = 3.0
#: a stream below THRESHOLD × nominal rate triggers adaptation
THRESHOLD = 0.9


@dataclass(frozen=True)
class RateAdaptationPolicy:
    """Arms the degradation monitor; its cadence and threshold are this
    module's constants."""


@dataclass
class AdaptRequest:
    """Body of an ``adapt`` message: serve this plan at ``rate``."""

    plan: PacketSequence
    rate: float
    on_behalf_of: str


class RateAdaptationMonitor:
    """Watches every peer's streams; degraded ones recruit helpers."""

    def __init__(self, session: "StreamingSession") -> None:
        self.session = session
        self.adaptations = 0
        self._helped: set[int] = set()  # id(stream) already compensated
        self._rng = session.streams.get("adaptive/monitor")
        session.env.process(self._run())

    def _run(self):
        session = self.session
        env = session.env
        period = CHECK_PERIOD_DELTAS * session.config.delta
        while True:
            yield env.timeout(period)
            busy = False
            for agent in session.peers.values():
                if agent.crashed:
                    continue
                for stream in agent.streams:
                    if stream.exhausted:
                        continue
                    busy = True
                    if id(stream) in self._helped:
                        continue
                    actual = stream.current_rate
                    if actual < THRESHOLD * stream.nominal_rate:
                        self._compensate(agent, stream)
            if not busy:
                return

    # ------------------------------------------------------------------
    def _compensate(self, agent, stream: "Stream") -> None:
        session = self.session
        cfg = session.config
        shortfall = stream.nominal_rate - stream.current_rate
        if shortfall <= 0:
            return  # pragma: no cover - guarded by the threshold test
        health = session.health
        candidates = [
            pid
            for pid in session.peer_ids
            if pid != agent.peer_id
            and not session.peers[pid].crashed
            and (health is None or not health.is_quarantined(pid))
        ]
        if not candidates:
            return
        helper = candidates[int(self._rng.integers(len(candidates)))]
        plans = stream.handoff_weighted(
            weights=[stream.current_rate, shortfall],
            fault_margin=cfg.fault_margin,
            delta=cfg.delta,
        )
        self._helped.add(id(stream))
        if not plans or not len(plans[0]):
            return
        self.adaptations += 1
        session.overlay.send(
            agent.peer_id,
            helper,
            "adapt",
            body=AdaptRequest(
                plan=plans[0], rate=shortfall, on_behalf_of=agent.peer_id
            ),
            size_bytes=cfg.control_size,
            ctx=session.ctx,
        )


def serve_adapt(agent, request: AdaptRequest) -> None:
    """Helper side: take over the degraded peer's surplus share."""
    from repro.streaming.stream import Stream

    agent.add_stream(Stream(request.plan, request.rate))
