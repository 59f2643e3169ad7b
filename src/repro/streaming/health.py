"""Peer health scoring and quarantine: tolerance to *gray* failures.

Crashes are binary and the :class:`~repro.streaming.detector.FailureDetector`
handles them; the worst production failures are gray — a peer that stays
alive (heartbeats flow, acks eventually arrive) while stuttering,
flapping, or serving at a crawl.  The leaf-side :class:`HealthMonitor`
closes that gap with a circuit breaker over three leaf-observable
signals per peer:

* the detector's **φ** accrual score (silence, continuously graded);
* the control plane's smoothed **RTT** toward the peer (Jacobson SRTT,
  Karn-filtered — see :class:`~repro.net.overlay.RttEstimator`);
* delivered-vs-promised media **throughput**: arrivals from the peer per
  check window against the rate its assignments promised.

A peer failing any signal for :data:`STRIKES` consecutive checks is
*quarantined*: excluded from target selection (re-coordination, repair
rounds, adaptation helper recruitment), its residual proactively handed
off through the existing reissue/time-slot allocator *without* waiting
for a crash confirmation.  Quarantine is half-open, never permanent:
the leaf probes the peer at every check (a ``probe`` control message
the peer answers with an immediate heartbeat), judges each probe at the
next check, and readmits it only after
:data:`PROBE_SUCCESSES` consecutive probe round-trips — incoming traffic
alone (:meth:`~repro.streaming.detector.FailureDetector.touch`) never
readmits, so a flapping peer cannot talk its way back in between flaps.

The monitor draws no RNG (handoff target choice reuses the established
``recoord/leaf`` stream) and all signals are deterministic functions of
the trajectory, so equal-seed runs remain byte-identical.  Every state
change is published as a ``health.*`` trace event the ``quarantine``
auditor (:mod:`repro.obs.audit`) checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.streaming.detector import IDLE_GRACE_DELTAS

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession


#: how often peer health is scored and probes are judged, in δ units
CHECK_PERIOD_DELTAS = 2.0
#: φ at or above this is an unhealthy-silence strike (the detector's
#: own thresholds still govern suspect/confirm)
PHI_THRESHOLD = 1.0
#: smoothed RTT at or above this many δ is an unhealthy-path strike
RTT_THRESHOLD_DELTAS = 6.0
#: delivered media rate below this fraction of the promised rate is
#: an unhealthy-throughput strike (while the peer still owes data)
THROUGHPUT_FLOOR = 0.25
#: consecutive unhealthy checks before the breaker opens
STRIKES = 3
#: consecutive successful probes required for readmission
PROBE_SUCCESSES = 2
#: total probes per quarantine episode before giving the peer up
#: (it then stays quarantined; bounds the probe process)
PROBE_BUDGET = 30
#: never hold more than this fraction of live peers in quarantine
#: (at least one is always allowed)
MAX_QUARANTINED_FRACTION = 0.5


@dataclass(frozen=True)
class HealthPolicy:
    """Arms the leaf's quarantine circuit breaker.

    The breaker has no per-run tuning: its thresholds and cadences are
    this module's constants.
    """


@dataclass
class QuarantineRecord:
    """One quarantine episode, for metrics and reports."""

    peer_id: str
    at: float
    reasons: Tuple[str, ...]
    #: ground truth (the fault ledger, metrics only): no injected fault
    #: touched the peer before the quarantine
    false_quarantine: bool = False
    readmitted_at: Optional[float] = None
    probes_sent: int = 0


class HealthMonitor:
    """Leaf-side circuit breaker: score, quarantine, probe, readmit."""

    def __init__(self, session: "StreamingSession") -> None:
        self.session = session
        #: peer -> active episode (readmitted peers drop out)
        self.quarantined: Dict[str, QuarantineRecord] = {}
        #: every episode ever opened, in order
        self.records: List[QuarantineRecord] = []
        self.readmissions = 0
        self.false_quarantines = 0
        self._strikes: Dict[str, int] = {}
        #: peer -> max promised media rate (packets/ms) from assignments
        self._promised: Dict[str, float] = {}
        #: peer -> leaf arrival count at the previous check
        self._arrivals_prev: Dict[str, int] = {}
        #: probes sent at the previous check, in send order: (record,
        #: successes so far, sent at)
        self._probes: List[Tuple[QuarantineRecord, int, float]] = []
        self._last_busy = session.env.now
        #: the leaf clock calls :meth:`check` every ``stride`` ticks
        self.stride = CHECK_PERIOD_DELTAS
        self._period = CHECK_PERIOD_DELTAS * session.config.delta
        self._idle_grace = max(
            IDLE_GRACE_DELTAS * session.config.delta, 4 * self._period
        )

    # ------------------------------------------------------------------
    # queries / feeds
    # ------------------------------------------------------------------
    def is_quarantined(self, peer_id: str) -> bool:
        return peer_id in self.quarantined

    @property
    def quarantines(self) -> int:
        return len(self.records)

    def note_promise(self, peer_id: str, rate: float) -> None:
        """The leaf issued an assignment promising ``rate`` packets/ms."""
        if rate > 0:
            self._promised[peer_id] = max(
                self._promised.get(peer_id, 0.0), rate
            )

    # ------------------------------------------------------------------
    # scoring loop
    # ------------------------------------------------------------------
    def check(self) -> bool:
        """Score every peer not in quarantine, send the first probe to
        each peer this scoring quarantined, then judge the probes sent at
        the previous check.  Wants the next check one period later until
        the leaf is complete or nothing has been busy for the idle grace."""
        session = self.session
        now = session.env.now
        judging, self._probes = self._probes, []
        keep = not session.leaf.decoder.complete
        if keep:
            opened = len(self.records)
            for pid in session.peer_ids:
                if pid in self.quarantined:
                    continue  # only probes readmit
                self._check_peer(pid, self._period)
            busy = self.quarantined or any(
                not agent.crashed
                and any(not s.exhausted for s in agent.streams)
                for agent in session.peers.values()
            )
            if busy:
                self._last_busy = now
            keep = now - self._last_busy < self._idle_grace
            for record in self.records[opened:]:
                self._probe(record, 0)
        for probe in judging:
            self._judge_probe(*probe)
        return keep

    def _check_peer(self, pid: str, period: float) -> None:
        session = self.session
        cfg = session.config
        agent = session.peers[pid]
        detector = session.detector
        st = detector.monitored.get(pid)
        leaf = session.leaf
        arrivals = leaf.arrivals_by_src.get(pid, 0)
        prev = self._arrivals_prev.get(pid, 0)
        self._arrivals_prev[pid] = arrivals
        if agent.crashed or st is None or st.done or st.confirmed:
            # crashes and confirmed failures belong to the detector /
            # re-coordination path; unmonitored or drained peers are not
            # health subjects
            self._strikes[pid] = 0
            return
        reasons: List[str] = []
        phi = detector.phi(pid)
        if phi is not None and phi >= PHI_THRESHOLD:
            reasons.append("phi")
        cp = session.control_plane
        if cp is not None:
            srtt = cp.srtt_of(pid)
            if srtt is not None and srtt >= RTT_THRESHOLD_DELTAS * cfg.delta:
                reasons.append("rtt")
        promised = self._promised.get(pid, 0.0)
        if promised > 0 and detector.owes(pid):
            delivered = (arrivals - prev) / period
            if delivered < THROUGHPUT_FLOOR * promised:
                budget = session.commons.budgets.get(pid)
                if budget is None or budget.backlog(session.env.now) == 0:
                    # a peer starving the leaf because its finite uplink
                    # queue is backlogged is backpressured, not gray —
                    # quarantining it would punish the overload victim
                    reasons.append("throughput")
        if not reasons:
            self._strikes[pid] = 0
            return
        self._strikes[pid] = self._strikes.get(pid, 0) + 1
        if self._strikes[pid] >= STRIKES:
            self._quarantine(pid, tuple(reasons), phi)

    # ------------------------------------------------------------------
    # the breaker
    # ------------------------------------------------------------------
    def _quarantine(
        self, pid: str, reasons: Tuple[str, ...], phi: Optional[float]
    ) -> None:
        session = self.session
        live = [
            p for p in session.peer_ids if not session.peers[p].crashed
        ]
        cap = max(1, int(MAX_QUARANTINED_FRACTION * len(live)))
        if len(self.quarantined) + 1 > cap:
            # breaker saturated: leave the strikes standing, retry at
            # the next check once somebody was readmitted
            return
        false_q = self._is_false_quarantine(pid)
        if false_q:
            self.false_quarantines += 1
        record = QuarantineRecord(
            peer_id=pid,
            at=session.env.now,
            reasons=reasons,
            false_quarantine=false_q,
        )
        self.quarantined[pid] = record
        self.records.append(record)
        self._strikes[pid] = 0
        if session.env.hooks.tracer is not None:
            session.env.hooks.tracer.emit(
                "health.quarantine",
                pid,
                reasons=",".join(reasons),
                phi=round(phi, 3) if phi is not None else None,
                false=false_q,
            )
        if session.recoordinator is not None:
            # proactive: hand the residual off now, without waiting for
            # a crash confirmation the peer may never earn
            session.recoordinator.reissue_residual(pid)

    def _is_false_quarantine(self, pid: str) -> bool:
        """Ground truth off the fault ledger, for metrics and the audit
        only: no injected fault touched the peer so far."""
        return self.session.commons.ledger.touching(pid) is None

    # ------------------------------------------------------------------
    # half-open probing
    # ------------------------------------------------------------------
    def _probe(self, record: QuarantineRecord, successes: int) -> None:
        """Send one probe to a quarantined peer (while the budget lasts),
        to be judged at the next check."""
        pid = record.peer_id
        if pid not in self.quarantined or record.probes_sent >= PROBE_BUDGET:
            return  # readmitted, or budget spent: the peer stays quarantined
        session = self.session
        record.probes_sent += 1
        # fire-and-forget: a reliable probe would spend the retry
        # budget re-reaching the very peer we are measuring
        session.send_control(session.leaf.peer_id, pid, "probe", reliable=False)
        self._probes.append((record, successes, session.env.now))

    def _judge_probe(
        self, record: QuarantineRecord, successes: int, sent_at: float
    ) -> None:
        pid = record.peer_id
        if pid not in self.quarantined:
            return
        session = self.session
        env = session.env
        st = session.detector.monitored.get(pid)
        ok = st is not None and st.last_heard > sent_at
        successes = successes + 1 if ok else 0
        if env.hooks.tracer is not None:
            env.hooks.tracer.emit(
                "health.probe",
                pid,
                ok=ok,
                successes=successes,
                required=PROBE_SUCCESSES,
            )
        if successes >= PROBE_SUCCESSES:
            self._readmit(pid, record, successes)
            return
        if session.leaf.decoder.complete:
            return
        self._probe(record, successes)

    def _readmit(
        self, pid: str, record: QuarantineRecord, probes: int
    ) -> None:
        session = self.session
        self.quarantined.pop(pid, None)
        record.readmitted_at = session.env.now
        self.readmissions += 1
        self._strikes[pid] = 0
        # restart the throughput baseline so the quarantine window's
        # starvation is not held against the readmitted peer
        self._arrivals_prev[pid] = session.leaf.arrivals_by_src.get(pid, 0)
        if session.env.hooks.tracer is not None:
            session.env.hooks.tracer.emit(
                "health.readmit",
                pid,
                probes=probes,
                required=PROBE_SUCCESSES,
            )

    def __repr__(self) -> str:
        return (
            f"<HealthMonitor {len(self.quarantined)} quarantined, "
            f"{self.quarantines} episodes, "
            f"{self.readmissions} readmissions>"
        )
