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

A peer failing any signal for ``strikes`` consecutive checks is
*quarantined*: excluded from target selection (re-coordination, repair
rounds, adaptation helper recruitment), its residual proactively handed
off through the existing reissue/time-slot allocator *without* waiting
for a crash confirmation.  Quarantine is half-open, never permanent:
the leaf probes the peer periodically (a ``probe`` control message the
peer answers with an immediate heartbeat) and readmits it only after
``probe_successes`` consecutive probe round-trips — incoming traffic
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

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import StreamingSession


@dataclass(frozen=True)
class HealthPolicy:
    """Tuning knobs for the leaf's quarantine circuit breaker."""

    #: how often peer health is scored, in δ units
    check_period_deltas: float = 2.0
    #: φ at or above this is an unhealthy-silence strike (the detector's
    #: own thresholds still govern suspect/confirm)
    phi_threshold: float = 1.0
    #: smoothed RTT at or above this many δ is an unhealthy-path strike
    rtt_threshold_deltas: float = 6.0
    #: delivered media rate below this fraction of the promised rate is
    #: an unhealthy-throughput strike (while the peer still owes data)
    throughput_floor: float = 0.25
    #: consecutive unhealthy checks before the breaker opens
    strikes: int = 3
    #: probe cadence while quarantined, in δ units
    probe_period_deltas: float = 2.0
    #: consecutive successful probes required for readmission
    probe_successes: int = 2
    #: total probes per quarantine episode before giving the peer up
    #: (it then stays quarantined; bounds the probe process)
    probe_budget: int = 30
    #: proactively reissue the quarantined peer's residual to survivors
    handoff: bool = True
    #: never hold more than this fraction of live peers in quarantine
    #: (at least one is always allowed)
    max_quarantined_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.check_period_deltas <= 0:
            raise ValueError("check period must be positive")
        if self.phi_threshold <= 0:
            raise ValueError("phi_threshold must be positive")
        if self.rtt_threshold_deltas <= 0:
            raise ValueError("rtt_threshold_deltas must be positive")
        if not 0 < self.throughput_floor < 1:
            raise ValueError("throughput_floor must be in (0, 1)")
        if self.strikes < 1:
            raise ValueError("strikes must be >= 1")
        if self.probe_period_deltas <= 0:
            raise ValueError("probe period must be positive")
        if self.probe_successes < 1:
            raise ValueError("probe_successes must be >= 1")
        if self.probe_budget < self.probe_successes:
            raise ValueError("probe_budget must cover probe_successes")
        if not 0 < self.max_quarantined_fraction <= 1:
            raise ValueError(
                "max_quarantined_fraction must be in (0, 1]"
            )


@dataclass
class QuarantineRecord:
    """One quarantine episode, for metrics and reports."""

    peer_id: str
    at: float
    reasons: Tuple[str, ...]
    #: ground truth (simulator oracle, metrics only): no injected fault
    #: could explain the quarantine
    false_quarantine: bool = False
    readmitted_at: Optional[float] = None
    probes_sent: int = 0


class HealthMonitor:
    """Leaf-side circuit breaker: score, quarantine, probe, readmit."""

    def __init__(self, session: "StreamingSession", policy: HealthPolicy) -> None:
        self.session = session
        self.policy = policy
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
        self._last_busy = session.env.now
        session.env.process(self._run())

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
    def _run(self):
        session = self.session
        env = session.env
        cfg = session.config
        detector = session.detector
        period = self.policy.check_period_deltas * cfg.delta
        idle_grace = max(
            detector.policy.idle_grace_deltas * cfg.delta, 4 * period
        )
        while True:
            yield env.timeout(period)
            now = env.now
            if session.leaf.decoder.complete:
                return
            for pid in session.peer_ids:
                if pid in self.quarantined:
                    continue  # only probes readmit
                self._check_peer(pid, period)
            busy = self.quarantined or any(
                not agent.crashed
                and any(not s.exhausted for s in agent.streams)
                for agent in session.peers.values()
            )
            if busy:
                self._last_busy = now
            elif now - self._last_busy >= idle_grace:
                return

    def _check_peer(self, pid: str, period: float) -> None:
        session = self.session
        pol = self.policy
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
        if phi is not None and phi >= pol.phi_threshold:
            reasons.append("phi")
        cp = session.control_plane
        if cp is not None:
            srtt = cp.srtt_of(pid)
            if srtt is not None and srtt >= pol.rtt_threshold_deltas * cfg.delta:
                reasons.append("rtt")
        promised = self._promised.get(pid, 0.0)
        if promised > 0 and detector.residual_of(pid):
            delivered = (arrivals - prev) / period
            if delivered < pol.throughput_floor * promised:
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
        if self._strikes[pid] >= pol.strikes:
            self._quarantine(pid, tuple(reasons), phi)

    # ------------------------------------------------------------------
    # the breaker
    # ------------------------------------------------------------------
    def _quarantine(
        self, pid: str, reasons: Tuple[str, ...], phi: Optional[float]
    ) -> None:
        session = self.session
        pol = self.policy
        live = [
            p for p in session.peer_ids if not session.peers[p].crashed
        ]
        cap = max(1, int(pol.max_quarantined_fraction * len(live)))
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
        if pol.handoff and session.recoordinator is not None:
            # proactive: hand the residual off now, without waiting for
            # a crash confirmation the peer may never earn
            session.recoordinator.reissue_residual(pid)
        session.env.process(self._probe_loop(pid, record))

    def _is_false_quarantine(self, pid: str) -> bool:
        """Ground truth: could *any* injected fault explain this?

        Simulator oracle for metrics and the false-quarantine audit
        bound — never consulted by the breaker itself.  A session with
        lossy channels (media or control), link faults, churn, or
        partitions degrades paths nondirectedly, so nothing in it counts
        as false; otherwise the peer must have a fired fault
        (crash/degrade/flap) on record.
        """
        session = self.session
        spec = session.spec
        if (
            spec.loss is not None
            or spec.control_loss is not None
            or spec.link_fault is not None
            or spec.churn_plan is not None
            or spec.partition_plan is not None
        ):
            return False
        if session.peers[pid].crashed:
            return False
        return not any(
            getattr(event, "peer_id", None) == pid
            for event in session.faults_fired
        )

    # ------------------------------------------------------------------
    # half-open probing
    # ------------------------------------------------------------------
    def _probe_loop(self, pid: str, record: QuarantineRecord):
        session = self.session
        env = session.env
        pol = self.policy
        detector = session.detector
        period = pol.probe_period_deltas * session.config.delta
        leaf_id = session.leaf.peer_id
        successes = 0
        while pid in self.quarantined:
            if record.probes_sent >= pol.probe_budget:
                return  # budget spent: the peer stays quarantined
            sent_at = env.now
            record.probes_sent += 1
            # fire-and-forget: a reliable probe would spend the retry
            # budget re-reaching the very peer we are measuring
            session.send_control(leaf_id, pid, "probe", reliable=False)
            yield env.timeout(period)
            if pid not in self.quarantined:
                return
            st = detector.monitored.get(pid)
            ok = st is not None and st.last_heard > sent_at
            successes = successes + 1 if ok else 0
            if env.hooks.tracer is not None:
                env.hooks.tracer.emit(
                    "health.probe",
                    pid,
                    ok=ok,
                    successes=successes,
                    required=pol.probe_successes,
                )
            if successes >= pol.probe_successes:
                self._readmit(pid, record, successes)
                return
            if session.leaf.decoder.complete:
                return

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
                required=self.policy.probe_successes,
            )

    def __repr__(self) -> str:
        return (
            f"<HealthMonitor {len(self.quarantined)} quarantined, "
            f"{self.quarantines} episodes, "
            f"{self.readmissions} readmissions>"
        )
