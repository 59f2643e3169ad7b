"""Streaming session: one leaf's view of a run, and what it collects.

A session is built from a declarative
:class:`~repro.streaming.spec.SessionSpec` by ``spec.build()``.  Who owns
what: the :class:`~repro.streaming.commons.Commons` holds what the run's
leaves share (clock, RNG family, overlay, content, peer nodes, upload
budgets, observers); the session holds the leaf, its agent on every
contents peer, the protocol's state and the tolerance monitors
(control plane, detector, repair, adaptation, health).  On its own a
session builds a private commons and is the whole run; in a swarm
(:mod:`repro.streaming.swarm`) it joins the one every leaf shares.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.audit import AuditReport
    from repro.obs.spans import SpanReport
    from repro.streaming.adaptive import RateAdaptationMonitor
    from repro.streaming.health import HealthMonitor
    from repro.streaming.repair import RepairMonitor

from repro.core.base import ProtocolConfig, pick
from repro.net.message import Message
from repro.net.overlay import ControlPlane
from repro.obs.trace import TraceBus
from repro.streaming.commons import Commons, detached
from repro.streaming.contents_peer import ContentsPeerAgent
from repro.streaming.detector import FailureDetector
from repro.streaming.leaf_peer import LeafPeerAgent
from repro.streaming.recoordination import ReCoordinator, data_seqs_of
from repro.streaming.spec import SessionSpec


@dataclass
class SessionResult:
    """Everything the experiment harness reads from one run."""

    config: ProtocolConfig
    protocol: str
    #: peer_id -> activation time (ms)
    activation_times: Dict[str, float]
    #: time at which the last contents peer became active, or None
    sync_time: Optional[float]
    #: sync time expressed in δ rounds (the paper's Figures 10–11 y-axis)
    rounds: Optional[int]
    #: coordination messages sent up to (and including) the sync instant
    control_packets_at_sync: int
    #: coordination messages over the whole run
    control_packets_total: int
    messages_by_kind: Dict[str, int]
    #: leaf receipt rate normalized to the content rate (Fig. 12 y-axis)
    receipt_rate: float
    #: fraction of data packets held by the leaf (received or recovered)
    delivery_ratio: float
    recovered_packets: int
    duplicate_packets: int
    #: leaf playback stats (only meaningful when playback enabled)
    underruns: int
    #: packets dropped at the leaf because arrivals exceeded ρ_s (§3.1)
    receive_overruns: int
    #: data packets that arrived ahead of the leaf's contiguous prefix
    order_violations: int
    completed_at: Optional[float]
    elapsed: float
    # --- churn-tolerance metrics (defaults keep older call sites valid) ---
    #: control-plane retransmissions per message kind (empty without a
    #: retransmit policy)
    retransmissions_by_kind: Dict[str, int] = field(default_factory=dict)
    #: messages the control plane abandoned after exhausting retries
    retransmit_give_ups: int = 0
    #: duplicate control deliveries suppressed by msg-id dedup
    duplicates_suppressed: int = 0
    #: peers suspected (or confirmed) failed at collection time
    suspected_peers: List[str] = field(default_factory=list)
    confirmed_failures: List[str] = field(default_factory=list)
    #: suspicions raised against peers that were actually alive
    false_suspicions: int = 0
    #: peer -> ms from ground-truth crash to detector confirmation
    detection_latencies: Dict[str, float] = field(default_factory=dict)
    #: residual re-floods performed by the leaf
    recoordinations: int = 0
    #: mean ms from ground-truth crash to residual re-flood, when any
    mean_handoff_latency: Optional[float] = None
    # --- partition / link-fault metrics ----------------------------------
    #: extra message copies produced by duplicating link faults
    link_duplicates: int = 0
    #: link-fault duplicates suppressed by the agents' dedup windows
    link_duplicates_suppressed: int = 0
    #: packets playback abandoned under the buffer's skip policy
    playback_skips: int = 0
    # --- gray-failure / quarantine metrics -------------------------------
    #: circuit-breaker trips performed by the health monitor
    quarantines: int = 0
    #: quarantined peers readmitted after half-open probe successes
    readmissions: int = 0
    #: quarantines of peers no injected fault had touched
    false_quarantines: int = 0
    #: peers still quarantined at collection time
    quarantined_peers: List[str] = field(default_factory=list)
    # --- observability handles (present only when tracing was enabled) ---
    #: the session's :class:`~repro.obs.trace.TraceBus`, finalized — or,
    #: after :meth:`detach`, its exported JSON-able dict form
    trace: Union["TraceBus", Dict[str, Any], None] = field(
        default=None, repr=False, compare=False
    )
    #: sampled run time series as a :class:`~repro.metrics.series.SweepSeries`
    #: — or, after :meth:`detach`, its exported JSON-able dict form
    timeseries: Optional[object] = field(
        default=None, repr=False, compare=False
    )
    #: per-run :class:`~repro.obs.audit.AuditReport` (present only when
    #: auditing was enabled) — or, after :meth:`detach`, its dict form
    audit: Union["AuditReport", Dict[str, Any], None] = field(
        default=None, repr=False, compare=False
    )
    #: per-run :class:`~repro.obs.spans.SpanReport` (present only when
    #: span building was enabled) — or, after :meth:`detach`, its dict form
    spans: Union["SpanReport", Dict[str, Any], None] = field(
        default=None, repr=False, compare=False
    )

    @property
    def all_active(self) -> bool:
        return self.sync_time is not None

    @property
    def mean_detection_latency(self) -> Optional[float]:
        if not self.detection_latencies:
            return None
        values = list(self.detection_latencies.values())
        return sum(values) / len(values)

    @property
    def total_retransmissions(self) -> int:
        return sum(self.retransmissions_by_kind.values())

    def summary(self) -> str:
        return (
            f"{self.protocol}: n={self.config.n} H={self.config.H} "
            f"rounds={self.rounds} ctrl@sync={self.control_packets_at_sync} "
            f"ctrl total={self.control_packets_total} "
            f"rate={self.receipt_rate:.3f} delivery={self.delivery_ratio:.3f}"
        )

    def detach(self) -> "SessionResult":
        """A copy safe to pickle and ship across process boundaries.

        The runtime handles are swapped for their exported JSON-able
        forms: ``trace`` (a live :class:`~repro.obs.trace.TraceBus`
        holding the whole simulation object graph) becomes a dict of
        event records plus trace statistics, ``timeseries`` becomes
        the :func:`~repro.metrics.io.series_to_dict` payload, and
        ``audit`` becomes the report's ``to_dict()`` form.  Every
        scalar field is untouched.  Idempotent: detaching an already
        detached (or trace-less) result returns ``self``.

        ``run_specs`` detaches every result, so parallel and serial
        sweeps return identical value-only objects.
        """
        return detached(self, "trace", "timeseries", "audit", "spans")


class StreamingSession:
    """One simulated multi-source streaming run.

    Construct from a :class:`~repro.streaming.spec.SessionSpec` with
    ``spec.build()``; the spec captures every knob (protocol, channel
    models, fault plans, policies, observers) as a picklable value.  The
    defaults are the paper's regime: per-pair constant latency around δ,
    lossless channels, no playback modelling.
    """

    def __init__(
        self,
        spec: SessionSpec,
        commons: Optional[Commons] = None,
        leaf_id: Optional[str] = None,
    ) -> None:
        """Materialize ``spec`` into a session.

        Without ``commons`` the session is the whole run: it builds a
        private :class:`~repro.streaming.commons.Commons` from its own
        spec and owns it.  Handed one (by a swarm), it joins as leaf
        ``leaf_id`` and tags its control traffic with that id, the
        coordination context the swarm's hubs route replies by.
        """
        owner = commons is None
        if owner:
            commons = Commons(
                spec, spec.upload_capacity, spec.trace, spec.audit, spec.spans
            )
        config = spec.config
        detector_policy = (
            spec.detector_policy.build()
            if spec.detector_policy is not None
            else None
        )
        self.spec = spec
        self.config = config
        self.protocol = spec.protocol.build()
        self.commons = commons
        #: coordination-context tag stamped on this session's control
        #: traffic: the leaf id in a swarm, None otherwise
        self.ctx: Optional[str] = leaf_id
        #: batched media plane: per-slot window in ms (0 = per-packet)
        self.media_batch_window_ms = (
            spec.media_batch * config.delta if spec.media_batch > 0 else 0.0
        )
        self.env = commons.env
        self.streams = commons.streams
        self.trace_bus: Optional[TraceBus] = commons.trace_bus
        self.overlay = commons.overlay
        self.content = commons.content
        self.leaf = LeafPeerAgent(
            self,
            peer_id=leaf_id if leaf_id is not None else "leaf",
            playback=spec.playback,
            max_receipt_rate=spec.leaf_receipt_rate,
            receive_buffer_packets=spec.leaf_receive_buffer,
        )
        self.peer_ids: List[str] = commons.peer_ids
        self.peers: Dict[str, ContentsPeerAgent] = {
            pid: ContentsPeerAgent(self, pid) for pid in self.peer_ids
        }
        self.activation_log: List[tuple[str, float]] = []
        #: protocol-private per-session state (TCoP pending offers, …)
        self.protocol_state: dict = {}
        #: peers the protocol intends to activate (None = all of them);
        #: set by single-source / schedule-based strategies
        self.expected_active: Optional[set] = None
        self._initiated = False
        # --- churn-tolerance subsystems (all opt-in) -------------------
        self.control_plane: Optional[ControlPlane] = None
        if spec.retransmit_policy is not None:
            self.control_plane = ControlPlane(
                self.overlay, spec.retransmit_policy, config.delta
            )
            self.control_plane.ctx = self.ctx
            self.control_plane.on_give_up = self._on_control_give_up
        self.detector: Optional[FailureDetector] = None
        self.recoordinator: Optional[ReCoordinator] = None
        if detector_policy is not None:
            self.detector = FailureDetector(self, detector_policy)
            self.recoordinator = ReCoordinator(self)
            self.detector.on_confirm = self.recoordinator.handle_failure
        self.churn_plan = spec.churn_plan
        if spec.churn_plan is not None:
            spec.churn_plan.install(self)
        if spec.fault_plan is not None:
            spec.fault_plan.install(self)
        self.repair_monitor: Optional["RepairMonitor"] = None
        if spec.repair_policy is not None:
            from repro.streaming.repair import RepairMonitor

            self.repair_monitor = RepairMonitor(self)
        self.adaptation_monitor: Optional["RateAdaptationMonitor"] = None
        if spec.adaptation_policy is not None:
            from repro.streaming.adaptive import RateAdaptationMonitor

            self.adaptation_monitor = RateAdaptationMonitor(self)
        self.health: Optional["HealthMonitor"] = None
        if spec.health_policy is not None:
            from repro.streaming.health import HealthMonitor

            self.health = HealthMonitor(self)
        if not owner:
            # the swarm owns the observers; just announce this leaf as a
            # trace participant after the peers
            if self.trace_bus is not None:
                self.trace_bus.participants.append(self.leaf.peer_id)
            return
        if self.trace_bus is not None:
            self.trace_bus.participants = [self.leaf.peer_id, *self.peer_ids]
        commons.observe(self)

    # ------------------------------------------------------------------
    # reliable control plane
    # ------------------------------------------------------------------
    def send_control(
        self,
        src: str,
        dst: str,
        kind: str,
        body=None,
        *,
        size_bytes: Optional[int] = None,
        reliable: bool = True,
    ) -> None:
        """Send one coordination message.

        Routed through the :class:`~repro.net.overlay.ControlPlane` (ack +
        retransmit) when the session has one and ``reliable`` is left on;
        plain fire-and-forget otherwise.  Leaf-originated assignments are
        also registered with the failure detector so a peer that dies
        before its first heartbeat is still covered.
        """
        size = self.config.control_size if size_bytes is None else size_bytes
        if self.detector is not None and src == self.leaf.peer_id:
            assignment = getattr(body, "assignment", None)
            if assignment is not None:
                self.detector.expect(dst, data_seqs_of(assignment))
                if self.health is not None:
                    self.health.note_promise(dst, assignment.rate)
        if reliable and self.control_plane is not None:
            self.control_plane.send(src, dst, kind, body, size)
        else:
            self.overlay.send(
                src, dst, kind, body=body, size_bytes=size, ctx=self.ctx
            )

    def intercept_control(self, message: Message) -> bool:
        """Ack/dedup bookkeeping for an inbound message.

        Returns True when the message is consumed by the control plane
        (an ack, or a duplicate of an already-delivered retransmission).
        """
        if self.control_plane is None:
            return False
        return self.control_plane.intercept(message)

    def note_control_applied(self, receiver: str, message: Message) -> None:
        """An agent is about to *apply* a non-packet message.

        Emits the ``ctrl.apply`` trace event the duplicate-effect auditor
        checks: one logical control message (one wire ``uid``, one
        control-plane ``msg_id``) may change receiver state at most once.
        """
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "ctrl.apply",
                receiver,
                kind=message.kind,
                src=message.src,
                uid=message.uid,
                mid=message.msg_id,
            )

    def note_duplicate_suppressed(self, receiver: str, message: Message) -> None:
        """An agent's dedup window suppressed a link-fault duplicate."""
        self.overlay.traffic.link_dupes_suppressed_by_kind[message.kind] += 1
        if self.trace_bus is not None:
            self.trace_bus.emit(
                "msg.dedup",
                receiver,
                kind=message.kind,
                src=message.src,
                uid=message.uid,
            )

    def _on_control_give_up(self, src: str, dst: str, kind: str, body) -> None:
        """Retries exhausted toward ``dst``: treat it as unreachable.

        The abandoned assignment (if the message carried one) is noted as
        the destination's residual so re-coordination can re-flood it —
        this covers parent→child handoffs the leaf never witnessed (the
        parent, in effect, reports its failed handoff).
        """
        if self.detector is None or dst not in self.peers:
            return
        assignment = getattr(body, "assignment", None)
        if assignment is not None:
            self.detector.expect(dst, data_seqs_of(assignment))
        self.detector.report_unreachable(dst)

    # ------------------------------------------------------------------
    def record_activation(self, peer_id: str, time: float, hops: int) -> None:
        self.activation_log.append((peer_id, time, hops))
        if self.trace_bus is not None:
            self.trace_bus.emit("peer.activate", peer_id, round=hops)

    @property
    def selection_rng(self):
        """RNG stream for the leaf's initial selection."""
        return self.streams.get("select/leaf")

    def leaf_select(self, m: int) -> list[str]:
        """The leaf's random choice of ``m`` initial contents peers."""
        return pick(self.selection_rng, self.peer_ids, m)

    # ------------------------------------------------------------------
    def initiate(self) -> None:
        """Kick off coordination (idempotent); swarm joins call this
        directly since the shared environment is run by the swarm."""
        if not self._initiated:
            self.protocol.initiate(self)
            self._initiated = True

    def run(self, until: Optional[float] = None) -> SessionResult:
        """Initiate the protocol, run the simulation, collect metrics."""
        self.initiate()
        self.env.run(until=until)
        return self._collect()

    def _collect(self) -> SessionResult:
        cfg = self.config
        activation_times = {pid: t for pid, t, _h in self.activation_log}
        activation_hops = {pid: h for pid, _t, h in self.activation_log}
        expected = (
            self.expected_active
            if self.expected_active is not None
            else set(self.peer_ids)
        )
        live_peers = [
            p for p in self.peer_ids
            if p in expected and not self.peers[p].crashed
        ]
        all_active = all(pid in activation_times for pid in live_peers)
        sync_time: Optional[float] = None
        rounds: Optional[int] = None
        if all_active and activation_times and live_peers:
            sync_time = max(activation_times[pid] for pid in live_peers)
            # rounds are counted in coordination hops (request = 1), which
            # is exact regardless of per-pair latency heterogeneity
            rounds = max(activation_hops[pid] for pid in live_peers)

        traffic = self.overlay.traffic
        coordination_kinds = [
            k for k in traffic.sent_by_kind if k != "packet"
        ]
        total_ctrl = sum(traffic.sent_by_kind[k] for k in coordination_kinds)
        if sync_time is not None:
            # the send instants are in clock order: count t <= sync_time
            at_sync = bisect_right(
                traffic.coordination_send_times, sync_time + 1e-9
            )
        else:
            at_sync = total_ctrl

        decoder = self.leaf.decoder
        det = self.detector
        rec = self.recoordinator
        reports = {}  # the observers' reports: audit, spans, timeseries
        if self.commons.observed is self:
            reports = self.commons.finish(self.protocol.name)
        handoff_latencies = (
            [h.latency for h in rec.handoffs if h.latency is not None]
            if rec is not None
            else []
        )
        return SessionResult(
            config=cfg,
            protocol=self.protocol.name,
            activation_times=activation_times,
            sync_time=sync_time,
            rounds=rounds,
            control_packets_at_sync=at_sync,
            control_packets_total=total_ctrl,
            messages_by_kind=dict(traffic.sent_by_kind),
            receipt_rate=self.leaf.receipt_rate(),
            delivery_ratio=decoder.delivery_ratio(),
            recovered_packets=len(decoder.recovered),
            duplicate_packets=decoder.duplicate_count,
            underruns=self.leaf.buffer.underruns,
            receive_overruns=self.leaf.receive_overruns,
            order_violations=self.leaf.order_violations,
            completed_at=self.leaf.completed_at,
            elapsed=self.env.now,
            retransmissions_by_kind=dict(traffic.retransmissions_by_kind),
            retransmit_give_ups=sum(traffic.give_ups_by_kind.values()),
            duplicates_suppressed=sum(
                traffic.duplicates_suppressed_by_kind.values()
            ),
            suspected_peers=sorted(det.suspects) if det is not None else [],
            confirmed_failures=(
                sorted(det.confirmed_failures) if det is not None else []
            ),
            false_suspicions=det.false_suspicions if det is not None else 0,
            detection_latencies=(
                dict(det.detection_latencies) if det is not None else {}
            ),
            recoordinations=rec.recoordinations if rec is not None else 0,
            mean_handoff_latency=(
                sum(handoff_latencies) / len(handoff_latencies)
                if handoff_latencies
                else None
            ),
            link_duplicates=sum(traffic.duplicated_by_kind.values()),
            link_duplicates_suppressed=sum(
                traffic.link_dupes_suppressed_by_kind.values()
            ),
            playback_skips=self.leaf.buffer.skips,
            quarantines=(
                self.health.quarantines if self.health is not None else 0
            ),
            readmissions=(
                self.health.readmissions if self.health is not None else 0
            ),
            false_quarantines=(
                self.health.false_quarantines
                if self.health is not None
                else 0
            ),
            quarantined_peers=(
                sorted(self.health.quarantined)
                if self.health is not None
                else []
            ),
            trace=self.trace_bus,
            **reports,
        )

    def __repr__(self) -> str:
        return (
            f"<StreamingSession {self.protocol.name} n={self.config.n} "
            f"H={self.config.H} t={self.env.now}>"
        )
