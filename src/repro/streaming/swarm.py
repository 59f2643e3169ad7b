"""Swarm streaming: many leaf joins against one shared contents-peer pool.

The paper evaluates one leaf at a time; the ROADMAP's [scale] item asks
what happens when a *crowd* of leaves arrives faster than the pool's
aggregate upload capacity absorbs.  This module runs that workload:

* a :class:`SwarmSpec` holds a ``SessionSpec``-shaped template, a
  :class:`~repro.streaming.faults.JoinStormPlan` (Poisson or flash-crowd
  leaf arrivals), an optional per-peer
  :class:`~repro.net.capacity.CapacityPolicy`, and an optional
  :class:`AdmissionPolicy`;
* a :class:`SwarmSession` builds ONE
  :class:`~repro.streaming.commons.Commons` (clock, RNG family, overlay,
  content, upload budgets, observers) from the template and hands it to
  every admitted leaf's
  :class:`~repro.streaming.session.StreamingSession` — the same
  constructor a single-leaf run uses.  The swarm owns only what is
  swarm-specific: a :class:`PeerHub` answering each physical contents
  peer's node (hosting one per-leaf
  :class:`~repro.streaming.contents_peer.ContentsPeerAgent` per served
  session and routing deliveries by the message's coordination
  context), admission, and the leaf lifecycle;
* the :class:`AdmissionController` grants a join only while the
  reachable pool has spare budget for another τ-rate stream; rejected
  leaves back off with full jitter and exponential backoff (the PR 6
  :class:`~repro.net.overlay.RetransmitPolicy` shape) and retry;
  admitted leaves hold a reservation until they finish (or their watch
  deadline passes), published as ``admit.*`` trace events the
  ``capacity`` auditor reconciles.

Under overload without admission, contents peers shed load by priority
(parity before data) and backpressure the rest — delivery degrades but
never collapses to zero; with admission, the pool serves fewer leaves at
full quality while the rest retry or give up.  The EX-O ablation sweeps
exactly this trade-off.

Determinism: arrivals draw from the dedicated ``swarm/joins`` stream and
retry jitter from ``swarm/backoff``; every other draw goes through the
session machinery's existing named streams, so equal seeds give
byte-identical trajectories under either scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.core.base import ProtocolConfig
from repro.net.capacity import CapacityPolicy
from repro.net.message import Message
from repro.net.overlay import Overlay, RetransmitPolicy
from repro.obs.audit import AuditConfig
from repro.obs.trace import TraceBus, TraceConfig
from repro.streaming.commons import Commons, detached
from repro.streaming.faults import JoinStormPlan
from repro.streaming.session import StreamingSession
from repro.streaming.spec import SessionSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.audit import AuditReport
    from repro.streaming.contents_peer import ContentsPeerAgent

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "LeafOutcome",
    "PeerHub",
    "SwarmResult",
    "SwarmSession",
    "SwarmSpec",
]


# ----------------------------------------------------------------------
# policies and spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdmissionPolicy:
    """Admission control for leaf joins against the shared pool.

    A join is admitted while ``reserved + τ ≤ pool_rate``, where
    ``pool_rate`` sums the upload budgets of *reachable* (non-crashed)
    contents peers.

    Rejected joins retry on :data:`ADMIT_RETRY`, the retransmit
    machinery's shape: ``max_retries`` attempts, base wait
    ``ack_timeout_deltas`` δ, exponential ``backoff``, and full uniform
    jitter over ``[1 − j/2, 1 + j/2]`` so simultaneous flash-crowd
    rejects de-align instead of re-colliding.  The policy has no per-run
    tuning.
    """


@dataclass(frozen=True)
class SwarmSpec:
    """Declarative description of one swarm run (picklable).

    ``session`` is the per-leaf template: every admitted leaf builds a
    :class:`~repro.streaming.session.StreamingSession` from it against
    the *shared* :class:`~repro.streaming.commons.Commons`.  The
    template must therefore leave
    swarm-owned concerns unset: fault and churn plans, tracing,
    auditing, spans, and per-session upload capacity all belong to the
    swarm.  Each leaf builds its own protocol instance from the template's
    :class:`~repro.streaming.spec.ProtocolSpec`.
    """

    session: SessionSpec
    join_plan: JoinStormPlan = field(default_factory=JoinStormPlan)
    #: finite upload budget applied to every contents peer; None keeps
    #: the seed's infinite uplink (admission then admits everyone)
    capacity: Optional[CapacityPolicy] = None
    #: admission control; None admits every join unconditionally
    admission: Optional[AdmissionPolicy] = None
    trace: Optional[TraceConfig] = None
    #: ``True`` (default) runs the ``capacity`` auditor; a full
    #: :class:`~repro.obs.audit.AuditConfig` picks any suite; None/False
    #: disables auditing
    audit: Union[AuditConfig, bool, None] = True

    def __post_init__(self) -> None:
        template = self.session
        owned = {
            "fault_plan": template.fault_plan,
            "churn_plan": template.churn_plan,
            "trace": template.trace,
            "audit": template.audit,
            "upload_capacity": template.upload_capacity,
            "spans": template.spans,
        }
        conflicts = [k for k, v in owned.items() if v is not None]
        if conflicts:
            raise ValueError(
                "swarm-owned concerns set on the session template: "
                + ", ".join(sorted(conflicts))
                + " (configure them on the SwarmSpec instead)"
            )

    # ------------------------------------------------------------------
    def build(self) -> "SwarmSession":
        return SwarmSession(self)

    def run(self, until: Optional[float] = None) -> "SwarmResult":
        return self.build().run(until=until)

    def replace(self, **changes) -> "SwarmSpec":
        return replace(self, **changes)

    def with_seed(self, seed: int) -> "SwarmSpec":
        return replace(self, session=self.session.with_seed(seed))

    def describe(self) -> str:
        plan = self.join_plan
        return (
            f"SwarmSpec({self.session.describe()}, leaves="
            f"{plan.total_leaves}, mode={plan.mode}, "
            f"rate={plan.rate_per_delta}/δ, "
            f"capacity={'finite' if self.capacity else 'infinite'}, "
            f"admission={'on' if self.admission else 'off'})"
        )


# ----------------------------------------------------------------------
# runtime pieces
# ----------------------------------------------------------------------
class PeerHub:
    """Answers one *physical* contents peer's node for every leaf session.

    Hosts one per-leaf
    :class:`~repro.streaming.contents_peer.ContentsPeerAgent` per served
    session and routes deliveries to the right agent by the message's
    coordination context (falling back to the source when a leaf sends
    untagged protocol traffic).
    """

    def __init__(self, overlay: Overlay, peer_id: str) -> None:
        self.node = overlay.add_node(peer_id, self._dispatch)
        #: leaf_id -> this peer's agent inside that leaf's session
        self.agents: Dict[str, "ContentsPeerAgent"] = {}
        #: deliveries no leaf's agent could be found for (should be 0)
        self.unroutable = 0

    def _dispatch(self, message: Message) -> None:
        # untagged leaf→peer protocol traffic: the sender identifies the
        # session
        ctx = message.ctx if message.ctx is not None else message.src
        agent = self.agents.get(ctx)
        if agent is None:
            self.unroutable += 1
            return
        agent._on_deliver(message)


class AdmissionController:
    """Reservation ledger over the reachable pool's aggregate budget."""

    def __init__(self, commons: Commons) -> None:
        self.commons = commons
        #: leaf_id -> reserved stream rate (packets/ms)
        self.reserved: Dict[str, float] = {}
        self.admits = 0
        self.rejects = 0
        self.releases = 0
        self.retries = 0

    @property
    def active(self) -> int:
        return len(self.reserved)

    def pool_rate(self) -> float:
        """Aggregate budget rate (packets/ms) of reachable peers."""
        total = 0.0
        for pid in self.commons.peer_ids:
            if self.commons.overlay.nodes[pid].down:
                continue
            budget = self.commons.budgets.get(pid)
            if budget is None:
                return math.inf
            total += budget.rate_per_ms
        return total

    def try_admit(self, leaf_id: str) -> bool:
        demand = self.commons.config.tau
        pool = self.pool_rate()
        used = math.fsum(self.reserved.values())
        if used + demand <= pool * (1.0 + 1e-12):
            self.reserved[leaf_id] = demand
            self.admits += 1
            self.commons.emit(
                "admit.grant", leaf_id,
                reserved=demand, used=used + demand, pool=pool,
                active=self.active,
            )
            return True
        self.rejects += 1
        self.commons.emit(
            "admit.reject", leaf_id,
            demand=demand, used=used, pool=pool, active=self.active,
        )
        return False

    def release(self, leaf_id: str) -> None:
        reserved = self.reserved.pop(leaf_id, None)
        if reserved is None:
            return
        self.releases += 1
        self.commons.emit(
            "admit.release", leaf_id,
            reserved=reserved, active=self.active,
        )


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------
@dataclass
class LeafOutcome:
    """One leaf's journey through the storm."""

    leaf_id: str
    arrived_at: Optional[float] = None
    #: admission attempts made (1 = admitted first try)
    attempts: int = 0
    admitted: bool = False
    admitted_at: Optional[float] = None
    #: retry budget exhausted without admission
    gave_up: bool = False
    #: receipt/delivery are snapshotted at the leaf's *watch deadline*
    #: (a few content durations after admission), not at end-of-sim
    #: quiescence — an overloaded swarm eventually drains everything, so
    #: only the deadline view distinguishes on-time streaming from a
    #: crawl.  A leaf that completes early snapshots at completion.
    receipt_rate: float = 0.0
    delivery_ratio: float = 0.0
    completed_at: Optional[float] = None
    #: True once the lifecycle snapshotted receipt/delivery (guards the
    #: end-of-run collector from overwriting the deadline view)
    measured: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "leaf_id": self.leaf_id,
            "arrived_at": self.arrived_at,
            "attempts": self.attempts,
            "admitted": self.admitted,
            "admitted_at": self.admitted_at,
            "gave_up": self.gave_up,
            "receipt_rate": self.receipt_rate,
            "delivery_ratio": self.delivery_ratio,
            "completed_at": self.completed_at,
        }


@dataclass
class SwarmResult:
    """Everything the harness reads from one swarm run."""

    config: ProtocolConfig
    protocol: str
    seed: int
    n_leaves: int
    outcomes: List[LeafOutcome]
    admitted: int
    gave_up: int
    retries: int
    #: peer_id -> media packets the peer sent, summed over every leaf
    peer_loads: Dict[str, int]
    #: mean leaf receipt rate over ALL arrivals (gave-up leaves count 0)
    #: — the load curve's honest y-axis: admission trades served leaves
    #: for quality, and this metric rewards neither cheaply
    mean_receipt_all: float = 0.0
    #: mean receipt rate over admitted leaves only
    mean_receipt_admitted: float = 0.0
    #: min delivery ratio over admitted leaves (1.0 when none)
    min_delivery_admitted: float = 1.0
    completed: int = 0
    shed_data: int = 0
    shed_parity: int = 0
    queued_sends: int = 0
    peak_backlog: int = 0
    #: deliveries a hub could not route to a leaf session (should be 0)
    unroutable: int = 0
    #: reservations still held when the run ended (should be 0)
    reservations_at_end: int = 0
    elapsed: float = 0.0
    trace: Union["TraceBus", Dict[str, Any], None] = field(
        default=None, repr=False, compare=False
    )
    audit: Union["AuditReport", Dict[str, Any], None] = field(
        default=None, repr=False, compare=False
    )

    @property
    def audit_passed(self) -> Optional[bool]:
        audit = self.audit
        if audit is None:
            return None
        return audit["passed"] if isinstance(audit, dict) else audit.passed

    def summary(self) -> str:
        return (
            f"{self.protocol} swarm: {self.admitted}/{self.n_leaves} "
            f"admitted, {self.completed} complete, "
            f"receipt(all)={self.mean_receipt_all:.3f}, "
            f"shed={self.shed_data}+{self.shed_parity}p, "
            f"audit={'pass' if self.audit_passed in (True, None) else 'FAIL'}"
        )

    def detach(self) -> "SwarmResult":
        """A picklable copy (live handles → exported dict forms)."""
        return detached(self, "trace", "audit")


# ----------------------------------------------------------------------
# the session
# ----------------------------------------------------------------------
#: stop watching an admitted-but-incomplete leaf this many nominal
#: content durations (l/τ) after its admission, releasing its
#: reservation — bounds simulation time under starvation
WATCH_DURATIONS = 4.0
#: a rejected join's retry budget, backoff and jitter
ADMIT_RETRY = RetransmitPolicy(
    max_retries=4, ack_timeout_deltas=8.0, backoff=2.0, jitter=0.5
)


class SwarmSession:
    """One multi-leaf run over a shared overlay (see module docstring)."""

    def __init__(self, spec: SwarmSpec) -> None:
        self.spec = spec
        template = spec.session
        config = template.config
        self.template = template
        self.config = config
        self.protocol_name = template.protocol.build().name
        audit = spec.audit
        if audit is True:
            audit = AuditConfig(auditors=("capacity",))
        elif audit is False:
            audit = None
        commons = Commons(template, spec.capacity, spec.trace, audit)
        self.commons = commons
        self.env = commons.env
        self.trace_bus: Optional[TraceBus] = commons.trace_bus
        self.overlay = commons.overlay
        self.peer_ids: List[str] = commons.peer_ids
        self.hubs: Dict[str, PeerHub] = {
            pid: PeerHub(self.overlay, pid) for pid in self.peer_ids
        }
        if self.trace_bus is not None:
            self.trace_bus.participants = list(self.peer_ids)
        # --- leaves ----------------------------------------------------
        #: leaf_id -> live per-leaf session (admitted leaves only)
        self.sessions: Dict[str, StreamingSession] = {}
        self.outcomes: Dict[str, LeafOutcome] = {}
        self.admission: Optional[AdmissionController] = None
        if spec.admission is not None:
            self.admission = AdmissionController(commons)
        self._backoff_rng = commons.streams.get("swarm/backoff")
        # swarm-level observers, bound without a session
        commons.observe()
        # --- arrivals ---------------------------------------------------
        join_rng = commons.streams.get("swarm/joins")
        offsets = spec.join_plan.arrival_offsets(config.delta, join_rng)
        self.leaf_ids: List[str] = [
            f"leaf{i}" for i in range(1, len(offsets) + 1)
        ]
        for leaf_id, at in zip(self.leaf_ids, offsets):
            self.outcomes[leaf_id] = LeafOutcome(leaf_id)
            self.env.process(self._leaf_lifecycle(leaf_id, at))

    # ------------------------------------------------------------------
    def _leaf_lifecycle(self, leaf_id: str, at: float):
        """Arrival → admission (with backoff retries) → stream → release."""
        if at > 0:
            yield self.env.timeout(at)
        outcome = self.outcomes[leaf_id]
        outcome.arrived_at = self.env.now
        self.commons.emit("admit.request", leaf_id, at=self.env.now)
        admitted = True
        if self.admission is not None:
            retry = ADMIT_RETRY
            wait = retry.ack_timeout_deltas * self.config.delta
            admitted = False
            for attempt in range(retry.max_retries + 1):
                outcome.attempts += 1
                if self.admission.try_admit(leaf_id):
                    admitted = True
                    break
                if attempt == retry.max_retries:
                    break
                # full jitter over [1 − j/2, 1 + j/2] — the PR 6 shape,
                # from the swarm's own deterministic stream
                jittered = wait * (
                    1.0
                    + retry.jitter * (float(self._backoff_rng.random()) - 0.5)
                )
                self.admission.retries += 1
                self.commons.emit(
                    "admit.retry", leaf_id,
                    attempt=attempt + 1, wait=jittered,
                )
                yield self.env.timeout(jittered)
                wait *= retry.backoff
        else:
            outcome.attempts = 1
        if not admitted:
            outcome.gave_up = True
            self.commons.emit(
                "admit.give_up", leaf_id, attempts=outcome.attempts
            )
            return
        outcome.admitted = True
        outcome.admitted_at = self.env.now
        session = StreamingSession(self.template, self.commons, leaf_id)
        for pid, agent in session.peers.items():
            self.hubs[pid].agents[leaf_id] = agent
        self.sessions[leaf_id] = session
        session.initiate()
        # --- watch: poll for completion, then release the reservation ---
        cfg = self.config
        duration = cfg.content_packets / cfg.tau
        deadline = self.env.now + WATCH_DURATIONS * duration + cfg.delta
        leaf = session.leaf
        while self.env.now < deadline:
            yield self.env.timeout(cfg.delta)
            if leaf.decoder.complete:
                break
        # deadline (or completion) snapshot — the QoE that counts.
        # Whatever dribbles in after the viewer's patience ran out is
        # still simulated (the run drains to quiescence) but no longer
        # credited to this leaf.
        outcome.receipt_rate = leaf.receipt_rate()
        outcome.delivery_ratio = leaf.decoder.delivery_ratio()
        outcome.completed_at = leaf.completed_at
        outcome.measured = True
        if self.admission is not None:
            self.admission.release(leaf_id)

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> SwarmResult:
        self.env.run(until=until)
        return self._collect()

    def _collect(self) -> SwarmResult:
        for leaf_id, session in self.sessions.items():
            outcome = self.outcomes[leaf_id]
            if not outcome.measured:
                # the run was truncated (run(until=...)) before this
                # leaf's watch deadline: fall back to the end-of-run view
                outcome.receipt_rate = session.leaf.receipt_rate()
                outcome.delivery_ratio = session.leaf.decoder.delivery_ratio()
            if outcome.completed_at is None:
                outcome.completed_at = session.leaf.completed_at
        reports = self.commons.finish(self.protocol_name)
        outcomes = [self.outcomes[l] for l in self.leaf_ids]
        admitted = [o for o in outcomes if o.admitted]
        gave_up = sum(1 for o in outcomes if o.gave_up)
        receipts_all = [o.receipt_rate for o in outcomes]
        receipts_admitted = [o.receipt_rate for o in admitted]
        deliveries = [o.delivery_ratio for o in admitted]
        budgets = list(self.commons.budgets.values())
        return SwarmResult(
            config=self.config,
            protocol=self.protocol_name,
            seed=self.config.seed,
            n_leaves=len(outcomes),
            outcomes=outcomes,
            admitted=len(admitted),
            gave_up=gave_up,
            retries=(
                self.admission.retries if self.admission is not None else 0
            ),
            peer_loads={
                pid: sum(
                    st.sent_count
                    for agent in hub.agents.values()
                    for st in agent.streams
                )
                for pid, hub in self.hubs.items()
            },
            mean_receipt_all=(
                math.fsum(receipts_all) / len(receipts_all)
                if receipts_all
                else 0.0
            ),
            mean_receipt_admitted=(
                math.fsum(receipts_admitted) / len(receipts_admitted)
                if receipts_admitted
                else 0.0
            ),
            min_delivery_admitted=(
                min(deliveries) if deliveries else 1.0
            ),
            completed=sum(
                1 for o in outcomes if o.completed_at is not None
            ),
            shed_data=sum(b.shed_data for b in budgets),
            shed_parity=sum(b.shed_parity for b in budgets),
            queued_sends=sum(b.queued_sends for b in budgets),
            peak_backlog=max(
                (b.peak_backlog for b in budgets), default=0
            ),
            unroutable=sum(h.unroutable for h in self.hubs.values()),
            reservations_at_end=(
                self.admission.active if self.admission is not None else 0
            ),
            elapsed=self.env.now,
            trace=self.trace_bus,
            **reports,
        )

    def __repr__(self) -> str:
        return (
            f"<SwarmSession {len(self.leaf_ids)} leaves over "
            f"{len(self.peer_ids)} peers t={self.env.now}>"
        )
