"""Declarative session specifications: every experiment as a picklable value.

A :class:`StreamingSession` is configured through many callable-valued
knobs (latency models, loss *factories*, a protocol strategy instance) that
cannot cross a process boundary, be logged, or be diffed.  This module
closes that gap with a frozen :class:`SessionSpec` dataclass capturing the
whole session surface as plain data:

* the callable-valued knobs become small declarative specs
  (:class:`LatencySpec`, :class:`LossSpec`, :class:`ProtocolSpec`) that
  name a **registered factory** plus its keyword parameters — so a spec
  pickles byte-for-byte and ``spec.build()`` reconstructs the live session
  in any process;
* the plan/policy knobs (:class:`~repro.streaming.faults.FaultPlan`,
  :class:`~repro.streaming.detector.DetectorPolicy`, …) are already plain
  dataclasses and ride along unchanged;
* for convenience the model/protocol fields also accept live objects
  (a :class:`~repro.net.latency.LatencyModel` instance, a zero-arg loss
  factory, a protocol instance or class) — such a spec still builds, but
  is only picklable when the object itself is (lambdas and closures are
  not).  Declarative specs are the documented, always-serializable form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Union,
)

from repro.core.ams import AMSCoordination
from repro.core.base import CoordinationProtocol, ProtocolConfig
from repro.core.broadcast import BroadcastCoordination
from repro.core.centralized import CentralizedCoordination
from repro.core.dcop import DCoP
from repro.core.heterogeneous import (
    HeteroDCoP,
    HeterogeneousScheduleCoordination,
)
from repro.core.schedule_based import ScheduleBasedCoordination
from repro.core.single_source import SingleSourceStreaming
from repro.core.tcop import TCoP
from repro.core.unicast import UnicastChainCoordination
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    NormalLatency,
    UniformLatency,
)
from repro.net.linkfault import (
    CompositeFault,
    DuplicateFault,
    LatencySpikeFault,
    LinkFault,
    ReorderFault,
    SeverWindow,
    StutterFault,
)
from repro.net.capacity import CapacityPolicy
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss
from repro.net.overlay import RetransmitPolicy
from repro.obs.audit import AuditConfig
from repro.obs.spans import SpanConfig
from repro.obs.trace import TraceConfig
from repro.sim.sched import SCHEDULERS as _SCHEDULER_REGISTRY
from repro.streaming.adaptive import RateAdaptationPolicy
from repro.streaming.detector import DetectorPolicy
from repro.streaming.faults import ChurnPlan, FaultPlan, PartitionPlan
from repro.streaming.health import HealthPolicy
from repro.streaming.repair import RepairPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.streaming.session import SessionResult, StreamingSession

__all__ = [
    "DetectorSpec",
    "LatencySpec",
    "LinkFaultSpec",
    "LossSpec",
    "ProtocolSpec",
    "SessionSpec",
    "available_factories",
    "resolve_detector_policy",
    "resolve_latency",
    "resolve_link_fault_factory",
    "resolve_loss_factory",
    "resolve_protocol",
]


# ----------------------------------------------------------------------
# factories: every name a declarative spec may carry
# ----------------------------------------------------------------------
def _bursty_loss(rate: float, mean_burst: float = 3.0) -> LossModel:
    """Gilbert–Elliott chain with stationary loss ``rate`` and a mean
    burst of ``mean_burst`` packets — the parameterization every loss
    ablation uses (§3.2's "lost … in a bursty manner")."""
    if rate <= 0:
        return NoLoss()
    p_bg = 1 / mean_burst
    p_gb = min(1.0, rate * p_bg / max(1e-12, (1 - rate)))
    return GilbertElliottLoss(p_gb=p_gb, p_bg=p_bg)


def _chaos_fault(
    dup_p: float = 0.0,
    reorder_p: float = 0.0,
    max_delay: float = 1.0,
    copies: int = 2,
) -> LinkFault:
    """Duplication + bounded reorder jitter in one composable pipeline —
    the acceptance scenario's "duplicate p of control messages, reorder
    within a max_delay window"."""
    stages: list[LinkFault] = []
    if dup_p > 0:
        stages.append(DuplicateFault(p=dup_p, copies=copies))
    if reorder_p > 0:
        stages.append(ReorderFault(p=reorder_p, max_delay=max_delay))
    if not stages:
        raise ValueError("chaos fault needs dup_p > 0 or reorder_p > 0")
    if len(stages) == 1:
        return stages[0]
    return CompositeFault(tuple(stages))


def _gray_fault(
    stall: float = 0.0,
    period: float = 10.0,
    spike_p: float = 0.0,
    magnitude: float = 10.0,
    start: float = 0.0,
) -> LinkFault:
    """Stuttering stalls + latency spikes in one pipeline — the gray
    link that delivers everything, late and in bursts, while the peer
    behind it stays perfectly alive."""
    stages: list[LinkFault] = []
    if stall > 0:
        stages.append(StutterFault(period=period, stall=stall, start=start))
    if spike_p > 0:
        stages.append(LatencySpikeFault(p=spike_p, magnitude=magnitude))
    if not stages:
        raise ValueError("gray fault needs stall > 0 or spike_p > 0")
    if len(stages) == 1:
        return stages[0]
    return CompositeFault(tuple(stages))


def _fixed_detector(**params) -> DetectorPolicy:
    """The seed's fixed miss-count policy (compatibility mode)."""
    return DetectorPolicy(mode="fixed", **params)


def _accrual_detector(**params) -> DetectorPolicy:
    """φ-accrual suspicion over a sliding inter-heartbeat-gap window."""
    return DetectorPolicy(mode="accrual", **params)


#: category → name → factory.  A factory's keyword parameters are the
#: ``params`` of the spec that names it.  Loss and link-fault factories are
#: called once **per directed channel** at build time, so stateful models
#: (bursty loss keeps burst state) never share state across links.
_REGISTRIES: Dict[str, Dict[str, Callable[..., Any]]] = {
    "latency": {
        "constant": ConstantLatency,
        "uniform": UniformLatency,
        "normal": NormalLatency,
    },
    "loss": {
        "none": NoLoss,
        "bernoulli": BernoulliLoss,
        "gilbert_elliott": GilbertElliottLoss,
        "bursty": _bursty_loss,
    },
    "protocol": {
        "dcop": DCoP,
        "tcop": TCoP,
        "broadcast": BroadcastCoordination,
        "centralized": CentralizedCoordination,
        "schedule_based": ScheduleBasedCoordination,
        "single_source": SingleSourceStreaming,
        "unicast_chain": UnicastChainCoordination,
        "ams": AMSCoordination,
        "hetero_schedule": HeterogeneousScheduleCoordination,
        "hetero_dcop": HeteroDCoP,
    },
    "link_fault": {
        "duplicate": DuplicateFault,
        "reorder": ReorderFault,
        "sever": SeverWindow,
        "stutter": StutterFault,
        "spike": LatencySpikeFault,
        "chaos": _chaos_fault,
        "gray": _gray_fault,
    },
    "detector": {"fixed": _fixed_detector, "accrual": _accrual_detector},
    # the kernel owns the canonical scheduler registry
    # (repro.sim.sched.register_scheduler); aliasing the same dict here
    # makes available_factories("scheduler") see every registration
    "scheduler": _SCHEDULER_REGISTRY,
}


def _get_factory(category: str, name: str) -> Callable[..., Any]:
    registry = _REGISTRIES[category]
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry)) or "<none>"
        raise KeyError(
            f"no {category} factory registered as {name!r} "
            f"(available: {known})"
        ) from None


def available_factories(category: str) -> list[str]:
    """Factory names for ``'latency'``/``'loss'``/``'protocol'``/
    ``'link_fault'``/``'detector'``/``'scheduler'``."""
    return sorted(_REGISTRIES[category])


# ----------------------------------------------------------------------
# declarative model/protocol specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LatencySpec:
    """A registered latency model by name, e.g. ``LatencySpec("constant",
    {"delay": 10.0})``.  ``None`` in a :class:`SessionSpec` keeps the
    session's default per-pair δ·U(1−s, 1+s) draw."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> LatencyModel:
        return _get_factory("latency", self.kind)(**dict(self.params))


@dataclass(frozen=True)
class LossSpec:
    """A registered loss model by name; :meth:`factory` yields the
    per-channel factory the overlay consumes."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> LossModel:
        """One **fresh** model instance per call.

        Stateful models (Gilbert–Elliott keeps burst state) must never
        be shared across channels: a shared instance couples the burst
        processes of every link.  ``build()`` therefore constructs a new
        instance on every call, and :meth:`factory` — the per-channel
        path the overlay consumes — delegates to it, so two channels
        built from one spec get independent loss streams even at equal
        seeds.
        """
        return _get_factory("loss", self.kind)(**dict(self.params))

    def factory(self) -> Callable[[], LossModel]:
        factory = _get_factory("loss", self.kind)  # eager: unknown kind raises here
        params = dict(self.params)
        return lambda: factory(**params)  # fresh instance per channel


@dataclass(frozen=True)
class LinkFaultSpec:
    """A registered link fault by name, e.g. ``LinkFaultSpec("chaos",
    {"dup_p": 0.1, "reorder_p": 0.2, "max_delay": 20.0})``.

    Like :class:`LossSpec`, :meth:`factory` yields a per-channel factory:
    stateful faults start fresh on every directed link.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> LinkFault:
        return _get_factory("link_fault", self.kind)(**dict(self.params))

    def factory(self) -> Callable[[], LinkFault]:
        factory = _get_factory("link_fault", self.kind)
        params = dict(self.params)
        return lambda: factory(**params)


@dataclass(frozen=True)
class DetectorSpec:
    """A registered detector policy by name, e.g. ``DetectorSpec(
    "accrual", {"phi_suspect": 1.0, "phi_confirm": 3.0})``.

    Declarative twin of passing a
    :class:`~repro.streaming.detector.DetectorPolicy` directly.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> DetectorPolicy:
        return _get_factory("detector", self.kind)(**dict(self.params))


@dataclass(frozen=True)
class ProtocolSpec:
    """A registered coordination protocol by name, e.g.
    ``ProtocolSpec("single_source", {"server_id": "CP1"})``."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> CoordinationProtocol:
        return _get_factory("protocol", self.kind)(**dict(self.params))


#: what the protocol/model fields of a :class:`SessionSpec` accept
ProtocolLike = Union[
    ProtocolSpec, CoordinationProtocol, Callable[[], CoordinationProtocol]
]
LatencyLike = Union[LatencySpec, LatencyModel]
LossLike = Union[LossSpec, Callable[[], LossModel]]
LinkFaultLike = Union[LinkFaultSpec, Callable[[], LinkFault]]
DetectorLike = Union[DetectorSpec, DetectorPolicy]


def resolve_protocol(value: ProtocolLike) -> CoordinationProtocol:
    """Materialize the ``protocol`` field of a spec into an instance."""
    if isinstance(value, ProtocolSpec):
        return value.build()
    if isinstance(value, CoordinationProtocol):
        return value
    if callable(value):  # a protocol class or zero-arg factory
        protocol = value()
        if not isinstance(protocol, CoordinationProtocol):
            raise TypeError(
                f"protocol factory returned {type(protocol).__name__}, "
                "not a CoordinationProtocol"
            )
        return protocol
    raise TypeError(
        f"cannot build a protocol from {type(value).__name__}; pass a "
        "ProtocolSpec, a CoordinationProtocol, or a zero-arg factory"
    )


def resolve_latency(value: Optional[LatencyLike]) -> Optional[LatencyModel]:
    """Materialize the ``latency`` field of a spec."""
    if value is None or isinstance(value, LatencyModel):
        return value
    if isinstance(value, LatencySpec):
        return value.build()
    raise TypeError(
        f"cannot build a latency model from {type(value).__name__}; pass "
        "a LatencySpec or a LatencyModel instance"
    )


def resolve_loss_factory(
    value: Optional[LossLike],
) -> Optional[Callable[[], LossModel]]:
    """Materialize a loss field of a spec into a per-channel factory."""
    if value is None:
        return None
    if isinstance(value, LossSpec):
        return value.factory()
    if isinstance(value, LossModel):
        raise TypeError(
            "got a LossModel instance; loss knobs take a per-channel "
            "*factory* (stateful models must not be shared across "
            "channels) — pass a LossSpec or a zero-arg callable"
        )
    if callable(value):
        return value
    raise TypeError(
        f"cannot build a loss factory from {type(value).__name__}; pass "
        "a LossSpec or a zero-arg callable"
    )


def resolve_detector_policy(
    value: Optional[DetectorLike],
) -> Optional[DetectorPolicy]:
    """Materialize the ``detector_policy`` field of a spec."""
    if value is None or isinstance(value, DetectorPolicy):
        return value
    if isinstance(value, DetectorSpec):
        return value.build()
    raise TypeError(
        f"cannot build a detector policy from {type(value).__name__}; "
        "pass a DetectorSpec or a DetectorPolicy instance"
    )


def resolve_link_fault_factory(
    value: Optional[LinkFaultLike],
) -> Optional[Callable[[], LinkFault]]:
    """Materialize the ``link_fault`` field into a per-channel factory."""
    if value is None:
        return None
    if isinstance(value, LinkFaultSpec):
        return value.factory()
    if isinstance(value, LinkFault):
        raise TypeError(
            "got a LinkFault instance; the link_fault knob takes a "
            "per-channel *factory* (stateful faults must not be shared "
            "across links) — pass a LinkFaultSpec or a zero-arg callable"
        )
    if callable(value):
        return value
    raise TypeError(
        f"cannot build a link-fault factory from {type(value).__name__}; "
        "pass a LinkFaultSpec or a zero-arg callable"
    )


# ----------------------------------------------------------------------
# the session spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionSpec:
    """One streaming run as a value.

    Captures everything :class:`~repro.streaming.session.StreamingSession`
    expresses — workload config, protocol, channel models, fault/churn
    plans, detector/retransmit/repair/adaptation policies, leaf-side
    capacity, trace config — as declarative data.  A spec built purely
    from declarative parts (:class:`ProtocolSpec`/:class:`LatencySpec`/
    :class:`LossSpec` and the plain-dataclass plans and policies) pickles,
    crosses process boundaries, and rebuilds an identical session via
    :meth:`build`; equal specs with equal seeds produce byte-identical
    :class:`~repro.streaming.session.SessionResult` scalars in any
    process.
    """

    config: ProtocolConfig
    protocol: ProtocolLike = field(default_factory=lambda: ProtocolSpec("dcop"))
    #: channel latency; None = the default per-pair δ·U(1−s, 1+s) draw
    latency: Optional[LatencyLike] = None
    #: media/control channel loss (per-channel factory)
    loss: Optional[LossLike] = None
    #: extra loss applied to control traffic only
    control_loss: Optional[LossLike] = None
    #: per-directed-link fault process (duplicate/reorder/sever …)
    link_fault: Optional[LinkFaultLike] = None
    #: scheduled overlay partition / one-way link cuts
    partition_plan: Optional[PartitionPlan] = None
    buffer_capacity: float = float("inf")
    playback: bool = False
    fault_plan: Optional[FaultPlan] = None
    repair_policy: Optional[RepairPolicy] = None
    adaptation_policy: Optional[RateAdaptationPolicy] = None
    leaf_receipt_rate: Optional[float] = None
    leaf_receive_buffer: float = 64.0
    peer_capacities: Optional[Dict[str, float]] = None
    #: finite per-peer upload budget (packets/δ with backpressure queue
    #: and priority shedding); None keeps the seed's infinite uplink.
    #: Applied uniformly to every contents peer of the session.
    upload_capacity: Optional[CapacityPolicy] = None
    retransmit_policy: Optional[RetransmitPolicy] = None
    #: failure detection; a policy instance or a declarative DetectorSpec
    detector_policy: Optional[DetectorLike] = None
    #: gray-failure quarantine (requires a detector_policy)
    health_policy: Optional[HealthPolicy] = None
    churn_plan: Optional[ChurnPlan] = None
    trace: Optional[TraceConfig] = None
    #: online protocol auditors; implies a default trace when none is set
    audit: Optional[AuditConfig] = None
    #: event scheduler: a name registered with ``register_scheduler``
    #: (None = the binary heap).  Trajectories are identical across
    #: schedulers; the knob exists so a counting or perturbing scheduler
    #: can be slotted in from outside.
    scheduler: Optional[str] = None
    #: batched media plane: per-slot batch window in δ units (0 = off,
    #: per-packet delivery).  Batching preserves receipt/delivery
    #: semantics but is a *different* (coarser-grained) trajectory.
    media_batch: float = 0.0
    #: causal span tracing (``True`` for defaults); implies a default
    #: trace when none is set.  Passive — span-enabled runs follow
    #: byte-identical trajectories (see :mod:`repro.obs.spans`)
    spans: Union[SpanConfig, bool, None] = None

    # ------------------------------------------------------------------
    def build(self) -> "StreamingSession":
        """Reconstruct the live session this spec describes."""
        from repro.streaming.session import StreamingSession

        return StreamingSession(self)

    def run(self, until: Optional[float] = None) -> "SessionResult":
        """Build the session and run it to quiescence."""
        return self.build().run(until=until)

    def replace(self, **changes) -> "SessionSpec":
        """A copy with ``changes`` applied (:func:`dataclasses.replace`)."""
        return replace(self, **changes)

    def with_seed(self, seed: int) -> "SessionSpec":
        """A copy whose config carries ``seed`` (replication derivation)."""
        return replace(self, config=replace(self.config, seed=seed))

    def describe(self) -> str:
        """One-line human identification (used in error reports)."""
        cfg = self.config
        if isinstance(self.protocol, ProtocolSpec):
            proto = self.protocol.kind
        elif isinstance(self.protocol, CoordinationProtocol):
            proto = self.protocol.name
        else:
            proto = getattr(self.protocol, "__name__", repr(self.protocol))
        return (
            f"SessionSpec(protocol={proto}, n={cfg.n}, H={cfg.H}, "
            f"seed={cfg.seed})"
        )
