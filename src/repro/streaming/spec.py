"""Declarative session specifications: every experiment as a picklable value.

A :class:`StreamingSession` is built from many models (latency, per-channel
loss and link faults, a protocol strategy, a failure detector) that as live
objects cannot cross a process boundary, be logged, or be diffed.  This
module closes that gap with a frozen :class:`SessionSpec` dataclass
capturing the whole session surface as plain data:

* each model field takes one small declarative spec
  (:class:`ProtocolSpec`, :class:`LatencySpec`, :class:`LossSpec`,
  :class:`LinkFaultSpec`, :class:`DetectorSpec`) that names a **registered
  factory** plus its keyword parameters — so a spec pickles
  byte-for-byte and ``spec.build()`` reconstructs the live session in any
  process; adding a model is one registry entry;
* the plan/policy knobs (:class:`~repro.streaming.faults.FaultPlan`,
  :class:`~repro.net.overlay.RetransmitPolicy`, …) are already frozen
  dataclasses and ride along unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Dict, Mapping, Optional

from repro.core.ams import AMSCoordination
from repro.core.base import ProtocolConfig
from repro.core.broadcast import BroadcastCoordination
from repro.core.centralized import CentralizedCoordination
from repro.core.dcop import DCoP
from repro.core.schedule_based import ScheduleBasedCoordination
from repro.core.single_source import SingleSourceStreaming
from repro.core.tcop import TCoP
from repro.core.unicast import UnicastChainCoordination
from repro.net.latency import ConstantLatency, NormalLatency, UniformLatency
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
class _Spec:
    """A factory of registry ``category`` by name, plus its keyword
    parameters: the one form every model field of a :class:`SessionSpec`
    takes."""

    category: ClassVar[str]
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> Any:
        return _get_factory(self.category, self.kind)(**dict(self.params))


class _ChannelSpec(_Spec):
    """A spec the overlay instantiates once per directed channel."""

    def factory(self) -> Callable[[], Any]:
        factory = _get_factory(self.category, self.kind)  # eager: unknown kind raises here
        params = dict(self.params)
        return lambda: factory(**params)  # fresh instance per channel


class LatencySpec(_Spec):
    """A registered latency model by name, e.g. ``LatencySpec("constant",
    {"delay": 10.0})``.  ``None`` in a :class:`SessionSpec` keeps the
    session's default per-pair δ·U(1−s, 1+s) draw."""

    category = "latency"


class LossSpec(_ChannelSpec):
    """A registered loss model by name; :meth:`factory` yields the
    per-channel factory the overlay consumes.

    Stateful models (Gilbert–Elliott keeps burst state) must never be
    shared across channels: a shared instance couples the burst processes
    of every link.  ``build()`` therefore constructs a new instance on
    every call, and :meth:`factory` — the per-channel path the overlay
    consumes — does the same, so two channels built from one spec get
    independent loss streams even at equal seeds.
    """

    category = "loss"


class LinkFaultSpec(_ChannelSpec):
    """A registered link fault by name, e.g. ``LinkFaultSpec("chaos",
    {"dup_p": 0.1, "reorder_p": 0.2, "max_delay": 20.0})``.

    Like :class:`LossSpec`, :meth:`factory` yields a per-channel factory:
    stateful faults start fresh on every directed link.
    """

    category = "link_fault"


class DetectorSpec(_Spec):
    """A registered detector policy by name, e.g. ``DetectorSpec(
    "accrual", {"phi_suspect": 1.0, "window": 8})`` (φ confirms at
    :data:`~repro.streaming.detector.PHI_CONFIRM`); ``DetectorSpec(
    "fixed")`` is the default miss-count
    :class:`~repro.streaming.detector.DetectorPolicy`."""

    category = "detector"


class ProtocolSpec(_Spec):
    """A registered coordination protocol by name, e.g.
    ``ProtocolSpec("single_source", {"server_id": "CP1"})``."""

    category = "protocol"


# ----------------------------------------------------------------------
# the session spec
# ----------------------------------------------------------------------
#: the one form each model field of a :class:`SessionSpec` takes; every
#: field but ``protocol`` may also be None
_FORMS = {
    "protocol": ProtocolSpec,
    "latency": LatencySpec,
    "loss": LossSpec,
    "control_loss": LossSpec,
    "link_fault": LinkFaultSpec,
    "detector_policy": DetectorSpec,
    "spans": SpanConfig,
}


@dataclass(frozen=True)
class SessionSpec:
    """One streaming run as a value.

    Captures everything :class:`~repro.streaming.session.StreamingSession`
    expresses — workload config, protocol, channel models, fault/churn
    plans, detector/retransmit/repair/adaptation policies, leaf-side
    capacity, trace config — as declarative data: each model field takes
    its registered spec (``_FORMS``), everything else is a plain frozen
    value.  A spec therefore pickles, crosses process boundaries, and
    rebuilds an identical session via :meth:`build`; equal specs with
    equal seeds produce byte-identical
    :class:`~repro.streaming.session.SessionResult` scalars in any
    process.
    """

    config: ProtocolConfig
    protocol: ProtocolSpec = field(default_factory=lambda: ProtocolSpec("dcop"))
    #: channel latency; None = the default per-pair δ·U(1−s, 1+s) draw
    latency: Optional[LatencySpec] = None
    #: media/control channel loss (built once per channel)
    loss: Optional[LossSpec] = None
    #: extra loss applied to control traffic only
    control_loss: Optional[LossSpec] = None
    #: per-directed-link fault process (duplicate/reorder/sever …)
    link_fault: Optional[LinkFaultSpec] = None
    #: scheduled overlay partition / one-way link cuts
    partition_plan: Optional[PartitionPlan] = None
    buffer_capacity: float = float("inf")
    playback: bool = False
    fault_plan: Optional[FaultPlan] = None
    repair_policy: Optional[RepairPolicy] = None
    adaptation_policy: Optional[RateAdaptationPolicy] = None
    leaf_receipt_rate: Optional[float] = None
    leaf_receive_buffer: float = 64.0
    #: finite per-peer upload budgets (packets/δ with backpressure queue
    #: and priority shedding): the one statement of each contents peer's
    #: uplink, which a weighted division reads too; None keeps the seed's
    #: infinite uplink
    upload_capacity: Optional[CapacityPolicy] = None
    retransmit_policy: Optional[RetransmitPolicy] = None
    #: failure detection
    detector_policy: Optional[DetectorSpec] = None
    #: gray-failure quarantine (requires a detector_policy)
    health_policy: Optional[HealthPolicy] = None
    churn_plan: Optional[ChurnPlan] = None
    trace: Optional[TraceConfig] = None
    #: protocol auditors; implies a default trace when none is set
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
    #: causal span tracing; implies a default trace when none is set.
    #: Passive — span-enabled runs follow byte-identical trajectories
    #: (see :mod:`repro.obs.spans`)
    spans: Optional[SpanConfig] = None

    def __post_init__(self) -> None:
        for name, form in _FORMS.items():
            value = getattr(self, name)
            if isinstance(value, form) or (value is None and name != "protocol"):
                continue
            raise TypeError(
                f"SessionSpec.{name} takes a {form.__name__}, "
                f"not {type(value).__name__}"
            )

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
        return (
            f"SessionSpec(protocol={self.protocol.kind}, n={cfg.n}, "
            f"H={cfg.H}, seed={cfg.seed})"
        )
