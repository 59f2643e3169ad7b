"""repro — reproduction of Itaya et al., *Distributed Coordination
Protocols to Realize Scalable Multimedia Streaming in Peer-to-Peer Overlay
Networks* (ICPP 2006).

Quick start::

    from repro import ProtocolConfig, ProtocolSpec, SessionSpec

    spec = SessionSpec(
        config=ProtocolConfig(n=100, H=60, fault_margin=1),
        protocol=ProtocolSpec("dcop"),
    )
    result = spec.run()
    print(result.summary())

Package map:

* :mod:`repro.sim` — discrete-event simulation kernel (built from scratch)
* :mod:`repro.net` — P2P overlay substrate (channels, latency, loss)
* :mod:`repro.media` — contents, packets, sequence algebra, time slots
* :mod:`repro.fec` — XOR parity enhancement / division / recovery
* :mod:`repro.core` — DCoP, TCoP and the baseline coordination protocols
* :mod:`repro.streaming` — contents/leaf peer agents, sessions, faults
* :mod:`repro.analysis` — closed-form models cross-checking the simulator
* :mod:`repro.metrics` — tables, sweep series, stats
* :mod:`repro.obs` — trace bus, time-series metrics, trace exporters,
  protocol auditors
* :mod:`repro.experiments` — one module per paper figure + ablations
"""

from repro.core import (
    BroadcastCoordination,
    CentralizedCoordination,
    DCoP,
    ProtocolConfig,
    ScheduleBasedCoordination,
    SingleSourceStreaming,
    TCoP,
    UnicastChainCoordination,
)
from repro.media import MediaContent
from repro.net.capacity import CapacityPolicy
from repro.net.overlay import RetransmitPolicy
from repro.obs import AuditConfig, AuditReport, TraceConfig
from repro.streaming import (
    AdmissionPolicy,
    ChurnPlan,
    DetectorSpec,
    FaultPlan,
    JoinStormPlan,
    LatencySpec,
    LinkCut,
    LinkFaultSpec,
    LossSpec,
    PartitionPlan,
    ProtocolSpec,
    SessionResult,
    SessionSpec,
    StreamingSession,
    SwarmResult,
    SwarmSpec,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionPolicy",
    "AuditConfig",
    "AuditReport",
    "BroadcastCoordination",
    "CapacityPolicy",
    "CentralizedCoordination",
    "ChurnPlan",
    "DCoP",
    "DetectorSpec",
    "FaultPlan",
    "JoinStormPlan",
    "RetransmitPolicy",
    "LatencySpec",
    "LinkCut",
    "LinkFaultSpec",
    "LossSpec",
    "MediaContent",
    "PartitionPlan",
    "ProtocolConfig",
    "ProtocolSpec",
    "SessionResult",
    "SessionSpec",
    "ScheduleBasedCoordination",
    "SingleSourceStreaming",
    "StreamingSession",
    "SwarmResult",
    "SwarmSpec",
    "TCoP",
    "TraceConfig",
    "UnicastChainCoordination",
    "__version__",
]
