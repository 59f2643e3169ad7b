"""Streaming engine: transmitting peers, the receiving leaf, sessions.

* :class:`Stream` — one transmission plan (phased packet list + rate) on a
  contents peer; splits for child handoffs happen here.
* :class:`ContentsPeerAgent` — a contents peer: message handling delegated
  to the coordination protocol, transmit loops per stream.
* :class:`LeafPeerAgent` — the requesting leaf: receives media packets into
  a :class:`~repro.fec.ParityDecoder`, tracks arrival statistics, and can
  play the content back through a :class:`PlaybackBuffer`.
* :class:`SessionSpec` — a frozen, picklable *description* of one session
  (config + declarative protocol/latency/loss specs + plans/policies);
  ``spec.build()`` materializes the live :class:`StreamingSession`.  The
  canonical construction API.
* :class:`StreamingSession` — one leaf's run, built from a
  :class:`SessionSpec` and run to produce a :class:`SessionResult`: the
  leaf, its agent on every contents peer, protocol state and tolerance
  monitors.
* :class:`Commons` — what a run's leaves share, built once: clock, RNG
  family, trace bus, overlay, content, peer ids, upload budgets and the
  observers.  A session on its own builds a private one.
* :mod:`repro.streaming.faults` — one :class:`FaultPlan` of scripted
  faults (crashes, rejoins, degradations, flaps, one-way link cuts and
  partitions), fired by one fault process, plus :class:`ChurnPlan`'s
  ongoing crash/rejoin churn.
* :mod:`repro.streaming.detector` — leaf-side heartbeat failure detector.
* :mod:`repro.streaming.recoordination` — mid-stream residual re-flooding.
* :mod:`repro.streaming.swarm` — multi-leaf flash-crowd runs over one
  shared :class:`Commons`: :class:`SwarmSpec` + :class:`JoinStormPlan`
  drive many leaf sessions against finite per-peer upload budgets; the
  swarm itself owns only the hubs' routing, admission control with
  retry/backoff (:class:`AdmissionPolicy`) and the leaf lifecycle.
"""

from repro.core.base import HandoffPlan
from repro.streaming.stream import Phase, Stream
from repro.streaming.buffer import PlaybackBuffer
from repro.streaming.contents_peer import ContentsPeerAgent
from repro.streaming.leaf_peer import LeafPeerAgent
from repro.streaming.commons import Commons
from repro.streaming.session import SessionResult, StreamingSession
from repro.streaming.spec import (
    DetectorSpec,
    LatencySpec,
    LinkFaultSpec,
    LossSpec,
    ProtocolSpec,
    SessionSpec,
    available_factories,
)
from repro.streaming.faults import (
    ChurnPlan,
    FaultPlan,
    JoinStormPlan,
)
from repro.streaming.swarm import (
    AdmissionController,
    AdmissionPolicy,
    LeafOutcome,
    PeerHub,
    SwarmResult,
    SwarmSession,
    SwarmSpec,
)
from repro.streaming.detector import DetectorPolicy, FailureDetector, Heartbeat
from repro.streaming.health import HealthMonitor, HealthPolicy, QuarantineRecord
from repro.streaming.recoordination import HandoffRecord, ReCoordinator
from repro.streaming.repair import RepairMonitor, RepairPolicy, RepairRequest
from repro.streaming.adaptive import (
    AdaptRequest,
    RateAdaptationMonitor,
    RateAdaptationPolicy,
)

__all__ = [
    "AdaptRequest",
    "AdmissionController",
    "AdmissionPolicy",
    "RateAdaptationMonitor",
    "RateAdaptationPolicy",
    "ChurnPlan",
    "Commons",
    "ContentsPeerAgent",
    "DetectorPolicy",
    "DetectorSpec",
    "FailureDetector",
    "FaultPlan",
    "HandoffPlan",
    "HandoffRecord",
    "HealthMonitor",
    "HealthPolicy",
    "Heartbeat",
    "JoinStormPlan",
    "LatencySpec",
    "LeafOutcome",
    "LeafPeerAgent",
    "LinkFaultSpec",
    "LossSpec",
    "PeerHub",
    "Phase",
    "PlaybackBuffer",
    "ProtocolSpec",
    "QuarantineRecord",
    "ReCoordinator",
    "RepairMonitor",
    "RepairPolicy",
    "RepairRequest",
    "SessionResult",
    "SessionSpec",
    "Stream",
    "StreamingSession",
    "SwarmResult",
    "SwarmSession",
    "SwarmSpec",
    "available_factories",
]
