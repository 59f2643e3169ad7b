"""P2P overlay network substrate.

Models the paper's setting: every contents peer is connected to the leaf
peer (and to other contents peers) over a *logical channel* of the
underlying network.  A channel applies, in order:

1. an optional serialization delay (``size_bytes / bandwidth``),
2. a latency model (constant δ, uniform or normal jitter),
3. a loss model (none, Bernoulli, or bursty Gilbert–Elliott).

Messages that survive are handed to the destination node's ``on_deliver``
handler the instant they arrive.  The :class:`Overlay` owns nodes and
channels, creates channels lazily (full logical mesh) and keeps global traffic
statistics that the experiment harness reads (control-packet counts per
kind, per-channel deliveries and drops).
"""

from repro.net.message import Message
from repro.net.latency import ConstantLatency, LatencyModel, NormalLatency, UniformLatency
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss
from repro.net.linkfault import (
    CompositeFault,
    DropFault,
    DuplicateFault,
    LinkFault,
    ReorderFault,
    SeverWindow,
)
from repro.net.dedup import DedupWindow
from repro.net.capacity import CapacityPolicy, UploadBudget
from repro.net.channel import Channel, ChannelStats
from repro.net.node import Node
from repro.net.overlay import Overlay, TrafficStats

__all__ = [
    "BernoulliLoss",
    "CapacityPolicy",
    "Channel",
    "ChannelStats",
    "CompositeFault",
    "ConstantLatency",
    "DedupWindow",
    "DropFault",
    "DuplicateFault",
    "GilbertElliottLoss",
    "LatencyModel",
    "LinkFault",
    "LossModel",
    "Message",
    "NoLoss",
    "Node",
    "NormalLatency",
    "Overlay",
    "ReorderFault",
    "SeverWindow",
    "TrafficStats",
    "UniformLatency",
    "UploadBudget",
]
